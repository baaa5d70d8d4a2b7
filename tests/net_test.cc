// Transport-subsystem tests (ISSUE 8): SimTransport's cost-model seam
// (legacy-identical accounting, typed unreachable-peer statuses, the
// retry/backoff knobs), the frame-level sim bus, and a three-node
// in-process ClusterNode cluster whose join/publish/record/learn/search
// life cycle must reproduce the simulation's rankings bit for bit — the
// in-process twin of the multi-process daemon smoke in tools/ci.sh.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/sprite_system.h"
#include "corpus/corpus.h"
#include "corpus/query.h"
#include "net/cluster.h"
#include "net/daemon.h"
#include "net/http.h"
#include "net/sim_transport.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/analyzer.h"

namespace sprite::net {
namespace {

using p2p::MessageType;

// --- SimTransport: the cost-model seam --------------------------------------

struct CostFixture {
  SimTransport bus;
  obs::MetricsRegistry metrics;
  double clock_ms = 0.0;
  bool peer_up = true;

  CostFixture() {
    bus.ConfigureCostModel(
        &metrics, /*tracer=*/nullptr, [this](p2p::PeerId) { return peer_up; },
        [this](double ms) { clock_ms += ms; });
  }

  // The net.* mirror of one message type's charges.
  uint64_t MirroredMessages(MessageType type) const {
    return metrics.counter("net.messages",
                           std::string(p2p::MessageTypeName(type)));
  }
  uint64_t MirroredBytes(MessageType type) const {
    return metrics.counter("net.bytes",
                           std::string(p2p::MessageTypeName(type)));
  }
};

TEST(SimTransportCostTest, AliveSendChargesLegacyBytes) {
  CostFixture f;
  const Status sent =
      f.bus.CostSend(7, MessageType::kPublishTerm, 44, CallOptions{});
  EXPECT_TRUE(sent.ok());
  // Exactly the header + payload the simulation has always booked.
  EXPECT_EQ(f.bus.stats().FramesOf(MessageType::kPublishTerm), 1u);
  EXPECT_EQ(f.bus.stats().BytesOf(MessageType::kPublishTerm),
            p2p::kMessageHeaderBytes + 44);
  // The net.* mirror agrees, and the ledger sees no failures.
  EXPECT_EQ(f.MirroredMessages(MessageType::kPublishTerm), 1u);
  EXPECT_EQ(f.MirroredBytes(MessageType::kPublishTerm),
            p2p::kMessageHeaderBytes + 44);
  EXPECT_EQ(f.bus.stats().TotalTimeouts(), 0u);
  EXPECT_EQ(f.bus.stats().TotalRetries(), 0u);
  EXPECT_EQ(f.clock_ms, 0.0);
}

TEST(SimTransportCostTest, DeadSendDefaultsMatchLegacyAccounting) {
  // The invariant that keeps every sim dump byte-identical: with the
  // default retries = 0 an unreachable peer costs exactly one request and
  // no response — plus, new with the transport, a typed status and a
  // timeout counter.
  CostFixture f;
  f.peer_up = false;
  const Status sent =
      f.bus.CostSend(7, MessageType::kVersionCheck, 20, CallOptions{});
  ASSERT_FALSE(sent.ok());
  EXPECT_TRUE(sent.IsDeadlineExceeded());
  EXPECT_EQ(sent.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(f.bus.stats().FramesOf(MessageType::kVersionCheck), 1u);
  EXPECT_EQ(f.bus.stats().BytesOf(MessageType::kVersionCheck),
            p2p::kMessageHeaderBytes + 20);
  EXPECT_EQ(f.MirroredMessages(MessageType::kVersionCheck), 1u);
  EXPECT_EQ(f.bus.stats().TimeoutsOf(MessageType::kVersionCheck), 1u);
  EXPECT_EQ(f.bus.stats().RetriesOf(MessageType::kVersionCheck), 0u);
  EXPECT_EQ(f.clock_ms, 0.0);  // no retries, no backoff waits
}

TEST(SimTransportCostTest, DeadSendRetriesChargeEveryAttempt) {
  CostFixture f;
  f.peer_up = false;
  CallOptions opts;
  opts.retries = 2;
  opts.backoff_ms = 200.0;
  const Status sent =
      f.bus.CostSend(7, MessageType::kVersionCheck, 20, opts);
  ASSERT_TRUE(sent.IsDeadlineExceeded());
  // Three request legs hit the wire (1 + 2 retries), each fully charged.
  EXPECT_EQ(f.bus.stats().FramesOf(MessageType::kVersionCheck), 3u);
  EXPECT_EQ(f.bus.stats().BytesOf(MessageType::kVersionCheck),
            3 * (p2p::kMessageHeaderBytes + 20));
  EXPECT_EQ(f.MirroredMessages(MessageType::kVersionCheck), 3u);
  EXPECT_EQ(f.MirroredBytes(MessageType::kVersionCheck),
            3 * (p2p::kMessageHeaderBytes + 20));
  EXPECT_EQ(f.bus.stats().RetriesOf(MessageType::kVersionCheck), 2u);
  EXPECT_EQ(f.bus.stats().TimeoutsOf(MessageType::kVersionCheck), 1u);
  // Exponential backoff advanced the simulated clock: 200 + 400 ms.
  EXPECT_EQ(f.clock_ms, 600.0);
}

TEST(SimTransportCostTest, ExchangeChargesBothLegs) {
  CostFixture f;
  const Status sent =
      f.bus.BeginExchange(3, MessageType::kVersionCheck, 20, CallOptions{});
  ASSERT_TRUE(sent.ok());
  f.bus.CompleteExchange(MessageType::kVersionCheck, p2p::kVersionBytes);
  const uint64_t both_legs = (p2p::kMessageHeaderBytes + 20) +
                             (p2p::kMessageHeaderBytes + p2p::kVersionBytes);
  EXPECT_EQ(f.bus.stats().FramesOf(MessageType::kVersionCheck), 2u);
  EXPECT_EQ(f.bus.stats().BytesOf(MessageType::kVersionCheck), both_legs);
  EXPECT_EQ(f.MirroredMessages(MessageType::kVersionCheck), 2u);
  EXPECT_EQ(f.MirroredBytes(MessageType::kVersionCheck), both_legs);
}

// --- SimTransport: the frame-level bus --------------------------------------

TEST(SimTransportFrameTest, CallDeliversFramesAndCountsBothLegs) {
  SimTransport bus;
  wire::Frame seen;
  bus.Register(5, [&](const wire::Frame& f) -> StatusOr<wire::Frame> {
    seen = f;
    wire::QueryResponse reply;
    reply.version = 3;
    return wire::ToFrame(reply);
  });
  wire::QueryRequest fetch;
  fetch.term = "abcdefghij";
  wire::Frame request = wire::ToFrame(fetch);
  PeerAddress to;
  to.id = 5;
  StatusOr<wire::Frame> response = bus.Call(to, request, CallOptions{});
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(seen.type, MessageType::kQueryRequest);
  EXPECT_EQ(response->type, MessageType::kQueryResponse);
  EXPECT_EQ(bus.stats().FramesOf(MessageType::kQueryRequest), 1u);
  EXPECT_EQ(bus.stats().FramesOf(MessageType::kQueryResponse), 1u);
  EXPECT_EQ(bus.stats().BytesOf(MessageType::kQueryRequest),
            request.wire_size());
}

TEST(SimTransportFrameTest, DownPeerSurfacesTypedTimeout) {
  SimTransport bus;
  bus.Register(5, [](const wire::Frame& f) -> StatusOr<wire::Frame> {
    return f;  // echo
  });
  bus.SetDown(5, true);
  wire::WithdrawTerm withdraw;
  withdraw.term = "abcdefghij";
  wire::Frame request = wire::ToFrame(withdraw);
  PeerAddress to;
  to.id = 5;
  CallOptions opts;
  opts.retries = 1;
  StatusOr<wire::Frame> response = bus.Call(to, request, opts);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsDeadlineExceeded());
  EXPECT_EQ(bus.stats().FramesOf(MessageType::kWithdrawTerm), 2u);
  EXPECT_EQ(bus.stats().RetriesOf(MessageType::kWithdrawTerm), 1u);
  EXPECT_EQ(bus.stats().TimeoutsOf(MessageType::kWithdrawTerm), 1u);
  // The partition heals: the same peer answers again.
  bus.SetDown(5, false);
  EXPECT_TRUE(bus.Call(to, request, opts).ok());
}

// --- ClusterNode: in-process three-node cluster -----------------------------

// The sim bus answers every call inline, so a ClusterNode operation over it
// is done before it returns; these run one and hand back its result.
StatusOr<ir::RankedList> SearchNow(ClusterNode& node,
                                   const std::vector<std::string>& terms,
                                   size_t k) {
  std::optional<StatusOr<ir::RankedList>> result;
  node.Search(terms, k, [&result](StatusOr<ir::RankedList> ranked) {
    result = std::move(ranked);
  });
  if (!result.has_value()) return Status::Internal("search still pending");
  return std::move(*result);
}

Status RecordNow(ClusterNode& node,
                 const std::vector<std::vector<std::string>>& queries) {
  std::optional<Status> result;
  node.RecordQueries(queries,
                     [&result](Status status) { result = std::move(status); });
  return result.value_or(Status::Internal("record still pending"));
}

Status ShareNow(ClusterNode& node, corpus::DocId id, const std::string& title,
                const std::string& text) {
  std::vector<corpus::Document> docs(1);
  docs[0].id = id;
  docs[0].title = title;
  docs[0].terms = text::Analyzer().AnalyzeToVector(text);
  std::optional<Status> result;
  node.ShareDocuments(std::move(docs),
                      [&result](Status status) { result = std::move(status); });
  return result.value_or(Status::Internal("share still pending"));
}

Status LearnNow(ClusterNode& node) {
  std::optional<Status> result;
  node.RunLearningIteration(
      [&result](Status status) { result = std::move(status); });
  return result.value_or(Status::Internal("learning still pending"));
}

const char* const kDocs[][2] = {
    {"Distributed hash tables",
     "distributed hash table routing protocols scale lookup chord pastry "
     "peer structured overlay routing lookup"},
    {"Text retrieval systems",
     "text retrieval ranking relevance vector model cosine similarity "
     "document term weighting retrieval ranking"},
    {"Peer to peer search",
     "peer search network overlay gnutella flooding query distributed "
     "search peer network"},
    {"Machine learning basics",
     "machine learning model training gradient feature weight learning "
     "model training data"},
    {"Information retrieval evaluation",
     "information retrieval evaluation precision recall benchmark trec "
     "judgment relevance evaluation precision"},
    {"Query driven learning",
     "query learning feedback cached history adaptive index term selection "
     "query feedback learning"}};

const char* const kQueries[] = {
    "distributed hash table lookup", "text retrieval ranking",
    "peer network search", "query learning feedback"};

class ClusterFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name : {"n0", "n1", "n2"}) {
      nodes_.push_back(std::make_unique<ClusterNode>(
          ClusterOptions{name, config_}, &bus_));
    }
    for (auto& node : nodes_) {
      ClusterNode* raw = node.get();
      bus_.Register(raw->self().id, [raw](const wire::Frame& f) {
        return raw->HandleFrame(f);
      });
    }
    PeerAddress bootstrap;
    bootstrap.id = nodes_[0]->self().id;
    ASSERT_TRUE(nodes_[1]->Join(bootstrap).ok());
    ASSERT_TRUE(nodes_[2]->Join(bootstrap).ok());
  }

  std::vector<std::string> Terms(const std::string& raw) const {
    return analyzer_.Analyze(raw);
  }

  core::SpriteConfig config_;
  SimTransport bus_;
  std::vector<std::unique_ptr<ClusterNode>> nodes_;
  text::Analyzer analyzer_;
};

TEST_F(ClusterFixture, JoinBuildsAConsistentFullView) {
  for (const auto& node : nodes_) {
    ASSERT_EQ(node->members().size(), 3u);
    // Sorted by ring id, and every node sees the same view.
    for (size_t i = 0; i + 1 < node->members().size(); ++i) {
      EXPECT_LT(node->members()[i].id, node->members()[i + 1].id);
    }
    for (size_t i = 0; i < node->members().size(); ++i) {
      EXPECT_EQ(node->members()[i].id, nodes_[0]->members()[i].id);
      EXPECT_EQ(node->members()[i].name, nodes_[0]->members()[i].name);
    }
  }
  // Key ownership is a pure function of the shared view: all nodes agree.
  for (const char* term : {"chord", "retrieval", "gradient", "recall"}) {
    const uint64_t key = nodes_[0]->KeyOfTerm(term);
    const uint64_t owner = nodes_[0]->OwnerOfKey(key).id;
    EXPECT_EQ(nodes_[1]->OwnerOfKey(key).id, owner);
    EXPECT_EQ(nodes_[2]->OwnerOfKey(key).id, owner);
  }
}

TEST_F(ClusterFixture, LifecycleMatchesSimulationBitForBit) {
  // The same workload drives the cluster and a reference SpriteSystem in
  // the training order of eval::TrainSystem (record -> share -> learn);
  // ranked lists must match score-for-score. This is the in-process twin
  // of the ci.sh multi-process smoke.
  constexpr size_t kTrainReps = 3;
  constexpr size_t kIterations = 2;
  constexpr size_t kTopK = 10;

  std::vector<corpus::Query> queries;
  for (size_t i = 0; i < std::size(kQueries); ++i) {
    queries.push_back(corpus::Query{static_cast<corpus::QueryId>(i + 1),
                                    corpus::DedupTerms(Terms(kQueries[i]))});
  }

  // Reference simulation over the identically analyzed corpus.
  corpus::Corpus corpus;
  for (const auto& doc : kDocs) {
    corpus.AddDocument(analyzer_.AnalyzeToVector(doc[1]), doc[0]);
  }
  core::SpriteSystem sim(config_);
  std::vector<const corpus::Query*> stream;
  for (size_t rep = 0; rep < kTrainReps; ++rep) {
    for (const corpus::Query& q : queries) stream.push_back(&q);
  }
  sim.RecordQueryEpoch(stream);
  ASSERT_TRUE(sim.ShareCorpus(corpus).ok());
  for (size_t i = 0; i < kIterations; ++i) sim.RunLearningIteration();

  // The cluster: node 0 issues the training queries, documents are shared
  // round-robin across the three nodes, every node runs its own learning
  // iterations (each node only retunes the documents it owns).
  for (size_t rep = 0; rep < kTrainReps; ++rep) {
    for (size_t i = 0; i < std::size(kQueries); ++i) {
      ASSERT_TRUE(RecordNow(*nodes_[0], {Terms(kQueries[i])}).ok());
    }
  }
  for (size_t i = 0; i < std::size(kDocs); ++i) {
    ASSERT_TRUE(ShareNow(*nodes_[i % 3], static_cast<corpus::DocId>(i),
                         kDocs[i][0], kDocs[i][1])
                    .ok());
  }
  for (size_t iter = 0; iter < kIterations; ++iter) {
    for (auto& node : nodes_) ASSERT_TRUE(LearnNow(*node).ok());
  }

  size_t documents = 0, indexed_terms = 0, postings = 0;
  for (const auto& node : nodes_) {
    const ClusterNode::Stats stats = node->GetStats();
    EXPECT_EQ(stats.members, 3u);
    documents += stats.documents;
    indexed_terms += stats.indexed_terms;
    postings += stats.postings;
  }
  EXPECT_EQ(documents, std::size(kDocs));
  EXPECT_GT(indexed_terms, 0u);
  EXPECT_GE(postings, indexed_terms);

  for (size_t i = 0; i < queries.size(); ++i) {
    StatusOr<ir::RankedList> cluster =
        SearchNow(*nodes_[0], Terms(kQueries[i]), kTopK);
    StatusOr<ir::RankedList> reference =
        sim.Search(queries[i], kTopK, /*record=*/false);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_FALSE(reference->empty()) << "query " << i;
    // ScoredDoc operator== compares doubles exactly: same docs, same
    // ranks, bit-identical scores.
    EXPECT_EQ(*cluster, *reference) << "query " << i;
  }
}

TEST_F(ClusterFixture, UnreachableMemberIsSkippedNotFatal) {
  for (size_t i = 0; i < std::size(kDocs); ++i) {
    ASSERT_TRUE(ShareNow(*nodes_[i % 3], static_cast<corpus::DocId>(i),
                         kDocs[i][0], kDocs[i][1])
                    .ok());
  }
  // Find a term whose responsible member is a remote node, then partition
  // that member.
  const uint64_t self_id = nodes_[0]->self().id;
  std::string remote_term;
  uint64_t victim = 0;
  for (const char* term : {"chord", "retrieval", "gradient", "recall",
                           "gnutella", "trec", "feedback"}) {
    const wire::NodeInfo& owner =
        nodes_[0]->OwnerOfKey(nodes_[0]->KeyOfTerm(term));
    if (owner.id != self_id) {
      remote_term = term;
      victim = owner.id;
      break;
    }
  }
  ASSERT_FALSE(remote_term.empty());
  bus_.SetDown(victim, true);

  // skip_unreachable_terms (the default, Section 7's first failure scheme):
  // the dead member's terms drop out, the query itself succeeds.
  StatusOr<ir::RankedList> ranked = SearchNow(*nodes_[0], {remote_term}, 10);
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  EXPECT_TRUE(ranked->empty());

  // Recording at a dead member surfaces the typed timeout, not a hang or a
  // generic failure.
  const Status recorded = RecordNow(*nodes_[0], {{remote_term}});
  EXPECT_TRUE(recorded.IsDeadlineExceeded());
  EXPECT_GT(bus_.stats().TotalTimeouts(), 0u);

  // Learning survives the partition (unreachable members are polled again
  // next round) and search recovers once the member heals.
  for (auto& node : nodes_) EXPECT_TRUE(LearnNow(*node).ok());
  bus_.SetDown(victim, false);
  ranked = SearchNow(*nodes_[0], {remote_term}, 10);
  ASSERT_TRUE(ranked.ok());
}

// A node serves five request types. Every other type, including the ones
// only the simulation charges, gets InvalidArgument without a parse; a
// served type with an empty payload reaches its parser and fails there.
TEST_F(ClusterFixture, UnservedFrameTypesGetInvalidArgument) {
  const std::vector<MessageType> served = {
      MessageType::kJoinRequest, MessageType::kPublishTerm,
      MessageType::kWithdrawTerm, MessageType::kQueryRequest,
      MessageType::kPollRequest};
  for (int i = 0; i < p2p::kNumMessageTypes; ++i) {
    wire::Frame frame;
    frame.type = static_cast<MessageType>(i);
    const std::string name(p2p::MessageTypeName(frame.type));
    StatusOr<wire::Frame> reply = nodes_[0]->HandleFrame(frame);
    ASSERT_FALSE(reply.ok()) << name;
    if (std::find(served.begin(), served.end(), frame.type) != served.end()) {
      EXPECT_EQ(reply.status().code(), StatusCode::kCorruption) << name;
    } else {
      EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument) << name;
    }
  }
}


// --- Transport RTT histograms (DESIGN.md §16) -------------------------------

TEST(TransportStatsTest, RttMirrorsIntoRegistryAndClearErases) {
  TransportStats stats;
  obs::MetricsRegistry reg;
  stats.AttachMetrics(&reg, /*mirror_traffic=*/true);
  stats.ObserveRtt(MessageType::kQueryRequest, 120.0);
  stats.ObserveRtt(MessageType::kQueryRequest, 80.0);
  stats.ObserveRtt(MessageType::kQueryRequest, -1.0);  // ignored
  EXPECT_EQ(stats.RttCountOf(MessageType::kQueryRequest), 2u);
  EXPECT_DOUBLE_EQ(stats.RttSumUsOf(MessageType::kQueryRequest), 200.0);
  const std::string label(p2p::MessageTypeName(MessageType::kQueryRequest));
  const Histogram* h = reg.histogram("transport.rtt_us", label);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_DOUBLE_EQ(h->sum(), 200.0);
  // The §8 reset contract: Clear erases the mirrored histogram too.
  stats.Clear();
  EXPECT_EQ(stats.RttCountOf(MessageType::kQueryRequest), 0u);
  EXPECT_DOUBLE_EQ(stats.RttSumUsOf(MessageType::kQueryRequest), 0.0);
  EXPECT_EQ(reg.histogram("transport.rtt_us", label), nullptr);
}

TEST(TransportStatsTest, DialsMirrorWithTrafficAndClearErases) {
  TransportStats stats;
  obs::MetricsRegistry reg;
  stats.AttachMetrics(&reg, /*mirror_traffic=*/true);
  stats.CountDial();
  stats.CountDial();
  EXPECT_EQ(stats.dials(), 2u);
  EXPECT_EQ(reg.counter("transport.dials"), 2u);
  // The §8 reset contract: Clear erases the mirrored counter too.
  stats.Clear();
  EXPECT_EQ(stats.dials(), 0u);
  EXPECT_EQ(reg.num_counters(), 0u);
  // The sim backend's configuration never mirrors dials.
  stats.AttachMetrics(&reg, /*mirror_traffic=*/false);
  stats.CountDial();
  EXPECT_EQ(stats.dials(), 1u);
  EXPECT_EQ(reg.num_counters(), 0u);
}

TEST(TransportStatsTest, SimBackendNeverMirrorsRttWallTime) {
  // mirror_traffic=false is the sim backend's configuration: local RTT
  // arrays may count, but no wall time leaks into the registry dumps.
  TransportStats stats;
  obs::MetricsRegistry reg;
  stats.AttachMetrics(&reg, /*mirror_traffic=*/false);
  stats.ObserveRtt(MessageType::kQueryRequest, 10.0);
  EXPECT_EQ(stats.RttCountOf(MessageType::kQueryRequest), 1u);
  EXPECT_EQ(reg.num_histograms(), 0u);
}

TEST_F(ClusterFixture, OneRecordBatchEqualsRecordingOneByOne) {
  // A batch far wider than the in-flight window, answered inline by the sim
  // bus, records exactly what one call per query does.
  std::vector<std::vector<std::string>> stream;
  for (size_t rep = 0; rep < 40; ++rep) {
    for (const char* q : kQueries) stream.push_back(Terms(q));
  }
  SimTransport other_bus;
  std::vector<std::unique_ptr<ClusterNode>> others;
  for (const char* name : {"n0", "n1", "n2"}) {
    others.push_back(std::make_unique<ClusterNode>(
        ClusterOptions{name, config_}, &other_bus));
  }
  for (auto& node : others) {
    ClusterNode* raw = node.get();
    other_bus.Register(raw->self().id, [raw](const wire::Frame& f) {
      return raw->HandleFrame(f);
    });
  }
  PeerAddress bootstrap;
  bootstrap.id = others[0]->self().id;
  ASSERT_TRUE(others[1]->Join(bootstrap).ok());
  ASSERT_TRUE(others[2]->Join(bootstrap).ok());

  ASSERT_TRUE(RecordNow(*nodes_[0], stream).ok());
  for (const auto& query : stream) {
    ASSERT_TRUE(RecordNow(*others[0], {query}).ok());
  }
  const uint64_t frames =
      bus_.stats().FramesOf(MessageType::kQueryRequest);
  EXPECT_GT(frames, ClusterNode::kMaxInFlight);
  EXPECT_EQ(frames, other_bus.stats().FramesOf(MessageType::kQueryRequest));
  for (size_t i = 0; i < nodes_.size(); ++i) {
    EXPECT_EQ(nodes_[i]->GetStats().history_records,
              others[i]->GetStats().history_records);
  }
  for (size_t i = 0; i < std::size(kDocs); ++i) {
    for (auto* set : {&nodes_, &others}) {
      ASSERT_TRUE(ShareNow(*(*set)[i % 3], static_cast<corpus::DocId>(i),
                           kDocs[i][0], kDocs[i][1])
                      .ok());
    }
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    ASSERT_TRUE(LearnNow(*nodes_[i]).ok());
    ASSERT_TRUE(LearnNow(*others[i]).ok());
  }
  for (const char* q : kQueries) {
    StatusOr<ir::RankedList> batch = SearchNow(*nodes_[0], Terms(q), 10);
    StatusOr<ir::RankedList> single = SearchNow(*others[0], Terms(q), 10);
    ASSERT_TRUE(batch.ok() && single.ok());
    EXPECT_EQ(*batch, *single) << q;
  }
  // An empty query fails the batch before anything is sent.
  const uint64_t before = bus_.stats().TotalFrames();
  EXPECT_EQ(RecordNow(*nodes_[0], {Terms(kQueries[0]), {}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(bus_.stats().TotalFrames(), before);
}

// --- Daemon HTTP frontend ---------------------------------------------------

// A one-node daemon answers every request before HandleHttp returns: its
// searches and records only reach itself.
HttpResponse Answer(Daemon& daemon, const HttpRequest& req) {
  std::optional<HttpResponse> answer;
  daemon.HandleHttp(req, [&answer](HttpResponse resp) {
    answer = std::move(resp);
  });
  return answer.value_or(HttpResponse{0, "", "still pending"});
}

TEST(DaemonHttpTest, SearchRejectsKThatIsNotAWholeNumber) {
  DaemonOptions options;
  options.name = "solo";
  Daemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  HttpRequest publish;
  publish.method = "POST";
  publish.path = "/publish";
  publish.body = "1\tCats\tcat whiskers fur\n2\tMore cats\tcat purr\n";
  ASSERT_EQ(Answer(daemon, publish).status, 200);

  HttpRequest search;
  search.method = "GET";
  search.path = "/search";
  search.params["q"] = "cat";
  const auto count_docs = [&](const std::string& k) {
    search.params["k"] = k;
    const HttpResponse resp = Answer(daemon, search);
    EXPECT_EQ(resp.status, 200) << "k=" << k;
    size_t docs = 0;
    for (size_t at = resp.body.find("\"doc\""); at != std::string::npos;
         at = resp.body.find("\"doc\"", at + 1)) {
      ++docs;
    }
    return docs;
  };
  EXPECT_EQ(count_docs("1"), 1u);
  EXPECT_EQ(count_docs("2"), 2u);
  for (const char* bad : {"abc", "", "10x", "-1", "+1", " 1",
                          "99999999999999999999999"}) {
    search.params["k"] = bad;
    EXPECT_EQ(Answer(daemon, search).status, 400) << "k=" << bad;
  }
}

TEST(DaemonHttpTest, PublishRejectsDocIdThatIsNotAWholeNumber) {
  DaemonOptions options;
  options.name = "solo";
  Daemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  HttpRequest publish;
  publish.method = "POST";
  publish.path = "/publish";
  for (const char* bad : {"abc", "-1", "12x", "", " 7", "+7", "4294967296",
                          "4294967295"}) {
    publish.body = "# header\n" + std::string(bad) + "\tDogs\tdog bark\n";
    const HttpResponse resp = Answer(daemon, publish);
    EXPECT_EQ(resp.status, 400) << "id=" << bad;
    EXPECT_NE(resp.body.find("line 2"), std::string::npos) << resp.body;
  }
  publish.body = "4294967294\tLast\tlast id that fits\n";
  EXPECT_EQ(Answer(daemon, publish).status, 200);
  HttpRequest stats;
  stats.method = "GET";
  stats.path = "/stats";
  // No malformed id was published under some parsed prefix of it.
  EXPECT_NE(Answer(daemon, stats).body.find("\"documents\":1,"),
            std::string::npos);
}

TEST(DaemonHttpTest, PublishRejectsADocIdAlreadyShared) {
  DaemonOptions options;
  options.name = "solo";
  Daemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  HttpRequest publish;
  publish.method = "POST";
  publish.path = "/publish";
  publish.body = "7\tfirst\talpha alpha beta gamma\n";
  ASSERT_EQ(Answer(daemon, publish).status, 200);
  HttpRequest search;
  search.method = "GET";
  search.path = "/search";
  search.params["q"] = "alpha";
  const std::string first = Answer(daemon, search).body;
  ASSERT_NE(first.find("\"doc\":7"), std::string::npos) << first;

  // An id this daemon already shares, and one that repeats in the body:
  // 409 naming the line, and nothing of the body is shared.
  for (const char* body : {"7\tsecond\tdelta delta epsilon zeta\n",
                           "8\tthird\tdelta zeta\n# note\n8\tfourth\teta\n"}) {
    publish.body = body;
    const HttpResponse resp = Answer(daemon, publish);
    EXPECT_EQ(resp.status, 409) << body;
    const char* line = body[0] == '7' ? "line 1" : "line 3";
    EXPECT_NE(resp.body.find(line), std::string::npos) << resp.body;
  }
  search.params["q"] = "delta";
  EXPECT_EQ(Answer(daemon, search).body, "{\"results\":[]}");
  search.params["q"] = "alpha";
  EXPECT_EQ(Answer(daemon, search).body, first);
  HttpRequest stats;
  stats.method = "GET";
  stats.path = "/stats";
  EXPECT_NE(Answer(daemon, stats).body.find("\"documents\":1,"),
            std::string::npos);
}

// --- Trace propagation: the sim bus stays byte-clean ------------------------

TEST(SimTransportFrameTest, SimBusFramesCarryNoTraceContext) {
  SimTransport bus;
  wire::Frame seen;
  bus.Register(5, [&](const wire::Frame& f) -> StatusOr<wire::Frame> {
    seen = f;
    return f;
  });
  wire::WithdrawTerm withdraw;
  withdraw.term = "abcdefghij";
  PeerAddress to;
  to.id = 5;
  ASSERT_TRUE(bus.Call(to, wire::ToFrame(withdraw), CallOptions{}).ok());
  EXPECT_EQ(seen.flags & wire::kFlagTraced, 0);
  EXPECT_FALSE(seen.traced());
  // Encoded, a sim-bus frame keeps the v1 reserved bytes all-zero — the
  // invariant the golden frame dumps rely on.
  const std::vector<uint8_t> bytes = wire::EncodeFrame(seen);
  ASSERT_GE(bytes.size(), wire::kHeaderBytes);
  for (size_t i = 40; i < 48; ++i) {
    EXPECT_EQ(bytes[i], 0) << "reserved byte " << i;
  }
}

// --- Observability attachment: determinism guard (DESIGN.md §16) ------------

struct LifecycleDump {
  std::string results;
  std::string trace;
  std::string metrics;
};

// The ClusterFixture workload with a registry + tracer attached (the live
// daemon's wiring) — but on the sim bus with the tracer's default SimClock
// and zero id salt, so dumps must be deterministic.
LifecycleDump RunObservedLifecycle(bool attach) {
  core::SpriteConfig config;
  SimTransport bus;
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  tracer.set_enabled(attach);
  text::Analyzer analyzer;
  std::vector<std::unique_ptr<ClusterNode>> nodes;
  for (const char* name : {"n0", "n1", "n2"}) {
    nodes.push_back(std::make_unique<ClusterNode>(
        ClusterOptions{name, config}, &bus));
    if (attach) nodes.back()->AttachObservability(&metrics, &tracer);
  }
  for (auto& node : nodes) {
    ClusterNode* raw = node.get();
    bus.Register(raw->self().id, [raw](const wire::Frame& f) {
      return raw->HandleFrame(f);
    });
  }
  PeerAddress bootstrap;
  bootstrap.id = nodes[0]->self().id;
  EXPECT_TRUE(nodes[1]->Join(bootstrap).ok());
  EXPECT_TRUE(nodes[2]->Join(bootstrap).ok());
  for (size_t rep = 0; rep < 2; ++rep) {
    for (const char* q : kQueries) {
      EXPECT_TRUE(RecordNow(*nodes[0], {analyzer.Analyze(q)}).ok());
    }
  }
  for (size_t i = 0; i < std::size(kDocs); ++i) {
    EXPECT_TRUE(ShareNow(*nodes[i % 3], static_cast<corpus::DocId>(i),
                         kDocs[i][0], kDocs[i][1])
                    .ok());
  }
  for (auto& node : nodes) EXPECT_TRUE(LearnNow(*node).ok());
  LifecycleDump dump;
  for (const char* q : kQueries) {
    StatusOr<ir::RankedList> ranked =
        SearchNow(*nodes[0], analyzer.Analyze(q), 10);
    EXPECT_TRUE(ranked.ok());
    if (!ranked.ok()) continue;
    for (const auto& scored : *ranked) {
      uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(scored.score));
      std::memcpy(&bits, &scored.score, sizeof(bits));
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%u:%llx ", scored.doc,
                    static_cast<unsigned long long>(bits));
      dump.results += buf;
    }
    dump.results += "\n";
  }
  dump.trace = tracer.ToJsonl();
  dump.metrics = metrics.Snapshot().ToJson();
  return dump;
}

TEST(ClusterObservabilityTest, AttachingObservabilityChangesNoResultByte) {
  const LifecycleDump off = RunObservedLifecycle(false);
  const LifecycleDump on = RunObservedLifecycle(true);
  ASSERT_GT(off.results.size(), 20u);
  EXPECT_EQ(off.results, on.results);
  // The attached run really traced: the sim span vocabulary appears, so
  // trace_report's phase tables work on live dumps too.
  EXPECT_NE(on.trace.find("\"name\":\"search\""), std::string::npos);
  EXPECT_NE(on.trace.find("\"name\":\"fetch\""), std::string::npos);
  EXPECT_NE(on.trace.find("\"name\":\"rank\""), std::string::npos);
  EXPECT_NE(on.trace.find("\"name\":\"learning.iteration\""),
            std::string::npos);
  EXPECT_NE(on.metrics.find("cluster.searches"), std::string::npos);
}

TEST(ClusterObservabilityTest, ObservedLifecycleDumpsAreByteIdentical) {
  const LifecycleDump a = RunObservedLifecycle(true);
  const LifecycleDump b = RunObservedLifecycle(true);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.metrics, b.metrics);
}

}  // namespace
}  // namespace sprite::net
