// Transport-subsystem tests (ISSUE 8): SimTransport's cost-model seam
// (legacy-identical accounting, typed unreachable-peer statuses, the
// retry/backoff knobs), the frame-level sim bus, and a three-node
// in-process ClusterNode cluster whose join/publish/record/learn/search
// life cycle must reproduce the simulation's rankings bit for bit — the
// in-process twin of the multi-process daemon smoke in tools/ci.sh — and
// whose incremental polls pull what the simulation's pull, also across a
// node's restart.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
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

// Serves `node`'s frames on `bus`, in place of any node with its id.
void Serve(SimTransport& bus, ClusterNode* node) {
  bus.Register(node->self().id,
               [node](const wire::Frame& f) { return node->HandleFrame(f); });
}

// Starts n0, n1 and n2 on `bus`; n1 and n2 join through n0.
void StartCluster(SimTransport& bus, const core::SpriteConfig& config,
                  std::vector<std::unique_ptr<ClusterNode>>* nodes) {
  for (const char* name : {"n0", "n1", "n2"}) {
    nodes->push_back(
        std::make_unique<ClusterNode>(ClusterOptions{name, config}, &bus));
    Serve(bus, nodes->back().get());
  }
  PeerAddress bootstrap;
  bootstrap.id = (*nodes)[0]->self().id;
  ASSERT_TRUE((*nodes)[1]->Join(bootstrap).ok());
  ASSERT_TRUE((*nodes)[2]->Join(bootstrap).ok());
}

class ClusterFixture : public ::testing::Test {
 protected:
  void SetUp() override { StartCluster(bus_, config_, &nodes_); }

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

// A poll must carry one cursor per my-term. The cursor block is the rest
// of the payload, so a request with too few or too many cursors parses and
// the node rejects it.
TEST_F(ClusterFixture, PollWithCursorsNotParallelToMyTermsIsInvalid) {
  wire::PollRequest req;
  req.poll_terms = {"chord", "lookup"};
  req.my_terms = {"chord", "lookup"};
  for (const size_t cursors : {size_t{0}, size_t{1}, size_t{3}}) {
    req.cursors.assign(cursors, p2p::PollCursor{});
    StatusOr<wire::Frame> reply = nodes_[0]->HandleFrame(wire::ToFrame(req));
    ASSERT_FALSE(reply.ok()) << cursors;
    EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument) << cursors;
  }
  req.cursors.assign(2, p2p::PollCursor{});
  EXPECT_TRUE(nodes_[0]->HandleFrame(wire::ToFrame(req)).ok());
}

// --- Incremental polls ------------------------------------------------------

// Each of `raw` analyzed, the whole list `reps` times over.
std::vector<std::vector<std::string>> Stream(
    const text::Analyzer& analyzer, const std::vector<const char*>& raw,
    size_t reps) {
  std::vector<std::vector<std::string>> stream;
  for (size_t rep = 0; rep < reps; ++rep) {
    for (const char* q : raw) stream.push_back(analyzer.Analyze(q));
  }
  return stream;
}

const std::vector<const char*> kTraining(std::begin(kQueries),
                                         std::end(kQueries));

// The simulation over the kDocs corpus, analyzed as the cluster analyzes
// it: what a cluster trained the same way must learn, round for round.
class SimTwin {
 public:
  explicit SimTwin(const core::SpriteConfig& config) : sim_(config) {}

  void Record(const text::Analyzer& analyzer,
              const std::vector<const char*>& raw, size_t reps) {
    std::vector<corpus::Query> queries;
    for (const std::vector<std::string>& terms : Stream(analyzer, raw, reps)) {
      queries.push_back(corpus::Query{++query_id_, corpus::DedupTerms(terms)});
    }
    std::vector<const corpus::Query*> stream;
    for (const corpus::Query& q : queries) stream.push_back(&q);
    sim_.RecordQueryEpoch(stream);
  }

  Status Share(const text::Analyzer& analyzer) {
    for (const auto& doc : kDocs) {
      corpus_.AddDocument(analyzer.AnalyzeToVector(doc[1]), doc[0]);
    }
    return sim_.ShareCorpus(corpus_);
  }

  // One learning round; whether it changed any document's index terms.
  bool Learn() {
    const uint64_t changes = Counter("learning.terms_added") +
                             Counter("learning.terms_removed");
    sim_.RunLearningIteration();
    return Counter("learning.terms_added") +
               Counter("learning.terms_removed") !=
           changes;
  }

  uint64_t Counter(const char* name) const {
    return sim_.metrics().counter(name);
  }

  StatusOr<ir::RankedList> Search(const std::vector<std::string>& terms,
                                  size_t k) {
    return sim_.Search(corpus::Query{0, corpus::DedupTerms(terms)}, k,
                       /*record=*/false);
  }

 private:
  corpus::Corpus corpus_;  // outlives sim_, which points into it
  core::SpriteSystem sim_;
  corpus::QueryId query_id_ = 0;
};

// Live polls are incremental with the simulation's semantics: round for
// round the cluster pulls exactly the records the simulation pulls, and
// once a round has changed no document's index terms, the next one (with
// nothing recorded in between) polls every member and pulls nothing.
TEST_F(ClusterFixture, PollsPullWhatTheSimPullsAndNothingOnceSettled) {
  obs::MetricsRegistry metrics;
  for (auto& node : nodes_) node->AttachObservability(&metrics, nullptr);
  SimTwin sim(config_);
  sim.Record(analyzer_, kTraining, 3);
  ASSERT_TRUE(sim.Share(analyzer_).ok());
  ASSERT_TRUE(RecordNow(*nodes_[0], Stream(analyzer_, kTraining, 3)).ok());
  for (size_t i = 0; i < std::size(kDocs); ++i) {
    ASSERT_TRUE(ShareNow(*nodes_[i % 3], static_cast<corpus::DocId>(i),
                         kDocs[i][0], kDocs[i][1])
                    .ok());
  }
  const auto pulled = [&metrics] {
    return metrics.counter("learning.pulled_queries");
  };
  // Round for round, the cluster pulls the records the simulation pulls
  // and makes the same index changes.
  const char* const kCounters[] = {"learning.pulled_queries",
                                   "learning.terms_added",
                                   "learning.terms_removed"};
  bool settled = false;
  for (size_t round = 0; round < 10 && !settled; ++round) {
    std::vector<std::pair<uint64_t, uint64_t>> before;  // live, sim
    for (const char* name : kCounters) {
      before.emplace_back(metrics.counter(name), sim.Counter(name));
    }
    for (auto& node : nodes_) ASSERT_TRUE(LearnNow(*node).ok());
    settled = !sim.Learn();
    for (size_t c = 0; c < std::size(kCounters); ++c) {
      EXPECT_EQ(metrics.counter(kCounters[c]) - before[c].first,
                sim.Counter(kCounters[c]) - before[c].second)
          << kCounters[c] << " in round " << round;
    }
  }
  ASSERT_TRUE(settled);
  ASSERT_GT(pulled(), 0u);

  const uint64_t polls = metrics.counter("learning.polls");
  const uint64_t pulled_before = pulled();
  const uint64_t replies = bus_.stats().FramesOf(MessageType::kPollResponse);
  const uint64_t reply_bytes =
      bus_.stats().BytesOf(MessageType::kPollResponse);
  for (auto& node : nodes_) ASSERT_TRUE(LearnNow(*node).ok());
  EXPECT_FALSE(sim.Learn());
  EXPECT_GT(metrics.counter("learning.polls"), polls);
  EXPECT_EQ(pulled(), pulled_before);
  // Every remote reply is an empty history: the header, the member's epoch
  // and high-water mark, and a record count of 0.
  const uint64_t empty =
      bus_.stats().FramesOf(MessageType::kPollResponse) - replies;
  EXPECT_GT(empty, 0u);
  EXPECT_EQ(bus_.stats().BytesOf(MessageType::kPollResponse) - reply_bytes,
            empty * (wire::kHeaderBytes + 20));

  for (const char* q : kQueries) {
    StatusOr<ir::RankedList> live = SearchNow(*nodes_[0], Terms(q), 10);
    StatusOr<ir::RankedList> reference = sim.Search(Terms(q), 10);
    ASSERT_TRUE(live.ok() && reference.ok()) << q;
    ASSERT_FALSE(reference->empty()) << q;
    EXPECT_EQ(*live, *reference) << q;
  }
}

// Queries recorded after a restart. Each one holds a term its training
// counterpart (the same position in kQueries) made the same document
// index, plus terms of that document nobody asked for yet, so the owners
// learn those only if they count these issuances.
const std::vector<const char*> kLateQueries = {
    "lookup pastry overlay structured", "ranking cosine similarity vector",
    "search gnutella flooding", "feedback adaptive cached history"};

// Nodes that persist their index half under a scratch data directory, so
// a test can restart one.
class RestartFixture : public ClusterFixture {
 protected:
  void SetUp() override {
    char dir[] = "/tmp/sprite-net-test-XXXXXX";
    ASSERT_NE(::mkdtemp(dir), nullptr);
    config_.data_dir = dir;
    ClusterFixture::SetUp();
  }
  void TearDown() override { std::filesystem::remove_all(config_.data_dir); }

  // Node `i` flushes and is replaced by a fresh ClusterNode of the same
  // name: the same ring id, but a new epoch, seq and arrival counters at
  // 0, no query history and no documents. It recovers the index it
  // flushed and rejoins through another node.
  void Restart(size_t i) {
    ASSERT_TRUE(nodes_[i]->Flush().ok());
    const std::string name = nodes_[i]->self().name;
    nodes_[i] = std::make_unique<ClusterNode>(ClusterOptions{name, config_},
                                              &bus_);
    Serve(bus_, nodes_[i].get());
    ASSERT_TRUE(nodes_[i]->Recover().ok());
    PeerAddress bootstrap;
    bootstrap.id = nodes_[i == 0 ? 1 : 0]->self().id;
    ASSERT_TRUE(nodes_[i]->Join(bootstrap).ok());
  }

  // Trains `nodes` as the simulation twin is trained: node `issuer`
  // records the training queries three times over, every node but `idle`
  // shares documents (a restarted node would lose them), and every node
  // learns until a round changes no document's index terms, so all index
  // terms have cursors.
  void Train(std::vector<std::unique_ptr<ClusterNode>>& nodes, size_t issuer,
             size_t idle) {
    SimTwin sim(config_);
    sim.Record(analyzer_, kTraining, 3);
    ASSERT_TRUE(sim.Share(analyzer_).ok());
    ASSERT_TRUE(RecordNow(*nodes[issuer], Stream(analyzer_, kTraining, 3)).ok());
    std::vector<size_t> owners;
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (i != idle) owners.push_back(i);
    }
    for (size_t i = 0; i < std::size(kDocs); ++i) {
      ASSERT_TRUE(ShareNow(*nodes[owners[i % owners.size()]],
                           static_cast<corpus::DocId>(i), kDocs[i][0],
                           kDocs[i][1])
                      .ok());
    }
    bool changed = true;
    for (size_t round = 0; round < 10 && changed; ++round) {
      for (auto& node : nodes) ASSERT_TRUE(LearnNow(*node).ok());
      changed = sim.Learn();
    }
    ASSERT_FALSE(changed);
  }

  // `issuer` records kLateQueries as often as the training queries, then
  // every node learns once.
  void LearnLateQueries(std::vector<std::unique_ptr<ClusterNode>>& nodes,
                        size_t issuer) {
    ASSERT_TRUE(
        RecordNow(*nodes[issuer], Stream(analyzer_, kLateQueries, 3)).ok());
    for (auto& node : nodes) ASSERT_TRUE(LearnNow(*node).ok());
  }

  // Every query's ranking at `a` equals its ranking at `b`.
  void ExpectSameRankings(ClusterNode& a, ClusterNode& b) {
    std::vector<const char*> all = kTraining;
    all.insert(all.end(), kLateQueries.begin(), kLateQueries.end());
    for (const char* q : all) {
      StatusOr<ir::RankedList> ranked = SearchNow(a, Terms(q), 10);
      StatusOr<ir::RankedList> reference = SearchNow(b, Terms(q), 10);
      ASSERT_TRUE(ranked.ok() && reference.ok()) << q;
      EXPECT_EQ(*ranked, *reference) << q;
    }
  }
};

// A node restarted under its name keeps its ring id but starts a new seq
// counter. Its seqs must not repeat the ones owners have already counted,
// or the owners would drop the new issuances from QF: after the owners'
// next round every ranking equals that of a cluster whose issuer never
// restarted.
TEST_F(RestartFixture, RestartedIssuerReusesNoSeq) {
  constexpr size_t kIssuer = 2;
  core::SpriteConfig plain = config_;
  plain.data_dir.clear();
  SimTransport other_bus;
  std::vector<std::unique_ptr<ClusterNode>> others;
  StartCluster(other_bus, plain, &others);
  Train(nodes_, kIssuer, kIssuer);
  Train(others, kIssuer, kIssuer);
  // The late queries teach the owners something: they change a ranking.
  std::vector<ir::RankedList> trained;
  for (const char* q : kLateQueries) {
    StatusOr<ir::RankedList> ranked = SearchNow(*others[0], Terms(q), 10);
    ASSERT_TRUE(ranked.ok());
    trained.push_back(*ranked);
  }

  Restart(kIssuer);
  LearnLateQueries(nodes_, kIssuer);
  LearnLateQueries(others, kIssuer);
  bool learned = false;
  for (size_t i = 0; i < kLateQueries.size(); ++i) {
    StatusOr<ir::RankedList> ranked =
        SearchNow(*others[0], Terms(kLateQueries[i]), 10);
    ASSERT_TRUE(ranked.ok());
    learned = learned || *ranked != trained[i];
  }
  EXPECT_TRUE(learned);
  ExpectSameRankings(*nodes_[0], *others[0]);
}

// A member restarted under its name answers polls with a new epoch and an
// empty history whose arrivals start again at 1. The owners' cursors for
// its terms, from its previous epoch, count as 0 there: the owners' next
// round pulls every record it cached since the restart, exactly what it
// pulls from a member that never restarted.
TEST_F(RestartFixture, RestartedMemberReturnsEverythingSinceItsRestart) {
  // The member serves "search", the trained term of the third late query:
  // the closest polled term of that query's records, so it returns them.
  const std::string search = Terms("search")[0];
  size_t member = 0;
  while (nodes_[member]->self().id !=
         nodes_[0]->OwnerOfKey(nodes_[0]->KeyOfTerm(search)).id) {
    ++member;
  }
  const size_t issuer = (member + 1) % nodes_.size();
  core::SpriteConfig plain = config_;
  plain.data_dir.clear();
  SimTransport other_bus;
  std::vector<std::unique_ptr<ClusterNode>> others;
  StartCluster(other_bus, plain, &others);
  Train(nodes_, issuer, member);
  Train(others, issuer, member);

  // The member's old arrivals reach past every record it caches after the
  // restart, so an old cursor, if honoured, would hide them all.
  const size_t old_history = nodes_[member]->GetStats().history_records;
  Restart(member);
  obs::MetricsRegistry metrics, other_metrics;
  for (auto& node : nodes_) node->AttachObservability(&metrics, nullptr);
  for (auto& node : others) node->AttachObservability(&other_metrics, nullptr);
  LearnLateQueries(nodes_, issuer);
  LearnLateQueries(others, issuer);
  ASSERT_GT(nodes_[member]->GetStats().history_records, 0u);
  ASSERT_LE(nodes_[member]->GetStats().history_records, old_history);
  const uint64_t pulled = metrics.counter("learning.pulled_queries");
  EXPECT_EQ(pulled, other_metrics.counter("learning.pulled_queries"));
  ExpectSameRankings(*nodes_[0], *others[0]);
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
  StartCluster(other_bus, config_, &others);

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
