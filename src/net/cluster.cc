#include "net/cluster.h"

#include <algorithm>
#include <limits>
#include <random>
#include <unordered_set>
#include <utility>

#include "common/string_util.h"
#include "core/ranking.h"
#include "corpus/query.h"
#include "text/term_dict.h"

namespace sprite::net {

using core::TermDict;
using core::TermId;

namespace {

// Records travel as spellings; rebuild the local QueryRecord with
// re-interned ids. hash_key and seq are cluster-wide values and pass
// through unchanged; arrival is the receiver's to stamp.
core::QueryRecord FromWire(const wire::WireQueryRecord& record) {
  core::QueryRecord local;
  local.id = static_cast<core::QueryId>(record.id);
  local.hash_key = record.hash_key;
  local.seq = record.seq;
  TermDict& dict = TermDict::Global();
  local.terms.reserve(record.terms.size());
  for (const std::string& term : record.terms) {
    local.terms.push_back(dict.Intern(term));
  }
  return local;
}

// Marks `frame` as sent under `span`, so the transport's net.call span and
// the receiving daemon's serve span nest under it.
void StampContext(const obs::TraceContext& span, wire::Frame& frame) {
  if (!span.valid()) return;
  frame.flags |= wire::kFlagTraced;
  frame.trace_id = static_cast<uint32_t>(span.trace_id);
  frame.parent_span = static_cast<uint32_t>(span.span_id);
}

PeerAddress AddressOf(const wire::NodeInfo& node) {
  return {node.id, node.host, node.udp_port, node.tcp_port};
}

// A random nonzero 64-bit value, drawn once per ClusterNode.
uint64_t DrawEpoch() {
  std::random_device device;
  uint64_t epoch = 0;
  while (epoch == 0) epoch = (uint64_t{device()} << 32) | device();
  return epoch;
}

}  // namespace

ClusterNode::ClusterNode(ClusterOptions options, Transport* transport)
    : options_(std::move(options)),
      transport_(transport),
      space_(options_.config.id_bits),
      index_(space_.KeyForString(options_.name),
             options_.config.history_capacity),
      owner_(index_.id()),
      store_(options_.config, index_.id()),
      epoch_(DrawEpoch()) {
  self_.id = index_.id();
  self_.name = options_.name;
  members_.push_back(self_);
}

void ClusterNode::SetEndpoints(const std::string& host, uint16_t udp,
                               uint16_t tcp, uint16_t http) {
  self_.host = host;
  self_.udp_port = udp;
  self_.tcp_port = tcp;
  self_.http_port = http;
  for (wire::NodeInfo& m : members_) {
    if (m.id == self_.id) m = self_;
  }
}

void ClusterNode::AddMember(const wire::NodeInfo& node) {
  for (wire::NodeInfo& m : members_) {
    if (m.id == node.id) {
      m = node;  // refresh the addressing card
      return;
    }
  }
  members_.push_back(node);
  std::sort(members_.begin(), members_.end(),
            [](const wire::NodeInfo& a, const wire::NodeInfo& b) {
              return a.id < b.id;
            });
}

const wire::NodeInfo& ClusterNode::OwnerOfKey(uint64_t key) const {
  // Successor among the sorted member ids, wrapping to the smallest — the
  // Chord successor rule over a full membership view.
  for (const wire::NodeInfo& m : members_) {
    if (m.id >= key) return m;
  }
  return members_.front();
}

uint64_t ClusterNode::KeyOfTerm(const std::string& term) const {
  // Same formula as the simulation's ring key: truncate the dictionary's
  // precomputed MD5 prefix into the id space, so both worlds agree on term
  // responsibility and on the closest-term dedup winner.
  TermDict& dict = TermDict::Global();
  return space_.Truncate(dict.RawKeyOf(dict.Intern(term)));
}

CallOptions ClusterNode::DirectCallOptions() const {
  CallOptions opts;
  opts.timeout_ms = options_.config.peer_timeout_ms;
  opts.retries = options_.config.send_retries;
  opts.backoff_ms = options_.config.retry_backoff_ms;
  return opts;
}

uint64_t ClusterNode::NextSeq() {
  // An identity, never an order: this incarnation's random epoch offsets a
  // local counter, so neither another issuer nor this node restarted under
  // the same name reuses a seq that owners have already counted (short of
  // two random epochs falling within a counter's reach of each other).
  return epoch_ + ++seq_counter_;
}

void ClusterNode::CallMemberAsync(const wire::NodeInfo& node,
                                  wire::Frame frame,
                                  Transport::CallDone done) {
  if (node.id == self_.id) {
    // Self-addressed traffic dispatches directly instead of looping back
    // through this node's own sockets.
    done(HandleFrame(frame));
    return;
  }
  transport_->CallAsync(AddressOf(node), frame, DirectCallOptions(),
                        std::move(done));
}

// One operation's calls: issues them in order, at most kMaxInFlight
// unanswered at once, and finishes after the last reply. A reply may
// arrive inline (self-addressed frames, in-process transports) or from a
// later poll round; Pump's loop keeps inline replies from recursing.
struct ClusterNode::CallRun : std::enable_shared_from_this<CallRun> {
  ClusterNode* node = nullptr;
  std::vector<Call> calls;
  std::vector<obs::TraceContext> groups;
  std::vector<size_t> unanswered;  // per group, when groups end
  ReplyHook on_reply;
  Done done;  // null once run
  Status error;
  size_t error_at = std::numeric_limits<size_t>::max();
  size_t issued = 0;
  size_t answered = 0;
  bool pumping = false;

  void Pump() {
    if (pumping) return;
    pumping = true;
    while (issued < calls.size() && issued - answered < kMaxInFlight) {
      Issue(issued++);
    }
    pumping = false;
    if (answered == calls.size() && done) std::exchange(done, nullptr)(error);
  }

  void Issue(size_t i) {
    Call& call = calls[i];
    call.span = groups[call.group];
    if (call.name != nullptr) {
      call.span = node->BeginSpan(call.span, call.name);
      if (call.span.valid() && !call.term.empty()) {
        node->tracer_->AnnotateSpan(call.span.span_id, "term", call.term);
      }
    }
    wire::Frame request = call.frame(call);
    StampContext(call.span, request);
    Transport::CallDone reply = [self = shared_from_this(),
                                 i](StatusOr<wire::Frame> frame) {
      self->Answer(i, std::move(frame));
    };
    node->CallMemberAsync(node->OwnerOfKey(call.member), std::move(request),
                          std::move(reply));
  }

  void Answer(size_t i, StatusOr<wire::Frame> reply) {
    const Call& call = calls[i];
    if (call.name != nullptr) node->EndSpan(call.span);
    if (!reply.ok() && i < error_at) {
      error_at = i;
      error = reply.status();
    }
    if (on_reply) on_reply(i, std::move(reply));
    if (!unanswered.empty() && --unanswered[call.group] == 0) {
      node->EndSpan(groups[call.group]);
    }
    ++answered;
    Pump();
  }
};

void ClusterNode::RunCalls(std::vector<Call> calls,
                           std::vector<obs::TraceContext> groups,
                           bool end_groups, ReplyHook on_reply, Done done) {
  auto run = std::make_shared<CallRun>();
  if (end_groups) {
    run->unanswered.assign(groups.size(), 0);
    for (const Call& call : calls) ++run->unanswered[call.group];
    for (size_t g = 0; g < groups.size(); ++g) {
      if (run->unanswered[g] == 0) EndSpan(groups[g]);
    }
  }
  run->node = this;
  run->calls = std::move(calls);
  run->groups = std::move(groups);
  run->on_reply = std::move(on_reply);
  run->done = std::move(done);
  run->Pump();
}

obs::TraceContext ClusterNode::BeginSpan(const obs::TraceContext& parent,
                                         const char* name) {
  if (tracer_ == nullptr) return {};
  return tracer_->BeginSpanUnder(parent, name, self_.name);
}

void ClusterNode::EndSpan(const obs::TraceContext& span) {
  if (span.valid()) tracer_->EndSpan(span);
}

Status ClusterNode::Join(const PeerAddress& bootstrap) {
  wire::JoinRequest req;
  req.self = self_;
  req.announce = true;
  StatusOr<wire::Frame> resp =
      transport_->Call(bootstrap, ToFrame(req), DirectCallOptions());
  if (!resp.ok()) return resp.status();
  StatusOr<wire::JoinResponse> parsed = wire::ParseJoinResponse(*resp);
  if (!parsed.ok()) return parsed.status();
  for (const wire::NodeInfo& m : parsed->members) AddMember(m);
  // Announce to every member we just learned about; the bootstrap already
  // added us during the first exchange.
  for (const wire::NodeInfo& m : members_) {
    if (m.id == self_.id) continue;
    // Skip the bootstrap, which already added us. Socket callers address
    // it by host:port (its ring id is unknown before the first exchange);
    // in-process callers address it by id, where host/port are all empty
    // and a host:port match would wrongly skip everyone.
    const bool is_bootstrap =
        bootstrap.host.empty()
            ? m.id == bootstrap.id
            : m.host == bootstrap.host && m.udp_port == bootstrap.udp_port;
    if (is_bootstrap) continue;
    StatusOr<wire::Frame> ack =
        transport_->Call(AddressOf(m), ToFrame(req), DirectCallOptions());
    if (!ack.ok()) return ack.status();
    StatusOr<wire::JoinResponse> theirs = wire::ParseJoinResponse(*ack);
    if (theirs.ok()) {
      for (const wire::NodeInfo& node : theirs->members) AddMember(node);
    }
  }
  return Status::OK();
}

// --- Inbound dispatch -------------------------------------------------------

StatusOr<wire::Frame> ClusterNode::HandleFrame(const wire::Frame& frame) {
  switch (frame.type) {
    case p2p::MessageType::kJoinRequest:
      return HandleJoin(frame);
    case p2p::MessageType::kPublishTerm:
      return HandlePublish(frame);
    case p2p::MessageType::kWithdrawTerm:
      return HandleWithdraw(frame);
    case p2p::MessageType::kQueryRequest:
      return HandleQuery(frame);
    case p2p::MessageType::kPollRequest:
      return HandlePoll(frame);
    default:
      return Status::InvalidArgument("cluster node cannot serve this type");
  }
}

StatusOr<wire::Frame> ClusterNode::HandleJoin(const wire::Frame& frame) {
  StatusOr<wire::JoinRequest> req = wire::ParseJoinRequest(frame);
  if (!req.ok()) return req.status();
  // Observers (announce unset) get the member list without becoming a
  // member — `sprite_cli join` uses this as a liveness probe.
  if (req->announce) AddMember(req->self);
  wire::JoinResponse resp;
  resp.members = members_;
  return ToFrame(resp);
}

StatusOr<wire::Frame> ClusterNode::HandlePublish(const wire::Frame& frame) {
  StatusOr<wire::PublishTerm> req = wire::ParsePublishTerm(frame);
  if (!req.ok()) return req.status();
  index_.AddPosting(TermDict::Global().Intern(req->term), req->entry);
  wire::Frame ack;
  ack.type = p2p::MessageType::kPublishTerm;
  ack.flags = wire::kFlagResponse;
  return ack;
}

StatusOr<wire::Frame> ClusterNode::HandleWithdraw(const wire::Frame& frame) {
  StatusOr<wire::WithdrawTerm> req = wire::ParseWithdrawTerm(frame);
  if (!req.ok()) return req.status();
  index_.RemovePosting(TermDict::Global().Intern(req->term),
                       static_cast<core::DocId>(req->doc));
  wire::Frame ack;
  ack.type = p2p::MessageType::kWithdrawTerm;
  ack.flags = wire::kFlagResponse;
  return ack;
}

StatusOr<wire::Frame> ClusterNode::HandleQuery(const wire::Frame& frame) {
  StatusOr<wire::QueryRequest> req = wire::ParseQueryRequest(frame);
  if (!req.ok()) return req.status();
  if (req->record.has_value()) {
    core::QueryRecord record = FromWire(*req->record);
    record.arrival = ++arrivals_;
    index_.RecordQuery(record);
  }
  wire::QueryResponse resp;
  if (!req->record_only) {
    const TermId id = TermDict::Global().Intern(req->term);
    core::PostingListPtr plist = index_.Postings(id);
    if (plist != nullptr) resp.postings = *plist;
    resp.version = index_.TermVersion(id);
  }
  return ToFrame(resp);
}

StatusOr<wire::Frame> ClusterNode::HandlePoll(const wire::Frame& frame) {
  StatusOr<wire::PollRequest> req = wire::ParsePollRequest(frame);
  if (!req.ok()) return req.status();
  if (req->my_terms.size() != req->cursors.size()) {
    return Status::InvalidArgument("poll cursors not parallel to my_terms");
  }
  TermDict& dict = TermDict::Global();
  std::vector<TermId> poll_terms;
  std::vector<uint64_t> poll_keys;
  poll_terms.reserve(req->poll_terms.size());
  poll_keys.reserve(req->poll_terms.size());
  for (const std::string& term : req->poll_terms) {
    const TermId id = dict.Intern(term);
    poll_terms.push_back(id);
    poll_keys.push_back(space_.Truncate(dict.RawKeyOf(id)));
  }
  std::vector<TermId> my_terms;
  std::vector<uint64_t> after;
  my_terms.reserve(req->my_terms.size());
  after.reserve(req->my_terms.size());
  for (size_t i = 0; i < req->my_terms.size(); ++i) {
    my_terms.push_back(dict.Intern(req->my_terms[i]));
    // Arrivals count within one incarnation. A cursor from another one
    // counts as 0: this node restarted (its history restarted with its
    // counter), or the owner last pulled the term from another member.
    const p2p::PollCursor& cursor = req->cursors[i];
    after.push_back(cursor.epoch == epoch_ ? cursor.arrival : 0);
  }
  const std::vector<const core::QueryRecord*> records =
      index_.CollectQueriesForPoll(poll_terms, poll_keys, my_terms, after,
                                   space_);
  wire::PollResponse resp;
  resp.epoch = epoch_;
  resp.high_water = arrivals_;
  resp.records.reserve(records.size());
  for (const core::QueryRecord* rec : records) {
    wire::WireQueryRecord out;
    out.id = rec->id;
    out.hash_key = rec->hash_key;
    out.seq = rec->seq;
    out.terms.reserve(rec->terms.size());
    for (const TermId id : rec->terms) out.terms.push_back(dict.TermOf(id));
    resp.records.push_back(std::move(out));
  }
  return ToFrame(resp);
}

// --- Owner half -------------------------------------------------------------

ClusterNode::Call ClusterNode::IndexCall(const core::OwnedDocument& owned,
                                         const std::string& term,
                                         bool publish, size_t group) {
  const uint64_t member = OwnerOfKey(KeyOfTerm(term)).id;
  if (publish) {
    return {member,
            [this, &owned](const Call& call) {
              return ToFrame(wire::PublishTerm{
                  call.term, core::MakePosting(owned, call.term, self_.id)});
            },
            group, "publish.term", term};
  }
  return {member,
          [doc = owned.content->id](const Call& call) {
            return ToFrame(wire::WithdrawTerm{call.term, doc});
          },
          group, "withdraw.term", term};
}

void ClusterNode::ShareDocuments(std::vector<corpus::Document> docs,
                                 Done done) {
  if (owner_busy_) {
    done(Status::FailedPrecondition("another share or learning round runs"));
    return;
  }
  // Check the whole batch before adopting any of it.
  std::unordered_set<corpus::DocId> ids;
  for (const corpus::Document& doc : docs) {
    if (Owns(doc.id) || !ids.insert(doc.id).second) {
      done(Status::AlreadyExists(
          StrFormat("document %u is already shared", doc.id)));
      return;
    }
    if (doc.terms.length() == 0) {
      done(Status::InvalidArgument(
          StrFormat("document %u has no analyzable terms", doc.id)));
      return;
    }
  }
  std::vector<Call> calls;
  std::vector<obs::TraceContext> spans;
  for (corpus::Document& doc : docs) {
    if (metrics_ != nullptr) metrics_->Add("cluster.documents_shared", 1);
    documents_.push_back(std::make_unique<corpus::Document>(std::move(doc)));
    core::OwnedDocument& owned = owner_.AdoptDocument(documents_.back().get());
    owned.index_terms = core::OwnerPeer::SelectInitialTerms(
        *owned.content, options_.config.initial_terms);
    for (const std::string& term : owned.index_terms) {
      calls.push_back(IndexCall(owned, term, /*publish=*/true, spans.size()));
    }
    spans.push_back(BeginSpan({}, "share.document"));
  }
  owner_busy_ = true;
  RunCalls(std::move(calls), std::move(spans), /*end_groups=*/true, nullptr,
           [this, done = std::move(done)](const Status& status) {
             owner_busy_ = false;
             done(status);
           });
}

void ClusterNode::RunLearningIteration(Done done) {
  if (owner_busy_) {
    done(Status::FailedPrecondition("another share or learning round runs"));
    return;
  }
  owner_busy_ = true;
  if (metrics_ != nullptr) metrics_->Add("cluster.learning_iterations", 1);
  struct Doc {
    core::OwnedDocument* owned = nullptr;
    core::PollPlan plan;                    // until the document retunes
    size_t unanswered = 0;                  // polls
    std::vector<core::QueryRecord> pulled;  // until the document retunes
    core::OwnerPeer::IndexUpdate update;
  };
  struct LearnOp {
    obs::TraceContext span;
    std::vector<Doc> docs;
    std::vector<std::pair<size_t, size_t>> poll_of;  // document, poll
    Status error;  // the first poll reply that did not parse
    Done done;
  };
  auto op = std::make_shared<LearnOp>();
  op->span = BeginSpan({}, "learning.iteration");
  op->done = std::move(done);
  // Poll every member responsible for one of a document's index terms —
  // the index-update poll of Section 3, over real frames instead of the
  // sim bus — with every index term, and the ones it serves with their
  // cursors, so it returns only records that arrived since. A document
  // without index terms has nothing to learn from. Its polls are all
  // issued before the last reply retunes it, so each frame, built when it
  // is issued, sees the plan made here.
  std::vector<Call> polls;
  op->docs.reserve(owner_.num_documents());  // polls point into it
  for (auto& [doc_id, owned] : owner_.mutable_documents()) {
    Doc& doc = op->docs.emplace_back();
    doc.owned = &owned;
    doc.plan = core::PlanPolls(owned, space_, [this](uint64_t key) {
      return std::optional<uint64_t>(OwnerOfKey(key).id);
    });
    doc.unanswered = doc.plan.polls.size();
    for (size_t p = 0; p < doc.plan.polls.size(); ++p) {
      const auto frame = [&doc, p](const Call&) {
        wire::PollRequest req;
        req.poll_terms = doc.owned->index_terms;
        for (const TermId term : doc.plan.polls[p].my_terms) {
          req.my_terms.push_back(TermDict::Global().TermOf(term));
          req.cursors.push_back(doc.owned->CursorOf(term));
        }
        return ToFrame(req);
      };
      polls.push_back({doc.plan.polls[p].member, frame, 0, "learning.poll"});
      op->poll_of.emplace_back(op->docs.size() - 1, p);
    }
  }
  if (metrics_ != nullptr) metrics_->Add("learning.polls", polls.size());
  // A failed poll skips its member until the next round, so the status of
  // the polls is not the round's.
  RunCalls(
      std::move(polls), {op->span}, /*end_groups=*/false,
      [this, op](size_t i, StatusOr<wire::Frame> reply) {
        const auto [doc_index, p] = op->poll_of[i];
        Doc& doc = op->docs[doc_index];
        if (reply.ok()) {
          StatusOr<wire::PollResponse> parsed = wire::ParsePollResponse(*reply);
          if (op->error.ok()) op->error = parsed.status();
          if (parsed.ok()) {
            if (metrics_ != nullptr) {
              metrics_->Add("learning.pulled_queries", parsed->records.size());
            }
            doc.plan.polls[p].answer =
                core::PollCursor{parsed->epoch, parsed->high_water};
            for (const wire::WireQueryRecord& rec : parsed->records) {
              doc.pulled.push_back(FromWire(rec));
            }
          }
        }
        if (--doc.unanswered > 0) return;
        // Every poll of the document is in: retune it (LearnAndRetune folds
        // records in any order to the same state) and free them and the plan.
        const std::vector<core::QueryRecord> records =
            std::exchange(doc.pulled, {});
        const core::PollPlan plan = std::exchange(doc.plan, {});
        std::vector<const core::QueryRecord*> pulled;
        pulled.reserve(records.size());
        for (const core::QueryRecord& rec : records) pulled.push_back(&rec);
        doc.update =
            owner_.LearnAndRetune(*doc.owned, plan, pulled, options_.config);
        if (metrics_ != nullptr) {
          metrics_->Add("learning.terms_removed", doc.update.remove.size());
          metrics_->Add("learning.terms_added", doc.update.add.size());
        }
      },
      [this, op](const Status&) {
        std::vector<Call> changes;
        for (const Doc& doc : op->docs) {
          for (const std::string& term : doc.update.remove) {
            changes.push_back(IndexCall(*doc.owned, term, false, 0));
          }
          for (const std::string& term : doc.update.add) {
            changes.push_back(IndexCall(*doc.owned, term, true, 0));
          }
        }
        RunCalls(std::move(changes), {op->span}, /*end_groups=*/true, nullptr,
                 [this, op](const Status& status) {
                   owner_busy_ = false;
                   op->done(op->error.ok() ? status : op->error);
                 });
      });
}

// --- Query plane ------------------------------------------------------------

wire::WireQueryRecord ClusterNode::MakeWireRecord(
    const std::vector<std::string>& deduped_terms) {
  corpus::Query query;
  query.id = ++record_id_counter_;
  query.terms = deduped_terms;
  wire::WireQueryRecord record;
  record.id = query.id;
  record.terms = deduped_terms;
  // Same hash the simulation derives from the canonical key, so the
  // closest-term dedup rule picks the same winner peer in both worlds.
  record.hash_key = space_.KeyForString(query.CanonicalKey());
  record.seq = NextSeq();
  return record;
}

void ClusterNode::RecordQueries(
    const std::vector<std::vector<std::string>>& queries, Done done) {
  // One record per responsible member, even when it serves several of a
  // query's terms — exactly one history entry per (member, issuance).
  std::vector<Call> calls;
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::vector<std::string> terms = corpus::DedupTerms(queries[q]);
    if (terms.empty()) {
      done(Status::InvalidArgument("empty query"));
      return;
    }
    auto record =
        std::make_shared<const wire::WireQueryRecord>(MakeWireRecord(terms));
    std::unordered_set<uint64_t> recorded_at;
    for (const std::string& term : terms) {
      const uint64_t member = OwnerOfKey(KeyOfTerm(term)).id;
      if (!recorded_at.insert(member).second) continue;
      calls.push_back({member,
                       [record](const Call& call) {
                         return ToFrame(
                             wire::QueryRequest{call.term, *record, true});
                       },
                       q, nullptr, term});
    }
  }
  if (metrics_ != nullptr) {
    metrics_->Add("cluster.queries_recorded", queries.size());
  }
  std::vector<obs::TraceContext> spans;
  for (size_t q = 0; q < queries.size(); ++q) {
    spans.push_back(BeginSpan({}, "record.query"));
  }
  RunCalls(std::move(calls), std::move(spans), /*end_groups=*/true, nullptr,
           std::move(done));
}

void ClusterNode::Search(const std::vector<std::string>& raw_terms, size_t k,
                         SearchDone done) {
  std::vector<std::string> terms = corpus::DedupTerms(raw_terms);
  if (terms.empty()) {
    done(Status::InvalidArgument("empty query"));
    return;
  }
  if (metrics_ != nullptr) metrics_->Add("cluster.searches", 1);
  const obs::TraceContext span = BeginSpan({}, "search");
  std::vector<Call> fetches;
  for (const std::string& term : terms) {
    fetches.push_back({OwnerOfKey(KeyOfTerm(term)).id,
                       [](const Call& call) {
                         wire::QueryRequest req;
                         req.term = call.term;
                         return ToFrame(req);
                       },
                       0, "fetch", term});
  }
  auto replies = std::make_shared<std::vector<StatusOr<wire::Frame>>>(
      terms.size(), Status::Unavailable("unanswered"));
  RunCalls(std::move(fetches), {span}, /*end_groups=*/false,
           [replies](size_t i, StatusOr<wire::Frame> reply) {
             (*replies)[i] = std::move(reply);
           },
           [this, terms = std::move(terms), k, span, replies,
            done = std::move(done)](const Status&) {
             StatusOr<ir::RankedList> ranked =
                 RankReplies(terms, *replies, k, span);
             EndSpan(span);
             done(std::move(ranked));
           });
}

StatusOr<ir::RankedList> ClusterNode::RankReplies(
    const std::vector<std::string>& terms,
    std::vector<StatusOr<wire::Frame>>& replies, size_t k,
    const obs::TraceContext& search) {
  TermDict& dict = TermDict::Global();
  std::vector<core::RetrievedList> lists;
  lists.reserve(terms.size());
  size_t fetched = 0;
  for (size_t i = 0; i < terms.size(); ++i) {
    if (!replies[i].ok()) {
      if (options_.config.skip_unreachable_terms) continue;
      return replies[i].status();
    }
    StatusOr<wire::QueryResponse> parsed =
        wire::ParseQueryResponse(*replies[i]);
    if (!parsed.ok()) return parsed.status();
    core::RetrievedList rl;
    rl.term = dict.Intern(terms[i]);
    rl.postings = parsed->postings.empty()
                      ? core::EmptyPostingList()
                      : std::make_shared<core::PostingList>(
                            std::move(parsed->postings));
    fetched += rl.postings->size();
    lists.push_back(std::move(rl));
  }
  if (search.valid()) {
    tracer_->AnnotateSpan(search.span_id, "postings",
                          StrFormat("%zu", fetched));
  }
  // The simulation's exact ranking arithmetic (core/ranking.h): identical
  // posting sets in identical list order produce bit-identical scores.
  const obs::TraceContext rank = BeginSpan(search, "rank");
  StatusOr<ir::RankedList> ranked = core::RankRetrievedLists(
      lists, options_.config.idf_corpus_size, fetched, k);
  EndSpan(rank);
  return ranked;
}

// --- Persistence ------------------------------------------------------------

Status ClusterNode::Flush() { return store_.Flush(index_); }

Status ClusterNode::Recover() { return store_.Recover(index_); }

ClusterNode::Stats ClusterNode::GetStats() const {
  Stats s;
  s.members = members_.size();
  s.documents = owner_.num_documents();
  s.indexed_terms = index_.num_terms();
  s.postings = index_.num_postings();
  s.history_records = index_.history().size();
  return s;
}

}  // namespace sprite::net
