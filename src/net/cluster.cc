#include "net/cluster.h"

#include <algorithm>
#include <limits>
#include <map>
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
// through unchanged.
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

// One operation's calls: issues them in order, at most
// ClusterNode::kMaxInFlight unanswered at once, hands each reply to
// `on_reply` and runs `on_done` after the last. A reply may arrive inline
// (self-addressed frames, in-process transports) or from a later poll
// round; Pump's loop keeps inline replies from recursing.
class FanOut : public std::enable_shared_from_this<FanOut> {
 public:
  // Sends call i; the transport runs the callback once with its reply.
  using Issue = std::function<void(size_t, Transport::CallDone)>;
  using OnReply = std::function<void(size_t, StatusOr<wire::Frame>)>;

  FanOut(size_t count, Issue issue, OnReply on_reply,
         std::function<void()> on_done)
      : count_(count),
        issue_(std::move(issue)),
        on_reply_(std::move(on_reply)),
        on_done_(std::move(on_done)) {}

  void Pump() {
    if (pumping_) return;
    pumping_ = true;
    while (issued_ < count_ &&
           issued_ - answered_ < ClusterNode::kMaxInFlight) {
      const size_t i = issued_++;
      issue_(i, [self = shared_from_this(), i](StatusOr<wire::Frame> reply) {
        self->on_reply_(i, std::move(reply));
        ++self->answered_;
        self->Pump();
      });
    }
    pumping_ = false;
    if (answered_ == count_ && !done_) {
      done_ = true;
      on_done_();
    }
  }

 private:
  const size_t count_;
  Issue issue_;
  OnReply on_reply_;
  std::function<void()> on_done_;
  size_t issued_ = 0;
  size_t answered_ = 0;
  bool pumping_ = false;
  bool done_ = false;
};

void RunFanOut(size_t count, FanOut::Issue issue, FanOut::OnReply on_reply,
               std::function<void()> on_done) {
  std::make_shared<FanOut>(count, std::move(issue), std::move(on_reply),
                           std::move(on_done))
      ->Pump();
}

}  // namespace

ClusterNode::ClusterNode(ClusterOptions options, Transport* transport)
    : options_(std::move(options)),
      transport_(transport),
      space_(options_.config.id_bits),
      index_(space_.KeyForString(options_.name),
             options_.config.history_capacity),
      owner_(index_.id()) {
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

const wire::NodeInfo* ClusterNode::MemberById(uint64_t id) const {
  for (const wire::NodeInfo& m : members_) {
    if (m.id == id) return &m;
  }
  return nullptr;
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
  // Unique cluster-wide: the issuing node's ring id tags the top half, a
  // local counter the bottom. NOT globally time-ordered across issuers —
  // see RunLearningIteration for why cluster polls ignore cursors.
  return (self_.id << 32) | (++seq_counter_ & 0xffffffffULL);
}

StatusOr<wire::Frame> ClusterNode::CallMember(const wire::NodeInfo& node,
                                              wire::Frame frame) {
  if (node.id == self_.id) {
    // Self-addressed traffic dispatches directly: the node's own serve
    // loop is busy driving this very call, so a socket round trip to
    // ourselves would deadlock.
    return HandleFrame(frame);
  }
  PeerAddress addr;
  addr.id = node.id;
  addr.host = node.host;
  addr.udp_port = node.udp_port;
  addr.tcp_port = node.tcp_port;
  return transport_->Call(addr, frame, DirectCallOptions());
}

void ClusterNode::CallMemberAsync(const wire::NodeInfo& node,
                                  wire::Frame frame,
                                  Transport::CallDone done) {
  if (node.id == self_.id) {
    done(HandleFrame(frame));  // see CallMember
    return;
  }
  PeerAddress addr;
  addr.id = node.id;
  addr.host = node.host;
  addr.udp_port = node.udp_port;
  addr.tcp_port = node.tcp_port;
  transport_->CallAsync(addr, frame, DirectCallOptions(), std::move(done));
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
    StatusOr<wire::Frame> ack = CallMember(m, ToFrame(req));
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
  if (req->record.has_value()) index_.RecordQuery(FromWire(*req->record));
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
  std::unordered_map<TermId, uint64_t> cursor;
  my_terms.reserve(req->my_terms.size());
  for (size_t i = 0; i < req->my_terms.size(); ++i) {
    const TermId id = dict.Intern(req->my_terms[i]);
    my_terms.push_back(id);
    cursor[id] = req->cursors[i];
  }
  const std::vector<const core::QueryRecord*> records =
      index_.CollectQueriesForPoll(poll_terms, poll_keys, my_terms, cursor,
                                   space_);
  wire::PollResponse resp;
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

// --- Document sharing -------------------------------------------------------

Status ClusterNode::ShareDocument(corpus::DocId id, const std::string& title,
                                  const std::string& text) {
  obs::ScopedSpan span(tracer_, "share.document", self_.name);
  if (metrics_ != nullptr) metrics_->Add("cluster.documents_shared", 1);
  auto doc = std::make_unique<corpus::Document>();
  doc->id = id;
  doc->title = title;
  doc->terms = analyzer_.AnalyzeToVector(text);
  if (doc->terms.length() == 0) {
    return Status::InvalidArgument("document has no analyzable terms");
  }
  core::OwnedDocument& owned = owner_.AdoptDocument(doc.get());
  owned.index_terms =
      core::OwnerPeer::SelectInitialTerms(*doc, options_.config.initial_terms);
  documents_.push_back(std::move(doc));
  for (const std::string& term : owned.index_terms) {
    obs::ScopedSpan publish(tracer_, "publish.term", self_.name);
    publish.Annotate("term", term);
    wire::PublishTerm msg;
    msg.term = term;
    msg.entry = core::MakePosting(owned, term, self_.id);
    StatusOr<wire::Frame> ack =
        CallMember(OwnerOfKey(KeyOfTerm(term)), ToFrame(msg));
    if (!ack.ok()) return ack.status();
  }
  return Status::OK();
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
    const std::vector<std::vector<std::string>>& queries, RecordDone done) {
  // One record per responsible member, even when it serves several of a
  // query's terms — exactly one history entry per (member, issuance).
  struct RecordCall {
    size_t query = 0;
    uint64_t member = 0;
    std::string term;
  };
  struct RecordOp {
    std::vector<wire::WireQueryRecord> records;
    std::vector<RecordCall> calls;  // grouped by query, in issue order
    std::vector<size_t> unanswered;        // per query
    std::vector<obs::TraceContext> spans;  // per query
    Status first_error;
    size_t first_error_at = std::numeric_limits<size_t>::max();
    RecordDone done;
  };
  auto op = std::make_shared<RecordOp>();
  for (const std::vector<std::string>& raw : queries) {
    const std::vector<std::string> terms = corpus::DedupTerms(raw);
    if (terms.empty()) {
      done(Status::InvalidArgument("empty query"));
      return;
    }
    std::unordered_set<uint64_t> recorded_at;
    size_t members = 0;
    for (const std::string& term : terms) {
      const uint64_t member = OwnerOfKey(KeyOfTerm(term)).id;
      if (!recorded_at.insert(member).second) continue;
      op->calls.push_back({op->records.size(), member, term});
      ++members;
    }
    op->records.push_back(MakeWireRecord(terms));
    op->unanswered.push_back(members);
  }
  if (metrics_ != nullptr) {
    metrics_->Add("cluster.queries_recorded", op->records.size());
  }
  op->spans.resize(op->records.size());
  op->done = std::move(done);
  RunFanOut(
      op->calls.size(),
      [this, op](size_t i, Transport::CallDone reply) {
        const RecordCall& call = op->calls[i];
        if (i == 0 || op->calls[i - 1].query != call.query) {
          op->spans[call.query] = BeginSpan({}, "record.query");
        }
        wire::QueryRequest req;
        req.term = call.term;
        req.record = op->records[call.query];
        req.record_only = true;
        wire::Frame frame = ToFrame(req);
        StampContext(op->spans[call.query], frame);
        const wire::NodeInfo* member = MemberById(call.member);
        if (member == nullptr) {
          reply(Status::Unavailable("member left the view"));
          return;
        }
        CallMemberAsync(*member, std::move(frame), std::move(reply));
      },
      [op, this](size_t i, StatusOr<wire::Frame> ack) {
        const size_t query = op->calls[i].query;
        if (!ack.ok() && i < op->first_error_at) {
          op->first_error_at = i;
          op->first_error = ack.status();
        }
        if (--op->unanswered[query] == 0) EndSpan(op->spans[query]);
      },
      [op] { op->done(op->first_error); });
}

void ClusterNode::Search(const std::vector<std::string>& raw_terms, size_t k,
                         SearchDone done) {
  struct SearchOp {
    std::vector<std::string> terms;
    size_t k = 0;
    obs::TraceContext span;
    std::vector<obs::TraceContext> fetches;
    std::vector<StatusOr<wire::Frame>> replies;
    SearchDone done;
  };
  auto op = std::make_shared<SearchOp>();
  op->terms = corpus::DedupTerms(raw_terms);
  if (op->terms.empty()) {
    done(Status::InvalidArgument("empty query"));
    return;
  }
  if (metrics_ != nullptr) metrics_->Add("cluster.searches", 1);
  op->k = k;
  op->span = BeginSpan({}, "search");
  op->fetches.resize(op->terms.size());
  op->replies.resize(op->terms.size(), Status::Unavailable("unanswered"));
  op->done = std::move(done);
  RunFanOut(
      op->terms.size(),
      [this, op](size_t i, Transport::CallDone reply) {
        const std::string& term = op->terms[i];
        op->fetches[i] = BeginSpan(op->span, "fetch");
        if (op->fetches[i].valid()) {
          tracer_->AnnotateSpan(op->fetches[i].span_id, "term", term);
        }
        wire::QueryRequest req;
        req.term = term;
        wire::Frame frame = ToFrame(req);
        StampContext(op->fetches[i], frame);
        CallMemberAsync(OwnerOfKey(KeyOfTerm(term)), std::move(frame),
                        std::move(reply));
      },
      [this, op](size_t i, StatusOr<wire::Frame> reply) {
        EndSpan(op->fetches[i]);
        op->replies[i] = std::move(reply);
      },
      [this, op] {
        StatusOr<ir::RankedList> ranked = RankReplies(
            op->terms, op->replies, op->k, op->span);
        EndSpan(op->span);
        op->done(std::move(ranked));
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

Status ClusterNode::RunLearningIteration() {
  obs::ScopedSpan span(tracer_, "learning.iteration", self_.name);
  if (metrics_ != nullptr) metrics_->Add("cluster.learning_iterations", 1);
  for (auto& [doc_id, owned] : owner_.mutable_documents()) {
    // Group the document's index terms by responsible member and pull the
    // deduplicated incremental query history from each — the index-update
    // poll of Section 3, over real frames instead of the sim bus.
    std::map<uint64_t, std::vector<std::string>> by_member;
    for (const std::string& term : owned.index_terms) {
      by_member[OwnerOfKey(KeyOfTerm(term)).id].push_back(term);
    }
    std::vector<core::QueryRecord> pulled_local;
    for (const auto& [member_id, my_terms] : by_member) {
      const wire::NodeInfo* member = MemberById(member_id);
      if (member == nullptr) continue;
      wire::PollRequest poll;
      poll.poll_terms = owned.index_terms;
      poll.my_terms = my_terms;
      // Cluster polls carry zero cursors (full history every round). The
      // sim's watermark trick is unsound here: wire seqs are namespaced
      // per issuer ((node id << 32) | counter), so they are not globally
      // time-ordered and a max-seq cursor could permanently skip a slower
      // issuer's records. processed_seqs already makes QF exact under
      // re-pulls, so cursors would only save traffic, never change the
      // learned index sets.
      poll.cursors.assign(my_terms.size(), 0);
      obs::ScopedSpan poll_span(tracer_, "learning.poll", self_.name);
      StatusOr<wire::Frame> resp = CallMember(*member, ToFrame(poll));
      if (!resp.ok()) continue;  // unreachable member: pull it next round
      StatusOr<wire::PollResponse> parsed = wire::ParsePollResponse(*resp);
      if (!parsed.ok()) return parsed.status();
      for (const wire::WireQueryRecord& rec : parsed->records) {
        pulled_local.push_back(FromWire(rec));
      }
    }
    std::vector<const core::QueryRecord*> pulled;
    pulled.reserve(pulled_local.size());
    for (const core::QueryRecord& rec : pulled_local) pulled.push_back(&rec);
    const core::OwnerPeer::IndexUpdate update =
        owner_.LearnAndRetune(owned, pulled, options_.config);
    for (const std::string& term : update.remove) {
      wire::WithdrawTerm msg;
      msg.term = term;
      msg.doc = owned.content->id;
      StatusOr<wire::Frame> ack =
          CallMember(OwnerOfKey(KeyOfTerm(term)), ToFrame(msg));
      if (!ack.ok()) return ack.status();
    }
    for (const std::string& term : update.add) {
      wire::PublishTerm msg;
      msg.term = term;
      msg.entry = core::MakePosting(owned, term, self_.id);
      StatusOr<wire::Frame> ack =
          CallMember(OwnerOfKey(KeyOfTerm(term)), ToFrame(msg));
      if (!ack.ok()) return ack.status();
    }
  }
  return Status::OK();
}

// --- Persistence ------------------------------------------------------------

StatusOr<store::PeerStore*> ClusterNode::Store() {
  if (store_ == nullptr) {
    // Same per-peer directory layout as the simulation's stores, keyed by
    // the ring id (stable: derived from the node name).
    auto ps = std::make_unique<store::PeerStore>(
        options_.config.data_dir +
            StrFormat("/peer-%016llx",
                      static_cast<unsigned long long>(self_.id)),
        self_.id, store::StoreOptions{},
        options_.config.store_compact_threshold);
    SPRITE_RETURN_IF_ERROR(ps->Open());
    store_ = std::move(ps);
  }
  return store_.get();
}

Status ClusterNode::Flush() {
  if (options_.config.data_dir.empty()) {
    return Status::FailedPrecondition("ClusterOptions config.data_dir is not set");
  }
  StatusOr<store::PeerStore*> ps = Store();
  if (!ps.ok()) return ps.status();
  const TermDict& dict = TermDict::Global();
  std::vector<store::PeerStore::TermState> live;
  live.reserve(index_.index().size());
  for (const auto& [term, stored] : index_.index()) {
    store::PeerStore::TermState state;
    state.term = dict.TermOf(term);
    state.version = index_.TermVersion(term);
    state.postings = stored;
    live.push_back(std::move(state));
  }
  return (*ps)->Flush(std::move(live));
}

Status ClusterNode::Recover() {
  if (options_.config.data_dir.empty()) {
    return Status::FailedPrecondition("ClusterOptions config.data_dir is not set");
  }
  StatusOr<store::PeerStore*> ps = Store();
  if (!ps.ok()) return ps.status();
  TermDict& dict = TermDict::Global();
  for (store::PeerStore::TermState& state : (*ps)->TakeRecovered()) {
    index_.RestoreTerm(dict.Intern(state.term), std::move(state.postings),
                       state.version);
  }
  return Status::OK();
}

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
