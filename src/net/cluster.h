#ifndef SPRITE_NET_CLUSTER_H_
#define SPRITE_NET_CLUSTER_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "core/indexing_peer.h"
#include "core/owner_peer.h"
#include "corpus/document.h"
#include "dht/id_space.h"
#include "ir/ranked_list.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"

// A live SPRITE node (DESIGN.md §14): one process in a multi-node cluster,
// plugging the simulation's peer roles (core::IndexingPeer for the index
// half, core::OwnerPeer for the document half) onto a real Transport. The
// sim and the cluster share the role, ranking and learning code; only the
// medium differs — so a cluster of daemons converges to the same index
// sets and rankings the simulation predicts (asserted by the multi-process
// smoke in tools/ci.sh).
//
// Membership is a full-view ring: every node knows every member, and the
// peer responsible for a key is the successor of the key among the sorted
// member ids (the node with the smallest id >= key, wrapping). Nodes join
// by asking any bootstrap member for the member list and then announcing
// themselves to each member.
//
// Query records travel as term *spellings* (TermIds are process-local
// interner handles); receivers re-intern. A record's hash_key and the
// per-term ring keys use the same formulas as the simulation, so the
// closest-term dedup rule picks the same winner in both worlds.
namespace sprite::net {

struct ClusterOptions {
  // Unique node name; the node's ring id is IdSpace::KeyForString(name).
  std::string name;
  core::SpriteConfig config;
};

class ClusterNode {
 public:
  using SearchDone = std::function<void(StatusOr<ir::RankedList>)>;
  using Done = std::function<void(Status)>;

  // Calls one operation keeps unanswered at most; the rest go out in order
  // as replies return.
  static constexpr size_t kMaxInFlight = 64;

  ClusterNode(ClusterOptions options, Transport* transport);

  const wire::NodeInfo& self() const { return self_; }
  // Where this node's sockets actually listen (filled in by the daemon
  // once the transport/HTTP ports are bound).
  void SetEndpoints(const std::string& host, uint16_t udp, uint16_t tcp,
                    uint16_t http);

  // Live observability (DESIGN.md §16): cluster.* counters into `metrics`
  // and spans named exactly like the simulation's ("search", "fetch",
  // "rank", "record.query", "share.document", "learning.iteration",
  // "learning.poll", "publish.term", "withdraw.term") so trace_report
  // analyzes live and sim dumps uniformly. Every operation traces under
  // explicit contexts, so several can be open at once. Either pointer may
  // be null (no-op).
  void AttachObservability(obs::MetricsRegistry* metrics,
                           obs::Tracer* tracer) {
    metrics_ = metrics;
    tracer_ = tracer;
  }

  // --- Membership -------------------------------------------------------
  // Learns the member list from any existing member and announces this
  // node to each of them. Without a bootstrap the node starts a one-node
  // cluster (it is always a member of its own view). Join blocks on UDP
  // control calls: run it before the node serves.
  Status Join(const PeerAddress& bootstrap);
  void AddMember(const wire::NodeInfo& node);
  const std::vector<wire::NodeInfo>& members() const { return members_; }
  // The member responsible for `key` (successor among sorted member ids).
  const wire::NodeInfo& OwnerOfKey(uint64_t key) const;
  uint64_t KeyOfTerm(const std::string& term) const;

  // --- Inbound ----------------------------------------------------------
  // The frame dispatcher; register with the serving transport. Handlers
  // never make outbound calls, so a cluster of sequential serve loops
  // cannot deadlock.
  StatusOr<wire::Frame> HandleFrame(const wire::Frame& frame);

  // --- Operations -------------------------------------------------------
  // No operation waits: its calls go out through Transport::CallAsync (in
  // issue order per member, at most kMaxInFlight unanswered) and `done`
  // runs after the last reply — possibly before the call returns, since
  // self-addressed frames and in-process transports answer inline. A
  // Status `done` gets is OK or the first error in issue order. Sharing
  // and learning (the owner half) run one at a time: another one started
  // before `done` fails with FailedPrecondition.
  //
  // Adopts the analyzed `docs` and publishes their initial index terms.
  // Ids must be unique cluster-wide (doc ids ride inside postings); a
  // document without terms (InvalidArgument) or an id already owned here or
  // repeated in `docs` (AlreadyExists) fails the batch before anything is
  // adopted.
  void ShareDocuments(std::vector<corpus::Document> docs, Done done);
  bool Owns(corpus::DocId id) const { return owner_.document(id) != nullptr; }
  // One SPRITE learning iteration over the documents owned here: poll the
  // members core::PlanPolls picks for the query records cached since each
  // term's cursor, retune each document as soon as its polls are answered,
  // then withdraw and publish the changes, each document's withdrawals
  // before its publications. A member answers with its epoch and arrival
  // high-water mark, which LearnAndRetune makes the cursor of the poll's
  // terms, as in the simulation; a failed poll skips that member this round
  // and advances none. Counts learning.polls (polls sent),
  // learning.pulled_queries (records received) and
  // learning.terms_added/terms_removed, as the simulation does.
  void RunLearningIteration(Done done);
  // Records each query's issuance at every member responsible for one of
  // its terms (the training half of SPRITE's learning loop). Every member
  // appends the records in issue order. Each issuance gets a seq that
  // identifies it (see NextSeq); no order is read from seqs. An empty
  // query fails the batch before anything is sent.
  void RecordQueries(const std::vector<std::vector<std::string>>& queries,
                     Done done);
  // Fetches each term's inverted list from its responsible member and
  // ranks locally — the querying-peer algorithm of Section 4, sharing
  // core/ranking.h with the simulation. k = 0 returns all candidates.
  // Lists are ranked in term order whatever order replies arrive in, so
  // scores are bitwise those of the simulation; on failure `done` gets
  // the first error in term order.
  void Search(const std::vector<std::string>& raw_terms, size_t k,
              SearchDone done);

  // --- Persistence (src/store, DESIGN.md §15) ---------------------------
  // Writes this node's index half (term spellings, versions, compressed
  // posting blobs) into its durable store under config.data_dir. The ring
  // id is derived from the node name, so a restarted daemon with the same
  // name maps back to the same store directory. FailedPrecondition when
  // data_dir is empty.
  Status Flush();
  // Replays the durable store into the freshly constructed index half;
  // call after construction, before serving. Re-interns spellings and
  // reinstates the persisted term versions, so version-check caching stays
  // consistent across the restart.
  Status Recover();

  struct Stats {
    size_t members = 0;
    size_t documents = 0;
    size_t indexed_terms = 0;   // terms this node's index half serves
    size_t postings = 0;
    size_t history_records = 0;
  };
  Stats GetStats() const;

 private:
  // One call of an operation: the request `frame` builds from the call
  // when the fan-out issues it, to member `member`, looked up then as the
  // successor of that id (the member itself, as members never leave a
  // view), traced under group `group`'s span, in a span of its own (term
  // annotated) if `name` is set. Building at issue time keeps at most
  // kMaxInFlight of an operation's requests in memory.
  struct Call {
    uint64_t member = 0;
    std::function<wire::Frame(const Call&)> frame;
    size_t group = 0;
    const char* name = nullptr;
    std::string term = {};
    obs::TraceContext span = {};  // set once issued
  };
  using ReplyHook = std::function<void(size_t, StatusOr<wire::Frame>)>;
  struct CallRun;

  // Every TCP call goes out here; a self-addressed frame is handled inline.
  void CallMemberAsync(const wire::NodeInfo& node, wire::Frame frame,
                       Transport::CallDone done);
  // Ranks a search's replies in term order under `search`'s rank span.
  StatusOr<ir::RankedList> RankReplies(
      const std::vector<std::string>& terms,
      std::vector<StatusOr<wire::Frame>>& replies, size_t k,
      const obs::TraceContext& search);
  // Sends `calls` through one fan-out; `on_reply` (if set) sees each reply
  // and `done` gets OK or the first failed call's status in issue order.
  // With `end_groups`, `groups[g]` ends once group g's last call is
  // answered (at once when it has none).
  void RunCalls(std::vector<Call> calls,
                std::vector<obs::TraceContext> groups, bool end_groups,
                ReplyHook on_reply, Done done);
  // The publication (or withdrawal) of `term` for `owned`.
  Call IndexCall(const core::OwnedDocument& owned, const std::string& term,
                 bool publish, size_t group);
  // Spans of asynchronous operations (no-ops without a tracer).
  obs::TraceContext BeginSpan(const obs::TraceContext& parent,
                              const char* name);
  void EndSpan(const obs::TraceContext& span);
  CallOptions DirectCallOptions() const;
  // The next issuance's seq: this incarnation's epoch plus a counter.
  uint64_t NextSeq();

  StatusOr<wire::Frame> HandleJoin(const wire::Frame& frame);
  StatusOr<wire::Frame> HandlePublish(const wire::Frame& frame);
  StatusOr<wire::Frame> HandleWithdraw(const wire::Frame& frame);
  StatusOr<wire::Frame> HandleQuery(const wire::Frame& frame);
  StatusOr<wire::Frame> HandlePoll(const wire::Frame& frame);

  wire::WireQueryRecord MakeWireRecord(
      const std::vector<std::string>& deduped_terms);

  ClusterOptions options_;
  Transport* transport_;
  dht::IdSpace space_;
  wire::NodeInfo self_;
  std::vector<wire::NodeInfo> members_;  // sorted by id, includes self_
  core::IndexingPeer index_;
  core::OwnerPeer owner_;
  // Backing store for owned documents (OwnedDocument keeps a pointer).
  std::vector<std::unique_ptr<corpus::Document>> documents_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  core::IndexingPeerStore store_;  // same layout as the simulation's stores
  // This incarnation: random, nonzero, drawn at construction. Poll cursors
  // from another epoch count as 0, and issued seqs start from it.
  const uint64_t epoch_;
  uint64_t arrivals_ = 0;  // the last arrival number a cached record got
  bool owner_busy_ = false;  // a share or learning round is running
  uint64_t seq_counter_ = 0;
  uint32_t record_id_counter_ = 0;
};

}  // namespace sprite::net

#endif  // SPRITE_NET_CLUSTER_H_
