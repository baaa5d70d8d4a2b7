#ifndef SPRITE_CORE_SPRITE_SYSTEM_H_
#define SPRITE_CORE_SPRITE_SYSTEM_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "common/status.h"
#include "common/worker_pool.h"
#include "core/config.h"
#include "core/indexing_peer.h"
#include "core/owner_peer.h"
#include "core/types.h"
#include "corpus/corpus.h"
#include "corpus/query.h"
#include "dht/chord.h"
#include "ir/ranked_list.h"
#include "obs/explain.h"
#include "obs/latency_model.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "net/sim_transport.h"

namespace sprite::core {

// Why a relevant document was absent from a search's results, for the
// explain ledger's miss attribution (ISSUE 5). Ordered by specificity:
// churn-lost beats withdrawn beats never-indexed when several terms of the
// missed doc tell different stories.
enum class MissCause {
  // No query term was ever published as a global index term of the doc.
  kNeverIndexed,
  // A query term was published once but later withdrawn by learning.
  kWithdrawn,
  // A query term is in the doc's current index set, but the responsible
  // peer cannot serve its posting (the peer that held it failed without a
  // replica).
  kChurnLost,
};

const char* MissCauseName(MissCause cause);

// One missed document with its diagnosed cause and the witnessing term.
struct MissAttribution {
  DocId doc = 0;
  MissCause cause = MissCause::kNeverIndexed;
  std::string term;  // the query term that witnesses the cause
};

// The complete simulated SPRITE deployment (Section 3): a Chord ring of
// peers, each playing both the owner-peer and indexing-peer roles, plus the
// two services — document sharing (with selective, progressively tuned
// global index terms) and keyword retrieval (querying peer fetches the
// inverted lists of the query terms and ranks locally).
//
// The same class also runs as the "basic eSearch" baseline: configure
// `selection = kStaticFrequency` and the learning iterations degrade to
// static most-frequent-term growth, with every other code path (DHT,
// publication, query processing) shared — which is exactly what the
// paper's comparison isolates.
//
// All traffic a real deployment would send is charged to the simulated
// bus's ledger, network_stats(); Chord routing hops are additionally
// available via ring().stats().
class SpriteSystem {
 public:
  explicit SpriteSystem(SpriteConfig config);

  SpriteSystem(const SpriteSystem&) = delete;
  SpriteSystem& operator=(const SpriteSystem&) = delete;

  // --- Document sharing service ------------------------------------------
  // Shares `doc`: assigns an owner peer, selects the initial global index
  // terms (top-F frequent) and publishes them. The document must outlive
  // the system. Fails if the document is empty or already shared.
  Status ShareDocument(const corpus::Document& doc);
  // Shares every document of `corpus` (which must outlive the system).
  Status ShareCorpus(const corpus::Corpus& corpus);

  // --- Retrieval service --------------------------------------------------
  // Caches `query` at the indexing peers responsible for its terms without
  // executing it (used to seed training history, as in Section 6.2). A peer
  // responsible for several of the query's terms stores the record once.
  void RecordQuery(const corpus::Query& query);
  // Executes `query`: routes to each term's indexing peer, retrieves the
  // inverted lists, and ranks with the Lee et al. similarity using indexed
  // document frequencies. When `record` is true the issuance is also
  // cached in the peers' histories (normal system behaviour); the record
  // piggybacks on the search's own term requests, so recording adds bytes
  // but no extra Chord lookups or messages.
  StatusOr<ir::RankedList> Search(const corpus::Query& query, size_t k,
                                  bool record = true);

  // --- Sharded epoch engine (DESIGN.md §12) --------------------------------
  // Batch entry points that split each operation into a pure *plan* phase —
  // fanned out across `SpriteConfig::num_threads` workers — and a
  // sequential *commit* phase that replays every effect (traffic, spans,
  // caches, histories, metrics) in batch order. The single-operation calls
  // above are epochs of one, so a batch call is byte-identical to the
  // equivalent loop of single-operation calls at any thread count, and
  // dumps produced at --threads=8 compare equal to --threads=1.
  //
  // Executes `queries` in order; element i of the result corresponds to
  // queries[i] (an empty query yields an InvalidArgument status). Queries
  // are processed in fixed-size chunks whose boundaries do not depend on
  // the thread count.
  std::vector<StatusOr<ir::RankedList>> SearchEpoch(
      const std::vector<const corpus::Query*>& queries, size_t k,
      bool record = true);
  // Caches each query of the batch at its responsible indexing peers, in
  // query order (empty queries are ignored). Routing plans are computed in
  // parallel; the commit appends each record as its routes resolve.
  void RecordQueryEpoch(const std::vector<const corpus::Query*>& queries);

  // --- Index tuning --------------------------------------------------------
  // One learning period: every owner peer polls the indexing peers of each
  // document's current terms, pulls the (deduplicated, incremental) query
  // history, retunes the term set with Algorithm 1 and publishes the
  // changes. Under kStaticFrequency this instead grows each document's
  // index by the next most frequent terms.
  void RunLearningIteration();

  // Stops sharing `doc`: withdraws its global index terms from the DHT and
  // discards the owner-side state.
  Status UnshareDocument(DocId doc);

  // Replaces the shared content of an already-shared document (same id).
  // Postings of surviving index terms are re-published with the new term
  // frequencies; index terms no longer present in the document are
  // withdrawn. Learned statistics for vanished terms are dropped.
  Status UpdateDocument(const corpus::Document& doc);

  // --- Section 7 extensions -------------------------------------------------
  // Copies every indexing peer's inverted lists to its
  // `replication_factor` successors.
  void ReplicateIndexes();
  // Abruptly fails a peer (its primary index state becomes unreachable).
  Status FailPeer(PeerId id);
  // Runs stabilization rounds so the ring routes around failures.
  void StabilizeNetwork(int rounds);
  // LAR-style hot-term caching (Section 7, load balance (b)): finds the
  // `top_terms` most queried terms across peer histories and pushes their
  // inverted lists into the caches of the peers responsible for terms that
  // co-occur with them in cached queries. When
  // `SpriteConfig::use_hot_term_cache` is set, Search() consults these
  // caches and skips contacting the hot peer. Returns cache placements.
  size_t RunHotTermCaching(size_t top_terms);

  // --- Introspection ---------------------------------------------------------
  // Current global index terms of `doc` (nullptr when unknown).
  const std::vector<std::string>* IndexTermsOf(DocId doc) const;
  PeerId OwnerOf(DocId doc) const;
  // Sum of |index terms| over all shared documents.
  size_t TotalIndexedTerms() const;

  const dht::ChordRing& ring() const { return ring_; }
  dht::ChordRing& mutable_ring() { return ring_; }
  // The simulated bus every direct send, exchange and routing hop is
  // charged to (DESIGN.md §14) keeps a per-type frame/byte/timeout/retry
  // ledger. network_stats() and transport_stats() are the same ledger.
  const net::TransportStats& network_stats() const { return bus_.stats(); }
  const net::TransportStats& transport_stats() const { return bus_.stats(); }
  // Deadline/retry policy for direct exchanges, from the config knobs.
  net::CallOptions DirectCallOptions() const {
    return net::CallOptions{config_.peer_timeout_ms, config_.send_retries,
                            config_.retry_backoff_ms};
  }
  // Resets the traffic ledger; the bus also drops its mirrored net.* and
  // transport.* counters from the registry so both views stay in sync.
  void ClearNetworkStats() { bus_.ClearStats(); }
  // The observability registry: per-phase counters and latency histograms
  // for search (route/fetch/rank), learning polls and replication, plus the
  // per-message-type traffic mirrored from network_stats() and the Chord
  // lookup distribution. Snapshot() + ToJson() produce the BENCH_*.json
  // payload.
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::MetricsRegistry& mutable_metrics() { return metrics_; }
  // Full observability reset: registry, traffic accounting, Chord routing
  // stats, time-series buffer, explain ledgers and SLO alert state all
  // return to a blank post-setup baseline together (clearing only one
  // view would leave the mirrors disagreeing).
  void ClearMetrics() {
    metrics_.Clear();
    bus_.ClearStats();
    ring_.ClearStats();
    cache_.ClearStats();  // stats only: cached contents stay warm
    timeseries_.Clear();
    explain_.Clear();
    slo_.ClearAlerts();  // alerts only: rules are configuration
    UpdateMembershipGauges();
  }
  // The tracer: span trees over a simulated clock for every instrumented
  // operation (search, publish/withdraw, learning, replication). Disabled
  // by default; enable via mutable_tracer().set_enabled(true).
  const obs::Tracer& tracer() const { return tracer_; }
  obs::Tracer& mutable_tracer() { return tracer_; }
  // Publishes per-peer load gauges ("load.postings"/"load.queries", one
  // label per alive peer) plus skew summaries (max, mean, max/mean ratio,
  // Gini) into the registry. Call before Snapshot() in load experiments.
  void ExportLoadMetrics();
  // The querying-peer cache tiers (src/cache): result + posting caches
  // with learning-aware version validation. Disabled unless
  // SpriteConfig::cache is kOn or kBlind.
  const cache::CacheManager& query_cache() const { return cache_; }
  // The time-series recorder (enabled via SpriteConfig::enable_timeseries):
  // snapshots of unlabeled registry metrics keyed by simulated time and
  // learning round, exported as JSONL/CSV by benches.
  const obs::TimeSeriesRecorder& timeseries() const { return timeseries_; }
  // Captures one time-series point (labelled with the capture site, e.g.
  // "round" or "post-failure") from the current registry state and
  // evaluates the SLO rules against it. Returns the stored point, or
  // nullptr when the recorder is disabled.
  const obs::TimeSeriesPoint* CaptureTimeSeriesPoint(
      const std::string& label);
  // The explain recorder (enabled via SpriteConfig::enable_explain):
  // per-search score decompositions and the owner-side learning decision
  // ledger behind `sprite_cli explain` / `sprite_cli learning-ledger`.
  const obs::ExplainRecorder& explainer() const { return explain_; }
  // Diagnoses why each of `missed` (docs a reference ranking returned but
  // this system did not) was absent: never-indexed, withdrawn by
  // learning, or churn-lost. Requires enable_explain (the withdrawn
  // diagnosis needs the publication ledger); one attribution per doc.
  std::vector<MissAttribution> AttributeMisses(
      const corpus::Query& query, const std::vector<DocId>& missed) const;
  // The SLO watchdog: declarative threshold rules evaluated at every
  // time-series capture; alerts mirror into the registry ("slo.alerts")
  // and the trace stream.
  const obs::SloWatchdog& slo() const { return slo_; }
  obs::SloWatchdog& mutable_slo() { return slo_; }
  // Completed learning iterations since construction (the time-series
  // round key).
  uint64_t learning_round() const { return learning_round_; }
  // The host-side wall-clock profiler (DESIGN.md §13): perf.* timings
  // around epoch phases and search hot paths, on the *host* clock, kept in
  // a registry separate from metrics() so the deterministic dumps never see
  // wall time. Off unless SpriteConfig::enable_wall_profiler (or
  // mutable_profiler().set_enabled(true)); disabled sites cost one relaxed
  // atomic load.
  const obs::WallProfiler& profiler() const { return wall_; }
  obs::WallProfiler& mutable_profiler() { return wall_; }
  // Utilization snapshot of the epoch engine's worker pool (host-side,
  // like the profiler). Zeros until the pool is first used.
  WorkerPool::Stats pool_stats() const {
    return pool_ == nullptr ? WorkerPool::Stats{} : pool_->stats();
  }
  // The latency model derived from SpriteConfig's hop RTT and bandwidth.
  const obs::LatencyModel& latency_model() const { return latency_; }
  const SpriteConfig& config() const { return config_; }
  const IndexingPeer* indexing_peer(PeerId id) const;
  const OwnerPeer* owner_peer(PeerId id) const;
  // Monotone issuance counter (also the newest seq in any history).
  uint64_t current_seq() const { return seq_counter_; }
  // Query-processing requests served per peer (cache-served co-term lists
  // count toward the serving peer). Input to the load-balance experiments.
  const std::unordered_map<PeerId, uint64_t>& query_load() const {
    return query_load_;
  }
  void ClearQueryLoad() { query_load_.clear(); }

  // --- Persistence (src/store, DESIGN.md §15) ---------------------------
  // Writes every alive indexing peer's primary index (term spellings,
  // versions, compressed posting blobs) into its durable store under
  // SpriteConfig::data_dir — a delta segment per changed peer, or a
  // compaction when the segment count crosses the threshold. Replicas, hot
  // caches, and query histories are soft state and stay memory-only.
  // kFailedPrecondition when data_dir is empty.
  Status Flush();
  // Replays each peer's durable store (manifest + segments, CRC-checked)
  // into the freshly constructed peers: terms are re-interned and the
  // persisted versions reinstated, so version-check caching stays
  // consistent across a restart. Call on a new instance before serving.
  Status Recover();

 private:
  // The ring key of an interned term: the TermDict's precomputed MD5
  // prefix truncated into this ring's id space — bit-for-bit what
  // IdSpace::KeyForString(spelling) computes, without hashing.
  uint64_t RingKeyOf(TermId term) const {
    return ring_.space().Truncate(TermDict::Global().RawKeyOf(term));
  }
  // Replays a planned lookup (ring stats, chord.* metrics, hop spans) and
  // charges its hop traffic, which annotates the innermost open span — the
  // caller's `route` span where it has one.
  StatusOr<dht::ChordRing::LookupResult> CommitRoute(
      const dht::ChordRing::LookupPlan& route);
  // Stamps a new issuance: deduped terms, ring hash key, fresh seq.
  QueryRecord MakeQueryRecord(const corpus::Query& query);
  // Refreshes the peers.alive / peers.total gauges after membership events.
  void UpdateMembershipGauges();
  // Ring node name of `id` ("peer42"), or a synthesized "peer-<id>".
  std::string PeerNameOf(PeerId id) const;
  // A deterministic alive peer derived from `hash` (e.g. who issues a
  // query, who owns a document).
  PeerId PickPeer(uint64_t hash) const;
  // The share epoch behind ShareDocument and ShareCorpus: validates and
  // shares `docs` in order, stopping at the first invalid document.
  Status ShareDocuments(const std::vector<const corpus::Document*>& docs);
  // Runs the version-check protocol for a cached entry built from
  // `sources`: one direct kVersionCheck exchange per distinct source peer
  // (the querying peer cached the addresses with the entry, so no Chord
  // routing happens). A piggybacked query record rides along exactly like
  // on a normal fetch. Returns whether every source is alive, still
  // responsible for its term, and at the cached version; the exchanges'
  // request/byte costs are accumulated into `requests`/`bytes`.
  bool ValidateCachedSources(
      const std::vector<std::pair<TermId, cache::TermSource>>& sources,
      const std::optional<QueryRecord>& rec,
      std::unordered_set<PeerId>& recorded_at, uint64_t& requests,
      uint64_t& bytes);
  // Oracle staleness test for blind (CacheMode::kBlind) serving: would
  // the version check have failed? Costs no messages; it only feeds the
  // cache.*.stale_serves counters so staleness is measured, not hidden.
  bool CachedSourcesStale(
      const std::vector<std::pair<TermId, cache::TermSource>>& sources) const;
  Status PublishTerm(PeerId owner, const std::string& term,
                     const PostingEntry& entry);
  Status WithdrawTerm(PeerId owner, const std::string& term, DocId doc);
  // Commit halves of PublishTerm/WithdrawTerm, which plan the route and
  // delegate here: `id` is the already-interned term and `route` its
  // lookup plan (from ring().PlanFindSuccessor).
  Status PublishTermRouted(PeerId owner, const std::string& term, TermId id,
                           const dht::ChordRing::LookupPlan& route,
                           const PostingEntry& entry);
  Status WithdrawTermRouted(PeerId owner, const std::string& term, TermId id,
                            const dht::ChordRing::LookupPlan& route,
                            DocId doc);

  // Everything SearchImpl consumes that can be precomputed without side
  // effects. The prologue (sequential) assigns the issuance, record and
  // interned terms; PlanSearch (parallel, const) fills in the rest.
  struct SearchPlan {
    // Prologue.
    uint64_t issuance = 0;
    std::optional<QueryRecord> rec;
    std::vector<TermId> terms;  // deduplicated, in query order
    // Plan phase.
    PeerId querying_peer = 0;
    size_t start = 0;  // contact rotation offset
    std::vector<dht::ChordRing::LookupPlan> routes;  // parallel to `terms`
    // Optimistic pre-ranking over the posting-list snapshots the plan saw.
    // The commit reuses `ranked` only when it fetched exactly the lists in
    // `ranked_over` (pointer identity), in order — otherwise it ranks live.
    std::vector<PostingListPtr> ranked_over;
    ir::RankedList ranked;
    bool has_ranked = false;
    // Wall time of the pre-ranking, measured only while the profiler is
    // on; the commit records it as perf.search.rank when it reuses
    // `ranked`.
    uint64_t rank_ns = 0;
  };
  // Pure plan phase for one query; safe to call concurrently with other
  // plans (const: reads the ring, indexes and dictionary, mutates only
  // `plan`). The prologue fields of `plan` must already be set.
  void PlanSearch(const corpus::Query& query, size_t k,
                  SearchPlan& plan) const;
  // The commit phase of one non-empty query: the plan's routes and
  // pre-ranking are replayed while every effect — cache traffic, spans,
  // histories, metrics — happens against live state.
  StatusOr<ir::RankedList> SearchImpl(const corpus::Query& query, size_t k,
                                      const SearchPlan& plan);
  // The worker pool of the epoch engine, sized by config_.num_threads
  // (lazily constructed on the first epoch).
  WorkerPool& pool();
  void ApplyIndexUpdate(PeerId owner_id, OwnedDocument& owned,
                        const OwnerPeer::IndexUpdate& update);
  // Explain-ledger hook: records one LearningDecision per publish/withdraw
  // verdict of this round's update, with the Score(t,D) inputs looked up
  // in `ranked` (empty under kStaticFrequency) and `owned.stats`.
  void RecordLearningDecisions(PeerId owner_id, DocId doc,
                               const OwnedDocument& owned,
                               const std::vector<ScoredTerm>& ranked,
                               const OwnerPeer::IndexUpdate& update);
  // True when the peer currently responsible for `term` can serve a
  // posting for `doc` (primary or replica fallback).
  bool TermServesDoc(TermId term, DocId doc) const;

  SpriteConfig config_;
  // Declared before ring_ and bus_, which hold pointers into them.
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  obs::LatencyModel latency_;
  dht::ChordRing ring_;
  // The transport seam: direct sends, exchanges and routing hops are
  // charged through the bus, which owns the traffic ledger and the
  // unreachable-peer timeout/retry semantics. Holds pointers into
  // metrics_, ring_ and tracer_, so declared after them.
  net::SimTransport bus_;
  cache::CacheManager cache_;
  obs::TimeSeriesRecorder timeseries_;
  obs::ExplainRecorder explain_;
  obs::SloWatchdog slo_;
  // Host wall-clock observability; independent of every simulated stream.
  obs::WallProfiler wall_;
  std::unique_ptr<WorkerPool> pool_;
  // The durable stores, one per indexing peer that flushed or recovered.
  std::map<PeerId, IndexingPeerStore> stores_;
  std::map<PeerId, IndexingPeer> indexing_;
  std::map<PeerId, OwnerPeer> owners_;
  std::vector<PeerId> peer_ids_;  // sorted, as constructed
  std::unordered_map<DocId, PeerId> doc_owner_;
  std::unordered_map<PeerId, uint64_t> query_load_;
  uint64_t seq_counter_ = 0;
  // Counts every Search() call; successive issuances of the same query are
  // treated as coming from different users (querying peer and term-contact
  // order vary deterministically with it).
  uint64_t search_counter_ = 0;
  // Completed learning iterations, keying time-series points and the
  // explain ledger's decision rounds.
  uint64_t learning_round_ = 0;
};

// A SpriteConfig configured as the basic eSearch baseline of Section 6:
// statically index the `num_index_terms` most frequent terms of each
// document on the same substrate.
SpriteConfig MakeESearchConfig(SpriteConfig base, size_t num_index_terms);

}  // namespace sprite::core

#endif  // SPRITE_CORE_SPRITE_SYSTEM_H_
