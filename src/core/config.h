#ifndef SPRITE_CORE_CONFIG_H_
#define SPRITE_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sprite::core {

// How a system chooses the global index terms of a document.
enum class TermSelectionPolicy {
  // SPRITE: start from the top-F frequent terms, then learn from cached
  // queries (Section 5).
  kLearned,
  // Basic eSearch: statically index the most frequent terms; learning
  // iterations add the next most frequent ones (no query feedback).
  kStaticFrequency,
};

// Variants of the term score used when ranking candidate terms during
// learning; kQScoreLogQf is the paper's formula, the rest exist for the
// ablation bench (Abl-1 in DESIGN.md).
enum class LearningScoreVariant {
  kQScoreLogQf,   // qScore * log10(QF)   (the paper)
  kQScoreRawQf,   // qScore * QF
  kQScoreOnly,    // qScore
  kQfOnly,        // log10(QF)
};

// The querying-peer caches (src/cache, DESIGN.md §9). kOn keeps a
// query-result cache (normalized term set -> top-k ranked list) and a
// posting cache (term -> inverted list, so multi-term queries sharing a hot
// term skip its DHT fetch and re-rank locally) at every querying peer, and
// validates each hit with a version-check message before serving it.
// kBlind serves hits without the check (zero traffic) and measures the
// stale-serve rate instead.
enum class CacheMode { kOff, kOn, kBlind };

// Tunables of a P2P search system instance. Defaults reproduce the paper's
// default experimental setting (Section 6.2).
struct SpriteConfig {
  // --- Network -------------------------------------------------------
  size_t num_peers = 64;
  int id_bits = 32;
  size_t successor_list_size = 8;

  // --- Transport (ISSUE 8) ---------------------------------------------
  // Where a live node binds its sockets (sprite_daemon / `sprite_cli
  // serve`); 0 picks an ephemeral port. Ignored by the in-process sim
  // backend, which stays the default everywhere else.
  std::string listen_host = "127.0.0.1";
  uint16_t udp_port = 0;   // DHT routing + membership control
  uint16_t tcp_port = 0;   // bulk posting transfer
  uint16_t http_port = 0;  // JSON query frontend
  // Direct-exchange deadline/retry policy, honored by both backends. With
  // the default send_retries = 0 an unreachable peer costs exactly one
  // request and no response — the accounting the sim has always used — so
  // defaults keep every dump byte-identical.
  double peer_timeout_ms = 1000.0;
  size_t send_retries = 0;
  double retry_backoff_ms = 200.0;

  // --- Indexing --------------------------------------------------------
  TermSelectionPolicy selection = TermSelectionPolicy::kLearned;
  // F: initial terms published when a document is first shared.
  size_t initial_terms = 5;
  // New terms added per learning iteration.
  size_t terms_per_iteration = 5;
  // Hard cap on the number of global index terms per document (T).
  size_t max_index_terms = 20;

  // --- Learning --------------------------------------------------------
  LearningScoreVariant score_variant = LearningScoreVariant::kQScoreLogQf;
  // Cached queries kept per indexing peer ("only the most recently issued
  // queries", Section 3).
  size_t history_capacity = 4096;

  // --- Query processing ------------------------------------------------
  // The "sufficiently large N" of Section 4 used in IDF, since the true
  // corpus size is unknowable in a P2P setting.
  double idf_corpus_size = 1e6;
  // Discard query terms whose indexing peer cannot be reached instead of
  // failing the query (Section 7's first failure-handling scheme).
  bool skip_unreachable_terms = true;

  // --- Observability ---------------------------------------------------
  // Simulated link parameters for the obs::LatencyModel, which converts
  // counted Chord hops and message bytes into per-operation latencies
  // (reported by SpriteSystem::metrics()). One overlay hop costs a full
  // round trip; bulk payloads serialize through the access bandwidth.
  double hop_rtt_ms = 50.0;
  // 1.25e6 B/s == 10 Mbit/s, a conservative broadband uplink.
  double bandwidth_bytes_per_sec = 1.25e6;
  // Record periodic metric snapshots (obs::TimeSeriesRecorder) keyed by
  // simulated time and learning round; benches capture one point per
  // round to export the paper's Fig. 4 convergence curves.
  bool enable_timeseries = false;
  // Record per-search score decompositions and per-round learning
  // decisions (obs::ExplainRecorder), surfaced by `sprite_cli explain`
  // and `sprite_cli learning-ledger`.
  bool enable_explain = false;
  // Host-side wall-clock profiler (obs::WallProfiler, DESIGN.md §13):
  // scoped timers around the epoch phases and search hot paths, aggregated
  // under perf.* in a registry separate from the deterministic metrics.
  // Never affects simulated results or dumps; exported only through the
  // benches' --perf-json sidecar.
  bool enable_wall_profiler = false;

  // --- Querying-peer caching (src/cache) --------------------------------
  CacheMode cache = CacheMode::kOff;

  // --- Posting store + persistence (src/store, DESIGN.md §15) -----------
  // Root directory for the per-peer durable stores (segments + manifest).
  // Empty disables persistence: Flush()/Recover() fail with
  // kFailedPrecondition and nothing touches the filesystem.
  std::string data_dir;
  // When a peer's live segment count reaches this, the next flush writes
  // one compacted full segment instead of a delta and drops the old files.
  size_t store_compact_threshold = 4;

  // --- Extensions (Section 7) -------------------------------------------
  // Successor replicas kept per indexing peer; 0 disables replication.
  size_t replication_factor = 0;
  // Consult LAR-style hot-term caches during query processing (populated
  // by SpriteSystem::RunHotTermCaching).
  bool use_hot_term_cache = false;

  // --- Execution --------------------------------------------------------
  // Worker threads of the sharded epoch engine (DESIGN.md §12). Batch
  // entry points (SearchEpoch, RecordQueryEpoch, ShareCorpus, learning
  // iterations) plan peers in parallel across this many threads and commit
  // effects at a barrier in a fixed order, so every thread count produces
  // byte-identical metrics, traces, and dumps. 1 = plan inline on the
  // caller (the classic single-threaded engine).
  size_t num_threads = 1;

  uint64_t seed = 1;
};

// The --cache= modes of sprite_cli and the benches, spelled as CacheMode's
// values; "" leaves caching off.
inline const std::vector<std::string> kCacheModes = {"on", "off", "blind"};
inline void ApplyCacheMode(const std::string& mode, SpriteConfig& config) {
  config.cache = mode == "on"      ? CacheMode::kOn
                 : mode == "blind" ? CacheMode::kBlind
                                   : CacheMode::kOff;
}

}  // namespace sprite::core

#endif  // SPRITE_CORE_CONFIG_H_
