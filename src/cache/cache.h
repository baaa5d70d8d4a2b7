#ifndef SPRITE_CACHE_CACHE_H_
#define SPRITE_CACHE_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cache/lru_cache.h"
#include "core/types.h"
#include "ir/ranked_list.h"
#include "obs/metrics.h"
#include "p2p/message.h"
#include "text/term_dict.h"

namespace sprite::cache {

using core::PeerId;
using core::TermId;

// Where a cached term's inverted list came from: the indexing peer that
// served it and that peer's term version at serving time. The version-check
// protocol (DESIGN.md §9) compares this triple against the live index; a
// peer that died, lost responsibility for the term, or mutated the list
// since fails the check.
struct TermSource {
  PeerId peer = 0;
  uint64_t version = 0;
};

// A materialized top-k answer, cached at the querying peer under the
// normalized term-set key. `sources` records, per query term, the
// provenance the entry was built from — the entry is only as fresh as
// every one of them.
struct CachedResult {
  ir::RankedList results;
  std::map<TermId, TermSource> sources;  // ordered: deterministic
};

// One term's inverted list, cached at the querying peer so multi-term
// queries sharing a hot term skip the DHT fetch while still re-ranking
// locally. The list is the indexing peer's immutable compressed store
// object — frozen by construction, so a stale cache entry can never see
// later mutations, and the cache holds the encoded blocks (plus their
// memoized decoded snapshot once ranked), not a deep copy.
struct CachedPostings {
  core::StoredPostingsPtr postings;
  TermSource source;
};

// Normalized result-cache key: sorted deduplicated TermIds plus the cutoff
// k (a top-5 answer must not satisfy a top-50 request). Order-insensitive,
// so "dog cat" and "cat dog" share an entry.
struct ResultKey {
  std::vector<TermId> terms;  // sorted + deduplicated by MakeResultKey
  uint32_t k = 0;

  friend bool operator==(const ResultKey& a, const ResultKey& b) {
    return a.k == b.k && a.terms == b.terms;
  }
};

struct ResultKeyHash {
  size_t operator()(const ResultKey& key) const {
    // FNV-1a over the ids and k.
    uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](uint64_t v) {
      h ^= v;
      h *= 1099511628211ULL;
    };
    for (const TermId id : key.terms) mix(id);
    mix(key.k);
    return static_cast<size_t>(h);
  }
};

ResultKey MakeResultKey(std::vector<TermId> terms, size_t k);

// Byte estimates used for the caches' capacity accounting, derived from
// the same wire-size constants as the sim bus's cost model. Interned keys
// still charge what their spellings would occupy on the wire (resolved
// through the global TermDict), so occupancy gauges and eviction order are
// independent of the in-memory key representation.
size_t ResultKeyWireBytes(const ResultKey& key);
size_t CachedResultBytes(const CachedResult& value);
size_t CachedPostingsBytes(const CachedPostings& value);

enum class CacheTier { kResult, kPosting };

// Event counts of one tier, aggregated over every per-peer cache instance.
// Each field is mirrored into the metrics registry under
// "cache.<tier>.<field>"; ClearStats() keeps both views in sync.
struct CacheTierStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;      // pushed out by capacity (LRU order)
  uint64_t invalidations = 0;  // explicitly dropped (failed validation)
  uint64_t validations = 0;    // version-check exchanges performed
  uint64_t stale_rejects = 0;  // validation failed; entry dropped
  uint64_t stale_serves = 0;   // blind mode served a stale entry

  double HitRate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

// Capacities of one querying peer's tiers.
inline constexpr CacheLimits kResultTierLimits{256, 256 * 1024};
inline constexpr CacheLimits kPostingTierLimits{512, 1024 * 1024};

struct CacheOptions {
  bool enabled = false;  // both tiers
  // Validate entries with a version-check exchange before serving. When
  // false, hits are served blindly (zero traffic) and staleness is only
  // measured, not prevented.
  bool validate = true;
};

// The querying-peer cache tiers of the whole deployment: one result cache
// and one posting cache per peer, plus the aggregated statistics and their
// metrics-registry mirrors. The validation protocol itself runs in
// SpriteSystem (where the ring and the indexing peers live); its outcomes
// are reported back here via the Note*() methods.
class CacheManager {
 public:
  explicit CacheManager(CacheOptions options) : options_(options) {}

  CacheManager(const CacheManager&) = delete;
  CacheManager& operator=(const CacheManager&) = delete;

  // Attach after construction, like the Chord ring: mirrored
  // cache.* metrics appear in `metrics` from then on.
  void AttachMetrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  bool enabled() const { return options_.enabled; }
  bool validate() const { return options_.validate; }

  // --- Result tier ------------------------------------------------------
  // Counts a hit or miss; nullptr on miss. The pointer stays valid until
  // the next mutating call for the same peer.
  const CachedResult* LookupResult(PeerId peer, const ResultKey& key);
  void InsertResult(PeerId peer, const ResultKey& key, CachedResult value);
  void InvalidateResult(PeerId peer, const ResultKey& key);

  // --- Posting tier -----------------------------------------------------
  const CachedPostings* LookupPostings(PeerId peer, TermId term);
  void InsertPostings(PeerId peer, TermId term, CachedPostings value);
  void InvalidatePostings(PeerId peer, TermId term);

  // --- Validation outcomes (reported by the search path) ----------------
  void NoteValidation(CacheTier tier) { Bump(tier, &CacheTierStats::validations); }
  void NoteStaleReject(CacheTier tier) { Bump(tier, &CacheTierStats::stale_rejects); }
  void NoteStaleServe(CacheTier tier) { Bump(tier, &CacheTierStats::stale_serves); }

  const CacheTierStats& stats(CacheTier tier) const {
    return tier == CacheTier::kResult ? result_stats_ : posting_stats_;
  }
  size_t entries(CacheTier tier) const;
  size_t bytes(CacheTier tier) const;

  // Zeroes the statistics and erases the mirrored cache.* metrics so the
  // two views reset together; cached contents survive (a metrics reset
  // must not cool the caches). Re-publishes the entries/bytes gauges.
  void ClearStats();
  // Full reset: statistics and contents.
  void Clear();

 private:
  using FieldPtr = uint64_t CacheTierStats::*;
  using ResultTier = LruCache<ResultKey, CachedResult, ResultKeyHash>;
  using PostingTier = LruCache<TermId, CachedPostings>;

  CacheTierStats& MutableStats(CacheTier tier) {
    return tier == CacheTier::kResult ? result_stats_ : posting_stats_;
  }
  void Bump(CacheTier tier, FieldPtr field, uint64_t delta = 1);
  void PublishGauges(CacheTier tier);
  ResultTier& ResultTierFor(PeerId peer);
  PostingTier& PostingTierFor(PeerId peer);

  CacheOptions options_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::map<PeerId, ResultTier> result_tiers_;
  std::map<PeerId, PostingTier> posting_tiers_;
  CacheTierStats result_stats_;
  CacheTierStats posting_stats_;
};

// "cache.result" / "cache.posting" — the metric-name prefix of a tier.
const char* CacheTierPrefix(CacheTier tier);

}  // namespace sprite::cache

#endif  // SPRITE_CACHE_CACHE_H_
