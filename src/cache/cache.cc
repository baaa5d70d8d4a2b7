#include "cache/cache.h"

#include <utility>

namespace sprite::cache {

const char* CacheTierPrefix(CacheTier tier) {
  return tier == CacheTier::kResult ? "cache.result" : "cache.posting";
}

ResultKey MakeResultKey(std::vector<TermId> terms, size_t k) {
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  ResultKey key;
  key.terms = std::move(terms);
  key.k = static_cast<uint32_t>(k);
  return key;
}

size_t ResultKeyWireBytes(const ResultKey& key) {
  // The bytes of the legacy string key this struct replaces — each term
  // spelling plus a separator, then '#' and the decimal k — so byte caps
  // behave identically to the string-keyed implementation.
  const core::TermDict& dict = core::TermDict::Global();
  size_t bytes = 0;
  for (const TermId id : key.terms) bytes += dict.TermOf(id).size() + 1;
  return bytes + 1 + std::to_string(key.k).size();
}

size_t CachedResultBytes(const CachedResult& value) {
  // A ScoredDoc is a doc id + score; a source is a term, an address, and a
  // version.
  const core::TermDict& dict = core::TermDict::Global();
  size_t bytes = value.results.size() * (sizeof(core::DocId) + sizeof(double));
  for (const auto& [term, source] : value.sources) {
    (void)source;
    bytes += dict.TermOf(term).size() + sizeof(PeerId) + p2p::kVersionBytes;
  }
  return bytes;
}

size_t CachedPostingsBytes(const CachedPostings& value) {
  // Since ISSUE 9 the posting tier holds compressed lists, so its byte cap
  // charges what is actually resident: the encoded blocks (raw entries
  // while a list is still below the compression threshold).
  return value.postings->encoded_bytes() + sizeof(PeerId) +
         p2p::kVersionBytes;
}

void CacheManager::Bump(CacheTier tier, FieldPtr field, uint64_t delta) {
  if (delta == 0) return;
  CacheTierStats& stats = MutableStats(tier);
  stats.*field += delta;
  if (metrics_ == nullptr) return;
  const std::string prefix = CacheTierPrefix(tier);
  // Mirror under the exact field name so ClearStats() can erase by name.
  if (field == &CacheTierStats::lookups) {
    metrics_->Add(prefix + ".lookups", delta);
  } else if (field == &CacheTierStats::hits) {
    metrics_->Add(prefix + ".hits", delta);
  } else if (field == &CacheTierStats::misses) {
    metrics_->Add(prefix + ".misses", delta);
  } else if (field == &CacheTierStats::inserts) {
    metrics_->Add(prefix + ".inserts", delta);
  } else if (field == &CacheTierStats::evictions) {
    metrics_->Add(prefix + ".evictions", delta);
  } else if (field == &CacheTierStats::invalidations) {
    metrics_->Add(prefix + ".invalidations", delta);
  } else if (field == &CacheTierStats::validations) {
    metrics_->Add(prefix + ".validations", delta);
  } else if (field == &CacheTierStats::stale_rejects) {
    metrics_->Add(prefix + ".stale_rejects", delta);
  } else if (field == &CacheTierStats::stale_serves) {
    metrics_->Add(prefix + ".stale_serves", delta);
  }
}

void CacheManager::PublishGauges(CacheTier tier) {
  if (metrics_ == nullptr) return;
  const std::string prefix = CacheTierPrefix(tier);
  metrics_->Set(prefix + ".entries", static_cast<double>(entries(tier)));
  metrics_->Set(prefix + ".bytes", static_cast<double>(bytes(tier)));
}

CacheManager::ResultTier& CacheManager::ResultTierFor(PeerId peer) {
  auto it = result_tiers_.find(peer);
  if (it == result_tiers_.end()) {
    it = result_tiers_.emplace(peer, ResultTier(kResultTierLimits)).first;
  }
  return it->second;
}

CacheManager::PostingTier& CacheManager::PostingTierFor(PeerId peer) {
  auto it = posting_tiers_.find(peer);
  if (it == posting_tiers_.end()) {
    it = posting_tiers_.emplace(peer, PostingTier(kPostingTierLimits)).first;
  }
  return it->second;
}

const CachedResult* CacheManager::LookupResult(PeerId peer,
                                               const ResultKey& key) {
  if (!options_.enabled) return nullptr;
  Bump(CacheTier::kResult, &CacheTierStats::lookups);
  const CachedResult* hit = ResultTierFor(peer).Get(key);
  Bump(CacheTier::kResult,
       hit != nullptr ? &CacheTierStats::hits : &CacheTierStats::misses);
  return hit;
}

void CacheManager::InsertResult(PeerId peer, const ResultKey& key,
                                CachedResult value) {
  if (!options_.enabled) return;
  const size_t entry_bytes = CachedResultBytes(value) + ResultKeyWireBytes(key);
  auto outcome = ResultTierFor(peer).Put(key, std::move(value), entry_bytes);
  Bump(CacheTier::kResult, &CacheTierStats::inserts);
  Bump(CacheTier::kResult, &CacheTierStats::evictions, outcome.evicted);
  PublishGauges(CacheTier::kResult);
}

void CacheManager::InvalidateResult(PeerId peer, const ResultKey& key) {
  if (!options_.enabled) return;
  if (ResultTierFor(peer).Erase(key)) {
    Bump(CacheTier::kResult, &CacheTierStats::invalidations);
    PublishGauges(CacheTier::kResult);
  }
}

const CachedPostings* CacheManager::LookupPostings(PeerId peer, TermId term) {
  if (!options_.enabled) return nullptr;
  Bump(CacheTier::kPosting, &CacheTierStats::lookups);
  const CachedPostings* hit = PostingTierFor(peer).Get(term);
  Bump(CacheTier::kPosting,
       hit != nullptr ? &CacheTierStats::hits : &CacheTierStats::misses);
  return hit;
}

void CacheManager::InsertPostings(PeerId peer, TermId term,
                                  CachedPostings value) {
  if (!options_.enabled) return;
  // The interned key charges its spelling's length, like the string key
  // it replaces.
  const size_t entry_bytes = CachedPostingsBytes(value) +
                             core::TermDict::Global().TermOf(term).size();
  auto outcome = PostingTierFor(peer).Put(term, std::move(value), entry_bytes);
  Bump(CacheTier::kPosting, &CacheTierStats::inserts);
  Bump(CacheTier::kPosting, &CacheTierStats::evictions, outcome.evicted);
  PublishGauges(CacheTier::kPosting);
}

void CacheManager::InvalidatePostings(PeerId peer, TermId term) {
  if (!options_.enabled) return;
  if (PostingTierFor(peer).Erase(term)) {
    Bump(CacheTier::kPosting, &CacheTierStats::invalidations);
    PublishGauges(CacheTier::kPosting);
  }
}

size_t CacheManager::entries(CacheTier tier) const {
  size_t total = 0;
  if (tier == CacheTier::kResult) {
    for (const auto& [peer, cache] : result_tiers_) total += cache.entries();
  } else {
    for (const auto& [peer, cache] : posting_tiers_) total += cache.entries();
  }
  return total;
}

size_t CacheManager::bytes(CacheTier tier) const {
  size_t total = 0;
  if (tier == CacheTier::kResult) {
    for (const auto& [peer, cache] : result_tiers_) total += cache.bytes();
  } else {
    for (const auto& [peer, cache] : posting_tiers_) total += cache.bytes();
  }
  return total;
}

void CacheManager::ClearStats() {
  result_stats_ = CacheTierStats{};
  posting_stats_ = CacheTierStats{};
  if (metrics_ != nullptr) {
    for (CacheTier tier : {CacheTier::kResult, CacheTier::kPosting}) {
      const std::string prefix = CacheTierPrefix(tier);
      for (const char* field :
           {".lookups", ".hits", ".misses", ".inserts", ".evictions",
            ".invalidations", ".validations", ".stale_rejects",
            ".stale_serves"}) {
        metrics_->EraseByName(prefix + field);
      }
      // The contents survive a stats reset, so the occupancy gauges are
      // re-published instead of erased.
      PublishGauges(tier);
    }
  }
}

void CacheManager::Clear() {
  for (auto& [peer, cache] : result_tiers_) cache.Clear();
  for (auto& [peer, cache] : posting_tiers_) cache.Clear();
  ClearStats();
}

}  // namespace sprite::cache
