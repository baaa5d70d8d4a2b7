// Tests for the querying-peer cache subsystem (src/cache, DESIGN.md §9):
// the LRU policy, the normalized result-cache key, the per-term
// version counters that drive learning-aware invalidation, the
// CacheManager's stats/registry mirror contract, and the SpriteSystem
// integration — cached answers byte-identical to fresh ones, stale entries
// caught by the version check (or counted when served blindly), and
// deterministic observability dumps with caching on.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache.h"
#include "cache/lru_cache.h"
#include "common/check.h"
#include "core/indexing_peer.h"
#include "core/sprite_system.h"
#include "corpus/corpus.h"
#include "obs/metrics.h"
#include "p2p/message.h"
#include "text/term_dict.h"
#include "text/term_vector.h"

namespace sprite::cache {
namespace {

// Interns a spelling in the global dictionary (the one the system uses).
TermId T(const char* term) { return text::TermDict::Global().Intern(term); }

// The immutable store object StoreReplica / CachePostings / the posting
// cache tier now hold (entries must be doc-sorted).
core::StoredPostingsPtr SP(std::vector<core::PostingEntry> entries) {
  return core::StoredPostings::FromSortedList(std::move(entries), {});
}

// --- LruCache -----------------------------------------------------------

TEST(LruCacheTest, HitRefreshesRecencyAndCapEvictsLru) {
  LruCache<std::string, int> c(CacheLimits{/*max_entries=*/3, 0});
  c.Put("a", 1, 8);
  c.Put("b", 2, 8);
  c.Put("c", 3, 8);
  ASSERT_NE(c.Get("a"), nullptr);  // "b" is now the LRU entry

  const auto put = c.Put("d", 4, 8);
  EXPECT_EQ(put.evicted, 1u);
  EXPECT_EQ(c.entries(), 3u);
  EXPECT_EQ(c.Get("b"), nullptr);
  EXPECT_NE(c.Get("a"), nullptr);
  EXPECT_NE(c.Get("c"), nullptr);
  EXPECT_NE(c.Get("d"), nullptr);
}

TEST(LruCacheTest, ByteCapChargesCallerBytesAndEvictsInLruOrder) {
  LruCache<std::string, int> c(CacheLimits{0, /*max_bytes=*/30});
  // entry_bytes is the caller's total footprint (payload + wire key).
  c.Put("aa", 1, 10);  // 10 bytes
  c.Put("bb", 2, 10);  // 20 bytes
  c.Put("cc", 3, 10);  // 30 bytes: at the cap, nothing evicted
  EXPECT_EQ(c.entries(), 3u);
  EXPECT_EQ(c.bytes(), 30u);

  const auto put = c.Put("dd", 4, 10);  // 40 > 30: evict "aa"
  EXPECT_EQ(put.evicted, 1u);
  EXPECT_EQ(c.bytes(), 30u);
  EXPECT_EQ(c.Get("aa"), nullptr);
}

TEST(LruCacheTest, OversizedNewestEntryIsKept) {
  LruCache<std::string, int> c(CacheLimits{0, /*max_bytes=*/10});
  c.Put("k", 1, 100);
  EXPECT_EQ(c.entries(), 1u);
  EXPECT_NE(c.Get("k"), nullptr);
}

TEST(LruCacheTest, InternedKeysWorkUnchanged) {
  // The production posting tier keys on TermId; the policy is agnostic.
  LruCache<TermId, int> c(CacheLimits{/*max_entries=*/2, 0});
  c.Put(T("cat"), 1, 8);
  c.Put(T("dog"), 2, 8);
  ASSERT_NE(c.Get(T("cat")), nullptr);
  c.Put(T("emu"), 3, 8);  // evicts "dog", the LRU entry
  EXPECT_EQ(c.Get(T("dog")), nullptr);
  EXPECT_NE(c.Get(T("emu")), nullptr);
}

TEST(LruCacheTest, ReplaceAndEraseKeepByteAccounting) {
  LruCache<std::string, std::string> c(CacheLimits{});
  c.Put("k", "v1", 10);
  const auto put = c.Put("k", "v2", 5);
  EXPECT_TRUE(put.replaced);
  EXPECT_EQ(c.entries(), 1u);
  EXPECT_EQ(c.bytes(), 5u);
  EXPECT_EQ(*c.Get("k"), "v2");

  EXPECT_TRUE(c.Erase("k"));
  EXPECT_FALSE(c.Erase("k"));
  EXPECT_EQ(c.bytes(), 0u);
}

// --- ResultKey ----------------------------------------------------------

ResultKey RK(std::vector<const char*> terms, size_t k) {
  std::vector<TermId> ids;
  ids.reserve(terms.size());
  for (const char* term : terms) ids.push_back(T(term));
  return MakeResultKey(std::move(ids), k);
}

TEST(ResultKeyTest, NormalizesOrderAndDuplicates) {
  const ResultKey key = RK({"dog", "cat"}, 10);
  EXPECT_EQ(key, RK({"cat", "dog"}, 10));
  EXPECT_EQ(key, RK({"dog", "cat", "dog"}, 10));
  EXPECT_FALSE(key == RK({"cat"}, 10));
  EXPECT_NE(ResultKeyHash{}(key), ResultKeyHash{}(RK({"cat"}, 10)));
}

TEST(ResultKeyTest, CutoffIsPartOfTheKey) {
  EXPECT_FALSE(RK({"cat"}, 5) == RK({"cat"}, 50));
}

TEST(ResultKeyTest, DistinctTermsNeverShareAKey) {
  // Interned ids are per-spelling, so the string-era boundary collision
  // ("ab"+"c" vs "a"+"bc") is impossible by construction.
  EXPECT_FALSE(RK({"ab", "c"}, 10) == RK({"a", "bc"}, 10));
}

TEST(ResultKeyTest, WireBytesMatchTheLegacyStringKey) {
  // The legacy key was "<term>\x1f" per sorted term, then '#' + decimal k;
  // the interned key still charges exactly those bytes, so byte caps and
  // occupancy gauges are representation-independent.
  EXPECT_EQ(ResultKeyWireBytes(RK({"cat", "dog"}, 10)),
            std::string("cat\x1f" "dog\x1f" "#10").size());
  EXPECT_EQ(ResultKeyWireBytes(RK({"a"}, 5)),
            std::string("a\x1f" "#5").size());
}

// --- IndexingPeer term versions ----------------------------------------

core::PostingEntry P(core::DocId doc, uint32_t tf) {
  core::PostingEntry e;
  e.doc = doc;
  e.owner = 1;
  e.term_freq = tf;
  e.doc_length = 10;
  e.num_distinct_terms = 5;
  return e;
}

TEST(TermVersionTest, BumpsOnContentChangeOnly) {
  core::IndexingPeer peer(1, 8);
  EXPECT_EQ(peer.TermVersion(T("cat")), 0u);

  peer.AddPosting(T("cat"), P(1, 3));
  EXPECT_EQ(peer.TermVersion(T("cat")), 1u);
  peer.AddPosting(T("cat"), P(1, 3));  // identical re-publish
  EXPECT_EQ(peer.TermVersion(T("cat")), 1u);
  peer.AddPosting(T("cat"), P(1, 4));  // changed term frequency
  EXPECT_EQ(peer.TermVersion(T("cat")), 2u);
  peer.AddPosting(T("cat"), P(2, 1));  // new document appended
  EXPECT_EQ(peer.TermVersion(T("cat")), 3u);
  EXPECT_EQ(peer.TermVersion(T("dog")), 0u);
}

TEST(TermVersionTest, RemovePostingBumpsWhenAnyStoreChanges) {
  core::IndexingPeer peer(1, 8);
  peer.AddPosting(T("cat"), P(1, 3));
  const uint64_t v = peer.TermVersion(T("cat"));

  EXPECT_FALSE(peer.RemovePosting(T("cat"), 99));  // absent: nothing changed
  EXPECT_EQ(peer.TermVersion(T("cat")), v);
  EXPECT_TRUE(peer.RemovePosting(T("cat"), 1));
  EXPECT_EQ(peer.TermVersion(T("cat")), v + 1);

  // A withdrawal that only scrubs the replica store still changes what
  // this peer can serve, so it must bump too (even though it returns
  // false: no primary posting was present).
  peer.StoreReplica(T("dog"), SP({P(7, 2)}));
  const uint64_t dog_v = peer.TermVersion(T("dog"));
  EXPECT_FALSE(peer.RemovePosting(T("dog"), 7));
  EXPECT_EQ(peer.TermVersion(T("dog")), dog_v + 1);
}

TEST(TermVersionTest, StoreReplicaBumpsOnlyWhenContentDiffers) {
  core::IndexingPeer peer(1, 8);
  peer.StoreReplica(T("cat"), SP({P(1, 3)}));
  EXPECT_EQ(peer.TermVersion(T("cat")), 1u);
  // Periodic refresh, same content — even as a distinct snapshot object.
  peer.StoreReplica(T("cat"), SP({P(1, 3)}));
  EXPECT_EQ(peer.TermVersion(T("cat")), 1u);
  peer.StoreReplica(T("cat"), SP({P(1, 3), P(2, 1)}));
  EXPECT_EQ(peer.TermVersion(T("cat")), 2u);
  // An empty snapshot over an empty slot is not a change either.
  peer.StoreReplica(T("emu"), SP({}));
  EXPECT_EQ(peer.TermVersion(T("emu")), 0u);
}

// --- CacheManager -------------------------------------------------------

CachedResult MakeResult(core::DocId doc, PeerId peer, uint64_t version) {
  CachedResult r;
  r.results.push_back({doc, 1.0});
  r.sources[T("cat")] = TermSource{peer, version};
  return r;
}

TEST(CacheManagerTest, StatsAndRegistryMirrorsAgree) {
  obs::MetricsRegistry registry;
  CacheOptions options;
  options.enabled = true;
  CacheManager cm(options);
  cm.AttachMetrics(&registry);

  const ResultKey key = RK({"cat"}, 10);
  EXPECT_EQ(cm.LookupResult(1, key), nullptr);
  cm.InsertResult(1, key, MakeResult(5, 2, 1));
  ASSERT_NE(cm.LookupResult(1, key), nullptr);
  cm.NoteValidation(CacheTier::kResult);
  cm.NoteStaleReject(CacheTier::kResult);
  cm.InvalidateResult(1, key);
  cm.InvalidateResult(1, key);  // already gone: not an invalidation

  const CacheTierStats& s = cm.stats(CacheTier::kResult);
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.invalidations, 1u);
  EXPECT_EQ(s.validations, 1u);
  EXPECT_EQ(s.stale_rejects, 1u);
  EXPECT_EQ(registry.counter("cache.result.lookups"), s.lookups);
  EXPECT_EQ(registry.counter("cache.result.hits"), s.hits);
  EXPECT_EQ(registry.counter("cache.result.misses"), s.misses);
  EXPECT_EQ(registry.counter("cache.result.inserts"), s.inserts);
  EXPECT_EQ(registry.counter("cache.result.invalidations"), s.invalidations);
  EXPECT_EQ(registry.counter("cache.result.validations"), s.validations);
  EXPECT_EQ(registry.counter("cache.result.stale_rejects"), s.stale_rejects);
  EXPECT_EQ(registry.gauge("cache.result.entries"), 0.0);
}

TEST(CacheManagerTest, ClearStatsResetsBothViewsButKeepsContents) {
  obs::MetricsRegistry registry;
  CacheOptions options;
  options.enabled = true;
  CacheManager cm(options);
  cm.AttachMetrics(&registry);

  const ResultKey key = RK({"cat"}, 10);
  cm.InsertResult(1, key, MakeResult(5, 2, 1));
  CachedPostings cp;
  cp.postings = SP({P(5, 3)});
  cp.source = TermSource{2, 1};
  cm.InsertPostings(1, T("cat"), std::move(cp));
  ASSERT_NE(cm.LookupResult(1, key), nullptr);

  cm.ClearStats();

  // Stats and mirrored counters are zero together...
  EXPECT_EQ(cm.stats(CacheTier::kResult).lookups, 0u);
  EXPECT_EQ(cm.stats(CacheTier::kResult).inserts, 0u);
  EXPECT_EQ(cm.stats(CacheTier::kPosting).inserts, 0u);
  EXPECT_EQ(registry.counter("cache.result.lookups"), 0u);
  EXPECT_EQ(registry.counter("cache.result.inserts"), 0u);
  EXPECT_EQ(registry.counter("cache.posting.inserts"), 0u);
  // ...but the cached contents survive (a metrics reset must not cool the
  // caches), and the occupancy gauges still reflect them.
  EXPECT_EQ(cm.entries(CacheTier::kResult), 1u);
  EXPECT_EQ(cm.entries(CacheTier::kPosting), 1u);
  EXPECT_EQ(registry.gauge("cache.result.entries"), 1.0);
  EXPECT_EQ(registry.gauge("cache.posting.entries"), 1.0);
  ASSERT_NE(cm.LookupResult(1, key), nullptr);

  cm.Clear();
  EXPECT_EQ(cm.entries(CacheTier::kResult), 0u);
  EXPECT_EQ(cm.bytes(CacheTier::kResult), 0u);
  EXPECT_EQ(registry.gauge("cache.result.entries"), 0.0);
}

// --- SpriteSystem integration ------------------------------------------

text::TermVector TV(std::vector<std::string> tokens) {
  return text::TermVector::FromTokens(tokens);
}

corpus::Query Q(corpus::QueryId id, std::vector<std::string> terms) {
  return corpus::Query{id, std::move(terms)};
}

core::SpriteConfig CachedConfig(bool validate = true) {
  core::SpriteConfig c;
  c.num_peers = 16;
  c.initial_terms = 2;
  c.terms_per_iteration = 2;
  c.max_index_terms = 6;
  c.cache = validate ? core::CacheMode::kOn : core::CacheMode::kBlind;
  return c;
}

corpus::Corpus PetCorpus() {
  corpus::Corpus corpus;
  corpus.AddDocument(
      TV({"cat", "cat", "cat", "feline", "feline", "whisker", "purr"}));
  corpus.AddDocument(
      TV({"dog", "dog", "dog", "canine", "canine", "leash", "bark"}));
  corpus.AddDocument(TV({"pet", "pet", "cat", "dog", "food"}));
  return corpus;
}

TEST(CacheIntegrationTest, RepeatSearchHitsAndMatchesByteForByte) {
  corpus::Corpus corpus = PetCorpus();
  core::SpriteSystem system(CachedConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus).ok());

  // Each issuance runs at a (deterministically) different querying peer
  // and the caches are per peer, so a single repeat may land cold. Over 33
  // issuances on 16 peers, every peer misses at most once (the index never
  // changes, so validation always passes): at least 17 must hit.
  auto first = system.Search(Q(1, {"cat", "dog"}), 10, /*record=*/false);
  ASSERT_TRUE(first.ok());
  const uint64_t bytes_first = system.network_stats().TotalBytes();

  for (int i = 0; i < 32; ++i) {
    auto repeat = system.Search(Q(1, {"dog", "cat"}), 10, /*record=*/false);
    ASSERT_TRUE(repeat.ok());
    EXPECT_EQ(first.value(), repeat.value());  // byte-identical answers
  }

  const cache::CacheTierStats& s = system.query_cache().stats(
      cache::CacheTier::kResult);
  EXPECT_GE(s.hits, 17u);
  EXPECT_EQ(s.stale_rejects, 0u);
  EXPECT_GE(s.validations, s.hits);  // every hit was version-checked
  EXPECT_GT(system.network_stats().FramesOf(
                p2p::MessageType::kVersionCheck),
            0u);
  // The 32 repeats (mostly validated hits) cost less than 32 cold runs.
  EXPECT_LT(system.network_stats().TotalBytes() - bytes_first,
            32 * bytes_first);
}

TEST(CacheIntegrationTest, IndexChangeIsCaughtByTheVersionCheck) {
  corpus::Corpus corpus = PetCorpus();

  // Twin systems, identical except for caching; both see the same change.
  core::SpriteConfig plain_config = CachedConfig();
  plain_config.cache = core::CacheMode::kOff;
  core::SpriteSystem cached(CachedConfig());
  core::SpriteSystem plain(plain_config);
  ASSERT_TRUE(cached.ShareCorpus(corpus).ok());
  ASSERT_TRUE(plain.ShareCorpus(corpus).ok());

  const corpus::Query q = Q(1, {"cat", "dog"});
  for (int i = 0; i < 32; ++i) {  // warm the tiers at many querying peers
    ASSERT_TRUE(cached.Search(q, 10, /*record=*/false).ok());
  }

  // Re-share document 2 with different term frequencies: its postings are
  // re-published, bumping the versions the cached entries were built from.
  corpus::Document v2;
  v2.id = 2;
  v2.terms = TV({"pet", "pet", "pet", "cat", "dog", "dog", "food"});
  ASSERT_TRUE(cached.UpdateDocument(v2).ok());
  ASSERT_TRUE(plain.UpdateDocument(v2).ok());

  auto fresh = plain.Search(q, 10, /*record=*/false);
  ASSERT_TRUE(fresh.ok());
  for (int i = 0; i < 32; ++i) {
    auto checked = cached.Search(q, 10, /*record=*/false);
    ASSERT_TRUE(checked.ok());
    // Stale entries are rejected and refetched; fresh entries hit. Either
    // way the cached system returns exactly what an uncached one computes
    // post-update (the ranking does not depend on the querying peer).
    EXPECT_EQ(checked.value(), fresh.value());
  }

  const cache::CacheTierStats& s = cached.query_cache().stats(
      cache::CacheTier::kResult);
  EXPECT_GE(s.stale_rejects, 1u);
  EXPECT_EQ(s.stale_serves, 0u);
}

TEST(CacheIntegrationTest, BlindModeServesStaleAndCountsIt) {
  corpus::Corpus corpus = PetCorpus();
  core::SpriteSystem system(CachedConfig(/*validate=*/false));
  ASSERT_TRUE(system.ShareCorpus(corpus).ok());

  const corpus::Query q = Q(1, {"cat", "dog"});
  auto first = system.Search(q, 10, /*record=*/false);
  ASSERT_TRUE(first.ok());
  const ir::RankedList stale_answer = first.value();
  for (int i = 0; i < 32; ++i) {  // warm the tiers at many querying peers
    ASSERT_TRUE(system.Search(q, 10, /*record=*/false).ok());
  }

  corpus::Document v2;
  v2.id = 2;
  v2.terms = TV({"pet", "pet", "pet", "cat", "dog", "dog", "food"});
  ASSERT_TRUE(system.UpdateDocument(v2).ok());

  // Blind hits serve the pre-update answer unchanged at zero traffic;
  // the oracle counts them as stale instead of hiding the divergence.
  size_t served_stale = 0;
  for (int i = 0; i < 32; ++i) {
    auto repeat = system.Search(q, 10, /*record=*/false);
    ASSERT_TRUE(repeat.ok());
    if (repeat.value() == stale_answer) ++served_stale;
  }
  const cache::CacheTierStats& s = system.query_cache().stats(
      cache::CacheTier::kResult);
  EXPECT_GE(s.stale_serves, 1u);
  EXPECT_GE(served_stale, s.stale_serves);
  EXPECT_EQ(s.validations, 0u);
  EXPECT_EQ(s.stale_rejects, 0u);
  EXPECT_EQ(system.network_stats().FramesOf(
                p2p::MessageType::kVersionCheck),
            0u);
}

TEST(CacheIntegrationTest, CachingStaysOffByDefault) {
  corpus::Corpus corpus = PetCorpus();
  core::SpriteConfig config = CachedConfig();
  config.cache = core::CacheMode::kOff;
  core::SpriteSystem system(config);
  ASSERT_TRUE(system.ShareCorpus(corpus).ok());
  EXPECT_FALSE(system.query_cache().enabled());

  ASSERT_TRUE(system.Search(Q(1, {"cat", "dog"}), 10, false).ok());
  ASSERT_TRUE(system.Search(Q(2, {"cat", "dog"}), 10, false).ok());
  EXPECT_EQ(system.query_cache().stats(cache::CacheTier::kResult).lookups,
            0u);
  EXPECT_EQ(system.query_cache().stats(cache::CacheTier::kPosting).lookups,
            0u);
  EXPECT_EQ(system.network_stats().FramesOf(
                p2p::MessageType::kVersionCheck),
            0u);
}

// Runs an identical cached workload (record, share, learn, repeat
// searches) and exports every observability surface.
struct DumpSet {
  std::string metrics, perfetto, jsonl;
};

DumpSet CachedRun(uint64_t seed) {
  corpus::Corpus corpus = PetCorpus();
  core::SpriteConfig config = CachedConfig();
  config.seed = seed;
  core::SpriteSystem system(config);
  system.mutable_tracer().set_enabled(true);
  system.RecordQuery(Q(1, {"cat", "dog"}));
  SPRITE_CHECK_OK(system.ShareCorpus(corpus));
  system.RunLearningIteration();
  // 20 issuances over 16 peers: the pigeonhole guarantees result-cache
  // hits, so the compared dumps cover the hit path too.
  for (uint32_t i = 0; i < 20; ++i) {
    (void)system.Search(Q(2, {"cat", "dog"}), 10, /*record=*/false);
  }
  (void)system.Search(Q(3, {"feline", "pet"}), 10, /*record=*/false);
  return DumpSet{system.metrics().Snapshot().ToJson(),
                 system.tracer().ToPerfettoJson(),
                 system.tracer().ToJsonl()};
}

TEST(CacheIntegrationTest, IdenticalSeedsYieldByteIdenticalDumps) {
  const DumpSet a = CachedRun(/*seed=*/7);
  const DumpSet b = CachedRun(/*seed=*/7);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.perfetto, b.perfetto);
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_FALSE(a.metrics.empty());
  // The workload actually exercised the cache: the mirrored hit counter is
  // part of the compared payload.
  EXPECT_NE(a.metrics.find("cache.result.hits"), std::string::npos);
}

}  // namespace
}  // namespace sprite::cache
