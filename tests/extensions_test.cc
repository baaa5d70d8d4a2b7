// Cross-feature tests for the Section-7 extensions and membership
// dynamics: replication under churn, hot-term caches surviving failures,
// join/leave sequences preserving index integrity, and heartbeat repair.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/sprite_system.h"
#include "corpus/synthetic.h"

namespace sprite::core {
namespace {

corpus::Query Q(corpus::QueryId id, std::vector<std::string> terms) {
  return corpus::Query{id, std::move(terms)};
}

corpus::SyntheticDataset SmallDataset(uint64_t seed) {
  corpus::SyntheticCorpusOptions o;
  o.seed = seed;
  o.vocabulary_size = 3000;
  o.background_head = 60;
  o.num_topics = 6;
  o.topic_core_size = 60;
  o.query_term_hi = 40;
  o.focus_size = 20;
  o.num_docs = 150;
  o.num_base_queries = 12;
  o.min_doc_length = 40;
  o.max_doc_length = 300;
  return corpus::SyntheticCorpusGenerator(o).Generate();
}

SpriteConfig BaseConfig() {
  SpriteConfig c;
  c.num_peers = 24;
  c.initial_terms = 4;
  c.terms_per_iteration = 4;
  c.max_index_terms = 12;
  return c;
}

// Invariant: every shared document's every index term is present in the
// inverted list of the peer currently responsible for that term.
::testing::AssertionResult IndexIntegrityHolds(const SpriteSystem& system,
                                               const corpus::Corpus& corpus) {
  for (const corpus::Document& doc : corpus.docs()) {
    const auto* terms = system.IndexTermsOf(doc.id);
    if (terms == nullptr) {
      return ::testing::AssertionFailure()
             << "doc " << doc.id << " lost its owner state";
    }
    for (const std::string& term : *terms) {
      auto peer_id = system.ring().ResponsibleNode(
          system.ring().space().KeyForString(term));
      if (!peer_id.ok()) {
        return ::testing::AssertionFailure() << "no responsible peer";
      }
      const IndexingPeer* peer = system.indexing_peer(peer_id.value());
      if (peer == nullptr ||
          !peer->HasPosting(text::TermDict::Global().Intern(term), doc.id)) {
        return ::testing::AssertionFailure()
               << "doc " << doc.id << " term '" << term
               << "' missing at peer " << peer_id.value();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(ExtensionsTest, IntegrityHoldsAfterInitialSharing) {
  corpus::SyntheticDataset ds = SmallDataset(1);
  SpriteSystem system(BaseConfig());
  ASSERT_TRUE(system.ShareCorpus(ds.corpus).ok());
  EXPECT_TRUE(IndexIntegrityHolds(system, ds.corpus));
}

TEST(ExtensionsTest, IntegrityHoldsAfterLearning) {
  corpus::SyntheticDataset ds = SmallDataset(2);
  SpriteSystem system(BaseConfig());
  for (const auto& q : ds.base_queries) system.RecordQuery(q);
  ASSERT_TRUE(system.ShareCorpus(ds.corpus).ok());
  system.RunLearningIteration();
  system.RunLearningIteration();
  EXPECT_TRUE(IndexIntegrityHolds(system, ds.corpus));
}

// Join/leave sequences must never lose index entries: joins hand over key
// arcs, leaves hand everything to successors and re-own documents.
class MembershipChurnSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MembershipChurnSweep, JoinLeaveSequencesPreserveIntegrity) {
  corpus::SyntheticDataset ds = SmallDataset(GetParam());
  SpriteSystem system(BaseConfig());
  for (const auto& q : ds.base_queries) system.RecordQuery(q);
  ASSERT_TRUE(system.ShareCorpus(ds.corpus).ok());
  system.RunLearningIteration();

  Rng rng(GetParam() * 31 + 7);
  int joined = 0;
  for (int step = 0; step < 12; ++step) {
    if (rng.NextBool(0.5)) {
      ASSERT_TRUE(
          system.JoinPeer("churn" + std::to_string(joined++)).ok());
    } else if (system.ring().num_alive() > 4) {
      std::vector<uint64_t> ids = system.ring().AliveIds();
      const uint64_t victim = ids[rng.NextUint64(ids.size())];
      ASSERT_TRUE(system.LeavePeer(victim).ok());
    }
    ASSERT_TRUE(IndexIntegrityHolds(system, ds.corpus))
        << "after step " << step;
  }
  // The system still answers queries afterwards.
  auto result = system.Search(ds.base_queries[0], 10, false);
  EXPECT_TRUE(result.ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MembershipChurnSweep,
                         ::testing::Values(3, 4, 5, 6, 7, 8));

TEST(ExtensionsTest, HeartbeatsRepairAfterAbruptFailure) {
  corpus::SyntheticDataset ds = SmallDataset(9);
  SpriteSystem system(BaseConfig());
  ASSERT_TRUE(system.ShareCorpus(ds.corpus).ok());

  // Abruptly fail a few non-owner peers, stabilize, heartbeat-repair.
  Rng rng(99);
  std::vector<uint64_t> ids = system.ring().AliveIds();
  rng.Shuffle(ids);
  size_t failed = 0;
  for (uint64_t id : ids) {
    if (failed >= 4) break;
    const OwnerPeer* owner = system.owner_peer(id);
    if (owner != nullptr && owner->num_documents() > 0) continue;
    ASSERT_TRUE(system.FailPeer(id).ok());
    ++failed;
  }
  ASSERT_EQ(failed, 4u);
  system.StabilizeNetwork(3);
  system.RunHeartbeats();
  EXPECT_TRUE(IndexIntegrityHolds(system, ds.corpus));
}

TEST(ExtensionsTest, HotCacheServesWhenHotPeerDies) {
  SpriteConfig config;
  config.num_peers = 24;
  config.initial_terms = 2;
  config.max_index_terms = 4;
  config.use_hot_term_cache = true;
  SpriteSystem system(config);

  corpus::Corpus corpus;
  corpus.AddDocument(text::TermVector::FromTokens(
      {"storage", "storage", "replica", "replica"}));
  ASSERT_TRUE(system.ShareCorpus(corpus).ok());
  for (corpus::QueryId i = 0; i < 5; ++i) {
    system.RecordQuery(Q(i, {"storage", "replica"}));
  }
  ASSERT_GT(system.RunHotTermCaching(2), 0u);

  // Kill the peer responsible for "storage"; the co-term peer's cached
  // copy keeps the pair query answerable even without replication.
  const uint64_t key = system.ring().space().KeyForString("storage");
  ASSERT_TRUE(system.FailPeer(system.ring().ResponsibleNode(key).value()).ok());
  system.StabilizeNetwork(2);

  auto result = system.Search(Q(10, {"replica", "storage"}), 5, false);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->empty());
  EXPECT_EQ(result->front().doc, 0u);
}

TEST(ExtensionsTest, ReplicationAfterJoinStillConsistent) {
  corpus::SyntheticDataset ds = SmallDataset(11);
  SpriteConfig config = BaseConfig();
  config.replication_factor = 2;
  SpriteSystem system(config);
  ASSERT_TRUE(system.ShareCorpus(ds.corpus).ok());
  system.ReplicateIndexes();
  ASSERT_TRUE(system.JoinPeer("newbie").ok());
  system.ReplicateIndexes();  // refresh replicas for the new arcs
  EXPECT_TRUE(IndexIntegrityHolds(system, ds.corpus));
}

TEST(ExtensionsTest, JoinAfterLeaveRoundTrips) {
  corpus::SyntheticDataset ds = SmallDataset(13);
  SpriteSystem system(BaseConfig());
  ASSERT_TRUE(system.ShareCorpus(ds.corpus).ok());
  const size_t alive = system.ring().num_alive();
  std::vector<uint64_t> ids = system.ring().AliveIds();
  ASSERT_TRUE(system.LeavePeer(ids[3]).ok());
  ASSERT_TRUE(system.JoinPeer("replacement").ok());
  EXPECT_EQ(system.ring().num_alive(), alive);
  EXPECT_TRUE(IndexIntegrityHolds(system, ds.corpus));
}

TEST(ExtensionsTest, RebalanceRangeSplitsTheHottestArc) {
  corpus::SyntheticDataset ds = SmallDataset(19);
  SpriteSystem system(BaseConfig());
  ASSERT_TRUE(system.ShareCorpus(ds.corpus).ok());

  auto max_postings = [&]() {
    size_t max_load = 0;
    for (uint64_t id : system.ring().AliveIds()) {
      const IndexingPeer* peer = system.indexing_peer(id);
      if (peer != nullptr) max_load = std::max(max_load, peer->num_postings());
    }
    return max_load;
  };

  const size_t before = max_postings();
  ASSERT_GT(before, 0u);
  Status s = system.RebalanceRange();
  ASSERT_TRUE(s.ok()) << s.ToString();
  // The overloaded peer lost part of its arc; integrity is preserved.
  EXPECT_LT(max_postings(), before);
  EXPECT_TRUE(IndexIntegrityHolds(system, ds.corpus));
  // Repeated rebalancing keeps converging (or reports balance reached).
  for (int i = 0; i < 5; ++i) {
    Status again = system.RebalanceRange();
    if (!again.ok()) {
      EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
      break;
    }
    EXPECT_TRUE(IndexIntegrityHolds(system, ds.corpus));
  }
}

TEST(ExtensionsTest, RebalanceRangeNeedsThreePeers) {
  SpriteConfig config;
  config.num_peers = 2;
  SpriteSystem system(config);
  EXPECT_EQ(system.RebalanceRange().code(),
            StatusCode::kFailedPrecondition);
}

// The query caches must not leak results across key spaces: an expanded
// search's fused answer never lands under the unexpanded key, and a warm
// plain-result cache never short-circuits the expansion pipeline into
// returning something an uncached system would not.
TEST(ExtensionsTest, ExpansionDoesNotPoisonTheResultCache) {
  corpus::SyntheticDataset ds = SmallDataset(23);
  SpriteConfig cached_config = BaseConfig();
  cached_config.cache = core::CacheMode::kOn;
  SpriteSystem cached(cached_config);
  SpriteSystem plain(BaseConfig());
  ASSERT_TRUE(cached.ShareCorpus(ds.corpus).ok());
  ASSERT_TRUE(plain.ShareCorpus(ds.corpus).ok());

  const corpus::Query& q = ds.base_queries[0];
  auto baseline = cached.Search(q, 20, false);
  ASSERT_TRUE(baseline.ok());

  // Interleave plain and expanded issuances at many querying peers (the
  // caches are per peer). The expanded pipeline internally runs plain
  // searches over the same terms, so its issuances both read and fill the
  // shared tiers — and must not corrupt them.
  for (int i = 0; i < 24; ++i) {
    auto expanded_cached = cached.SearchWithExpansion(q, 20, 3, 5);
    auto expanded_plain = plain.SearchWithExpansion(q, 20, 3, 5);
    ASSERT_TRUE(expanded_cached.ok());
    ASSERT_TRUE(expanded_plain.ok());
    // Vice versa: warm caches must not change what expansion returns.
    EXPECT_EQ(expanded_cached.value(), expanded_plain.value());

    auto repeat = cached.Search(q, 20, false);
    ASSERT_TRUE(repeat.ok());
    // The unexpanded key still maps to the plain answer, byte for byte.
    EXPECT_EQ(repeat.value(), baseline.value());
  }
  EXPECT_GT(cached.query_cache()
                .stats(cache::CacheTier::kResult)
                .hits,
            0u);
}

TEST(ExtensionsTest, ExpansionImprovesOrPreservesRecallOnSyntheticBed) {
  corpus::SyntheticDataset ds = SmallDataset(17);
  SpriteSystem system(BaseConfig());
  for (const auto& q : ds.base_queries) system.RecordQuery(q);
  ASSERT_TRUE(system.ShareCorpus(ds.corpus).ok());
  system.RunLearningIteration();

  size_t plain_hits = 0, expanded_hits = 0;
  for (const auto& q : ds.base_queries) {
    const auto& relevant = ds.judgments.Relevant(q.id);
    auto plain = system.Search(q, 20, false);
    ASSERT_TRUE(plain.ok());
    for (const auto& s : *plain) plain_hits += relevant.count(s.doc);
    auto expanded = system.SearchWithExpansion(q, 20, 3, 5);
    ASSERT_TRUE(expanded.ok());
    for (const auto& s : *expanded) expanded_hits += relevant.count(s.doc);
  }
  // Expansion must not be catastrophic; typically it helps recall a bit.
  EXPECT_GE(expanded_hits * 10, plain_hits * 8);
}

}  // namespace
}  // namespace sprite::core
