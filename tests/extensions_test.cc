// Cross-feature tests for the Section-7 extensions: index integrity after
// sharing and learning, and hot-term caches surviving failures.

#include <string>
#include <vector>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace sprite::core
