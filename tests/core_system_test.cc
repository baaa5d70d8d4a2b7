// End-to-end tests for SpriteSystem: sharing, distributed search, learning
// iterations, the eSearch configuration, replication/failure handling, and
// hot-term caching.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/sprite_system.h"
#include "corpus/corpus.h"

namespace sprite::core {
namespace {

text::TermVector TV(const std::vector<std::string>& tokens) {
  return text::TermVector::FromTokens(tokens);
}

corpus::Query Q(corpus::QueryId id, std::vector<std::string> terms) {
  return corpus::Query{id, std::move(terms)};
}

SpriteConfig SmallConfig() {
  SpriteConfig c;
  c.num_peers = 16;
  c.initial_terms = 2;
  c.terms_per_iteration = 2;
  c.max_index_terms = 6;
  return c;
}

// A small corpus with clearly separated vocabulary per document.
class SpriteSystemTest : public ::testing::Test {
 protected:
  SpriteSystemTest() {
    // doc0: about cats; frequent terms cat, feline; rare term "whiskers".
    corpus_.AddDocument(TV({"cat", "cat", "cat", "feline", "feline",
                            "whisker", "purr"}));
    // doc1: about dogs.
    corpus_.AddDocument(TV({"dog", "dog", "dog", "canine", "canine",
                            "leash", "bark"}));
    // doc2: mixed pets.
    corpus_.AddDocument(TV({"pet", "pet", "cat", "dog", "food"}));
  }

  corpus::Corpus corpus_;
};

TEST_F(SpriteSystemTest, ShareAssignsInitialTopFrequentTerms) {
  SpriteSystem system(SmallConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  const auto* terms = system.IndexTermsOf(0);
  ASSERT_NE(terms, nullptr);
  EXPECT_EQ(*terms, (std::vector<std::string>{"cat", "feline"}));
  EXPECT_EQ(system.TotalIndexedTerms(), 6u);  // 2 terms x 3 docs
}

TEST_F(SpriteSystemTest, ShareRejectsDuplicatesAndEmpty) {
  SpriteSystem system(SmallConfig());
  ASSERT_TRUE(system.ShareDocument(corpus_.doc(0)).ok());
  EXPECT_EQ(system.ShareDocument(corpus_.doc(0)).code(),
            StatusCode::kAlreadyExists);
  corpus::Document empty;
  empty.id = 99;
  EXPECT_TRUE(system.ShareDocument(empty).IsInvalidArgument());
}

TEST_F(SpriteSystemTest, SearchFindsDocsByIndexedTerms) {
  SpriteSystem system(SmallConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  auto result = system.Search(Q(0, {"cat"}), 10);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->empty());
  EXPECT_EQ(result->front().doc, 0u);  // doc0 is the cat document
}

TEST_F(SpriteSystemTest, SearchMissesUnindexedTerms) {
  SpriteSystem system(SmallConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  // "whisker" occurs once in doc0 but only the top-2 terms are indexed.
  auto result = system.Search(Q(0, {"whisker"}), 10);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST_F(SpriteSystemTest, EmptyQueryRejected) {
  SpriteSystem system(SmallConfig());
  EXPECT_TRUE(system.Search(Q(0, {}), 10).status().IsInvalidArgument());
}

TEST_F(SpriteSystemTest, LearningIndexesQueriedTerms) {
  SpriteSystem system(SmallConfig());
  // Users look for doc0 with queries that combine an indexed term ("cat")
  // with terms the initial frequency-based index missed. Learning can only
  // observe queries that touch a currently indexed term — exactly the
  // Figure 1 scenario, where queries on a and b teach the owner d and e.
  system.RecordQuery(Q(1, {"cat", "whisker", "purr"}));
  system.RecordQuery(Q(2, {"cat", "whisker", "purr"}));
  system.RecordQuery(Q(3, {"cat", "whisker"}));
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());

  auto before = system.Search(Q(10, {"whisker"}), 10, /*record=*/false);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->empty());

  system.RunLearningIteration();

  const auto* terms = system.IndexTermsOf(0);
  ASSERT_NE(terms, nullptr);
  EXPECT_TRUE(std::find(terms->begin(), terms->end(), "whisker") !=
              terms->end())
      << "whisker should have been learned";

  auto after = system.Search(Q(11, {"whisker"}), 10, /*record=*/false);
  ASSERT_TRUE(after.ok());
  ASSERT_FALSE(after->empty());
  EXPECT_EQ(after->front().doc, 0u);
}

TEST_F(SpriteSystemTest, LearningRespectsTermCap) {
  SpriteConfig config = SmallConfig();
  config.max_index_terms = 3;
  SpriteSystem system(config);
  for (corpus::QueryId i = 0; i < 8; ++i) {
    system.RecordQuery(Q(i, {"cat", "whisker", "purr"}));
  }
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  system.RunLearningIteration();
  system.RunLearningIteration();
  const auto* terms = system.IndexTermsOf(0);
  ASSERT_NE(terms, nullptr);
  EXPECT_EQ(terms->size(), 3u);  // grew from 2 to the cap, not beyond
  // The learned terms crowd in: whisker and purr are both present only if
  // one of the initial terms was evicted; the cap must hold regardless.
  EXPECT_TRUE(std::find(terms->begin(), terms->end(), "whisker") !=
              terms->end());
}

TEST_F(SpriteSystemTest, WithdrawnTermsLeaveTheDistributedIndex) {
  SpriteConfig config = SmallConfig();
  config.initial_terms = 2;
  config.terms_per_iteration = 2;
  config.max_index_terms = 2;  // any addition forces an eviction
  SpriteSystem system(config);
  for (corpus::QueryId i = 0; i < 6; ++i) {
    system.RecordQuery(Q(i, {"cat", "whisker", "purr"}));
  }
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  system.RunLearningIteration();

  const auto* terms = system.IndexTermsOf(0);
  ASSERT_NE(terms, nullptr);
  EXPECT_EQ(terms->size(), 2u);
  // The evicted initial terms must no longer be searchable for doc0.
  for (const std::string gone : {"cat", "feline"}) {
    if (std::find(terms->begin(), terms->end(), gone) != terms->end()) {
      continue;  // survived the cap
    }
    auto result = system.Search(Q(50, {gone}), 10, /*record=*/false);
    ASSERT_TRUE(result.ok());
    for (const auto& scored : *result) EXPECT_NE(scored.doc, 0u) << gone;
  }
}

TEST_F(SpriteSystemTest, ESearchConfigGrowsStatically) {
  SpriteConfig base = SmallConfig();
  base.terms_per_iteration = 2;
  SpriteConfig es = MakeESearchConfig(base, 2);
  es.max_index_terms = 4;  // allow growth for this test
  SpriteSystem system(es);
  // Queries must have no effect on term selection.
  system.RecordQuery(Q(1, {"whisker", "purr"}));
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  system.RunLearningIteration();
  const auto* terms = system.IndexTermsOf(0);
  ASSERT_NE(terms, nullptr);
  // Growth is by frequency: cat(3), feline(2) initial; then purr/whisker
  // tie at 1 with lexicographic order purr < whisker.
  EXPECT_EQ(*terms,
            (std::vector<std::string>{"cat", "feline", "purr", "whisker"}));
}

TEST_F(SpriteSystemTest, MakeESearchConfigShape) {
  SpriteConfig es = MakeESearchConfig(SpriteConfig{}, 20);
  EXPECT_EQ(es.selection, TermSelectionPolicy::kStaticFrequency);
  EXPECT_EQ(es.initial_terms, 20u);
  EXPECT_EQ(es.max_index_terms, 20u);
}

TEST_F(SpriteSystemTest, NetworkTrafficIsAccounted) {
  SpriteSystem system(SmallConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  const auto& stats = system.network_stats();
  EXPECT_EQ(stats.FramesOf(p2p::MessageType::kPublishTerm), 6u);
  EXPECT_GT(stats.TotalBytes(), 0u);

  system.ClearNetworkStats();
  (void)system.Search(Q(0, {"cat", "dog"}), 5, /*record=*/false);
  EXPECT_EQ(system.network_stats().FramesOf(p2p::MessageType::kQueryRequest),
            2u);
  EXPECT_EQ(
      system.network_stats().FramesOf(p2p::MessageType::kQueryResponse),
      2u);
}

TEST_F(SpriteSystemTest, SearchSurvivesPeerFailureBySkippingTerm) {
  SpriteConfig config = SmallConfig();
  config.skip_unreachable_terms = true;
  SpriteSystem system(config);
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());

  // Fail the peer holding "cat"'s inverted list; the posting is lost but a
  // multi-term query must still answer from the surviving terms.
  const uint64_t key = system.ring().space().KeyForString("cat");
  const uint64_t victim = system.ring().ResponsibleNode(key).value();
  ASSERT_TRUE(system.FailPeer(victim).ok());
  system.StabilizeNetwork(2);

  auto result = system.Search(Q(0, {"cat", "dog"}), 10, /*record=*/false);
  ASSERT_TRUE(result.ok());
  bool found_dog_doc = false;
  for (const auto& scored : *result) found_dog_doc |= (scored.doc == 1);
  EXPECT_TRUE(found_dog_doc);
}

TEST_F(SpriteSystemTest, ReplicationServesIndexAfterFailure) {
  SpriteConfig config = SmallConfig();
  config.replication_factor = 2;
  SpriteSystem system(config);
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  system.ReplicateIndexes();
  EXPECT_GT(system.network_stats().FramesOf(p2p::MessageType::kReplicate),
            0u);

  const uint64_t key = system.ring().space().KeyForString("cat");
  const uint64_t victim = system.ring().ResponsibleNode(key).value();
  ASSERT_TRUE(system.FailPeer(victim).ok());
  system.StabilizeNetwork(2);

  // The successor now owns the key and serves its replica.
  auto result = system.Search(Q(0, {"cat"}), 10, /*record=*/false);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->empty());
  EXPECT_EQ(result->front().doc, 0u);
}

TEST_F(SpriteSystemTest, RecordQueryPopulatesHistories) {
  SpriteSystem system(SmallConfig());
  system.RecordQuery(Q(1, {"alpha", "beta"}));
  // Each term's responsible peer holds one record.
  size_t records = 0;
  for (const std::string term : {"alpha", "beta"}) {
    const uint64_t key = system.ring().space().KeyForString(term);
    const uint64_t peer = system.ring().ResponsibleNode(key).value();
    const IndexingPeer* ip = system.indexing_peer(peer);
    ASSERT_NE(ip, nullptr);
    for (const auto& rec : ip->history()) {
      if (rec.id == 1) ++records;
    }
  }
  EXPECT_EQ(records, 2u);
  EXPECT_EQ(system.current_seq(), 1u);
}

TEST_F(SpriteSystemTest, UnshareRemovesDocumentFromIndex) {
  SpriteSystem system(SmallConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  ASSERT_FALSE(system.Search(Q(1, {"cat"}), 10, false)->empty());

  ASSERT_TRUE(system.UnshareDocument(0).ok());
  auto result = system.Search(Q(2, {"cat"}), 10, false);
  ASSERT_TRUE(result.ok());
  for (const auto& scored : *result) EXPECT_NE(scored.doc, 0u);
  EXPECT_EQ(system.IndexTermsOf(0), nullptr);
  // Unsharing twice fails cleanly.
  EXPECT_TRUE(system.UnshareDocument(0).IsNotFound());
}

TEST_F(SpriteSystemTest, HotTermCachingServesFromCoTermPeer) {
  SpriteConfig config = SmallConfig();
  config.use_hot_term_cache = true;
  SpriteSystem system(config);
  // "cat dog" is the hot query pattern.
  for (corpus::QueryId i = 0; i < 5; ++i) {
    system.RecordQuery(Q(i, {"cat", "dog"}));
  }
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  const size_t placements = system.RunHotTermCaching(2);
  EXPECT_GT(placements, 0u);

  // With both hot terms cached at each other's peers, the two-term query
  // needs only one QueryRequest instead of two.
  system.ClearNetworkStats();
  auto result = system.Search(Q(10, {"cat", "dog"}), 10, false);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(
      system.network_stats().FramesOf(p2p::MessageType::kQueryRequest), 1u);
  // Results are the same as without the cache.
  SpriteConfig plain_config = SmallConfig();
  SpriteSystem plain(plain_config);
  ASSERT_TRUE(plain.ShareCorpus(corpus_).ok());
  auto expected = plain.Search(Q(10, {"cat", "dog"}), 10, false);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(result->size(), expected->size());
  for (size_t i = 0; i < result->size(); ++i) {
    EXPECT_EQ((*result)[i].doc, (*expected)[i].doc);
  }
}

TEST_F(SpriteSystemTest, HotTermCacheDisabledByDefault) {
  SpriteSystem system(SmallConfig());
  for (corpus::QueryId i = 0; i < 5; ++i) {
    system.RecordQuery(Q(i, {"cat", "dog"}));
  }
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  system.RunHotTermCaching(2);
  system.ClearNetworkStats();
  (void)system.Search(Q(10, {"cat", "dog"}), 10, false);
  // Without the config flag the caches are ignored.
  EXPECT_EQ(
      system.network_stats().FramesOf(p2p::MessageType::kQueryRequest), 2u);
}

TEST_F(SpriteSystemTest, UpdateDocumentRefreshesPostings) {
  SpriteSystem system(SmallConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());  // doc0 indexes cat,feline

  // New version of doc0: "feline" is gone, "cat" became rarer.
  corpus::Document v2;
  v2.id = 0;
  v2.terms = TV({"cat", "tiger", "tiger", "tiger"});
  ASSERT_TRUE(system.UpdateDocument(v2).ok());

  const auto* terms = system.IndexTermsOf(0);
  ASSERT_NE(terms, nullptr);
  EXPECT_EQ(*terms, (std::vector<std::string>{"cat"}));  // feline withdrawn

  // "feline" no longer finds doc0; "cat" does, with updated metadata.
  auto feline = system.Search(Q(1, {"feline"}), 10, false);
  ASSERT_TRUE(feline.ok());
  for (const auto& scored : *feline) EXPECT_NE(scored.doc, 0u);
  auto cat = system.Search(Q(2, {"cat"}), 10, false);
  ASSERT_TRUE(cat.ok());
  bool found = false;
  for (const auto& scored : *cat) found |= (scored.doc == 0);
  EXPECT_TRUE(found);
}

TEST_F(SpriteSystemTest, UpdateUnknownOrEmptyDocumentRejected) {
  SpriteSystem system(SmallConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  corpus::Document unknown;
  unknown.id = 77;
  unknown.terms = TV({"x"});
  EXPECT_TRUE(system.UpdateDocument(unknown).IsNotFound());
  corpus::Document empty;
  empty.id = 0;
  EXPECT_TRUE(system.UpdateDocument(empty).IsInvalidArgument());
}

TEST_F(SpriteSystemTest, IntrospectionOfUnknownDocIsNull) {
  SpriteSystem system(SmallConfig());
  EXPECT_EQ(system.IndexTermsOf(12345), nullptr);
  EXPECT_EQ(system.OwnerOf(12345), 0u);
}

// Regression: a peer responsible for several of a query's terms must store
// the issuance once, not once per term — with a single peer, a two-term
// query burns exactly one slot of the bounded history.
TEST_F(SpriteSystemTest, RecordQueryStoresOnceAtMultiTermPeer) {
  SpriteConfig config = SmallConfig();
  config.num_peers = 1;
  SpriteSystem system(config);
  system.RecordQuery(Q(1, {"cat", "dog"}));

  const PeerId only = system.ring().AliveIds().front();
  const IndexingPeer* ip = system.indexing_peer(only);
  ASSERT_NE(ip, nullptr);
  EXPECT_EQ(ip->history().size(), 1u);

  // The piggybacked recording of Search() dedups the same way.
  ASSERT_TRUE(system.Search(Q(2, {"cat", "dog"}), 10).ok());
  EXPECT_EQ(ip->history().size(), 2u);
}

// Regression: recording a searched query must ride the search's own term
// requests instead of re-running one Chord lookup per term up front.
TEST_F(SpriteSystemTest, SearchRecordingAddsNoExtraLookups) {
  SpriteSystem system(SmallConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());

  system.mutable_ring().ClearStats();
  ASSERT_TRUE(system.Search(Q(1, {"cat", "dog"}), 10, /*record=*/true).ok());
  // One lookup per distinct term; pre-fix this was two (record + fetch).
  EXPECT_EQ(system.ring().stats().lookups, 2u);

  // The record still reaches the contacted peers' histories.
  size_t records = 0;
  for (PeerId id : system.ring().AliveIds()) {
    for (const auto& rec : system.indexing_peer(id)->history()) {
      if (rec.id == 1) ++records;
    }
  }
  EXPECT_GE(records, 1u);
}

// Regression: when an owner's polls cannot reach the indexing peers (here:
// its successor — its only routing exit with a length-1 successor list —
// has failed), the poll cursors must not advance past the unpulled
// queries; after the ring heals, the next iteration must still learn from
// them.
TEST_F(SpriteSystemTest, FailedPollsDoNotAdvanceCursors) {
  SpriteConfig config = SmallConfig();
  config.successor_list_size = 1;
  SpriteSystem system(config);
  system.RecordQuery(Q(1, {"cat", "whisker"}));
  system.RecordQuery(Q(2, {"cat", "whisker"}));
  system.RecordQuery(Q(3, {"cat", "whisker"}));
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());

  const PeerId owner = system.OwnerOf(0);
  const std::vector<PeerId> succ = system.ring().SuccessorsOf(owner, 1);
  ASSERT_EQ(succ.size(), 1u);
  const PeerId victim = succ[0];
  ASSERT_NE(victim, owner);
  // The victim must not hold doc0's polled histories, or healing could not
  // recover them (deterministic ids keep this stable).
  for (const std::string term : {"cat", "feline"}) {
    const uint64_t key = system.ring().space().KeyForString(term);
    ASSERT_NE(system.ring().ResponsibleNode(key).value(), victim);
  }

  // With the successor (and the whole length-1 successor list) dead and no
  // stabilization yet, every lookup from the owner fails: the learning
  // poll for doc0 reaches nobody.
  ASSERT_TRUE(system.FailPeer(victim).ok());
  system.RunLearningIteration();

  const OwnedDocument* owned = system.owner_peer(owner)->document(0);
  ASSERT_NE(owned, nullptr);
  for (const auto& [term, cursor] : owned->poll_cursor) {
    EXPECT_EQ(cursor.arrival, 0u) << "cursor for '" << term
                          << "' advanced past unpulled queries";
  }
  const auto* terms_after_outage = system.IndexTermsOf(0);
  ASSERT_NE(terms_after_outage, nullptr);
  EXPECT_TRUE(std::find(terms_after_outage->begin(),
                        terms_after_outage->end(),
                        "whisker") == terms_after_outage->end());

  // Heal the ring; the next poll pulls the queries that were cached all
  // along and learns "whisker". Pre-fix the advanced cursors filtered them
  // out as already-seen and the term was never learned.
  system.StabilizeNetwork(16);
  system.RunLearningIteration();
  const auto* terms = system.IndexTermsOf(0);
  ASSERT_NE(terms, nullptr);
  EXPECT_TRUE(std::find(terms->begin(), terms->end(), "whisker") !=
              terms->end())
      << "queries cached during the outage were lost to stale cursors";
}

// Regression: withdrawing a document must also scrub it from the serving
// peer's replica store, or the Postings() fallback resurrects it after the
// primary list empties.
TEST_F(SpriteSystemTest, WithdrawnDocDoesNotResurfaceFromReplica) {
  SpriteConfig config = SmallConfig();
  config.replication_factor = 2;
  SpriteSystem system(config);
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  system.ReplicateIndexes();

  // Fail the peer serving "feline" (indexed for doc0 only); the arc moves
  // to a successor that serves the list from its replica.
  const uint64_t key = system.ring().space().KeyForString("feline");
  const PeerId serving = system.ring().ResponsibleNode(key).value();
  ASSERT_TRUE(system.FailPeer(serving).ok());
  system.StabilizeNetwork(8);

  auto before = system.Search(Q(1, {"feline"}), 10, /*record=*/false);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->empty());  // sanity: the replica serves doc0

  ASSERT_TRUE(system.UnshareDocument(0).ok());
  auto after = system.Search(Q(2, {"feline"}), 10, /*record=*/false);
  ASSERT_TRUE(after.ok());
  for (const auto& scored : *after) {
    EXPECT_NE(scored.doc, 0u)
        << "withdrawn document served from a stale replica";
  }
}

}  // namespace
}  // namespace sprite::core
