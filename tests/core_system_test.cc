// End-to-end tests for SpriteSystem: sharing, distributed search, learning
// iterations, the eSearch configuration, replication/failure handling, and
// the Section-7 overload advisories.

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

TEST_F(SpriteSystemTest, OverloadAdvisoryReplacesPopularTerm) {
  // Build a corpus where "common" appears in every document, making its
  // indexing peer overloaded by construction.
  corpus::Corpus corpus;
  for (int i = 0; i < 6; ++i) {
    corpus.AddDocument(TV({"common", "common", "common",
                           "rare" + std::to_string(i),
                           "rare" + std::to_string(i)}));
  }
  SpriteConfig config = SmallConfig();
  config.initial_terms = 1;  // everyone initially indexes only "common"
  SpriteSystem system(config);
  ASSERT_TRUE(system.ShareCorpus(corpus).ok());

  const size_t replaced = system.RunOverloadAdvisories(/*threshold=*/3);
  EXPECT_EQ(replaced, 6u);
  // Every document now indexes its rare term instead.
  for (corpus::DocId d = 0; d < 6; ++d) {
    const auto* terms = system.IndexTermsOf(d);
    ASSERT_NE(terms, nullptr);
    EXPECT_EQ(terms->size(), 1u);
    EXPECT_NE((*terms)[0], "common") << "doc " << d;
  }
  EXPECT_GT(system.network_stats().FramesOf(p2p::MessageType::kAdvisory),
            0u);
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

TEST_F(SpriteSystemTest, JoinPeerTakesOverItsKeyArc) {
  SpriteSystem system(SmallConfig());
  system.RecordQuery(Q(1, {"cat", "whisker"}));
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  const size_t alive_before = system.ring().num_alive();

  // Join enough peers that some key arcs are certain to move.
  std::vector<PeerId> newcomers;
  for (int i = 0; i < 8; ++i) {
    auto id = system.JoinPeer("latecomer" + std::to_string(i));
    ASSERT_TRUE(id.ok());
    newcomers.push_back(id.value());
  }
  EXPECT_EQ(system.ring().num_alive(), alive_before + 8);

  // Every shared term must still be owned by the oracle-responsible peer
  // and searchable.
  for (const std::string term : {"cat", "dog", "pet", "feline", "canine"}) {
    const uint64_t key = system.ring().space().KeyForString(term);
    const PeerId responsible = system.ring().ResponsibleNode(key).value();
    const IndexingPeer* peer = system.indexing_peer(responsible);
    ASSERT_NE(peer, nullptr);
    EXPECT_GT(peer->IndexedDocFreq(text::TermDict::Global().Intern(term)), 0u)
        << term;
  }
  auto result = system.Search(Q(2, {"cat"}), 10, false);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->empty());
  EXPECT_EQ(result->front().doc, 0u);
  EXPECT_GT(system.network_stats().FramesOf(p2p::MessageType::kKeyTransfer),
            0u);
}

TEST_F(SpriteSystemTest, JoinPeerTransfersMatchingHistory) {
  SpriteSystem system(SmallConfig());
  for (corpus::QueryId i = 0; i < 4; ++i) {
    system.RecordQuery(Q(i, {"cat", "whisker", "purr"}));
  }
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(system.JoinPeer("nh" + std::to_string(i)).ok());
  }
  // Learning still works after the arcs moved: the histories followed the
  // responsibility transfer.
  system.RunLearningIteration();
  const auto* terms = system.IndexTermsOf(0);
  ASSERT_NE(terms, nullptr);
  EXPECT_TRUE(std::find(terms->begin(), terms->end(), "whisker") !=
              terms->end());
}

TEST_F(SpriteSystemTest, HeartbeatsProbeEveryIndexedTerm) {
  SpriteSystem system(SmallConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  const size_t probes = system.RunHeartbeats();
  EXPECT_EQ(probes, system.TotalIndexedTerms());
  EXPECT_EQ(system.network_stats().FramesOf(p2p::MessageType::kHeartbeat),
            probes);
}

TEST_F(SpriteSystemTest, HeartbeatsRepublishLostPostings) {
  SpriteSystem system(SmallConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());

  // Fail the peer holding "cat" without replication: the posting is lost.
  const uint64_t key = system.ring().space().KeyForString("cat");
  const PeerId victim = system.ring().ResponsibleNode(key).value();
  ASSERT_TRUE(system.FailPeer(victim).ok());
  system.StabilizeNetwork(2);
  ASSERT_TRUE(system.Search(Q(1, {"cat"}), 10, false)->empty());

  // The owner's next liveness round notices and re-publishes.
  system.RunHeartbeats();
  auto result = system.Search(Q(2, {"cat"}), 10, false);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->empty());
  EXPECT_EQ(result->front().doc, 0u);
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

TEST_F(SpriteSystemTest, SearchWithExpansionFindsCoOccurringDocs) {
  SpriteSystem system(SmallConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  // "cat" retrieves doc0; its content co-occurs with "feline", which also
  // matches doc0's index. Expansion must not lose the original results.
  auto plain = system.Search(Q(1, {"cat"}), 10, false);
  auto expanded = system.SearchWithExpansion(Q(1, {"cat"}), 10, 2, 2);
  ASSERT_TRUE(expanded.ok());
  ASSERT_FALSE(expanded->empty());
  EXPECT_EQ(expanded->front().doc, plain->front().doc);
}

TEST_F(SpriteSystemTest, SearchWithExpansionZeroExtraEqualsPlain) {
  SpriteSystem system(SmallConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  auto plain = system.Search(Q(1, {"cat", "dog"}), 5, false);
  auto expanded = system.SearchWithExpansion(Q(1, {"cat", "dog"}), 5, 0);
  ASSERT_TRUE(expanded.ok());
  ASSERT_EQ(expanded->size(), plain->size());
  for (size_t i = 0; i < plain->size(); ++i) {
    EXPECT_EQ((*expanded)[i].doc, (*plain)[i].doc);
  }
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

TEST_F(SpriteSystemTest, LeavePeerMigratesStateAndDocuments) {
  SpriteSystem system(SmallConfig());
  system.RecordQuery(Q(1, {"cat", "whisker"}));
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());

  // Drain the peer that owns doc0 AND the peer indexing "cat" (possibly
  // the same); everything must stay searchable.
  const PeerId doc_owner = system.OwnerOf(0);
  ASSERT_TRUE(system.LeavePeer(doc_owner).ok());
  const uint64_t key = system.ring().space().KeyForString("cat");
  const PeerId cat_peer = system.ring().ResponsibleNode(key).value();
  if (system.ring().node(cat_peer) != nullptr &&
      system.ring().node(cat_peer)->alive) {
    ASSERT_TRUE(system.LeavePeer(cat_peer).ok());
  }

  EXPECT_NE(system.OwnerOf(0), doc_owner);
  auto result = system.Search(Q(2, {"cat"}), 10, false);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->empty());
  EXPECT_EQ(result->front().doc, 0u);
  // Learning still has the migrated history available.
  system.RunLearningIteration();
  const auto* terms = system.IndexTermsOf(0);
  ASSERT_NE(terms, nullptr);
  EXPECT_TRUE(std::find(terms->begin(), terms->end(), "whisker") !=
              terms->end());
}

TEST_F(SpriteSystemTest, LeavePeerRejectsUnknownAndLast) {
  SpriteConfig config = SmallConfig();
  config.num_peers = 1;
  SpriteSystem solo(config);
  const PeerId only = solo.ring().AliveIds()[0];
  EXPECT_TRUE(solo.LeavePeer(only).code() ==
              StatusCode::kFailedPrecondition);
  EXPECT_TRUE(solo.LeavePeer(0xdeadbeef).IsNotFound());
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
  // to a successor that holds a stale replica of the list, and a heartbeat
  // republishes the primary posting there.
  const uint64_t key = system.ring().space().KeyForString("feline");
  const PeerId serving = system.ring().ResponsibleNode(key).value();
  ASSERT_TRUE(system.FailPeer(serving).ok());
  system.StabilizeNetwork(8);
  system.RunHeartbeats();

  auto before = system.Search(Q(1, {"feline"}), 10, /*record=*/false);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->empty());  // sanity: doc0 is findable again

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
