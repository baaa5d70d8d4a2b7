// Tests for the peer roles: IndexingPeer (inverted lists, query history,
// poll handling with closest-hash dedup) and OwnerPeer (initial term
// selection, poll planning, Algorithm-1 retuning and the cursors it
// advances, static eSearch growth).

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/indexing_peer.h"
#include "core/owner_peer.h"
#include "dht/id_space.h"

namespace sprite::core {
namespace {

text::TermVector TV(const std::vector<std::string>& tokens) {
  return text::TermVector::FromTokens(tokens);
}

PostingEntry Posting(DocId doc, uint32_t tf = 1, uint32_t len = 10,
                     uint32_t distinct = 5) {
  return PostingEntry{doc, /*owner=*/99, tf, len, distinct};
}

// Interns a spelling in the global dictionary (the one the system uses).
TermId T(const std::string& term) {
  return text::TermDict::Global().Intern(term);
}

std::vector<TermId> Ts(const std::vector<std::string>& terms) {
  std::vector<TermId> ids;
  ids.reserve(terms.size());
  for (const std::string& term : terms) ids.push_back(T(term));
  return ids;
}

// Wraps doc-sorted entries in the immutable store object StoreReplica /
// CachePostings now take.
StoredPostingsPtr SP(std::vector<PostingEntry> entries) {
  return StoredPostings::FromSortedList(std::move(entries), {});
}

// Adapter keeping the poll tests in the string domain: interns the terms,
// derives the ring keys the caller of CollectQueriesForPoll precomputes
// from the TermDict, and lines up each my-term's cursor (an arrival; 0
// when `cursor` has none).
std::vector<const QueryRecord*> Poll(
    const IndexingPeer& peer, const std::vector<std::string>& poll_terms,
    const std::vector<std::string>& my_terms,
    const std::unordered_map<std::string, uint64_t>& cursor,
    const dht::IdSpace& space) {
  const text::TermDict& dict = text::TermDict::Global();
  std::vector<TermId> poll_ids = Ts(poll_terms);
  std::vector<uint64_t> poll_keys;
  poll_keys.reserve(poll_ids.size());
  for (const TermId id : poll_ids) {
    poll_keys.push_back(space.Truncate(dict.RawKeyOf(id)));
  }
  std::vector<uint64_t> after;
  for (const std::string& term : my_terms) {
    auto it = cursor.find(term);
    after.push_back(it == cursor.end() ? 0 : it->second);
  }
  return peer.CollectQueriesForPoll(poll_ids, poll_keys, Ts(my_terms), after,
                                    space);
}

// ------------------------------------------------------------ IndexingPeer

TEST(IndexingPeerTest, AddAndFetchPostings) {
  IndexingPeer peer(1, 100);
  peer.AddPosting(T("cat"), Posting(0, 3));
  peer.AddPosting(T("cat"), Posting(1, 1));
  peer.AddPosting(T("dog"), Posting(0, 2));
  ASSERT_NE(peer.Postings(T("cat")), nullptr);
  EXPECT_EQ(peer.Postings(T("cat"))->size(), 2u);
  EXPECT_EQ(peer.IndexedDocFreq(T("cat")), 2u);
  EXPECT_EQ(peer.IndexedDocFreq(T("fish")), 0u);
  EXPECT_EQ(peer.num_terms(), 2u);
  EXPECT_EQ(peer.num_postings(), 3u);
  EXPECT_EQ(peer.Postings(T("fish")), nullptr);
}

TEST(IndexingPeerTest, AddPostingOverwritesSameDoc) {
  IndexingPeer peer(1, 100);
  peer.AddPosting(T("cat"), Posting(0, 3));
  peer.AddPosting(T("cat"), Posting(0, 7));
  ASSERT_EQ(peer.Postings(T("cat"))->size(), 1u);
  EXPECT_EQ(peer.Postings(T("cat"))->front().term_freq, 7u);
}

TEST(IndexingPeerTest, RemovePosting) {
  IndexingPeer peer(1, 100);
  peer.AddPosting(T("cat"), Posting(0));
  peer.AddPosting(T("cat"), Posting(1));
  EXPECT_TRUE(peer.RemovePosting(T("cat"), 0));
  EXPECT_FALSE(peer.RemovePosting(T("cat"), 0));   // already gone
  EXPECT_FALSE(peer.RemovePosting(T("none"), 0));  // unknown term
  EXPECT_EQ(peer.IndexedDocFreq(T("cat")), 1u);
  EXPECT_TRUE(peer.RemovePosting(T("cat"), 1));
  EXPECT_EQ(peer.Postings(T("cat")), nullptr);     // empty list pruned
  EXPECT_EQ(peer.num_terms(), 0u);
}

TEST(IndexingPeerTest, ReplicaServesWhenPrimaryAbsent) {
  IndexingPeer peer(1, 100);
  peer.StoreReplica(T("cat"), SP({Posting(3)}));
  ASSERT_NE(peer.Postings(T("cat")), nullptr);
  EXPECT_EQ(peer.Postings(T("cat"))->front().doc, 3u);
  // Replica does not count toward the primary indexed document frequency.
  EXPECT_EQ(peer.IndexedDocFreq(T("cat")), 0u);
  EXPECT_EQ(peer.num_replica_terms(), 1u);
  peer.ClearReplicas();
  EXPECT_EQ(peer.Postings(T("cat")), nullptr);
}

TEST(IndexingPeerTest, PrimaryShadowsReplica) {
  IndexingPeer peer(1, 100);
  peer.StoreReplica(T("cat"), SP({Posting(3)}));
  peer.AddPosting(T("cat"), Posting(5));
  EXPECT_EQ(peer.Postings(T("cat"))->front().doc, 5u);
}

// A fetched snapshot must stay frozen across later mutations — the
// copy-on-write guarantee the zero-copy fetch path relies on.
TEST(IndexingPeerTest, SnapshotIsImmuneToLaterMutations) {
  IndexingPeer peer(1, 100);
  peer.AddPosting(T("cat"), Posting(1, 3));
  PostingListPtr snapshot = peer.Postings(T("cat"));
  ASSERT_NE(snapshot, nullptr);
  ASSERT_EQ(snapshot->size(), 1u);

  peer.AddPosting(T("cat"), Posting(2, 5));  // append
  peer.AddPosting(T("cat"), Posting(1, 9));  // overwrite doc 1
  peer.RemovePosting(T("cat"), 1);           // remove doc 1

  EXPECT_EQ(snapshot->size(), 1u);
  EXPECT_EQ(snapshot->front().doc, 1u);
  EXPECT_EQ(snapshot->front().term_freq, 3u);
  // The live list moved on without doc 1.
  ASSERT_NE(peer.Postings(T("cat")), nullptr);
  EXPECT_EQ(peer.Postings(T("cat"))->front().doc, 2u);
}

// Regression: a withdrawal must scrub the local replica and hot-term cache
// too, or the replica fallback above resurrects the withdrawn document.
TEST(IndexingPeerTest, RemovePostingScrubsReplicaAndCache) {
  IndexingPeer peer(1, 100);
  peer.AddPosting(T("cat"), Posting(7));
  peer.StoreReplica(T("cat"), SP({Posting(7), Posting(8)}));
  peer.CachePostings(T("cat"), SP({Posting(7)}));

  EXPECT_TRUE(peer.RemovePosting(T("cat"), 7));

  // Primary gone; the fallback may serve the replica, but never doc 7.
  PostingListPtr served = peer.Postings(T("cat"));
  ASSERT_NE(served, nullptr);  // doc 8's replica survives
  for (const PostingEntry& p : *served) EXPECT_NE(p.doc, 7u);
  PostingListPtr cached = peer.CachedPostings(T("cat"));
  EXPECT_EQ(cached, nullptr);  // cache emptied and pruned

  // Removing the survivor empties the replica store as well.
  EXPECT_FALSE(peer.RemovePosting(T("cat"), 8));  // no primary posting
  EXPECT_EQ(peer.Postings(T("cat")), nullptr);
  EXPECT_EQ(peer.num_replica_terms(), 0u);
}

TEST(IndexingPeerTest, HistoryEvictsOldest) {
  IndexingPeer peer(1, 3);
  for (uint64_t i = 1; i <= 5; ++i) {
    QueryRecord r;
    r.seq = i;
    r.terms = {T("t")};
    peer.RecordQuery(r);
  }
  ASSERT_EQ(peer.history().size(), 3u);
  EXPECT_EQ(peer.history().front().seq, 3u);
  EXPECT_EQ(peer.history().back().seq, 5u);
}

TEST(IndexingPeerTest, ZeroCapacityHistoryStoresNothing) {
  IndexingPeer peer(1, 0);
  QueryRecord r;
  r.seq = 1;
  peer.RecordQuery(r);
  EXPECT_TRUE(peer.history().empty());
}

// -------------------------------------------------------- ClosestTermIndex

TEST(ClosestTermIndexTest, PicksMinimalClockwiseDistance) {
  dht::IdSpace space(8);
  // query key 100; term keys 110 (distance 10), 90 (distance 246), 105 (5).
  EXPECT_EQ(ClosestTermIndex({110, 90, 105}, 100, space), 2u);
}

TEST(ClosestTermIndexTest, TieBreaksOnSmallerKey) {
  dht::IdSpace space(8);
  // keys 4 and 8: wait, equal distance requires equal keys in a modular
  // ring unless duplicated; use duplicate distances via wrap: from 250,
  // keys 2 and 2 are identical — instead test exact duplicates.
  EXPECT_EQ(ClosestTermIndex({7, 7}, 3, space), 0u);
}

TEST(ClosestTermIndexTest, SingleCandidate) {
  dht::IdSpace space(8);
  EXPECT_EQ(ClosestTermIndex({200}, 10, space), 0u);
}

// --------------------------------------------------- CollectQueriesForPoll

class PollTest : public ::testing::Test {
 protected:
  PollTest() : space_(16), peer_(1, 100) {}

  QueryRecord MakeRecord(uint64_t seq, std::vector<std::string> terms) {
    QueryRecord r;
    r.id = static_cast<QueryId>(seq);
    corpus::Query q{r.id, terms};
    r.hash_key = space_.KeyForString(q.CanonicalKey());
    r.seq = seq;
    r.arrival = seq;  // stored in issue order, as the simulation does
    r.terms = Ts(terms);
    return r;
  }

  dht::IdSpace space_;
  IndexingPeer peer_;
};

TEST_F(PollTest, ReturnsQueriesContainingMyTerms) {
  peer_.RecordQuery(MakeRecord(1, {"alpha", "zzz"}));
  peer_.RecordQuery(MakeRecord(2, {"unrelated"}));
  auto got = Poll(peer_, {"alpha"}, {"alpha"}, {}, space_);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0]->seq, 1u);
}

TEST_F(PollTest, CursorFiltersOldQueries) {
  peer_.RecordQuery(MakeRecord(1, {"alpha"}));
  peer_.RecordQuery(MakeRecord(5, {"alpha"}));
  std::unordered_map<std::string, uint64_t> cursor{{"alpha", 3}};
  auto got = Poll(peer_, {"alpha"}, {"alpha"}, cursor, space_);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0]->seq, 5u);
}

// A term added to the document since the last poll has no cursor: its
// whole matching history comes back, while the terms beside it that have
// cursors return only what arrived after theirs.
TEST_F(PollTest, NewTermWithoutCursorPullsItsWholeHistory) {
  peer_.RecordQuery(MakeRecord(1, {"alpha"}));
  peer_.RecordQuery(MakeRecord(2, {"gamma"}));
  peer_.RecordQuery(MakeRecord(3, {"beta", "zzz"}));
  peer_.RecordQuery(MakeRecord(4, {"gamma", "zzz"}));
  peer_.RecordQuery(MakeRecord(5, {"alpha"}));
  peer_.RecordQuery(MakeRecord(6, {"beta"}));
  const std::vector<std::string> terms{"alpha", "beta", "gamma"};
  auto got = Poll(peer_, terms, terms, {{"alpha", 4}, {"beta", 5}}, space_);
  std::vector<uint64_t> seqs;
  for (const QueryRecord* r : got) seqs.push_back(r->seq);
  EXPECT_EQ(seqs, (std::vector<uint64_t>{2, 4, 5, 6}));
}

TEST_F(PollTest, EmptyMyTermsReturnsNothing) {
  peer_.RecordQuery(MakeRecord(1, {"alpha"}));
  EXPECT_TRUE(Poll(peer_, {"alpha"}, {}, {}, space_).empty());
}

// The dedup property of Section 3: when a query contains several of the
// polled terms, exactly one peer (the one owning the closest term) returns
// it — regardless of how the terms are distributed over peers.
TEST_F(PollTest, EachQueryReturnedByExactlyOnePartition) {
  const std::vector<std::string> poll_terms{"alpha", "beta", "gamma",
                                            "delta"};
  QueryRecord multi = MakeRecord(1, {"alpha", "beta", "gamma"});

  // Try every 2-partition of the poll terms over two peers.
  for (unsigned mask = 0; mask < 16; ++mask) {
    IndexingPeer peer_a(1, 10), peer_b(2, 10);
    peer_a.RecordQuery(multi);
    peer_b.RecordQuery(multi);
    std::vector<std::string> terms_a, terms_b;
    for (size_t i = 0; i < poll_terms.size(); ++i) {
      ((mask >> i) & 1 ? terms_a : terms_b).push_back(poll_terms[i]);
    }
    const size_t got = Poll(peer_a, poll_terms, terms_a, {}, space_).size() +
                       Poll(peer_b, poll_terms, terms_b, {}, space_).size();
    EXPECT_EQ(got, 1u) << "mask " << mask;
  }
}

TEST_F(PollTest, QueryWithoutAnyPolledTermIgnored) {
  peer_.RecordQuery(MakeRecord(1, {"other"}));
  EXPECT_TRUE(Poll(peer_, {"alpha", "beta"}, {"alpha"}, {}, space_).empty());
}

// ----------------------------------------------------------------- Owner

corpus::Document MakeDoc(DocId id, const std::vector<std::string>& tokens) {
  corpus::Document doc;
  doc.id = id;
  doc.terms = TV(tokens);
  return doc;
}

TEST(OwnerPeerTest, SelectInitialTermsTopFrequency) {
  corpus::Document doc =
      MakeDoc(0, {"x", "x", "x", "y", "y", "z", "w", "w", "w", "w"});
  auto terms = OwnerPeer::SelectInitialTerms(doc, 2);
  EXPECT_EQ(terms, (std::vector<std::string>{"w", "x"}));
}

TEST(OwnerPeerTest, AdoptAndLookup) {
  OwnerPeer owner(7);
  corpus::Document doc = MakeDoc(3, {"a"});
  owner.AdoptDocument(&doc);
  EXPECT_EQ(owner.num_documents(), 1u);
  ASSERT_NE(owner.document(3), nullptr);
  EXPECT_EQ(owner.document(4), nullptr);
  EXPECT_EQ(owner.id(), 7u);
}

QueryRecord Rec(uint64_t seq, const std::vector<std::string>& terms) {
  QueryRecord r;
  r.id = static_cast<QueryId>(seq);
  r.terms = Ts(terms);
  r.hash_key = seq;
  r.seq = seq;
  return r;
}

TEST(OwnerPeerTest, LearnAddsQueriedTerms) {
  OwnerPeer owner(1);
  corpus::Document doc = MakeDoc(0, {"a", "a", "a", "b", "b", "c", "d", "e"});
  OwnedDocument& owned = owner.AdoptDocument(&doc);
  owned.index_terms = {"a", "b"};  // initial frequent terms

  SpriteConfig config;
  config.initial_terms = 2;
  config.terms_per_iteration = 2;
  config.max_index_terms = 10;

  QueryRecord q1 = Rec(1, {"d", "e"});
  QueryRecord q2 = Rec(2, {"d"});
  auto update = owner.LearnAndRetune(owned, {}, {&q1, &q2}, config);

  // d has QF 2 (score > 0), e has QF 1 (score 0) — both beat nothing else,
  // and the budget is 2 additions.
  EXPECT_EQ(update.add, (std::vector<std::string>{"d", "e"}));
  EXPECT_TRUE(update.remove.empty());
  EXPECT_EQ(owned.index_terms,
            (std::vector<std::string>{"a", "b", "d", "e"}));
}

TEST(OwnerPeerTest, CapEvictsLowestRanked) {
  OwnerPeer owner(1);
  corpus::Document doc = MakeDoc(0, {"a", "a", "a", "b", "b", "c", "d"});
  OwnedDocument& owned = owner.AdoptDocument(&doc);
  owned.index_terms = {"a", "b", "c"};

  SpriteConfig config;
  config.terms_per_iteration = 2;
  config.max_index_terms = 3;  // already full

  // d is queried twice (positive score); a queried twice too; b once;
  // c never (sentinel -1) -> c must be evicted when d arrives.
  QueryRecord q1 = Rec(1, {"d", "a"});
  QueryRecord q2 = Rec(2, {"d", "a"});
  auto update = owner.LearnAndRetune(owned, {}, {&q1, &q2}, config);

  EXPECT_EQ(update.add, (std::vector<std::string>{"d"}));
  EXPECT_EQ(update.remove, (std::vector<std::string>{"c"}));
  EXPECT_EQ(owned.index_terms.size(), 3u);
  EXPECT_TRUE(owned.IsIndexed("d"));
  EXPECT_FALSE(owned.IsIndexed("c"));
}

TEST(OwnerPeerTest, ProcessedSeqsPreventDoubleCounting) {
  OwnerPeer owner(1);
  corpus::Document doc = MakeDoc(0, {"a", "b"});
  OwnedDocument& owned = owner.AdoptDocument(&doc);
  owned.index_terms = {"a"};

  SpriteConfig config;
  config.terms_per_iteration = 1;
  config.max_index_terms = 5;

  QueryRecord q = Rec(1, {"a"});
  owner.LearnAndRetune(owned, {}, {&q}, config);
  owner.LearnAndRetune(owned, {}, {&q}, config);  // the same issuance again
  EXPECT_EQ(owned.stats["a"].query_freq, 1u);
}

TEST(OwnerPeerTest, UnqueriedNewTermsNotAdded) {
  OwnerPeer owner(1);
  corpus::Document doc = MakeDoc(0, {"a", "b", "c"});
  OwnedDocument& owned = owner.AdoptDocument(&doc);
  owned.index_terms = {"a"};
  SpriteConfig config;
  auto update = owner.LearnAndRetune(owned, {}, {}, config);
  EXPECT_TRUE(update.add.empty());
  EXPECT_TRUE(update.remove.empty());
}

// The cursor rule both learning rounds share. After the retune every term
// of an answered poll takes the poll's answer, a withdrawn one included;
// the terms of an unanswered poll keep their cursors, except a withdrawn
// one, which loses it; an unroutable term is in no poll.
TEST(OwnerPeerTest, AnsweredPollsAdvanceTheirTermsCursors) {
  OwnerPeer owner(1);
  // In-document frequencies a 4, b 3, c 5, d 2, e 1: with no query, a cap
  // of 3 withdraws the two least frequent, d and e.
  corpus::Document doc = MakeDoc(0, {"a", "a", "a", "a", "b", "b", "b", "c",
                                     "c", "c", "c", "c", "d", "d", "e"});
  OwnedDocument& owned = owner.AdoptDocument(&doc);
  owned.index_terms = {"a", "b", "c", "d", "e"};
  for (const std::string& term : owned.index_terms) {
    owned.poll_cursor[T(term)] = PollCursor{7, 5};
  }

  // Member 20 serves a and d, member 10 serves b and e, and no route
  // reaches c's member.
  const dht::IdSpace space(32);
  const std::vector<std::optional<PeerId>> member_of = {20, 10, std::nullopt,
                                                        20, 10};
  size_t next = 0;
  PollPlan plan = PlanPolls(owned, space, [&](uint64_t key) {
    EXPECT_EQ(key, space.KeyForString(owned.index_terms[next]));
    return member_of[next++];
  });
  EXPECT_EQ(plan.terms, Ts({"a", "b", "c", "d", "e"}));
  ASSERT_EQ(plan.polls.size(), 2u);
  EXPECT_EQ(plan.polls[0].member, 10u);
  EXPECT_EQ(plan.polls[0].my_terms, Ts({"b", "e"}));
  EXPECT_EQ(plan.polls[1].member, 20u);
  EXPECT_EQ(plan.polls[1].my_terms, Ts({"a", "d"}));

  // Member 20 answers, member 10 does not.
  plan.polls[1].answer = PollCursor{9, 40};
  SpriteConfig config;
  config.max_index_terms = 3;
  const auto update = owner.LearnAndRetune(owned, plan, {}, config);
  ASSERT_EQ(update.remove, (std::vector<std::string>{"d", "e"}));

  const auto cursor = [&owned](const std::string& term) {
    const PollCursor c = owned.CursorOf(T(term));
    return std::pair(c.epoch, c.arrival);
  };
  using Cursor = std::pair<uint64_t, uint64_t>;
  EXPECT_EQ(cursor("a"), Cursor(9, 40));
  EXPECT_EQ(cursor("d"), Cursor(9, 40));  // withdrawn, member answered
  EXPECT_EQ(cursor("b"), Cursor(7, 5));
  EXPECT_EQ(owned.poll_cursor.count(T("e")), 0u);  // withdrawn, no answer
  EXPECT_EQ(cursor("c"), Cursor(7, 5));            // unroutable
}

TEST(OwnerPeerTest, GrowStaticAddsNextFrequentTerms) {
  OwnerPeer owner(1);
  corpus::Document doc =
      MakeDoc(0, {"a", "a", "a", "b", "b", "c", "c", "d", "e"});
  OwnedDocument& owned = owner.AdoptDocument(&doc);
  owned.index_terms = {"a"};

  SpriteConfig config;
  config.terms_per_iteration = 2;
  config.max_index_terms = 10;
  auto update = owner.GrowStatic(owned, config);
  // Next most frequent after a: b (2), then c (2, lexicographic tie).
  EXPECT_EQ(update.add, (std::vector<std::string>{"b", "c"}));
  EXPECT_TRUE(update.remove.empty());
}

TEST(OwnerPeerTest, GrowStaticRespectsCap) {
  OwnerPeer owner(1);
  corpus::Document doc = MakeDoc(0, {"a", "b", "c", "d", "e"});
  OwnedDocument& owned = owner.AdoptDocument(&doc);
  owned.index_terms = {"a", "b"};
  SpriteConfig config;
  config.terms_per_iteration = 5;
  config.max_index_terms = 3;
  auto update = owner.GrowStatic(owned, config);
  EXPECT_EQ(update.add.size(), 1u);
  EXPECT_EQ(owned.index_terms.size(), 3u);
  // Already at cap: nothing more.
  EXPECT_TRUE(owner.GrowStatic(owned, config).add.empty());
}

}  // namespace
}  // namespace sprite::core
