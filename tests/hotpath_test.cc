// Tests for the hot-path machinery: TermDict interning (determinism,
// unknown lookup, round-trip, ring-key equivalence with the string hash),
// bounded top-k selection (byte-identical prefix vs. a full sort), the
// hoisted per-term IDF (same scores as recomputing IDF per posting), the
// doc-at-a-time merge ranker (bit-identical to a hash-map accumulation,
// hooks included), and whole-system determinism — identical seeds yield
// byte-identical ranked lists and observability dumps with the interned
// representation.

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/topk.h"
#include "core/ranking.h"
#include "core/sprite_system.h"
#include "corpus/corpus.h"
#include "dht/id_space.h"
#include "ir/ranked_list.h"
#include "ir/similarity.h"
#include "text/term_dict.h"

namespace sprite {
namespace {

// ------------------------------------------------------------- TermDict

TEST(TermDictTest, InternAssignsDenseIdsInFirstSightOrder) {
  text::TermDict dict;
  EXPECT_EQ(dict.Intern("cat"), 0u);
  EXPECT_EQ(dict.Intern("dog"), 1u);
  EXPECT_EQ(dict.Intern("cat"), 0u);  // idempotent
  EXPECT_EQ(dict.Intern("emu"), 2u);
  EXPECT_EQ(dict.size(), 3u);
}

TEST(TermDictTest, DeterministicAcrossInstances) {
  // Two dictionaries fed the same terms in the same order agree on every
  // id and precomputed key — the property that makes a re-run of the same
  // seeded workload reproduce the same ring placement.
  const std::vector<std::string> corpus_order{"pet", "cat", "dog", "cat",
                                              "feline", "pet", "whisker"};
  text::TermDict a, b;
  for (const std::string& term : corpus_order) {
    const text::TermId ia = a.Intern(term);
    const text::TermId ib = b.Intern(term);
    EXPECT_EQ(ia, ib) << term;
    EXPECT_EQ(a.RawKeyOf(ia), b.RawKeyOf(ib)) << term;
  }
}

TEST(TermDictTest, LookupOfUnknownTermIsInvalid) {
  text::TermDict dict;
  dict.Intern("cat");
  EXPECT_EQ(dict.Lookup("dog"), text::kInvalidTermId);
  EXPECT_EQ(dict.Lookup(""), text::kInvalidTermId);
  EXPECT_EQ(dict.Lookup("cat"), 0u);
}

TEST(TermDictTest, RoundTripRecoversSpelling) {
  text::TermDict dict;
  const std::vector<std::string> terms{"alpha", "beta", "", "x"};
  for (const std::string& term : terms) {
    EXPECT_EQ(dict.TermOf(dict.Intern(term)), term);
  }
}

TEST(TermDictTest, PrecomputedRingKeyMatchesStringHash) {
  // The whole point of interning: space.Truncate(RawKeyOf(id)) must be
  // bit-for-bit what the seed computed per lookup via KeyForString.
  text::TermDict dict;
  for (int bits : {8, 16, 32}) {
    dht::IdSpace space(bits);
    for (const char* term : {"cat", "dog", "supercalifragilistic", ""}) {
      const text::TermId id = dict.Intern(term);
      EXPECT_EQ(space.Truncate(dict.RawKeyOf(id)), space.KeyForString(term))
          << term << " @" << bits << " bits";
    }
  }
}

TEST(TermDictTest, SpellingReferencesSurviveRehash) {
  // TermOf hands out references; they must stay valid as the dictionary
  // grows (the spellings live in a deque, not a reallocating vector).
  text::TermDict dict;
  const std::string& first = dict.TermOf(dict.Intern("first"));
  for (int i = 0; i < 5000; ++i) dict.Intern(StrFormat("t%d", i));
  EXPECT_EQ(first, "first");
}

// ----------------------------------------------------------- TopKInPlace

TEST(TopKTest, PrefixMatchesFullSortExactly) {
  Rng rng(42);
  const auto cmp = [](const std::pair<double, uint32_t>& a,
                      const std::pair<double, uint32_t>& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;  // strict total order
  };
  for (const size_t n : {0u, 1u, 7u, 100u, 1000u}) {
    std::vector<std::pair<double, uint32_t>> data;
    for (size_t i = 0; i < n; ++i) {
      // Coarse scores force plenty of ties through the tie-breaker.
      data.emplace_back(static_cast<double>(rng.NextUint64(8)),
                        static_cast<uint32_t>(rng.NextUint64(1000)));
    }
    for (const size_t k : {0u, 1u, 5u, 99u, 1000u, 5000u}) {
      std::vector<std::pair<double, uint32_t>> sorted = data;
      std::sort(sorted.begin(), sorted.end(), cmp);
      if (k != 0 && sorted.size() > k) sorted.resize(k);

      std::vector<std::pair<double, uint32_t>> topk = data;
      TopKInPlace(topk, k, cmp);
      EXPECT_EQ(topk, sorted) << "n=" << n << " k=" << k;
    }
  }
}

TEST(TopKTest, ZeroKMeansFullSortWithoutTruncation) {
  std::vector<int> v{3, 1, 2};
  TopKInPlace(v, 0, std::less<int>());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3}));
}

TEST(TopKTest, SortRankedListTruncatesDeterministically) {
  ir::RankedList list{{5, 1.0}, {2, 2.0}, {9, 1.0}, {1, 2.0}, {7, 0.5}};
  ir::SortRankedList(list, 3);
  // score desc, doc asc on ties: (1,2.0) (2,2.0) (5,1.0).
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].doc, 1u);
  EXPECT_EQ(list[1].doc, 2u);
  EXPECT_EQ(list[2].doc, 5u);
}

// ------------------------------------------------------------ IDF hoist

TEST(IdfHoistTest, HoistedIdfScoresMatchPerPostingRecompute) {
  // The scoring loop computes Idf(N, n'_k) once per retrieved list and
  // accumulates wq * ntf * idf per posting. Recomputing the IDF inside the
  // posting loop must yield bit-identical sums: Idf is deterministic and
  // the association of the product is unchanged.
  Rng rng(7);
  const double corpus_size = 25000.0;
  for (int trial = 0; trial < 50; ++trial) {
    const size_t len = 1 + rng.NextUint64(200);
    std::vector<std::pair<uint32_t, double>> postings;  // (doc, ntf)
    for (size_t i = 0; i < len; ++i) {
      postings.emplace_back(
          static_cast<uint32_t>(rng.NextUint64(300)),
          static_cast<double>(1 + rng.NextUint64(9)) /
              static_cast<double>(10 + rng.NextUint64(90)));
    }

    std::unordered_map<uint32_t, double> hoisted, per_posting;
    const double idf =
        ir::Idf(corpus_size, static_cast<uint32_t>(postings.size()));
    const double wq = idf;
    for (const auto& [doc, ntf] : postings) {
      hoisted[doc] += wq * ntf * idf;
    }
    for (const auto& [doc, ntf] : postings) {
      const double inner_idf =
          ir::Idf(corpus_size, static_cast<uint32_t>(postings.size()));
      per_posting[doc] += inner_idf * ntf * inner_idf;
    }
    ASSERT_EQ(hoisted.size(), per_posting.size());
    for (const auto& [doc, sum] : hoisted) {
      // Exact double equality: same operations in the same order.
      EXPECT_EQ(sum, per_posting.at(doc)) << "trial " << trial;
    }
  }
}

// ------------------------------------------------------- merge ranking

// One observed contribution: (term, doc, w).
using Contribution = std::tuple<text::TermId, corpus::DocId, double>;

// The accumulation the merge replaced: one hash-map entry per candidate,
// lists in order, then a full sort by (score desc, doc asc) and a cut at k.
// `contributions` receives every (term, doc, w) grouped per doc in
// ascending doc order, each doc's in list order; `distinct` each
// candidate's divisor.
ir::RankedList ReferenceRank(const std::vector<core::RetrievedList>& lists,
                             double corpus_size, size_t k,
                             std::vector<Contribution>* contributions,
                             std::map<corpus::DocId, uint32_t>* distinct) {
  struct Acc {
    double dot = 0.0;
    uint32_t distinct_terms = 0;
    std::vector<Contribution> seen;
  };
  std::unordered_map<corpus::DocId, Acc> acc;
  for (const core::RetrievedList& rl : lists) {
    if (rl.postings == nullptr || rl.postings->empty()) continue;
    const double idf =
        ir::Idf(corpus_size, static_cast<uint32_t>(rl.postings->size()));
    if (idf == 0.0) continue;
    for (const core::PostingEntry& p : *rl.postings) {
      const double w = idf * p.NormalizedTf() * idf;
      Acc& a = acc[p.doc];
      a.dot += w;
      a.distinct_terms = p.num_distinct_terms;
      a.seen.emplace_back(rl.term, p.doc, w);
    }
  }
  const std::map<corpus::DocId, Acc> by_doc(acc.begin(), acc.end());
  ir::RankedList results;
  for (const auto& [doc, a] : by_doc) {
    contributions->insert(contributions->end(), a.seen.begin(), a.seen.end());
    (*distinct)[doc] = a.distinct_terms;
    const double score = ir::LeeNormalize(a.dot, a.distinct_terms);
    if (score > 0.0) results.push_back({doc, score});
  }
  std::sort(results.begin(), results.end(),
            [](const ir::ScoredDoc& a, const ir::ScoredDoc& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc < b.doc;
            });
  if (k != 0 && results.size() > k) results.resize(k);
  return results;
}

struct RecordingHooks {
  std::map<text::TermId, double> idf;
  std::vector<Contribution> contributions;
  std::map<corpus::DocId, uint32_t> distinct;
  std::vector<corpus::DocId> candidate_order;
  void OnListIdf(text::TermId term, double list_idf) { idf[term] = list_idf; }
  void OnContribution(text::TermId term, const core::PostingEntry& p,
                      double w) {
    // A doc's contributions all precede its candidate report.
    EXPECT_TRUE(candidate_order.empty() || candidate_order.back() < p.doc);
    contributions.emplace_back(term, p.doc, w);
  }
  void OnCandidate(corpus::DocId doc, uint32_t distinct_terms) {
    candidate_order.push_back(doc);
    distinct[doc] = distinct_terms;
  }
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameRanking(const ir::RankedList& got, const ir::RankedList& want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << where << " rank " << i;
    EXPECT_TRUE(SameBits(got[i].score, want[i].score))
        << where << " rank " << i << ": " << got[i].score << " vs "
        << want[i].score;
  }
}

// Ranks `lists` through the production merge with and without hooks and
// compares both, and everything the hooks saw, with the reference.
void ExpectMergeMatchesReference(const std::vector<core::RetrievedList>& lists,
                                 double corpus_size, size_t k,
                                 const std::string& where) {
  size_t fetched = 0;
  for (const core::RetrievedList& rl : lists) {
    if (rl.postings != nullptr) fetched += rl.postings->size();
  }
  std::vector<Contribution> want_contributions;
  std::map<corpus::DocId, uint32_t> want_distinct;
  const ir::RankedList want = ReferenceRank(
      lists, corpus_size, k, &want_contributions, &want_distinct);

  ExpectSameRanking(core::RankRetrievedLists(lists, corpus_size, fetched, k),
                    want, where + " (no hooks)");
  RecordingHooks hooks;
  ExpectSameRanking(
      core::RankRetrievedLists(lists, corpus_size, fetched, k, hooks), want,
      where + " (hooks)");
  ASSERT_EQ(hooks.contributions.size(), want_contributions.size()) << where;
  for (size_t i = 0; i < want_contributions.size(); ++i) {
    const auto& [term, doc, w] = hooks.contributions[i];
    const auto& [want_term, want_doc, want_w] = want_contributions[i];
    EXPECT_EQ(term, want_term) << where << " contribution " << i;
    EXPECT_EQ(doc, want_doc) << where << " contribution " << i;
    EXPECT_TRUE(SameBits(w, want_w)) << where << " contribution " << i;
  }
  EXPECT_EQ(hooks.distinct, want_distinct) << where;
  for (const core::RetrievedList& rl : lists) {
    if (rl.postings == nullptr || rl.postings->empty()) continue;
    const auto it = hooks.idf.find(rl.term);
    ASSERT_NE(it, hooks.idf.end()) << where << " term " << rl.term;
    EXPECT_TRUE(SameBits(
        it->second,
        ir::Idf(corpus_size, static_cast<uint32_t>(rl.postings->size()))))
        << where << " term " << rl.term;
  }
}

// A list of `n` distinct docs drawn from [0, universe), sorted by doc.
core::PostingListPtr RandomList(Rng& rng, size_t n, uint32_t universe) {
  std::vector<uint32_t> docs(universe);
  for (uint32_t d = 0; d < universe; ++d) docs[d] = d;
  for (size_t i = 0; i < n; ++i) {
    std::swap(docs[i], docs[i + rng.NextUint64(universe - i)]);
  }
  docs.resize(n);
  std::sort(docs.begin(), docs.end());
  auto list = std::make_shared<core::PostingList>();
  for (const uint32_t doc : docs) {
    core::PostingEntry e;
    e.doc = doc;
    e.owner = rng.NextUint64(16);
    e.doc_length = static_cast<uint32_t>(rng.NextUint64(60));  // 0 included
    e.term_freq = static_cast<uint32_t>(rng.NextUint64(e.doc_length + 1));
    // Drawn per posting, so one doc's count differs across lists.
    e.num_distinct_terms = static_cast<uint32_t>(rng.NextUint64(40));
    list->push_back(e);
  }
  return list;
}

TEST(MergeRankTest, SeededListsMatchMapAccumulationBitForBit) {
  Rng rng(2024);
  constexpr uint32_t kUniverse = 400;  // small, so docs overlap often
  for (int trial = 0; trial < 300; ++trial) {
    // Corpus sizes on both sides of the list lengths: some lists get
    // idf 0 (df >= N) and drop out.
    const double corpus_size = trial % 3 == 0 ? 150.0 : 25000.0;
    std::vector<core::RetrievedList> lists;
    const size_t num_lists = rng.NextUint64(7);  // 0-6
    for (size_t i = 0; i < num_lists; ++i) {
      core::RetrievedList rl;
      rl.term = static_cast<text::TermId>(i);
      rl.postings = RandomList(rng, rng.NextUint64(301), kUniverse);
      lists.push_back(std::move(rl));
    }
    // The last k exceeds every candidate set.
    for (const size_t k : {size_t{0}, size_t{1}, size_t{20},
                           size_t{kUniverse + 1}}) {
      ExpectMergeMatchesReference(lists, corpus_size, k,
                                  StrFormat("trial %d k=%zu", trial, k));
    }
  }
}

TEST(MergeRankTest, EdgeCasesMatchMapAccumulation) {
  const auto entry = [](uint32_t doc, uint32_t tf, uint32_t len,
                        uint32_t distinct) {
    core::PostingEntry e;
    e.doc = doc;
    e.term_freq = tf;
    e.doc_length = len;
    e.num_distinct_terms = distinct;
    return e;
  };
  const auto list = [](std::vector<core::PostingEntry> entries) {
    return std::make_shared<const core::PostingList>(std::move(entries));
  };
  // df 4 >= N = 4: idf 0, so this list adds nothing.
  const core::PostingListPtr everywhere =
      list({entry(1, 1, 5, 3), entry(2, 1, 5, 3), entry(3, 1, 5, 3),
            entry(4, 1, 5, 3)});
  const std::vector<core::RetrievedList> lists = {
      {0, nullptr},
      {1, core::EmptyPostingList()},
      {2, list({entry(1, 2, 10, 7), entry(5, 1, 0, 4), entry(9, 3, 9, 0)})},
      {3, everywhere},
      // doc 1 again with another distinct-term count: the last list wins.
      {4, list({entry(1, 1, 4, 2), entry(7, 1, 3, 5)})},
  };
  for (const size_t k : {size_t{0}, size_t{1}, size_t{2}, size_t{20}}) {
    ExpectMergeMatchesReference(lists, 4.0, k, StrFormat("N=4 k=%zu", k));
    ExpectMergeMatchesReference(lists, 1e6, k, StrFormat("N=1e6 k=%zu", k));
  }
  ExpectMergeMatchesReference({}, 1e6, 20, "no lists");
  ExpectMergeMatchesReference({{0, nullptr}, {1, core::EmptyPostingList()}},
                              1e6, 20, "only null and empty lists");
  // doc_length 0 (doc 5) gives tf_norm 0 and distinct 0 (doc 9) gives
  // score 0: neither ranks, though the hooks report both as candidates.
  const ir::RankedList ranked = core::RankRetrievedLists(lists, 4.0, 12, 0);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].doc, 1u);
  EXPECT_EQ(ranked[1].doc, 7u);
}

// ------------------------------------- whole-system determinism (interned)

text::TermVector TV(const std::vector<std::string>& tokens) {
  return text::TermVector::FromTokens(tokens);
}

struct RunDump {
  std::string ranked;
  std::string metrics;
  std::string trace;
};

RunDump SeededRun(uint64_t seed) {
  corpus::Corpus corpus;
  corpus.AddDocument(
      TV({"cat", "cat", "cat", "feline", "feline", "whisker", "purr"}));
  corpus.AddDocument(
      TV({"dog", "dog", "dog", "canine", "canine", "leash", "bark"}));
  corpus.AddDocument(TV({"pet", "pet", "cat", "dog", "food"}));

  core::SpriteConfig config;
  config.num_peers = 16;
  config.initial_terms = 2;
  config.terms_per_iteration = 2;
  config.max_index_terms = 6;
  config.seed = seed;
  core::SpriteSystem system(config);
  system.mutable_tracer().set_enabled(true);
  SPRITE_CHECK_OK(system.ShareCorpus(corpus));
  system.RecordQuery(corpus::Query{1, {"cat", "dog"}});
  system.RunLearningIteration();

  RunDump dump;
  for (corpus::QueryId qid = 2; qid < 6; ++qid) {
    auto result =
        system.Search(corpus::Query{qid, {"cat", "dog", "pet"}}, 10, false);
    SPRITE_CHECK(result.ok());
    for (const ir::ScoredDoc& scored : *result) {
      dump.ranked += std::to_string(scored.doc) + ":" +
                     StrFormat("%.17g", scored.score) + ";";
    }
  }
  dump.metrics = system.metrics().Snapshot().ToJson();
  dump.trace = system.tracer().ToJsonl();
  return dump;
}

TEST(InternedDeterminismTest, IdenticalSeedsByteIdenticalOutputs) {
  const RunDump a = SeededRun(7);
  const RunDump b = SeededRun(7);
  EXPECT_EQ(a.ranked, b.ranked);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_FALSE(a.ranked.empty());
}

}  // namespace
}  // namespace sprite
