// Tests for the learning module: qScore, the Score formula (validated
// against the paper's worked example in Figure 2(b)), ranking order, and
// the exact equivalence of incremental Algorithm 1 with the naive
// recompute-everything scheme.

#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/learning.h"

namespace sprite::core {
namespace {

text::TermVector TV(const std::vector<std::string>& tokens) {
  return text::TermVector::FromTokens(tokens);
}

// Spelled-out query (the overload resolution needs an lvalue of the right
// type now that QScore also accepts interned TermIds).
std::vector<std::string> Q(std::vector<std::string> terms) { return terms; }

std::vector<TermId> Ids(const std::vector<std::string>& terms) {
  std::vector<TermId> ids;
  for (const std::string& term : terms) {
    ids.push_back(text::TermDict::Global().Intern(term));
  }
  return ids;
}

// ------------------------------------------------------------------ QScore

TEST(QScoreTest, FullOverlap) {
  EXPECT_DOUBLE_EQ(QScore(Q({"a", "b"}), TV({"a", "b", "c"})), 1.0);
}

TEST(QScoreTest, PartialOverlap) {
  EXPECT_DOUBLE_EQ(QScore(Q({"a", "b", "x", "y"}), TV({"a", "b", "c"})), 0.5);
}

TEST(QScoreTest, NoOverlap) {
  EXPECT_DOUBLE_EQ(QScore(Q({"x", "y"}), TV({"a", "b"})), 0.0);
}

TEST(QScoreTest, EmptyQueryIsZero) {
  EXPECT_DOUBLE_EQ(QScore(Q({}), TV({"a"})), 0.0);
}

TEST(QScoreTest, DenominatorIsQuerySizeNotDocSize) {
  // 3 of 4 query terms occur in the document.
  EXPECT_DOUBLE_EQ(QScore(Q({"a", "b", "c", "z"}),
                          TV({"a", "b", "c", "d", "e", "f", "g"})),
                   0.75);
}

TEST(QScoreTest, InternedOverloadAgreesWithStrings) {
  const std::vector<std::string> q{"a", "b", "x", "y"};
  const text::TermVector doc = TV({"a", "b", "c"});
  EXPECT_DOUBLE_EQ(QScore(Ids(q), doc), QScore(q, doc));
  EXPECT_DOUBLE_EQ(QScore(std::vector<TermId>{}, doc), 0.0);
}

// --------------------------------------------------------------- TermScore

TEST(TermScoreTest, PaperWorkedExampleFigure2b) {
  // Figure 2(b): 0.75*log 20 = 0.975, 0.75*log 5 = 0.524,
  // 0.33*log 30 = 0.492, 0.33*log 32 = 0.501 — this pins the log base to 10.
  EXPECT_NEAR(TermScore({0.75, 20}, LearningScoreVariant::kQScoreLogQf),
              0.975, 0.002);
  EXPECT_NEAR(TermScore({0.75, 5}, LearningScoreVariant::kQScoreLogQf),
              0.524, 0.002);
  EXPECT_NEAR(TermScore({0.33, 30}, LearningScoreVariant::kQScoreLogQf),
              0.492, 0.006);
  EXPECT_NEAR(TermScore({0.33, 32}, LearningScoreVariant::kQScoreLogQf),
              0.501, 0.006);
}

TEST(TermScoreTest, ZeroQueryFrequencyIsZero) {
  EXPECT_DOUBLE_EQ(TermScore({0.9, 0}, LearningScoreVariant::kQScoreLogQf),
                   0.0);
}

TEST(TermScoreTest, SingleQueryScoresZeroUnderLog) {
  // log10(1) == 0: a term seen in exactly one query has Score 0 under the
  // paper's formula (ties broken by QF and tf downstream).
  EXPECT_DOUBLE_EQ(TermScore({1.0, 1}, LearningScoreVariant::kQScoreLogQf),
                   0.0);
}

TEST(TermScoreTest, AblationVariants) {
  TermLearningStats st{0.5, 10};
  EXPECT_DOUBLE_EQ(TermScore(st, LearningScoreVariant::kQScoreRawQf), 5.0);
  EXPECT_DOUBLE_EQ(TermScore(st, LearningScoreVariant::kQScoreOnly), 0.5);
  EXPECT_DOUBLE_EQ(TermScore(st, LearningScoreVariant::kQfOnly), 1.0);
}

TEST(TermScoreTest, LogDampsQfRelativeToRaw) {
  // The paper's rationale: log weighting limits the influence of QF so that
  // query quality (qScore) dominates.
  TermLearningStats common{0.2, 100};   // common but weakly-matching term
  TermLearningStats precise{0.9, 10};   // precise expert-query term
  EXPECT_GT(TermScore(precise, LearningScoreVariant::kQScoreLogQf),
            TermScore(common, LearningScoreVariant::kQScoreLogQf));
  EXPECT_LT(TermScore(precise, LearningScoreVariant::kQScoreRawQf),
            TermScore(common, LearningScoreVariant::kQScoreRawQf));
}

// ------------------------------------------------------------------ Ranking

TEST(RankingTest, OrderByScoreThenQfThenTfThenTerm) {
  ScoredTerm a{"alpha", 1.0, 5, 2};
  ScoredTerm b{"beta", 0.5, 9, 9};
  ScoredTerm c{"gamma", 0.5, 9, 3};
  ScoredTerm d{"delta", 0.5, 2, 3};
  EXPECT_TRUE(ScoredTermLess(a, b));   // higher score first
  EXPECT_TRUE(ScoredTermLess(b, c));   // tie: higher tf first
  EXPECT_TRUE(ScoredTermLess(c, d));   // tie: higher qf first
  ScoredTerm e{"aaa", 0.5, 2, 3};
  EXPECT_TRUE(ScoredTermLess(e, d));   // full tie: lexicographic
}

// ---------------------------------------------------- ProcessQueriesAndRank

QueryRecord QR(uint64_t seq, const std::vector<std::string>& terms) {
  QueryRecord r;
  r.id = static_cast<QueryId>(seq);
  r.terms = Ids(terms);
  r.hash_key = seq * 7919;
  r.seq = seq;
  return r;
}

TEST(IncrementalLearnerTest, AccumulatesQfAndMaxQscore) {
  text::TermVector doc = TV({"cat", "dog", "fish", "cat"});
  std::unordered_map<std::string, TermLearningStats> stats;

  QueryRecord q1 = QR(1, {"cat", "zebra"});        // qScore 0.5
  QueryRecord q2 = QR(2, {"cat"});                 // qScore 1.0
  QueryRecord q3 = QR(3, {"dog", "cat", "fish"});  // qScore 1.0
  auto ranked =
      ProcessQueriesAndRank(doc, stats, {&q1, &q2, &q3});

  EXPECT_EQ(stats["cat"].query_freq, 3u);
  EXPECT_DOUBLE_EQ(stats["cat"].best_qscore, 1.0);
  EXPECT_EQ(stats["dog"].query_freq, 1u);
  EXPECT_EQ(stats.count("zebra"), 0u);  // not in the document -> no entry

  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0].term, "cat");  // only term with QF > 1
}

TEST(IncrementalLearnerTest, TermsAbsentFromDocumentNeverRanked) {
  text::TermVector doc = TV({"alpha"});
  std::unordered_map<std::string, TermLearningStats> stats;
  QueryRecord q = QR(1, {"beta", "gamma"});
  auto ranked = ProcessQueriesAndRank(doc, stats, {&q});
  EXPECT_TRUE(ranked.empty());
  EXPECT_TRUE(stats.empty());
}

TEST(IncrementalLearnerTest, StatsPersistAcrossCalls) {
  text::TermVector doc = TV({"cat", "dog"});
  std::unordered_map<std::string, TermLearningStats> stats;
  QueryRecord q1 = QR(1, {"cat", "x"});   // qScore 0.5
  ProcessQueriesAndRank(doc, stats, {&q1});
  QueryRecord q2 = QR(2, {"cat"});        // qScore 1.0
  ProcessQueriesAndRank(doc, stats, {&q2});
  EXPECT_EQ(stats["cat"].query_freq, 2u);
  EXPECT_DOUBLE_EQ(stats["cat"].best_qscore, 1.0);
}

TEST(IncrementalLearnerTest, EmptyBatchJustRanksExistingStats) {
  text::TermVector doc = TV({"cat"});
  std::unordered_map<std::string, TermLearningStats> stats;
  stats["cat"] = {0.5, 4};
  auto ranked = ProcessQueriesAndRank(doc, stats, {});
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_NEAR(ranked[0].score, 0.5 * std::log10(4.0), 1e-12);
}

// --- The core equivalence property the paper argues in Section 5.3:
// incremental processing of query batches yields exactly the ranking of the
// naive scheme that reprocesses the entire history each iteration.
class IncrementalEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalEquivalence, MatchesNaiveForRandomHistories) {
  Rng rng(GetParam());
  // Random vocabulary of 30 terms; the document holds a random subset.
  std::vector<std::string> vocab;
  for (int i = 0; i < 30; ++i) vocab.push_back(StrFormat("t%d", i));
  std::vector<std::string> doc_tokens;
  for (const auto& t : vocab) {
    const int copies = static_cast<int>(rng.NextUint64(4));  // 0..3
    for (int c = 0; c < copies; ++c) doc_tokens.push_back(t);
  }
  if (doc_tokens.empty()) doc_tokens.push_back(vocab[0]);
  text::TermVector doc = TV(doc_tokens);

  // Random history of 60 queries processed in 6 incremental batches.
  std::vector<QueryRecord> history;
  for (uint64_t i = 0; i < 60; ++i) {
    const size_t len = 1 + rng.NextUint64(4);
    std::vector<std::string> terms;
    for (size_t j = 0; j < len; ++j) {
      const std::string& t = vocab[rng.NextUint64(vocab.size())];
      if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
        terms.push_back(t);
      }
    }
    history.push_back(QR(i + 1, terms));
  }

  std::unordered_map<std::string, TermLearningStats> stats;
  std::vector<ScoredTerm> incremental;
  for (size_t batch = 0; batch < 6; ++batch) {
    std::vector<const QueryRecord*> ptrs;
    for (size_t i = batch * 10; i < (batch + 1) * 10; ++i) {
      ptrs.push_back(&history[i]);
    }
    incremental = ProcessQueriesAndRank(doc, stats, ptrs);
  }

  std::vector<ScoredTerm> naive = NaiveRank(doc, history);

  ASSERT_EQ(incremental.size(), naive.size());
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_EQ(incremental[i].term, naive[i].term) << "rank " << i;
    EXPECT_DOUBLE_EQ(incremental[i].score, naive[i].score) << "rank " << i;
    EXPECT_EQ(incremental[i].query_freq, naive[i].query_freq) << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 10, 20, 40, 80,
                                           160));

TEST(NaiveRankTest, SimpleKnownRanking) {
  text::TermVector doc = TV({"a", "a", "b", "c"});
  std::vector<QueryRecord> history{
      QR(1, {"a"}), QR(2, {"a"}), QR(3, {"a", "b"}), QR(4, {"c", "zzz"})};
  auto ranked = NaiveRank(doc, history);
  ASSERT_EQ(ranked.size(), 3u);
  // a: qf 3, best qScore 1.0 -> 0.477; b: qf 1 -> 0; c: qf 1 -> 0.
  EXPECT_EQ(ranked[0].term, "a");
  EXPECT_NEAR(ranked[0].score, std::log10(3.0), 1e-12);
  // b and c tie at score 0 / qf 1; tf breaks the tie? both tf 1 -> lexicographic.
  EXPECT_EQ(ranked[1].term, "b");
  EXPECT_EQ(ranked[2].term, "c");
}

}  // namespace
}  // namespace sprite::core
