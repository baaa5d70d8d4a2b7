// Cross-module integration tests: the paper's headline claims on a reduced
// bed (SPRITE vs eSearch vs centralized) and end-to-end determinism.

#include <gtest/gtest.h>

#include "eval/experiment.h"

namespace sprite {
namespace {

using core::SpriteConfig;
using core::SpriteSystem;
using eval::EvalResult;
using eval::ExperimentOptions;
using eval::TestBed;

ExperimentOptions MediumExperiment() {
  // The calibrated generator defaults (see SyntheticCorpusOptions) at a
  // reduced scale: 8 topics x 3 originals, 1200 documents.
  ExperimentOptions o;
  o.corpus.seed = 42;
  o.corpus.num_topics = 8;
  o.corpus.num_base_queries = 24;
  o.corpus.num_docs = 1200;
  o.corpus.query_min_terms = 3;
  o.generator.rank_cutoff = 60;
  return o;
}

SpriteConfig DefaultSprite() {
  SpriteConfig c;
  c.num_peers = 64;
  c.initial_terms = 5;
  c.terms_per_iteration = 5;
  c.max_index_terms = 20;
  return c;
}

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bed_ = new TestBed(TestBed::Build(MediumExperiment()));
  }
  static void TearDownTestSuite() {
    delete bed_;
    bed_ = nullptr;
  }
  static TestBed* bed_;
};

TestBed* IntegrationTest::bed_ = nullptr;

// The paper's headline (Figure 4): with the same number of indexed terms,
// learned selection beats static frequency selection on recall, and SPRITE
// lands reasonably close to the centralized ideal.
TEST_F(IntegrationTest, SpriteOutperformsESearchAtEqualTerms) {
  SpriteSystem sprite(DefaultSprite());
  ASSERT_TRUE(
      eval::TrainSystem(sprite, *bed_, bed_->split().train, 3).ok());
  EvalResult sprite_result =
      eval::EvaluateSystem(sprite, *bed_, bed_->split().test, 20);

  SpriteSystem esearch(core::MakeESearchConfig(DefaultSprite(), 20));
  ASSERT_TRUE(eval::TrainSystem(esearch, *bed_, bed_->split().train, 0).ok());
  EvalResult esearch_result =
      eval::EvaluateSystem(esearch, *bed_, bed_->split().test, 20);

  EXPECT_GT(sprite_result.system.recall, esearch_result.system.recall);
  EXPECT_GE(sprite_result.system.precision, esearch_result.system.precision);
  // "nearly as effective as the centralized system"
  EXPECT_GT(sprite_result.ratio.recall, 0.6);
}

TEST_F(IntegrationTest, MoreLearningIterationsNeverHurtMuch) {
  double prev_recall = -1.0;
  for (size_t iters : {0u, 1u, 3u}) {
    SpriteSystem system(DefaultSprite());
    ASSERT_TRUE(
        eval::TrainSystem(system, *bed_, bed_->split().train, iters).ok());
    EvalResult r = eval::EvaluateSystem(system, *bed_, bed_->split().test, 20);
    EXPECT_GE(r.system.recall, prev_recall - 0.02)
        << "recall collapsed at iterations=" << iters;
    prev_recall = r.system.recall;
  }
}

TEST_F(IntegrationTest, EndToEndDeterminism) {
  auto run = [&]() {
    SpriteSystem system(DefaultSprite());
    EXPECT_TRUE(
        eval::TrainSystem(system, *bed_, bed_->split().train, 2).ok());
    return eval::EvaluateSystem(system, *bed_, bed_->split().test, 20);
  };
  EvalResult a = run();
  EvalResult b = run();
  EXPECT_DOUBLE_EQ(a.system.precision, b.system.precision);
  EXPECT_DOUBLE_EQ(a.system.recall, b.system.recall);
  EXPECT_DOUBLE_EQ(a.centralized.precision, b.centralized.precision);
}

TEST_F(IntegrationTest, RebuildingBedIsDeterministic) {
  TestBed other = TestBed::Build(MediumExperiment());
  ASSERT_EQ(other.workload().queries.size(),
            bed_->workload().queries.size());
  for (size_t i = 0; i < other.workload().queries.size(); ++i) {
    EXPECT_EQ(other.workload().queries[i].terms,
              bed_->workload().queries[i].terms);
  }
  EXPECT_EQ(other.split().train, bed_->split().train);
}

}  // namespace
}  // namespace sprite
