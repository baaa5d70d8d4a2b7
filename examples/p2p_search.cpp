// P2P search walk-through at simulation scale: builds the synthetic
// corpus, trains SPRITE on half of the generated workload, then runs test
// queries while reporting retrieval quality against the centralized
// baseline and the DHT/network costs behind each answer.
//
//   ./build/examples/p2p_search [--docs=N] [--peers=N] [--seed=N]

#include <cstdio>

#include "common/check.h"
#include "common/flags.h"
#include "core/sprite_system.h"
#include "eval/experiment.h"

namespace {

using namespace sprite;

struct Args {
  size_t docs = 1500;
  size_t peers = 64;
  uint64_t seed = 42;
};

Args Parse(int argc, char** argv) {
  Args args;
  Flags()
      .Whole("--docs", &args.docs)
      .Whole("--peers", &args.peers)
      .Whole("--seed", &args.seed)
      .ParseOrExit(argc, argv);
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);

  std::printf("building synthetic corpus (%zu docs) and query workload...\n",
              args.docs);
  eval::ExperimentOptions options;
  options.corpus.seed = args.seed;
  options.corpus.num_docs = args.docs;
  options.generator.rank_cutoff = 100;
  eval::TestBed bed = eval::TestBed::Build(options);

  core::SpriteConfig config;
  config.num_peers = args.peers;
  core::SpriteSystem system(config);

  std::printf("training: %zu queries seeded, corpus shared, 3 learning "
              "iterations...\n",
              bed.split().train.size());
  SPRITE_CHECK_OK(eval::TrainSystem(system, bed, bed.split().train, 3));

  std::printf("network after training:\n%s\n",
              system.network_stats().ToString().c_str());

  // Run a few test queries interactively-style.
  system.ClearNetworkStats();
  system.mutable_ring().ClearStats();
  for (int i = 0; i < 3; ++i) {
    const size_t idx = bed.split().test[static_cast<size_t>(i) * 7];
    const corpus::Query& q = bed.query(idx);
    std::printf("query #%u:", q.id);
    for (const auto& t : q.terms) std::printf(" %s", t.c_str());
    std::printf("\n");

    auto result = system.Search(q, 10);
    SPRITE_CHECK(result.ok());
    const auto& relevant = bed.workload().judgments.Relevant(q.id);
    size_t hits = 0;
    for (const auto& scored : *result) hits += relevant.count(scored.doc);
    auto central = bed.centralized().Search(q, 10);
    size_t central_hits = 0;
    for (const auto& scored : central) central_hits += relevant.count(scored.doc);
    std::printf("  top-10: %zu relevant (centralized finds %zu); "
                "first hit doc ids:",
                hits, central_hits);
    int shown = 0;
    for (const auto& scored : *result) {
      if (relevant.count(scored.doc) && shown++ < 5) {
        std::printf(" %u", scored.doc);
      }
    }
    std::printf("\n");
  }

  std::printf("\nper-query costs: %s\n",
              system.ring().stats().hops.Summary().c_str());
  std::printf("traffic:\n%s", system.network_stats().ToString().c_str());

  // Whole-test-set quality, the paper's headline metric.
  eval::EvalResult r = eval::EvaluateSystem(system, bed, bed.split().test, 20);
  std::printf("\ntest-set quality at 20 answers: precision %.3f (%.1f%% of "
              "centralized), recall %.3f (%.1f%%)\n",
              r.system.precision, 100.0 * r.ratio.precision, r.system.recall,
              100.0 * r.ratio.recall);
  return 0;
}
