// Supplementary experiment Supp-1 (DESIGN.md): the communication cost that
// motivates the whole paper. Compares the messages/bytes needed to build
// and maintain the distributed index under
//
//   full     — publish EVERY distinct term of every document (the naive
//              DHT text-indexing approach the introduction rules out);
//   eSearch  — publish the top-20 frequent terms;
//   SPRITE   — publish 5 initial terms, then 3 learning iterations
//              (polls + publications + withdrawals) up to 20 terms.
//
// Also reports the per-query search cost. The paper's claim: selective
// indexing cuts the construction/maintenance traffic by an order of
// magnitude or more, which is what makes the DHT approach practical.

#include <cstdio>

#include "bench/bench_common.h"

namespace {

using namespace sprite;

void PrintCost(const char* label, const net::TransportStats& stats,
               size_t num_docs) {
  std::printf("%-8s total msgs %10llu  bytes %12llu  (%.1f msgs/doc)\n",
              label,
              static_cast<unsigned long long>(stats.TotalFrames()),
              static_cast<unsigned long long>(stats.TotalBytes()),
              static_cast<double>(stats.TotalFrames()) /
                  static_cast<double>(num_docs));
}

// One full cost comparison; repeated per --perf-json repetition (the
// traffic tables are deterministic, so every pass prints the same rows).
void RunOnce(const spritebench::BenchArgs& args, const eval::TestBed& bed,
             spritebench::PerfRecorder& perf) {
  const size_t n = bed.corpus().num_docs();

  // --- Full indexing: every distinct term of every document. -----------
  {
    spritebench::PerfRecorder::Phase phase(perf, "full_indexing");
    // Model it as eSearch with an unbounded term budget.
    core::SpriteConfig config = core::MakeESearchConfig(
        spritebench::DefaultSpriteConfig(args), 1u << 20);
    core::SpriteSystem system(config);
    SPRITE_CHECK_OK(system.ShareCorpus(bed.corpus()));
    std::printf("construction (publish all initial terms):\n");
    PrintCost("full", system.network_stats(), n);
  }

  // --- eSearch: top-20 frequent terms. -----------------------------------
  {
    spritebench::PerfRecorder::Phase phase(perf, "esearch");
    core::SpriteSystem system(
        core::MakeESearchConfig(spritebench::DefaultSpriteConfig(args), 20));
    SPRITE_CHECK_OK(system.ShareCorpus(bed.corpus()));
    PrintCost("eSearch", system.network_stats(), n);
  }

  // --- SPRITE: 5 initial terms + 3 learning iterations. ----------------
  {
    spritebench::PerfRecorder::Phase phase(perf, "sprite");
    core::SpriteConfig sprite_config = spritebench::DefaultSpriteConfig(args);
    spritebench::ApplyObsFlags(args, sprite_config);
    perf.ApplyConfig(sprite_config);
    core::SpriteSystem system(sprite_config);
    spritebench::MaybeEnableTracing(args, system);
    spritebench::ApplySloRules(args, system);
    // Per-phase cost gauges the time series carries (the per-message-type
    // net.* counters are labeled and thus not captured into points).
    const auto capture = [&](const char* label) {
      system.mutable_metrics().Set(
          "bench.net_messages",
          static_cast<double>(system.network_stats().TotalFrames()));
      system.mutable_metrics().Set(
          "bench.net_bytes",
          static_cast<double>(system.network_stats().TotalBytes()));
      system.CaptureTimeSeriesPoint(label);
    };
    for (size_t idx : bed.split().train) system.RecordQuery(bed.query(idx));
    system.ClearNetworkStats();  // charge query insertion to the searchers
    SPRITE_CHECK_OK(system.ShareCorpus(bed.corpus()));
    PrintCost("SPRITE", system.network_stats(), n);
    capture("construction");

    std::printf("\nmaintenance (3 SPRITE learning iterations: polls, "
                "publications, withdrawals):\n");
    system.ClearNetworkStats();
    for (int i = 0; i < 3; ++i) {
      system.RunLearningIteration();
      capture("maintenance");
    }
    PrintCost("SPRITE", system.network_stats(), n);
    std::printf("%s", system.network_stats().ToString().c_str());

    // --- Search cost. ----------------------------------------------------
    system.ClearNetworkStats();
    system.mutable_ring().ClearStats();
    size_t queries = 0;
    for (size_t idx : bed.split().test) {
      (void)system.Search(bed.query(idx), 20, /*record=*/false);
      ++queries;
    }
    const auto& net = system.network_stats();
    std::printf("\nsearch cost over %zu queries: %.1f msgs/query, "
                "%.0f bytes/query, %.2f routing hops/lookup\n",
                queries,
                static_cast<double>(net.TotalFrames()) /
                    static_cast<double>(queries),
                static_cast<double>(net.TotalBytes()) /
                    static_cast<double>(queries),
                system.ring().stats().hops.Mean());
    capture("search");
    spritebench::MaybeWriteTimeSeries(args, system);
    spritebench::MaybeWriteMetricsJson(args, system);
    spritebench::MaybeWriteTraceFiles(args, system);
    perf.CaptureSystem(system);
  }

  std::printf(
      "\n(the gap between 'full' and the selective systems is the paper's\n"
      " motivation: indexing every term of every document is impractical)\n");
}

}  // namespace

int main(int argc, char** argv) {
  spritebench::BenchArgs args = spritebench::ParseBenchArgs(argc, argv);
  args.docs = std::min<size_t>(args.docs, 1500);  // full indexing is heavy
  spritebench::PrintHeader(
      "Index construction & maintenance cost (Supp-1)", args);

  eval::TestBed bed =
      eval::TestBed::Build(spritebench::DefaultExperiment(args));

  spritebench::PerfRecorder perf(args, "index_cost");
  do {
    RunOnce(args, bed, perf);
  } while (perf.NextRep());
  perf.WriteReport();
  return 0;
}
