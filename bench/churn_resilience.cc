// Section-7 extension bench: retrieval quality under peer failure, with
// and without successor replication. The paper argues that (a) dropping
// unreachable query terms and (b) replicating indexes to successors make
// peer failure nearly harmless; this bench quantifies both.

#include <cstdio>

#include "bench/bench_common.h"
#include "common/rng.h"

namespace {

using namespace sprite;

struct Outcome {
  double precision, recall;
  uint64_t failed_lookups;
};

Outcome Run(const spritebench::BenchArgs& args, const eval::TestBed& bed,
            double fail_fraction, size_t replication,
            spritebench::PerfRecorder& perf, bool instrument) {
  core::SpriteConfig config = spritebench::DefaultSpriteConfig(args);
  config.replication_factor = replication;
  if (instrument) {
    spritebench::ApplyObsFlags(args, config);
    perf.ApplyConfig(config);
  }
  core::SpriteSystem system(config);
  const bool telemetry = instrument && spritebench::WantsTimeSeries(args);
  if (instrument) {
    spritebench::MaybeEnableTracing(args, system);
    spritebench::ApplySloRules(args, system);
  }
  SPRITE_CHECK_OK(eval::TrainSystem(system, bed, bed.split().train, 3));
  if (replication > 0) system.ReplicateIndexes();
  if (telemetry) {
    // Healthy-network baseline point; the post-failure point below lets a
    // recall-drop rule quantify what churn cost despite replication.
    eval::EvalResult healthy =
        eval::EvaluateSystem(system, bed, bed.split().test, 20);
    obs::MetricsRegistry& m = system.mutable_metrics();
    m.Set("bench.precision_ratio", healthy.ratio.precision);
    m.Set("bench.recall_ratio", healthy.ratio.recall);
    m.Set("bench.alive_peers",
          static_cast<double>(system.ring().num_alive()));
    system.CaptureTimeSeriesPoint("trained");
  }

  // Fail a random fraction of peers, then let the ring stabilize.
  std::vector<uint64_t> ids = system.ring().AliveIds();
  Rng rng(args.seed * 1337 + 11);
  rng.Shuffle(ids);
  const size_t to_fail =
      static_cast<size_t>(fail_fraction * static_cast<double>(ids.size()));
  for (size_t i = 0; i < to_fail; ++i) {
    SPRITE_CHECK_OK(system.FailPeer(ids[i]));
  }
  system.StabilizeNetwork(3);
  system.mutable_ring().ClearStats();

  eval::EvalResult r = eval::EvaluateSystem(system, bed, bed.split().test, 20);
  if (telemetry) {
    obs::MetricsRegistry& m = system.mutable_metrics();
    m.Set("bench.precision_ratio", r.ratio.precision);
    m.Set("bench.recall_ratio", r.ratio.recall);
    m.Set("bench.alive_peers",
          static_cast<double>(system.ring().num_alive()));
    system.CaptureTimeSeriesPoint("post-failure");
    spritebench::MaybeWriteTimeSeries(args, system);
  }
  if (instrument) {
    spritebench::MaybeWriteMetricsJson(args, system);
    spritebench::MaybeWriteTraceFiles(args, system);
    perf.CaptureSystem(system);
  }
  return Outcome{r.ratio.precision, r.ratio.recall,
                 system.ring().stats().failed_lookups};
}

}  // namespace

int main(int argc, char** argv) {
  const spritebench::BenchArgs args = spritebench::ParseBenchArgs(argc, argv);
  spritebench::PrintHeader(
      "Peer failure resilience with successor replication (Section 7)",
      args);

  eval::TestBed bed =
      eval::TestBed::Build(spritebench::DefaultExperiment(args));

  spritebench::PerfRecorder perf(args, "churn_resilience");
  do {
    spritebench::PerfRecorder::Phase phase(perf, "failure_sweep");
    std::printf("%8s | %22s | %22s\n", "failed", "no replication (P/R)",
                "replication r=2 (P/R)");
    std::printf("---------+------------------------+----------------------\n");
    for (double f : {0.0, 0.1, 0.25, 0.5}) {
      Outcome none = Run(args, bed, f, 0, perf, /*instrument=*/false);
      // Trace (when requested) the harshest replicated run: searches routing
      // around half the network being gone.
      Outcome repl = Run(args, bed, f, 2, perf, /*instrument=*/f == 0.5);
      std::printf("  %4.0f%%  |    %6.3f / %6.3f    |    %6.3f / %6.3f\n",
                  f * 100.0, none.precision, none.recall, repl.precision,
                  repl.recall);
    }
    std::printf(
        "\n(the paper: with index replication in successor peers, 'peer\n"
        " failure will have little impact in SPRITE')\n");
  } while (perf.NextRep());
  perf.WriteReport();
  return 0;
}
