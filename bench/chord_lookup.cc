// Supplementary experiment Supp-2 (DESIGN.md): Chord lookup cost. The
// related-work section leans on the DHT guarantee that "the lookup
// function can guarantee a term be found in log N hops"; this bench
// validates that the substrate delivers it: mean hops ~ (1/2) log2 N in a
// converged ring, and routing still succeeds (with slightly longer paths)
// under churn before stabilization completes.

#include <cstdio>
#include <cmath>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "dht/chord.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

// This bench has no SpriteSystem, so the --metrics-json/--trace-json
// flags instrument a standalone registry + tracer attached to a converged
// 256-peer Chord ring resolving term keys, with each lookup a root span
// whose chord.hop children carry the per-hop cost.
void RunInstrumentedSample(const spritebench::BenchArgs& args) {
  using namespace sprite;
  if (args.metrics_json.empty() && args.trace_json.empty() &&
      args.trace_jsonl.empty()) {
    return;
  }
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_hop_cost_ms(50.0);

  dht::ChordRing chord(dht::ChordOptions{32, 8});
  for (size_t i = 0; i < 256; ++i) {
    SPRITE_CHECK(chord.Join("peer" + std::to_string(i)).ok());
  }
  chord.BuildPerfect();
  chord.ClearStats();
  chord.AttachMetrics(&metrics);
  chord.AttachTracer(&tracer);

  for (int i = 0; i < 500; ++i) {
    const std::string term = "term" + std::to_string(i);
    obs::ScopedSpan span(&tracer, "chord.lookup", "bench");
    span.Annotate("term", term);
    SPRITE_CHECK(chord.Lookup(chord.space().KeyForString(term)).ok());
  }

  const auto write = [](const std::string& path, const std::string& body,
                        const char* what) {
    if (!path.empty()) spritebench::WriteDumpOrExit(path, body, what);
  };
  write(args.metrics_json, metrics.Snapshot().ToJson(), "metrics");
  write(args.trace_json, tracer.ToPerfettoJson(), "perfetto trace");
  write(args.trace_jsonl, tracer.ToJsonl(), "jsonl trace");
}

// One full bench pass; the hop tables are seeded-deterministic, so every
// --perf-json repetition prints identical rows. No SpriteSystem here, so
// the perf sidecar carries phase timings and resources but no worker-pool
// or wall-profiler sections.
void RunOnce(const spritebench::BenchArgs& args,
             spritebench::PerfRecorder& perf) {
  using namespace sprite;

  std::printf("== Chord lookup hops vs network size (Supp-2) ==\n\n");
  std::printf("%8s | %10s | %8s | %8s | %14s\n", "peers", "mean hops", "p95",
              "max", "0.5*log2(N)");
  std::printf("---------+------------+----------+----------+--------------\n");

  {
    spritebench::PerfRecorder::Phase phase(perf, "hop_sweep");
    for (size_t n : {16u, 64u, 256u, 1024u, 4096u}) {
      dht::ChordRing ring(dht::ChordOptions{32, 8});
      for (size_t i = 0; i < n; ++i) {
        auto id = ring.Join("peer" + std::to_string(i));
        SPRITE_CHECK(id.ok());
      }
      ring.BuildPerfect();
      ring.ClearStats();

      Rng rng(n * 2654435761ULL + 1);
      for (int i = 0; i < 2000; ++i) {
        auto res = ring.Lookup(ring.space().Truncate(rng.NextUint64()));
        SPRITE_CHECK(res.ok());
      }
      const auto& hops = ring.stats().hops;
      std::printf("%8zu | %10.2f | %8.0f | %8.0f | %14.2f\n", n, hops.Mean(),
                  hops.Percentile(95), hops.max(),
                  0.5 * std::log2(static_cast<double>(n)));
    }
  }

  // Churn: fail 25% of a 1024-node ring, stabilize, verify lookups.
  {
    spritebench::PerfRecorder::Phase phase(perf, "churn");
    std::printf("\nchurn: failing 25%% of 1024 peers, then 3 stabilization "
                "rounds\n");
    dht::ChordRing ring(dht::ChordOptions{32, 8});
    for (size_t i = 0; i < 1024; ++i) {
      SPRITE_CHECK(ring.Join("peer" + std::to_string(i)).ok());
    }
    ring.BuildPerfect();
    std::vector<uint64_t> ids = ring.AliveIds();
    Rng churn_rng(99);
    churn_rng.Shuffle(ids);
    for (size_t i = 0; i < 256; ++i) SPRITE_CHECK(ring.Fail(ids[i]).ok());
    ring.StabilizeAll(3);
    ring.ClearStats();

    Rng rng(4242);
    size_t ok = 0, failed = 0;
    for (int i = 0; i < 2000; ++i) {
      auto res = ring.Lookup(ring.space().Truncate(rng.NextUint64()));
      res.ok() ? ++ok : ++failed;
    }
    std::printf("  lookups ok %zu / failed %zu, mean hops %.2f (was ~%.2f "
                "pre-churn)\n",
                ok, failed, ring.stats().hops.Mean(),
                0.5 * std::log2(768.0));
  }

  RunInstrumentedSample(args);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sprite;
  const spritebench::BenchArgs args = spritebench::ParseBenchArgs(argc, argv);

  spritebench::PerfRecorder perf(args, "chord_lookup");
  do {
    RunOnce(args, perf);
  } while (perf.NextRep());
  perf.WriteReport();
  return 0;
}
