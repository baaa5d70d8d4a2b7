// Section-7 extension bench: load balancing under a skewed (Zipf) query
// stream. Hot query terms concentrate traffic on their indexing peers;
// LAR-style hot-term caching (RunHotTermCaching) spreads that load to the
// peers of co-occurring terms and saves lookups.

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "querygen/workload.h"

namespace {

using namespace sprite;

struct LoadProfile {
  double mean = 0.0;
  uint64_t max = 0;
  double hot_peer_load = 0.0;  // mean load on the hot terms' home peers
  uint64_t lookups = 0;
};

// The most frequent terms of the measured stream — the peers under the
// load the Section-7 technique is supposed to relieve.
std::vector<std::string> HotTerms(const eval::TestBed& bed,
                                  const std::vector<size_t>& stream,
                                  size_t count) {
  std::unordered_map<std::string, uint64_t> qf;
  for (size_t idx : stream) {
    for (const auto& t : bed.query(idx).terms) qf[t] += 1;
  }
  std::vector<std::pair<uint64_t, std::string>> ranked;
  for (auto& [t, f] : qf) ranked.emplace_back(f, t);
  std::sort(ranked.rbegin(), ranked.rend());
  std::vector<std::string> out;
  for (size_t i = 0; i < ranked.size() && i < count; ++i) {
    out.push_back(ranked[i].second);
  }
  return out;
}

LoadProfile Profile(const core::SpriteSystem& system,
                    const std::vector<std::string>& hot_terms) {
  LoadProfile p;
  std::vector<uint64_t> loads;
  for (const auto& [peer, load] : system.query_load()) loads.push_back(load);
  if (loads.empty()) return p;
  std::sort(loads.rbegin(), loads.rend());
  uint64_t total = 0;
  for (uint64_t l : loads) total += l;
  p.mean = static_cast<double>(total) /
           static_cast<double>(system.ring().num_alive());
  p.max = loads[0];
  p.lookups = system.ring().stats().lookups;

  uint64_t hot_total = 0;
  std::unordered_set<p2p::PeerId> hot_peers;
  for (const auto& term : hot_terms) {
    auto node = system.ring().ResponsibleNode(
        system.ring().space().KeyForString(term));
    if (node.ok()) hot_peers.insert(node.value());
  }
  for (p2p::PeerId id : hot_peers) {
    auto it = system.query_load().find(id);
    if (it != system.query_load().end()) hot_total += it->second;
  }
  p.hot_peer_load = hot_peers.empty()
                        ? 0.0
                        : static_cast<double>(hot_total) /
                              static_cast<double>(hot_peers.size());
  return p;
}

LoadProfile Run(const spritebench::BenchArgs& args, const eval::TestBed& bed,
                const std::vector<size_t>& stream,
                spritebench::PerfRecorder& perf, bool caching) {
  spritebench::PerfRecorder::Phase phase(perf,
                                         caching ? "caching" : "no_caching");
  core::SpriteConfig config = spritebench::DefaultSpriteConfig(args);
  config.use_hot_term_cache = caching;
  // Telemetry instruments the caching-on run only (same convention as the
  // metrics/trace dumps below).
  if (caching) {
    spritebench::ApplyObsFlags(args, config);
    perf.ApplyConfig(config);
  }
  core::SpriteSystem system(config);
  if (caching) {
    spritebench::MaybeEnableTracing(args, system);
    spritebench::ApplySloRules(args, system);
  }
  SPRITE_CHECK_OK(eval::TrainSystem(system, bed, bed.split().train, 3));

  // Warm-up third of the stream: peers observe the live query popularity
  // (recorded into their histories), after which the hot terms are cached
  // at their co-occurring peers. The remainder of the stream is measured.
  const size_t warmup = stream.size() / 3;
  for (size_t i = 0; i < warmup; ++i) {
    (void)system.Search(bed.query(stream[i]), 20, /*record=*/true);
  }
  if (caching) {
    const size_t placements = system.RunHotTermCaching(/*top_terms=*/8);
    std::printf("  (hot-term caching: %zu cache placements)\n", placements);
    // Skew after the warm-up third, before the load counters reset: the
    // point the gini-bound SLO rule sees first.
    system.ExportLoadMetrics();
    system.CaptureTimeSeriesPoint("warmup");
  }
  system.ClearQueryLoad();
  system.mutable_ring().ClearStats();
  std::vector<size_t> measured(stream.begin() + static_cast<long>(warmup),
                               stream.end());
  for (size_t idx : measured) {
    (void)system.Search(bed.query(idx), 20, /*record=*/false);
  }
  // Per-peer load gauges + skew stats through the registry, so the BENCH
  // JSON carries the distribution the table below only summarizes.
  system.ExportLoadMetrics();
  std::printf("  (query-load skew: max/mean=%.2f gini=%.3f)\n",
              system.metrics().gauge("load.queries.max_mean_ratio"),
              system.metrics().gauge("load.queries.gini"));
  // Resident posting bytes across every peer (index + replicas + hot
  // caches): encoded blocks vs the raw entry vectors they replace.
  std::printf("  (posting store: raw=%.0fB encoded=%.0fB ratio=%.2fx)\n",
              system.metrics().gauge("load.posting_bytes_raw.total"),
              system.metrics().gauge("load.posting_bytes_encoded.total"),
              system.metrics().gauge("load.posting_compression_ratio"));
  // Dump the instrumented (caching-on) run: it exercises the full search
  // path including cache-served lists.
  if (caching) {
    system.CaptureTimeSeriesPoint("measured");
    spritebench::MaybeWriteTimeSeries(args, system);
    spritebench::MaybeWriteMetricsJson(args, system);
    spritebench::MaybeWriteTraceFiles(args, system);
    perf.CaptureSystem(system);
  }
  return Profile(system, HotTerms(bed, measured, 8));
}

}  // namespace

int main(int argc, char** argv) {
  const spritebench::BenchArgs args = spritebench::ParseBenchArgs(argc, argv);
  spritebench::PrintHeader(
      "Query load balancing with hot-term caching (Section 7)", args);

  eval::TestBed bed =
      eval::TestBed::Build(spritebench::DefaultExperiment(args));

  // A heavily skewed stream over the test queries: the hot-query regime.
  Rng rng(args.seed * 271 + 9);
  querygen::ZipfStream stream = querygen::MakeZipfStream(
      bed.split().test, /*num_issuances=*/3000, /*slope=*/1.0, rng);

  std::printf("issuing %zu Zipf(1.0) queries over %zu distinct test "
              "queries\n\n",
              stream.issuances.size(), bed.split().test.size());

  spritebench::PerfRecorder perf(args, "load_balance");
  do {
    LoadProfile off = Run(args, bed, stream.issuances, perf, false);
    LoadProfile on = Run(args, bed, stream.issuances, perf, true);

    std::printf("\n%22s | %12s | %12s\n", "", "no caching", "with caching");
    std::printf("-----------------------+--------------+-------------\n");
    std::printf("%22s | %12.1f | %12.1f\n", "mean load/peer", off.mean,
                on.mean);
    std::printf("%22s | %12.1f | %12.1f\n", "hot terms' home peers",
                off.hot_peer_load, on.hot_peer_load);
    std::printf("%22s | %12llu | %12llu\n", "max single peer",
                static_cast<unsigned long long>(off.max),
                static_cast<unsigned long long>(on.max));
    std::printf("%22s | %12llu | %12llu\n", "DHT lookups",
                static_cast<unsigned long long>(off.lookups),
                static_cast<unsigned long long>(on.lookups));
    std::printf(
        "\n(caching hot terms at co-occurring peers takes load off the hot\n"
        " peers and skips their lookups entirely, as Section 7 describes)\n");
  } while (perf.NextRep());
  perf.WriteReport();
  return 0;
}
