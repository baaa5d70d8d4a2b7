// Caching experiment (DESIGN.md §9): what the querying-peer cache tiers
// buy on a skewed workload, and what staleness they risk under an active
// learning loop.
//
// Two identically trained systems replay the same Zipf(1.0) stream over
// the test split, one with the result + posting caches enabled (--cache=on
// validates entries with version checks, --cache=blind serves them without
// checking), one without. Phases:
//
//   warm    — the full stream once on both systems; the cached system
//             fills its tiers. Not measured.
//   repeat  — metrics reset (cache contents stay warm), the same stream
//             again on both. Reported: hit rates, total traffic, and mean
//             search latency cached vs baseline, plus whether the ranked
//             results are byte-identical (they must be whenever the
//             version check passes — the index did not change).
//   stale   — cached system only: a slice of the stream is re-issued with
//             recording on, a learning iteration retunes the index (term
//             versions bump), and the slice replays. Validation now
//             catches stale entries (stale_rejects); blind mode serves
//             them and the oracle counts stale_serves.
//
// The bench.* gauges below land in the --metrics-json dump, which is what
// tools/ci.sh asserts against.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "querygen/workload.h"

namespace {

using namespace sprite;

constexpr size_t kAnswers = 20;

struct TierTotals {
  uint64_t lookups = 0, hits = 0, validations = 0, stale_rejects = 0,
           stale_serves = 0;

  double HitRate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

TierTotals SumTiers(const cache::CacheManager& cm) {
  TierTotals t;
  for (cache::CacheTier tier :
       {cache::CacheTier::kResult, cache::CacheTier::kPosting}) {
    const cache::CacheTierStats& s = cm.stats(tier);
    t.lookups += s.lookups;
    t.hits += s.hits;
    t.validations += s.validations;
    t.stale_rejects += s.stale_rejects;
    t.stale_serves += s.stale_serves;
  }
  return t;
}

std::vector<ir::RankedList> Replay(core::SpriteSystem& sys,
                                   const eval::TestBed& bed,
                                   const std::vector<size_t>& stream,
                                   bool record) {
  std::vector<ir::RankedList> out;
  out.reserve(stream.size());
  for (size_t idx : stream) {
    auto result = sys.Search(bed.query(idx), kAnswers, record);
    SPRITE_CHECK(result.ok());
    out.push_back(std::move(result.value()));
  }
  return out;
}

double MeanSearchMs(const core::SpriteSystem& sys) {
  const Histogram* h = sys.metrics().histogram("latency.search.total_ms");
  return h == nullptr ? 0.0 : h->Mean();
}

// One full cache comparison over a prebuilt bed + stream; repeated per
// --perf-json repetition (deterministic, so every pass prints the same
// numbers and rewrites identical dumps).
void RunOnce(const spritebench::BenchArgs& args, const eval::TestBed& bed,
             const std::vector<size_t>& stream,
             spritebench::PerfRecorder& perf) {
  spritebench::PerfRecorder::Phase train_phase(perf, "train");
  core::SpriteConfig cached_config = spritebench::DefaultSpriteConfig(args);
  core::ApplyCacheMode(args.cache, cached_config);
  spritebench::ApplyObsFlags(args, cached_config);
  perf.ApplyConfig(cached_config);
  core::SpriteSystem cached(cached_config);
  spritebench::ApplySloRules(args, cached);
  core::SpriteSystem baseline(spritebench::DefaultSpriteConfig(args));

  SPRITE_CHECK_OK(eval::TrainSystem(cached, bed, bed.split().train, 3));
  SPRITE_CHECK_OK(eval::TrainSystem(baseline, bed, bed.split().train, 3));

  spritebench::MaybeEnableTracing(args, cached);
  train_phase.Stop();

  // --- warm: fill the tiers, throw the numbers away ----------------------
  spritebench::PerfRecorder::Phase warm_phase(perf, "warm");
  Replay(cached, bed, stream, /*record=*/false);
  Replay(baseline, bed, stream, /*record=*/false);
  warm_phase.Stop();

  // --- repeat: measured head-to-head over the identical stream -----------
  spritebench::PerfRecorder::Phase repeat_phase(perf, "repeat");
  cached.ClearMetrics();
  baseline.ClearMetrics();
  const std::vector<ir::RankedList> on_results =
      Replay(cached, bed, stream, /*record=*/false);
  const std::vector<ir::RankedList> off_results =
      Replay(baseline, bed, stream, /*record=*/false);

  const cache::CacheManager& cm = cached.query_cache();
  const cache::CacheTierStats result_stats =
      cm.stats(cache::CacheTier::kResult);
  const cache::CacheTierStats posting_stats =
      cm.stats(cache::CacheTier::kPosting);
  const TierTotals repeat = SumTiers(cm);
  const uint64_t bytes_on = cached.network_stats().TotalBytes();
  const uint64_t bytes_off = baseline.network_stats().TotalBytes();
  const double mean_ms_on = MeanSearchMs(cached);
  const double mean_ms_off = MeanSearchMs(baseline);
  const bool identical = on_results == off_results;

  obs::MetricsRegistry& reg = cached.mutable_metrics();
  // Headline: the query-result cache. Posting lookups only happen after a
  // result miss, so the combined rate is pessimistic by construction; it
  // is reported separately.
  reg.Set("bench.repeat.hit_rate", result_stats.HitRate());
  reg.Set("bench.repeat.combined_hit_rate", repeat.HitRate());
  reg.Set("bench.repeat.posting_hit_rate", posting_stats.HitRate());
  reg.Set("bench.repeat.net_bytes.cached", static_cast<double>(bytes_on));
  reg.Set("bench.repeat.net_bytes.baseline", static_cast<double>(bytes_off));
  reg.Set("bench.repeat.search_mean_ms.cached", mean_ms_on);
  reg.Set("bench.repeat.search_mean_ms.baseline", mean_ms_off);
  reg.Set("bench.repeat.results_identical", identical ? 1.0 : 0.0);
  // First retained point: ClearMetrics above wiped anything captured during
  // warm-up, so the series is repeat -> stale and a stale-serve spike rule
  // compares exactly those two phases.
  cached.CaptureTimeSeriesPoint("repeat");

  std::printf("repeat phase (%zu issuances, Zipf slope 1.0)\n",
              stream.size());
  std::printf("  hit rate: result %.3f over %llu lookups (posting %.3f "
              "over %llu, combined %.3f)\n",
              result_stats.HitRate(),
              static_cast<unsigned long long>(result_stats.lookups),
              posting_stats.HitRate(),
              static_cast<unsigned long long>(posting_stats.lookups),
              repeat.HitRate());
  std::printf("  net bytes:        %12llu cached | %12llu baseline "
              "(%.1f%% saved)\n",
              static_cast<unsigned long long>(bytes_on),
              static_cast<unsigned long long>(bytes_off),
              bytes_off == 0
                  ? 0.0
                  : 100.0 * (1.0 - static_cast<double>(bytes_on) /
                                       static_cast<double>(bytes_off)));
  std::printf("  mean search ms:   %12.2f cached | %12.2f baseline\n",
              mean_ms_on, mean_ms_off);
  std::printf("  ranked results byte-identical to baseline: %s\n",
              identical ? "yes" : "NO");
  repeat_phase.Stop();

  // --- stale: learning churns the index under live caches ----------------
  spritebench::PerfRecorder::Phase stale_phase(perf, "stale");
  if (cached.query_cache().enabled()) {
    const size_t slice = std::min<size_t>(stream.size(), 300);
    const std::vector<size_t> sub(stream.begin(), stream.begin() + slice);

    const TierTotals before = SumTiers(cm);
    Replay(cached, bed, sub, /*record=*/true);
    cached.RunLearningIteration();
    Replay(cached, bed, sub, /*record=*/false);
    const TierTotals after = SumTiers(cm);

    const uint64_t validations = after.validations - before.validations;
    const uint64_t rejects = after.stale_rejects - before.stale_rejects;
    const uint64_t serves = after.stale_serves - before.stale_serves;
    const uint64_t hits = after.hits - before.hits;
    const double reject_rate =
        validations == 0 ? 0.0
                         : static_cast<double>(rejects) /
                               static_cast<double>(validations);
    const double serve_rate =
        hits == 0 ? 0.0
                  : static_cast<double>(serves) / static_cast<double>(hits);

    reg.Set("bench.stale.validations", static_cast<double>(validations));
    reg.Set("bench.stale.stale_rejects", static_cast<double>(rejects));
    reg.Set("bench.stale.stale_serves", static_cast<double>(serves));
    reg.Set("bench.stale.reject_rate", reject_rate);
    reg.Set("bench.stale.serve_rate", serve_rate);
    cached.CaptureTimeSeriesPoint("stale");

    std::printf("\nstale phase (%zu recorded issuances + 1 learning "
                "iteration + replay)\n",
                slice);
    if (cached.query_cache().validate()) {
      std::printf("  version checks: %llu, stale entries caught & refetched:"
                  " %llu (reject rate %.3f)\n",
                  static_cast<unsigned long long>(validations),
                  static_cast<unsigned long long>(rejects), reject_rate);
    } else {
      std::printf("  blind hits: %llu, of which stale: %llu (stale-serve "
                  "rate %.3f)\n",
                  static_cast<unsigned long long>(hits),
                  static_cast<unsigned long long>(serves), serve_rate);
    }
  }

  stale_phase.Stop();

  spritebench::MaybeWriteTimeSeries(args, cached);
  spritebench::MaybeWriteMetricsJson(args, cached);
  spritebench::MaybeWriteTraceFiles(args, cached);
  perf.CaptureSystem(cached);
}

}  // namespace

int main(int argc, char** argv) {
  spritebench::BenchArgs args = spritebench::ParseBenchArgs(argc, argv);
  if (args.cache.empty()) args.cache = "on";
  spritebench::PrintHeader("Cache effect: result + posting tiers (§9)",
                           args);
  std::printf("   mode: --cache=%s\n\n", args.cache.c_str());

  eval::TestBed bed =
      eval::TestBed::Build(spritebench::DefaultExperiment(args));

  Rng stream_rng(args.seed * 101 + 13);
  const querygen::ZipfStream zipf = querygen::MakeZipfStream(
      bed.split().test, /*num_issuances=*/bed.split().test.size() * 10,
      /*slope=*/1.0, stream_rng);

  spritebench::PerfRecorder perf(args, "cache_effect");
  do {
    RunOnce(args, bed, zipf.issuances, perf);
  } while (perf.NextRep());
  perf.WriteReport();
  return 0;
}
