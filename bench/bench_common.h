#ifndef SPRITE_BENCH_BENCH_COMMON_H_
#define SPRITE_BENCH_BENCH_COMMON_H_

// Shared setup for the figure-reproduction benches. Every bench builds the
// same kind of test bed (synthetic TREC9-substitute corpus + the paper's
// query generator) and reports precision/recall as ratios to the
// centralized baseline, exactly like Section 6.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/json_util.h"
#include "common/string_util.h"
#include "core/sprite_system.h"
#include "eval/experiment.h"
#include "obs/perf.h"

// Build provenance for the perf sidecar, injected by bench/CMakeLists.txt.
#ifndef SPRITE_GIT_COMMIT
#define SPRITE_GIT_COMMIT "unknown"
#endif
#ifndef SPRITE_BUILD_TYPE
#define SPRITE_BUILD_TYPE "unknown"
#endif

namespace spritebench {

// Paper defaults (Section 6.2), scaled to laptop size: the paper uses
// 348,565 TREC9 documents; we default to a few thousand synthetic ones.
// Override with --docs=N / --peers=N / --seed=N on any bench binary.
// --threads=N shards the epoch engine's plan phases across N worker
// threads (DESIGN.md §12); every value of N produces byte-identical
// results and dumps for a given seed.
// --metrics-json=PATH additionally dumps the instrumented system's
// observability snapshot (counters + latency histograms) as BENCH JSON.
// --trace-json=PATH / --trace-jsonl=PATH enable distributed tracing and
// dump the retained span trees as Chrome trace-event JSON (Perfetto) /
// structured JSONL.
// --cache=on|off|blind selects the querying-peer cache mode on benches
// that honour it (cache_effect; see core::ApplyCacheMode).
// --timeseries-jsonl=PATH / --timeseries-csv=PATH enable the per-round
// time-series recorder and dump the captured points (one per learning
// round / capture site).
// --slo-jsonl=PATH dumps fired SLO alerts; --slo-recall-drop= /
// --slo-gini-max= / --slo-stale-spike= / --slo-p95-ms= arm the watchdog's
// four stock rules (see ApplySloRules).
// --learning-curve-json=PATH writes the per-round recall/cost trajectory
// (benches that run TrainSystemWithConvergence).
// --perf-json=PATH runs the workload --perf-warmup (default 1) + --perf-reps
// (default 3) times and writes the host-side performance sidecar (wall
// times per phase with min/median/stddev, RSS/CPU, worker-pool utilization,
// perf.* profiler histograms; DESIGN.md §13). Simulated outputs are
// byte-identical with or without it.
struct BenchArgs {
  size_t docs = 3000;
  size_t peers = 64;
  uint64_t seed = 42;
  size_t threads = 1;
  std::string metrics_json;  // empty: no dump
  std::string trace_json;    // empty: no Perfetto dump
  std::string trace_jsonl;   // empty: no JSONL dump
  std::string cache;         // "", "on", "off", "blind"
  std::string timeseries_jsonl;     // empty: no time-series JSONL dump
  std::string timeseries_csv;       // empty: no time-series CSV dump
  std::string slo_jsonl;            // empty: no alert dump
  std::string learning_curve_json;  // empty: no convergence dump
  std::string perf_json;            // empty: no perf sidecar (single run)
  size_t perf_warmup = 1;           // discarded repetitions
  size_t perf_reps = 3;             // measured repetitions
  // SLO rule thresholds; NaN = rule not armed.
  double slo_recall_drop = std::numeric_limits<double>::quiet_NaN();
  double slo_gini_max = std::numeric_limits<double>::quiet_NaN();
  double slo_stale_spike = std::numeric_limits<double>::quiet_NaN();
  double slo_p95_ms = std::numeric_limits<double>::quiet_NaN();
};

// Parses the shared bench flags plus `flags`, a bench's own extra flags,
// in one pass. A usage error (an unknown flag, a malformed value) exits 2.
inline BenchArgs ParseBenchArgs(int argc, char** argv,
                                sprite::Flags flags = {}) {
  BenchArgs args;
  flags.Whole("--docs", &args.docs)
      .Whole("--peers", &args.peers)
      .Whole("--seed", &args.seed)
      .Whole("--threads", &args.threads)
      .Whole("--perf-warmup", &args.perf_warmup)
      .Whole("--perf-reps", &args.perf_reps)
      .Number("--slo-recall-drop", &args.slo_recall_drop)
      .Number("--slo-gini-max", &args.slo_gini_max)
      .Number("--slo-stale-spike", &args.slo_stale_spike)
      .Number("--slo-p95-ms", &args.slo_p95_ms)
      .String("--metrics-json", &args.metrics_json)
      .String("--trace-json", &args.trace_json)
      .String("--trace-jsonl", &args.trace_jsonl)
      .OneOf("--cache", &args.cache, sprite::core::kCacheModes)
      .String("--timeseries-jsonl", &args.timeseries_jsonl)
      .String("--timeseries-csv", &args.timeseries_csv)
      .String("--slo-jsonl", &args.slo_jsonl)
      .String("--learning-curve-json", &args.learning_curve_json)
      .String("--perf-json", &args.perf_json)
      .ParseOrExit(argc, argv);
  return args;
}

// Writes one requested dump to `path` and announces it on stdout. A dump
// that cannot be written ends the bench with exit status 1: a run whose
// asked-for output is missing must not pass for a good one.
inline void WriteDumpOrExit(const std::string& path, const std::string& body,
                            const char* what) {
  if (sprite::obs::WriteJsonFile(path, body)) {
    std::printf("%s written to %s\n", what, path.c_str());
    return;
  }
  std::fprintf(stderr, "failed to write %s to %s\n", what, path.c_str());
  std::exit(1);
}

// Drives the --perf-json repetition harness (DESIGN.md §13). Usage:
//
//   PerfRecorder perf(args, "fig4a_num_answers");
//   do {
//     PerfRecorder::Phase setup(perf, "setup");
//     ...build the system (perf.ApplyConfig(config) first)...
//     setup.Stop();
//     { PerfRecorder::Phase run(perf, "train"); ...workload...; }
//     perf.CaptureSystem(sys);
//   } while (perf.NextRep());
//   perf.WriteReport();
//
// Without --perf-json the body runs exactly once and every call here is a
// no-op, so the plain bench behaviour (and its deterministic dumps —
// rewritten identically on every repetition) is unchanged. With it, the
// body runs perf_warmup discarded + perf_reps measured times; each
// measured rep contributes one wall-time sample per phase, and the final
// rep also samples process resources per phase and captures the system's
// perf.* histograms and worker-pool utilization.
class PerfRecorder {
 public:
  PerfRecorder(const BenchArgs& args, const char* bench)
      : enabled_(!args.perf_json.empty()),
        path_(args.perf_json),
        warmup_(enabled_ ? args.perf_warmup : 0),
        measured_(enabled_ ? std::max<size_t>(size_t{1}, args.perf_reps)
                           : 1) {
    report_.env.bench = bench;
    report_.env.git_commit = SPRITE_GIT_COMMIT;
    report_.env.build_type = SPRITE_BUILD_TYPE;
    report_.env.nproc = std::thread::hardware_concurrency();
    report_.env.threads = args.threads;
    report_.env.docs = args.docs;
    report_.env.peers = args.peers;
    report_.env.seed = args.seed;
    report_.env.warmup = warmup_;
    report_.env.measured_reps = measured_;
  }

  bool enabled() const { return enabled_; }
  // Whether the current repetition's samples are kept (post-warmup).
  bool measuring() const { return enabled_ && rep_ >= warmup_; }
  bool last_rep() const { return rep_ + 1 >= warmup_ + measured_; }

  // Advances the rep loop; false ends it (always immediately when the
  // harness is off).
  bool NextRep() {
    ++rep_;
    return enabled_ && rep_ < warmup_ + measured_;
  }

  // Call on the bench's SpriteConfig before constructing the system so the
  // wall profiler is live during profiled runs.
  void ApplyConfig(sprite::core::SpriteConfig& config) {
    if (enabled_) config.enable_wall_profiler = true;
  }

  // Call once per rep after the workload; only the final rep's snapshot is
  // kept (cumulative over that whole run).
  void CaptureSystem(const sprite::core::SpriteSystem& sys) {
    if (!enabled_ || !last_rep()) return;
    report_.wall = sys.profiler().Snapshot();
    report_.workers = sys.pool_stats();
    report_.has_workers = true;
  }

  // RAII wall timer over one bench phase of the current repetition.
  class Phase {
   public:
    Phase(PerfRecorder& rec, const char* name)
        : rec_(rec.enabled_ ? &rec : nullptr),
          name_(name),
          start_ns_(rec.enabled_ ? sprite::obs::MonotonicNowNs() : 0) {}
    ~Phase() { Stop(); }
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;
    void Stop() {
      if (rec_ == nullptr) return;
      rec_->RecordPhaseNs(name_, sprite::obs::MonotonicNowNs() - start_ns_);
      rec_ = nullptr;
    }

   private:
    PerfRecorder* rec_;
    const char* name_;
    uint64_t start_ns_;
  };

  void WriteReport() {
    if (enabled_) WriteDumpOrExit(path_, report_.ToJson(), "perf sidecar");
  }

 private:
  friend class Phase;

  void RecordPhaseNs(const char* name, uint64_t ns) {
    if (!measuring()) return;
    sprite::obs::PerfPhaseStat* slot = nullptr;
    for (sprite::obs::PerfPhaseStat& p : report_.phases) {
      if (p.name == name) {
        slot = &p;
        break;
      }
    }
    if (slot == nullptr) {
      report_.phases.emplace_back();
      slot = &report_.phases.back();
      slot->name = name;
    }
    slot->wall_ms.Add(static_cast<double>(ns) / 1e6);
    if (last_rep()) {
      slot->resources = sprite::obs::SampleResources();
      slot->has_resources = true;
    }
  }

  const bool enabled_;
  const std::string path_;
  const size_t warmup_;
  const size_t measured_;
  size_t rep_ = 0;
  sprite::obs::PerfReport report_;
};

// True when any flag asked for per-round telemetry (time-series dumps, the
// convergence JSON, or an armed SLO rule — alerts are only evaluated at
// capture points, so they imply the recorder too).
inline bool WantsTimeSeries(const BenchArgs& args) {
  return !args.timeseries_jsonl.empty() || !args.timeseries_csv.empty() ||
         !args.slo_jsonl.empty() || !args.learning_curve_json.empty() ||
         !std::isnan(args.slo_recall_drop) || !std::isnan(args.slo_gini_max) ||
         !std::isnan(args.slo_stale_spike) || !std::isnan(args.slo_p95_ms);
}

// Applies the telemetry flags to `config` (call before constructing the
// system): enables the time-series recorder when any per-round output was
// requested.
inline void ApplyObsFlags(const BenchArgs& args,
                          sprite::core::SpriteConfig& config) {
  if (WantsTimeSeries(args)) config.enable_timeseries = true;
}

// Arms the watchdog's stock rules on `sys` from the --slo-* thresholds:
//   recall-drop        delta_drop on bench.recall_ratio (per round)
//   posting-gini-bound upper_bound on load.postings.gini
//   stale-serve-spike  spike on cache.result.stale_serves
//   search-p95-budget  upper_bound on latency.search.total_ms.p95
inline void ApplySloRules(const BenchArgs& args,
                          sprite::core::SpriteSystem& sys) {
  sprite::obs::SloWatchdog& slo = sys.mutable_slo();
  if (!std::isnan(args.slo_recall_drop)) {
    slo.AddRule({"recall-drop", "bench.recall_ratio",
                 sprite::obs::SloRuleKind::kDeltaDrop, args.slo_recall_drop});
  }
  if (!std::isnan(args.slo_gini_max)) {
    slo.AddRule({"posting-gini-bound", "load.postings.gini",
                 sprite::obs::SloRuleKind::kUpperBound, args.slo_gini_max});
  }
  if (!std::isnan(args.slo_stale_spike)) {
    slo.AddRule({"stale-serve-spike", "cache.result.stale_serves",
                 sprite::obs::SloRuleKind::kSpike, args.slo_stale_spike});
  }
  if (!std::isnan(args.slo_p95_ms)) {
    slo.AddRule({"search-p95-budget", "latency.search.total_ms.p95",
                 sprite::obs::SloRuleKind::kUpperBound, args.slo_p95_ms});
  }
}

// Writes the recorder's JSONL/CSV dumps and the watchdog's alert JSONL to
// their flag paths; no-op for unset flags. Call after the measured phase.
inline void MaybeWriteTimeSeries(const BenchArgs& args,
                                 const sprite::core::SpriteSystem& sys) {
  if (!args.timeseries_jsonl.empty()) {
    WriteDumpOrExit(args.timeseries_jsonl, sys.timeseries().ToJsonl(),
                    "timeseries jsonl");
  }
  if (!args.timeseries_csv.empty()) {
    WriteDumpOrExit(args.timeseries_csv, sys.timeseries().ToCsv(),
                    "timeseries csv");
  }
  if (!args.slo_jsonl.empty()) {
    WriteDumpOrExit(args.slo_jsonl, sys.slo().ToJsonl(), "slo alerts");
  }
}

// Writes the convergence trajectory as one JSON object (the committed
// BENCH_learning_curve.json format): bench meta + one entry per round with
// the precision/recall ratios and the cumulative index/traffic cost.
inline void MaybeWriteLearningCurveJson(
    const BenchArgs& args,
    const std::vector<sprite::eval::ConvergencePoint>& points) {
  if (args.learning_curve_json.empty()) return;
  std::string json = "{\n";
  json += sprite::StrFormat(
      "  \"bench\": \"fig4a_num_answers\",\n  \"docs\": %zu,\n"
      "  \"peers\": %zu,\n  \"seed\": %llu,\n  \"rounds\": [",
      args.docs, args.peers, static_cast<unsigned long long>(args.seed));
  for (size_t i = 0; i < points.size(); ++i) {
    const sprite::eval::ConvergencePoint& p = points[i];
    json += i == 0 ? "\n" : ",\n";
    json += sprite::StrFormat(
        "    {\"round\": %llu, \"precision_ratio\": %s, "
        "\"recall_ratio\": %s, \"indexed_terms\": %zu, "
        "\"net_messages\": %llu, \"net_bytes\": %llu}",
        static_cast<unsigned long long>(p.round),
        sprite::JsonNumber(p.eval.ratio.precision).c_str(),
        sprite::JsonNumber(p.eval.ratio.recall).c_str(), p.indexed_terms,
        static_cast<unsigned long long>(p.net_messages),
        static_cast<unsigned long long>(p.net_bytes));
  }
  json += "\n  ]\n}\n";
  WriteDumpOrExit(args.learning_curve_json, json, "learning curve");
}

// Turns on tracing for `sys` when a --trace-json/--trace-jsonl flag was
// given. Call before the instrumented phase of the bench.
inline void MaybeEnableTracing(const BenchArgs& args,
                               sprite::core::SpriteSystem& sys) {
  if (args.trace_json.empty() && args.trace_jsonl.empty()) return;
  sys.mutable_tracer().set_enabled(true);
}

// Writes `sys`'s metrics snapshot to args.metrics_json when set; no-op
// otherwise. Call after the measured phase of the bench.
inline void MaybeWriteMetricsJson(const BenchArgs& args,
                                  const sprite::core::SpriteSystem& sys) {
  if (args.metrics_json.empty()) return;
  std::printf("\n");
  WriteDumpOrExit(args.metrics_json, sys.metrics().Snapshot().ToJson(),
                  "metrics");
}

// Writes the tracer's retained traces to args.trace_json (Perfetto) and/or
// args.trace_jsonl; no-op when neither flag was given.
inline void MaybeWriteTraceFiles(const BenchArgs& args,
                                 const sprite::core::SpriteSystem& sys) {
  if (!args.trace_json.empty()) {
    WriteDumpOrExit(args.trace_json, sys.tracer().ToPerfettoJson(),
                    "perfetto trace");
  }
  if (!args.trace_jsonl.empty()) {
    WriteDumpOrExit(args.trace_jsonl, sys.tracer().ToJsonl(), "jsonl trace");
  }
}

// The default experiment: 63 base queries -> 630 generated (O = 0.7),
// split 50/50 into training and testing.
inline sprite::eval::ExperimentOptions DefaultExperiment(
    const BenchArgs& args) {
  sprite::eval::ExperimentOptions o;
  o.corpus.seed = args.seed;
  o.corpus.num_docs = args.docs;
  o.generator.seed = args.seed * 31 + 7;
  o.generator.overlap = 0.7;
  o.generator.derived_per_original = 9;
  // The paper uses E = 1000 on 348k documents; at laptop corpus sizes that
  // would be a third of the corpus, so scale E to a comparable few percent.
  o.generator.rank_cutoff = std::max<size_t>(100, args.docs / 30);
  o.split_seed = args.seed * 17 + 3;
  return o;
}

// Section 6.2 defaults: 5 initial terms, 3 iterations of 5 -> 20 terms.
inline sprite::core::SpriteConfig DefaultSpriteConfig(const BenchArgs& args,
                                                      size_t max_terms = 20) {
  sprite::core::SpriteConfig c;
  c.num_peers = args.peers;
  c.initial_terms = 5;
  c.terms_per_iteration = 5;
  c.max_index_terms = max_terms;
  c.seed = args.seed;
  c.num_threads = args.threads;
  return c;
}

inline void PrintHeader(const char* title, const BenchArgs& args) {
  std::printf("== %s ==\n", title);
  std::printf("   corpus: %zu synthetic docs (TREC9 substitute), "
              "63 base queries -> 630 generated (O=0.7), 50/50 train/test\n",
              args.docs);
  std::printf("   network: %zu peers, Chord m=32, MD5 term hashing\n\n",
              args.peers);
}

}  // namespace spritebench

#endif  // SPRITE_BENCH_BENCH_COMMON_H_
