// Supplementary experiment Supp-3 (DESIGN.md): the efficiency claim of
// Section 5.3 — Algorithm 1 processes only the incremental query batch per
// iteration, while the naive scheme reprocesses the whole history. Both
// produce identical rankings (property-tested in core_learning_test); here
// we measure the cost gap with google-benchmark.

#include <string>
#include <unordered_map>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/learning.h"

namespace {

using namespace sprite;
using sprite::core::QueryRecord;

struct Workload {
  text::TermVector doc;
  std::vector<QueryRecord> history;
};

Workload MakeWorkload(size_t history_size) {
  Rng rng(history_size * 7919 + 3);
  std::vector<std::string> vocab;
  for (int i = 0; i < 200; ++i) vocab.push_back(StrFormat("t%d", i));

  Workload w;
  std::vector<std::string> doc_tokens;
  for (const auto& t : vocab) {
    const int copies = static_cast<int>(rng.NextUint64(5));
    for (int c = 0; c < copies; ++c) doc_tokens.push_back(t);
  }
  w.doc = text::TermVector::FromTokens(doc_tokens);

  w.history.reserve(history_size);
  for (size_t i = 0; i < history_size; ++i) {
    QueryRecord q;
    q.id = static_cast<corpus::QueryId>(i);
    q.seq = i + 1;
    q.hash_key = rng.NextUint64();
    const size_t len = 2 + rng.NextUint64(4);
    for (size_t j = 0; j < len; ++j) {
      q.terms.push_back(sprite::text::TermDict::Global().Intern(
          vocab[rng.NextUint64(vocab.size())]));
    }
    w.history.push_back(std::move(q));
  }
  return w;
}

// One learning iteration with Algorithm 1: only the newest batch of 50
// queries is processed against carried-over statistics.
void BM_IncrementalLearning(benchmark::State& state) {
  const size_t history_size = static_cast<size_t>(state.range(0));
  Workload w = MakeWorkload(history_size);

  // Pre-fold everything but the last batch into the stats, as earlier
  // iterations would have.
  std::unordered_map<std::string, core::TermLearningStats> base_stats;
  std::vector<const QueryRecord*> old_batch;
  const size_t batch = 50;
  for (size_t i = 0; i + batch < w.history.size(); ++i) {
    old_batch.push_back(&w.history[i]);
  }
  core::ProcessQueriesAndRank(w.doc, base_stats, old_batch);

  std::vector<const QueryRecord*> new_batch;
  for (size_t i = w.history.size() - batch; i < w.history.size(); ++i) {
    new_batch.push_back(&w.history[i]);
  }

  for (auto _ : state) {
    auto stats = base_stats;  // the owner's persisted per-term statistics
    auto ranked = core::ProcessQueriesAndRank(w.doc, stats, new_batch);
    benchmark::DoNotOptimize(ranked);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * batch);
}

// The naive scheme: recompute the ranking from the entire history.
void BM_NaiveRelearning(benchmark::State& state) {
  const size_t history_size = static_cast<size_t>(state.range(0));
  Workload w = MakeWorkload(history_size);
  for (auto _ : state) {
    auto ranked = core::NaiveRank(w.doc, w.history);
    benchmark::DoNotOptimize(ranked);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(history_size));
}

}  // namespace

BENCHMARK(BM_IncrementalLearning)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_NaiveRelearning)->Arg(100)->Arg(1000)->Arg(10000);

// Custom main instead of benchmark_main: the micro-benchmarks above
// measure free functions and produce no metrics of their own, so the
// shared --metrics-json/--trace-json/--trace-jsonl flags instrument a
// small end-to-end learning run (record + share + three iterations) and
// dump that system's registry and traces. --perf-json wraps both the
// google-benchmark suite and that sample run in the repetition harness
// (google-benchmark already repeats internally, so the phase statistics
// mostly capture run-to-run spread of the whole suite).
int main(int argc, char** argv) {
  using namespace sprite;
  // Initialize strips the --benchmark_* flags; the rest must be ours.
  benchmark::Initialize(&argc, argv);
  const spritebench::BenchArgs args = spritebench::ParseBenchArgs(argc, argv);

  spritebench::PerfRecorder perf(args, "learning_micro");
  const bool wants_sample = !args.metrics_json.empty() ||
                            !args.trace_json.empty() ||
                            !args.trace_jsonl.empty() || perf.enabled();
  // The google-benchmark suite self-times internally (each benchmark loops
  // to its min_time), so it runs once — on the first measured rep — rather
  // than once per rep; benchmark 1.7.1 also cannot survive a second
  // RunSpecifiedBenchmarks() call in one process.
  bool suite_ran = false;
  do {
    if (!suite_ran && (!perf.enabled() || perf.measuring())) {
      spritebench::PerfRecorder::Phase phase(perf, "google_benchmark");
      benchmark::RunSpecifiedBenchmarks();
      suite_ran = true;
    }
    if (wants_sample) {
      spritebench::PerfRecorder::Phase phase(perf, "instrumented_sample");
      eval::TestBed bed =
          eval::TestBed::Build(spritebench::DefaultExperiment(args));
      core::SpriteConfig config = spritebench::DefaultSpriteConfig(args);
      perf.ApplyConfig(config);
      core::SpriteSystem sys(config);
      spritebench::MaybeEnableTracing(args, sys);
      SPRITE_CHECK_OK(eval::TrainSystem(sys, bed, bed.split().train, 3));
      spritebench::MaybeWriteMetricsJson(args, sys);
      spritebench::MaybeWriteTraceFiles(args, sys);
      perf.CaptureSystem(sys);
    }
  } while (perf.NextRep());
  perf.WriteReport();
  benchmark::Shutdown();
  return 0;
}
