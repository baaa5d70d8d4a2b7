// Supplementary micro-benchmarks (Supp-4): throughput of the text and
// hashing substrates that every indexing and query operation passes
// through.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "common/md5.h"
#include "common/rng.h"
#include "corpus/synthetic.h"
#include "text/analyzer.h"
#include "text/porter_stemmer.h"
#include "text/tokenizer.h"

namespace {

using namespace sprite;

std::string MakeText(size_t words, uint64_t seed) {
  Rng rng(seed);
  std::string text;
  for (size_t i = 0; i < words; ++i) {
    text += corpus::SyntheticCorpusGenerator::TermName(rng.NextUint64(5000));
    // Pepper in suffixes so the stemmer has work to do.
    switch (rng.NextUint64(5)) {
      case 0: text += "ing"; break;
      case 1: text += "ed"; break;
      case 2: text += "s"; break;
      default: break;
    }
    text += (i % 12 == 11) ? ".\n" : " ";
  }
  return text;
}

void BM_Tokenize(benchmark::State& state) {
  const std::string text = MakeText(2000, 1);
  text::Tokenizer tokenizer;
  for (auto _ : state) {
    auto tokens = tokenizer.Tokenize(text);
    benchmark::DoNotOptimize(tokens);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}

void BM_PorterStem(benchmark::State& state) {
  text::Tokenizer tokenizer;
  const auto tokens = tokenizer.Tokenize(MakeText(2000, 2));
  text::PorterStemmer stemmer;
  for (auto _ : state) {
    for (const auto& t : tokens) {
      auto stem = stemmer.Stem(t);
      benchmark::DoNotOptimize(stem);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tokens.size()));
}

void BM_AnalyzeDocument(benchmark::State& state) {
  const std::string text = MakeText(2000, 3);
  text::Analyzer analyzer;
  for (auto _ : state) {
    auto tv = analyzer.AnalyzeToVector(text);
    benchmark::DoNotOptimize(tv);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}

void BM_Md5TermKey(benchmark::State& state) {
  std::vector<std::string> terms;
  for (int i = 0; i < 1000; ++i) {
    terms.push_back(corpus::SyntheticCorpusGenerator::TermName(i));
  }
  for (auto _ : state) {
    uint64_t acc = 0;
    for (const auto& t : terms) acc ^= Md5Prefix64(t);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}

void BM_Md5Block(benchmark::State& state) {
  const std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    auto digest = Md5Sum(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}

}  // namespace

BENCHMARK(BM_Tokenize);
BENCHMARK(BM_PorterStem);
BENCHMARK(BM_AnalyzeDocument);
BENCHMARK(BM_Md5TermKey);
BENCHMARK(BM_Md5Block)->Arg(64)->Arg(4096)->Arg(65536);

// Custom main instead of benchmark_main (which rejects unknown flags):
// benchmark::Initialize strips its own --benchmark_* flags, then the
// shared bench flags parse the rest. --perf-json wraps the whole suite in
// the repetition harness; no SpriteSystem exists here, so the sidecar
// reports phase wall times and resources without profiler/worker
// sections, and a metrics or trace dump, which would stay unwritten, is a
// usage error.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  const spritebench::BenchArgs args = spritebench::ParseBenchArgs(argc, argv);
  const std::pair<const char*, const std::string*> dumps[] = {
      {"--metrics-json", &args.metrics_json},
      {"--trace-json", &args.trace_json},
      {"--trace-jsonl", &args.trace_jsonl}};
  for (const auto& [flag, path] : dumps) {
    if (path->empty()) continue;
    std::fprintf(stderr, "no system to dump: %s=%s\n", flag, path->c_str());
    return 2;
  }
  spritebench::PerfRecorder perf(args, "text_micro");
  // The suite self-times internally, so it runs once — on the first
  // measured rep — rather than once per rep; benchmark 1.7.1 also cannot
  // survive a second RunSpecifiedBenchmarks() call in one process.
  bool suite_ran = false;
  do {
    if (!suite_ran && (!perf.enabled() || perf.measuring())) {
      spritebench::PerfRecorder::Phase phase(perf, "google_benchmark");
      benchmark::RunSpecifiedBenchmarks();
      suite_ran = true;
    }
  } while (perf.NextRep());
  perf.WriteReport();
  benchmark::Shutdown();
  return 0;
}
