// Compares two --perf-json sidecars (obs/perf.h, schema sprite-perf-v1)
// phase by phase and fails on wall-time regressions. Intended for CI and
// for before/after checks during optimisation work:
//
//   bench_compare baseline.json candidate.json [--tolerance=0.25]
//       [--abs-slack-ms=2.0]
//
// A phase regresses when the candidate median exceeds
//
//   baseline_median * (1 + tolerance) + abs_slack_ms
//
// The relative tolerance absorbs ordinary run-to-run noise; the absolute
// slack keeps microsecond-scale phases (where a scheduler hiccup is a
// large *ratio* but a meaningless absolute cost) from flapping. Phases
// present in only one report are listed but never fail the comparison —
// bench code changes legitimately add and remove phases.
//
// Exit codes: 0 comparison clean, 1 at least one regression, 2 usage or
// parse error. Env mismatches (different bench, thread count, or nproc)
// warn loudly but do not fail: the numbers may still be wanted, but the
// reader must know they are not apples to apples.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/flags.h"
#include "obs/perf.h"

namespace {

using sprite::obs::ParsedPerfReport;
using sprite::obs::PerfPhaseSummary;

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

const PerfPhaseSummary* FindPhase(const ParsedPerfReport& report,
                                  const std::string& name) {
  for (const PerfPhaseSummary& p : report.phases) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  double tolerance = 0.25;
  double abs_slack_ms = 2.0;
  std::string paths[2];
  sprite::Flags(
      "bench_compare BASELINE.json CANDIDATE.json [--tolerance=0.25] "
      "[--abs-slack-ms=2.0]")
      .String("BASELINE.json", &paths[0])
      .String("CANDIDATE.json", &paths[1])
      .Number("--tolerance", &tolerance)
      .Number("--abs-slack-ms", &abs_slack_ms)
      .ParseOrExit(argc, argv);

  ParsedPerfReport baseline, candidate;
  for (size_t i = 0; i < 2; ++i) {
    std::string content, error;
    if (!ReadFile(paths[i], &content)) {
      std::fprintf(stderr, "cannot read %s\n", paths[i].c_str());
      return 2;
    }
    ParsedPerfReport* out = i == 0 ? &baseline : &candidate;
    if (!sprite::obs::ParsePerfJson(content, out, &error)) {
      std::fprintf(stderr, "%s: %s\n", paths[i].c_str(), error.c_str());
      return 2;
    }
  }

  if (baseline.bench != candidate.bench) {
    std::printf("WARNING: comparing different benches: '%s' vs '%s'\n",
                baseline.bench.c_str(), candidate.bench.c_str());
  }
  if (baseline.threads != candidate.threads) {
    std::printf("WARNING: thread counts differ: %.0f vs %.0f — wall times "
                "are not directly comparable\n",
                baseline.threads, candidate.threads);
  }
  if (baseline.nproc != candidate.nproc) {
    std::printf("WARNING: host core counts differ: %.0f vs %.0f — runs came "
                "from different machines or cgroups\n",
                baseline.nproc, candidate.nproc);
  }

  std::printf("bench %s: baseline %s (commit %s) vs candidate %s "
              "(commit %s)\n",
              baseline.bench.c_str(), paths[0].c_str(),
              baseline.git_commit.c_str(), paths[1].c_str(),
              candidate.git_commit.c_str());
  std::printf("threshold: median > baseline * %.2f + %.2f ms\n\n",
              1.0 + tolerance, abs_slack_ms);
  std::printf("%-24s | %12s | %12s | %8s | %s\n", "phase", "base med ms",
              "cand med ms", "ratio", "verdict");
  std::printf("-------------------------+--------------+--------------+"
              "----------+--------\n");

  int regressions = 0;
  for (const PerfPhaseSummary& base : baseline.phases) {
    const PerfPhaseSummary* cand = FindPhase(candidate, base.name);
    if (cand == nullptr) {
      std::printf("%-24s | %12.3f | %12s | %8s | removed\n",
                  base.name.c_str(), base.median_ms, "-", "-");
      continue;
    }
    const double limit = base.median_ms * (1.0 + tolerance) + abs_slack_ms;
    const double ratio =
        base.median_ms > 0.0 ? cand->median_ms / base.median_ms
                             : (cand->median_ms > 0.0 ? HUGE_VAL : 1.0);
    const bool regressed = cand->median_ms > limit;
    if (regressed) ++regressions;
    std::printf("%-24s | %12.3f | %12.3f | %7.2fx | %s\n", base.name.c_str(),
                base.median_ms, cand->median_ms, ratio,
                regressed ? "REGRESSED" : "ok");
  }
  for (const PerfPhaseSummary& cand : candidate.phases) {
    if (FindPhase(baseline, cand.name) == nullptr) {
      std::printf("%-24s | %12s | %12.3f | %8s | new\n", cand.name.c_str(),
                  "-", cand.median_ms, "-");
    }
  }

  if (regressions > 0) {
    std::printf("\n%d phase(s) regressed\n", regressions);
    return 1;
  }
  std::printf("\nno regressions\n");
  return 0;
}
