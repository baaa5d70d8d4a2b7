// Hot-path micro-benchmark: proves the three search/learning hot-path
// optimisations of the interning PR with wall-clock numbers, and emits
// BENCH_hotpath.json for CI to validate.
//
// Sections:
//   1. term_key  — ring-key derivation: MD5-per-use (IdSpace::KeyForString,
//      what the seed paid on every route) vs. Truncate of the TermDict's
//      precomputed raw key (one string hash at the intern boundary, integer
//      work everywhere after).
//   2. fetch     — obtaining a term's posting list at the querying peer:
//      deep-copying std::vector<PostingEntry> (the seed's
//      `rl.postings = *plist`) vs. refcounting a shared immutable snapshot.
//   3. rank      — selecting the top k of a scored candidate set: full
//      std::sort + resize vs. bounded selection (TopKInPlace).
//   4. end_to_end — the fetch+rank phase of Search over the fig4a-scale
//      test workload, pre-PR pipeline (string hash per use, deep copies,
//      two-map accumulation, full sort) vs. the current one (interned keys,
//      shared views, the production merge ranker). The two pipelines'
//      ranked lists are serialized at full precision and must be
//      byte-identical.
//
// Timings use a real wall clock (std::chrono::steady_clock) — the
// simulated clock of the tracer models protocol latency, not CPU cost.
//
// Flags: the common --docs/--peers/--seed, plus --rounds=N (end-to-end
// repetitions, default 3) and --out=PATH (JSON report path, default
// BENCH_hotpath.json in the working directory). --metrics-json and the
// trace flags dump the trained system.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/topk.h"
#include "core/ranking.h"
#include "dht/id_space.h"
#include "ir/ranked_list.h"
#include "ir/similarity.h"
#include "obs/metrics.h"
#include "text/term_dict.h"

namespace {

using namespace sprite;

// Defeats dead-code elimination of the measured loops.
volatile uint64_t g_sink = 0;
void Sink(uint64_t v) { g_sink = g_sink + v; }

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Distinct workload query terms in first-appearance order (deterministic
// for a fixed seed, so both paths and every run hash the same spellings).
std::vector<std::string> WorkloadVocabulary(const eval::TestBed& bed) {
  std::vector<std::string> vocab;
  std::unordered_set<std::string> seen;
  for (const corpus::Query& q : bed.workload().queries) {
    for (const std::string& term : q.terms) {
      if (seen.insert(term).second) vocab.push_back(term);
    }
  }
  return vocab;
}

// ------------------------------------------------------ end-to-end paths

// Exactly the ordering contract of ir::SortRankedList: score descending,
// DocId ascending on ties.
bool RankedLess(const ir::ScoredDoc& a, const ir::ScoredDoc& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.doc < b.doc;
}

void AppendDump(const corpus::Query& q, const ir::RankedList& results,
                std::string* dump) {
  *dump += "q";
  *dump += std::to_string(q.id);
  *dump += "=";
  for (const ir::ScoredDoc& s : results) {
    *dump += StrFormat("%u:%.17g;", s.doc, s.score);
  }
  *dump += "\n";
}

// The pre-PR fetch+rank pipeline: string-keyed dedup, an MD5 per routed
// term, a deep copy per fetched list, two hash probes per posting, and a
// full sort of every scored candidate.
double RunLegacy(const core::SpriteSystem& sys, const eval::TestBed& bed,
                 size_t k, bool collect, std::string* dump) {
  const dht::IdSpace& space = sys.ring().space();
  const text::TermDict& dict = text::TermDict::Global();
  const Clock::time_point start = Clock::now();
  for (const size_t qidx : bed.split().test) {
    const corpus::Query& q = bed.query(qidx);
    std::unordered_set<std::string> resolved;
    std::vector<core::PostingList> lists;
    for (const std::string& term : q.terms) {
      if (!resolved.insert(term).second) continue;
      const uint64_t key = space.KeyForString(term);  // MD5 per use
      StatusOr<uint64_t> target = sys.ring().ResponsibleNode(key);
      if (!target.ok()) continue;
      const core::IndexingPeer* peer = sys.indexing_peer(target.value());
      if (peer == nullptr) continue;
      const text::TermId id = dict.Lookup(term);  // the seed's string-keyed
      if (id == text::kInvalidTermId) continue;   // index_.find(term)
      core::PostingListPtr src = peer->Postings(id);
      core::PostingList copy;  // the seed's `rl.postings = *plist`
      if (src != nullptr) copy = *src;
      lists.push_back(std::move(copy));
    }
    std::unordered_map<corpus::DocId, double> dot;
    std::unordered_map<corpus::DocId, uint32_t> distinct_terms;
    for (const core::PostingList& pl : lists) {
      if (pl.empty()) continue;
      const double idf = ir::Idf(sys.config().idf_corpus_size,
                                 static_cast<uint32_t>(pl.size()));
      if (idf == 0.0) continue;
      const double wq = idf;
      for (const core::PostingEntry& p : pl) {
        dot[p.doc] += wq * p.NormalizedTf() * idf;
        distinct_terms[p.doc] = p.num_distinct_terms;
      }
    }
    ir::RankedList results;
    results.reserve(dot.size());
    for (const auto& [doc, d] : dot) {
      const double score = ir::LeeNormalize(d, distinct_terms[doc]);
      if (score > 0.0) results.push_back({doc, score});
    }
    std::sort(results.begin(), results.end(), RankedLess);  // full sort
    if (k != 0 && results.size() > k) results.resize(k);
    Sink(results.size() + (results.empty() ? 0 : results[0].doc));
    if (collect) AppendDump(q, results, dump);
  }
  return MsSince(start);
}

// The current fetch+rank pipeline: one string hash per term at the intern
// boundary, precomputed ring keys, shared posting views, and the
// production ranker (core::RankPostingLists: a doc-at-a-time merge into a
// bounded top-k).
double RunFast(const core::SpriteSystem& sys, const eval::TestBed& bed,
               size_t k, bool collect, std::string* dump) {
  const dht::IdSpace& space = sys.ring().space();
  const text::TermDict& dict = text::TermDict::Global();
  const Clock::time_point start = Clock::now();
  for (const size_t qidx : bed.split().test) {
    const corpus::Query& q = bed.query(qidx);
    std::unordered_set<text::TermId> resolved;
    std::vector<core::PostingListPtr> lists;
    size_t fetched_postings = 0;
    for (const std::string& term : q.terms) {
      const text::TermId id = dict.Lookup(term);  // the boundary hash
      if (id == text::kInvalidTermId) continue;
      if (!resolved.insert(id).second) continue;
      const uint64_t key = space.Truncate(dict.RawKeyOf(id));
      StatusOr<uint64_t> target = sys.ring().ResponsibleNode(key);
      if (!target.ok()) continue;
      const core::IndexingPeer* peer = sys.indexing_peer(target.value());
      if (peer == nullptr) continue;
      core::PostingListPtr view = peer->Postings(id);  // refcount bump only
      if (view == nullptr || view->empty()) continue;
      fetched_postings += view->size();
      lists.push_back(std::move(view));
    }
    const ir::RankedList results = core::RankPostingLists(
        lists, sys.config().idf_corpus_size, fetched_postings, k);
    Sink(results.size() + (results.empty() ? 0 : results[0].doc));
    if (collect) AppendDump(q, results, dump);
  }
  return MsSince(start);
}

// One full measurement pass. The wall-clock numbers naturally differ
// between passes — that spread is exactly what the --perf-json phase
// statistics (min/median/stddev over reps) summarize. The JSON report is
// rewritten each pass, so it holds the final rep's numbers.
int RunOnce(const spritebench::BenchArgs& args, const eval::TestBed& bed,
            const core::SpriteSystem& sys, const std::string& out_path,
            size_t rounds, spritebench::PerfRecorder& perf) {
  const dht::IdSpace& space = sys.ring().space();
  const text::TermDict& dict = text::TermDict::Global();
  const std::vector<std::string> vocab = WorkloadVocabulary(bed);

  // --- 1. term -> ring key ------------------------------------------------
  spritebench::PerfRecorder::Phase key_phase(perf, "term_key");
  std::vector<text::TermId> vocab_ids;
  vocab_ids.reserve(vocab.size());
  for (const std::string& term : vocab) {
    vocab_ids.push_back(text::TermDict::Global().Intern(term));
  }
  const size_t key_reps =
      std::max<size_t>(1, 400000 / std::max<size_t>(1, vocab.size()));
  const size_t key_lookups = key_reps * vocab.size();
  double string_hash_ms = 0, interned_ms = 0;
  {
    uint64_t s = 0;
    const Clock::time_point t0 = Clock::now();
    for (size_t r = 0; r < key_reps; ++r) {
      for (const std::string& term : vocab) s ^= space.KeyForString(term);
    }
    string_hash_ms = MsSince(t0);
    Sink(s);
    const Clock::time_point t1 = Clock::now();
    for (size_t r = 0; r < key_reps; ++r) {
      for (const text::TermId id : vocab_ids) {
        s ^= space.Truncate(dict.RawKeyOf(id));
      }
    }
    interned_ms = MsSince(t1);
    Sink(s);
  }
  key_phase.Stop();

  // --- 2. posting-list fetch: deep copy vs shared view --------------------
  spritebench::PerfRecorder::Phase fetch_phase(perf, "fetch");
  std::vector<core::PostingListPtr> live_lists;
  size_t live_entries = 0;
  for (const uint64_t id : sys.ring().AliveIds()) {
    if (live_lists.size() >= 400) break;
    const core::IndexingPeer* peer = sys.indexing_peer(id);
    if (peer == nullptr) continue;
    for (const text::TermId term : peer->IndexedTerms()) {
      core::PostingListPtr plist = peer->Postings(term);
      if (plist == nullptr || plist->empty()) continue;
      live_entries += plist->size();
      live_lists.push_back(std::move(plist));
      if (live_lists.size() >= 400) break;
    }
  }
  const size_t fetch_reps = std::min<size_t>(
      2000,
      std::max<size_t>(3, 20000000 / std::max<size_t>(1, live_entries)));
  double deep_copy_ms = 0, shared_view_ms = 0;
  {
    uint64_t s = 0;
    const Clock::time_point t0 = Clock::now();
    for (size_t r = 0; r < fetch_reps; ++r) {
      for (const core::PostingListPtr& src : live_lists) {
        core::PostingList copy = *src;
        s += copy.size() + copy.back().doc;
      }
    }
    deep_copy_ms = MsSince(t0);
    Sink(s);
    const Clock::time_point t1 = Clock::now();
    for (size_t r = 0; r < fetch_reps; ++r) {
      for (const core::PostingListPtr& src : live_lists) {
        core::PostingListPtr view = src;
        s += view->size() + view->back().doc;
      }
    }
    shared_view_ms = MsSince(t1);
    Sink(s);
  }
  fetch_phase.Stop();

  // --- 3. top-k selection: full sort vs bounded selection -----------------
  spritebench::PerfRecorder::Phase rank_phase(perf, "rank");
  constexpr size_t kRankCandidates = 20000;
  constexpr size_t kTopK = 10;
  constexpr size_t kRankReps = 300;
  ir::RankedList rank_base;
  rank_base.reserve(kRankCandidates);
  {
    Rng rng(args.seed);
    for (size_t i = 0; i < kRankCandidates; ++i) {
      rank_base.push_back(
          {static_cast<corpus::DocId>(i),
           static_cast<double>(rng.NextUint64(1000)) / 997.0});
    }
  }
  double full_sort_ms = 0, topk_ms = 0;
  {
    uint64_t s = 0;
    const Clock::time_point t0 = Clock::now();
    for (size_t r = 0; r < kRankReps; ++r) {
      ir::RankedList v = rank_base;
      std::sort(v.begin(), v.end(), RankedLess);
      v.resize(kTopK);
      s += v[0].doc;
    }
    full_sort_ms = MsSince(t0);
    Sink(s);
    const Clock::time_point t1 = Clock::now();
    for (size_t r = 0; r < kRankReps; ++r) {
      ir::RankedList v = rank_base;
      TopKInPlace(v, kTopK, RankedLess);
      s += v[0].doc;
    }
    topk_ms = MsSince(t1);
    Sink(s);
  }
  rank_phase.Stop();

  // --- 4. end-to-end fetch+rank over the test workload --------------------
  spritebench::PerfRecorder::Phase e2e_phase(perf, "end_to_end");
  constexpr size_t kAnswers = 10;
  std::string legacy_dump, fast_dump;
  // Untimed verification pass (serialization stays out of the timings).
  RunLegacy(sys, bed, kAnswers, /*collect=*/true, &legacy_dump);
  RunFast(sys, bed, kAnswers, /*collect=*/true, &fast_dump);
  const bool identical = legacy_dump == fast_dump;
  double legacy_ms = 0, fast_ms = 0;
  for (size_t r = 0; r < rounds; ++r) {
    legacy_ms += RunLegacy(sys, bed, kAnswers, /*collect=*/false, nullptr);
    fast_ms += RunFast(sys, bed, kAnswers, /*collect=*/false, nullptr);
  }
  e2e_phase.Stop();
  const size_t test_queries = bed.split().test.size();
  const double per_query = 1000.0 / std::max<size_t>(1, test_queries * rounds);

  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  std::printf("term_key : %9.3f ms string-hash | %9.3f ms interned | %6.2fx"
              " (%zu lookups)\n",
              string_hash_ms, interned_ms, ratio(string_hash_ms, interned_ms),
              key_lookups);
  std::printf("fetch    : %9.3f ms deep-copy   | %9.3f ms view     | %6.2fx"
              " (%zu lists, %zu entries, %zu reps)\n",
              deep_copy_ms, shared_view_ms, ratio(deep_copy_ms, shared_view_ms),
              live_lists.size(), live_entries, fetch_reps);
  std::printf("rank     : %9.3f ms full-sort   | %9.3f ms top-k    | %6.2fx"
              " (n=%zu, k=%zu, %zu reps)\n",
              full_sort_ms, topk_ms, ratio(full_sort_ms, topk_ms),
              kRankCandidates, kTopK, kRankReps);
  std::printf("end2end  : %9.3f ms legacy      | %9.3f ms fast     | %6.2fx"
              " (%zu queries x %zu rounds, identical=%s)\n",
              legacy_ms, fast_ms, ratio(legacy_ms, fast_ms), test_queries,
              rounds, identical ? "true" : "false");

  const std::string json = StrFormat(
      "{\n"
      "  \"bench\": \"hotpath_micro\",\n"
      "  \"config\": {\"docs\": %zu, \"peers\": %zu, \"seed\": %llu, "
      "\"rounds\": %zu, \"k\": %zu},\n"
      "  \"micro\": {\n"
      "    \"term_key\": {\"lookups\": %zu, \"string_hash_ms\": %.3f, "
      "\"interned_ms\": %.3f, \"speedup\": %.3f},\n"
      "    \"fetch\": {\"lists\": %zu, \"entries\": %zu, \"reps\": %zu, "
      "\"deep_copy_ms\": %.3f, \"shared_view_ms\": %.3f, \"speedup\": "
      "%.3f},\n"
      "    \"rank\": {\"candidates\": %zu, \"k\": %zu, \"reps\": %zu, "
      "\"full_sort_ms\": %.3f, \"topk_ms\": %.3f, \"speedup\": %.3f}\n"
      "  },\n"
      "  \"end_to_end\": {\"test_queries\": %zu, \"rounds\": %zu, "
      "\"legacy_fetch_rank_ms\": %.3f, \"fast_fetch_rank_ms\": %.3f, "
      "\"speedup\": %.3f, \"legacy_us_per_query\": %.3f, "
      "\"fast_us_per_query\": %.3f, \"identical_results\": %s}\n"
      "}\n",
      args.docs, args.peers,
      static_cast<unsigned long long>(args.seed), rounds, kAnswers,
      key_lookups, string_hash_ms, interned_ms,
      ratio(string_hash_ms, interned_ms), live_lists.size(), live_entries,
      fetch_reps, deep_copy_ms, shared_view_ms,
      ratio(deep_copy_ms, shared_view_ms), kRankCandidates, kTopK, kRankReps,
      full_sort_ms, topk_ms, ratio(full_sort_ms, topk_ms), test_queries,
      rounds, legacy_ms, fast_ms, ratio(legacy_ms, fast_ms),
      legacy_ms * per_query, fast_ms * per_query,
      identical ? "true" : "false");
  if (obs::WriteJsonFile(out_path, json)) {
    std::printf("\nreport written to %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  if (!identical) {
    std::fprintf(stderr,
                 "FATAL: legacy and fast ranked outputs differ on identical "
                 "seeds\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_hotpath.json";
  size_t rounds = 3;
  const spritebench::BenchArgs args = spritebench::ParseBenchArgs(
      argc, argv,
      Flags().String("--out", &out_path).Whole("--rounds", &rounds));
  if (rounds == 0) rounds = 1;
  spritebench::PrintHeader("Hot-path micro-benchmark", args);

  spritebench::PerfRecorder perf(args, "hotpath_micro");
  spritebench::PerfRecorder::Phase setup_phase(perf, "setup");
  eval::TestBed bed = eval::TestBed::Build(spritebench::DefaultExperiment(args));
  // The trained system is reused across --perf-json reps: it is read-only
  // for every measured section, and its wall profiler (enabled through the
  // usual config toggle) accumulates the TrainSystem hot paths.
  core::SpriteConfig config = spritebench::DefaultSpriteConfig(args);
  perf.ApplyConfig(config);
  core::SpriteSystem sys(config);
  spritebench::MaybeEnableTracing(args, sys);
  SPRITE_CHECK_OK(
      eval::TrainSystem(sys, bed, bed.split().train, /*iterations=*/3));
  setup_phase.Stop();

  int rc = 0;
  do {
    rc = RunOnce(args, bed, sys, out_path, rounds, perf);
    if (rc != 0) return rc;
  } while (perf.NextRep());
  spritebench::MaybeWriteMetricsJson(args, sys);
  spritebench::MaybeWriteTraceFiles(args, sys);
  perf.CaptureSystem(sys);
  perf.WriteReport();
  return rc;
}
