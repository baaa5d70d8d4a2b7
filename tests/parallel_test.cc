// Tests for the sharded epoch engine (DESIGN.md §12) and the
// determinism-hardening fixes that support it: the worker pool barrier,
// per-stream RNG substreams, the thread-safe term dictionary, pinned
// iteration orders, and — the headline contract — byte-identical
// simulation output at any thread count, whether the workload arrives as
// batches or as single operations.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/worker_pool.h"
#include "core/indexing_peer.h"
#include "eval/experiment.h"
#include "text/term_dict.h"

namespace sprite {
namespace {

using core::IndexingPeer;
using core::PostingEntry;
using core::SpriteConfig;
using core::SpriteSystem;
using eval::ExperimentOptions;
using eval::TestBed;
using text::TermDict;

// --- WorkerPool ---------------------------------------------------------

TEST(WorkerPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  for (size_t num_threads : {size_t{1}, size_t{4}}) {
    WorkerPool pool(num_threads);
    EXPECT_EQ(pool.num_threads(), num_threads);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
    // Degenerate sizes are fine.
    pool.ParallelFor(0, [&](size_t) { FAIL(); });
    std::atomic<int> one{0};
    pool.ParallelFor(1, [&](size_t) { one.fetch_add(1); });
    EXPECT_EQ(one.load(), 1);
  }
}

TEST(WorkerPoolTest, ParallelForIsABarrier) {
  WorkerPool pool(4);
  std::atomic<size_t> done{0};
  pool.ParallelFor(64, [&](size_t) { done.fetch_add(1); });
  // Every unit observed complete once ParallelFor returned.
  EXPECT_EQ(done.load(), 64u);
}

TEST(WorkerPoolTest, ZeroThreadsClampsToOne) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> hits{0};
  pool.ParallelFor(7, [&](size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 7);
  const WorkerPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.threads, 1u);
  ASSERT_EQ(stats.workers.size(), 1u);
  EXPECT_EQ(stats.workers[0].items, 7u);
}

TEST(WorkerPoolTest, StatsTrackInlineAndFannedOutBatches) {
  WorkerPool pool(4);

  // n == 0 is a complete no-op, including for the stats.
  pool.ParallelFor(0, [](size_t) { FAIL(); });
  WorkerPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.inline_batches, 0u);
  EXPECT_EQ(stats.items, 0u);

  // n == 1 takes the inline path: only the caller slot is charged.
  pool.ParallelFor(1, [](size_t) {});
  stats = pool.stats();
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.inline_batches, 1u);
  EXPECT_EQ(stats.items, 1u);
  ASSERT_EQ(stats.workers.size(), 4u);
  EXPECT_EQ(stats.workers[0].items, 1u);
  EXPECT_EQ(stats.workers[0].batches, 1u);
  EXPECT_EQ(stats.workers[1].items, 0u);

  // A fanned-out batch accounts every item to some worker and computes a
  // finite imbalance ratio >= 1 (max busy over mean busy). The work spins
  // long enough that at least one worker's busy time is nonzero on any
  // clock resolution.
  std::atomic<uint64_t> sink{0};
  const auto spin = [&sink](size_t i) {
    uint64_t acc = i;
    for (int k = 0; k < 500; ++k) acc = acc * 6364136223846793005ull + 13u;
    sink.fetch_add(acc, std::memory_order_relaxed);
  };
  pool.ParallelFor(256, spin);
  stats = pool.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.inline_batches, 1u);
  EXPECT_EQ(stats.items, 257u);
  uint64_t claimed = 0;
  for (const WorkerPool::WorkerStats& w : stats.workers) claimed += w.items;
  EXPECT_EQ(claimed, 257u);
  EXPECT_GE(stats.last_imbalance, 1.0);
  EXPECT_GE(stats.max_imbalance, stats.last_imbalance);
  EXPECT_GT(stats.MeanImbalance(), 0.0);

  // Stats accumulate across batches...
  pool.ParallelFor(256, spin);
  stats = pool.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.items, 513u);

  // ...and ResetStats zeroes the counters but keeps the pool geometry.
  pool.ResetStats();
  stats = pool.stats();
  EXPECT_EQ(stats.threads, 4u);
  ASSERT_EQ(stats.workers.size(), 4u);
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.inline_batches, 0u);
  EXPECT_EQ(stats.items, 0u);
  EXPECT_EQ(stats.workers[0].busy_ns, 0u);
  EXPECT_EQ(stats.workers[0].items, 0u);
  EXPECT_EQ(stats.last_imbalance, 0.0);
  EXPECT_EQ(stats.max_imbalance, 0.0);
  pool.ParallelFor(16, [](size_t) {});
  EXPECT_EQ(pool.stats().items, 16u);
}

// --- Rng substreams -----------------------------------------------------

TEST(RngStreamTest, StreamDrawsIgnoreOtherStreams) {
  // Stream 5's sequence is a pure function of (seed, 5): drawing from other
  // streams first — in any order, on any schedule — cannot perturb it.
  Rng direct = Rng::ForStream(99, 5);
  std::vector<uint64_t> want;
  for (int i = 0; i < 8; ++i) want.push_back(direct.NextUint64());

  RngPool pool(99);
  pool.ForStream(2).NextUint64();
  pool.ForStream(7).NextDouble();
  pool.ForStream(5);  // materialize, draw nothing yet
  pool.ForStream(2).NextGaussian();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(pool.ForStream(5).NextUint64(), want[i]);
  }
}

TEST(RngStreamTest, DistinctStreamsDiverge) {
  Rng a = Rng::ForStream(1, 0);
  Rng b = Rng::ForStream(1, 1);
  Rng c = Rng::ForStream(2, 0);
  const uint64_t va = a.NextUint64(), vb = b.NextUint64(),
                 vc = c.NextUint64();
  EXPECT_NE(va, vb);
  EXPECT_NE(va, vc);
}

// --- TermDict thread safety ---------------------------------------------

TEST(TermDictParallelTest, SequentialInsertionOrderFixesIds) {
  TermDict a, b;
  std::vector<std::string> terms;
  for (int i = 0; i < 500; ++i) terms.push_back(StrFormat("term-%d", i));
  for (const std::string& t : terms) a.Intern(t);
  for (const std::string& t : terms) {
    EXPECT_EQ(b.Intern(t), a.Lookup(t));
  }
}

TEST(TermDictParallelTest, ConcurrentReadersSeeStableEntries) {
  TermDict dict;
  // One writer interning fresh terms while readers resolve already-interned
  // ids; under TSan this doubles as the data-race check.
  constexpr int kTerms = 2000;
  std::vector<text::TermId> ids(kTerms);
  for (int i = 0; i < 200; ++i) {
    ids[i] = dict.Intern(StrFormat("seed-%d", i));
  }
  std::atomic<int> published{200};
  std::thread writer([&]() {
    for (int i = 200; i < kTerms; ++i) {
      ids[i] = dict.Intern(StrFormat("seed-%d", i));
      published.store(i + 1, std::memory_order_release);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&]() {
      for (int round = 0; round < 50; ++round) {
        const int limit = published.load(std::memory_order_acquire);
        for (int i = 0; i < limit; ++i) {
          EXPECT_EQ(dict.TermOf(ids[i]), StrFormat("seed-%d", i));
          EXPECT_EQ(dict.Lookup(StrFormat("seed-%d", i)), ids[i]);
        }
      }
    });
  }
  writer.join();
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(dict.size(), static_cast<size_t>(kTerms));
}

TEST(TermDictParallelTest, ConcurrentInternsAgreeOnOneIdPerTerm) {
  TermDict dict;
  constexpr int kTerms = 512;
  std::vector<std::vector<text::TermId>> seen(4,
                                              std::vector<text::TermId>(kTerms));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&dict, &seen, t]() {
      for (int i = 0; i < kTerms; ++i) {
        seen[t][i] = dict.Intern(StrFormat("shared-%d", i));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(dict.size(), static_cast<size_t>(kTerms));
  for (int i = 0; i < kTerms; ++i) {
    for (int t = 1; t < 4; ++t) ASSERT_EQ(seen[t][i], seen[0][i]);
    EXPECT_EQ(dict.TermOf(seen[0][i]), StrFormat("shared-%d", i));
  }
}

// --- Pinned iteration orders --------------------------------------------

TEST(IndexingPeerOrderTest, IndexedTermsAreSortedById) {
  IndexingPeer peer(1, 16);
  for (text::TermId id : {40u, 3u, 99u, 7u, 23u}) {
    peer.AddPosting(id, PostingEntry{/*doc=*/id, /*tf=*/1, 10, 5, 0});
  }
  const std::vector<text::TermId> want = {3, 7, 23, 40, 99};
  EXPECT_EQ(peer.IndexedTerms(), want);
}

// --- Cross-thread determinism -------------------------------------------

ExperimentOptions SmallExperiment() {
  ExperimentOptions o;
  o.corpus.seed = 7;
  o.corpus.num_topics = 6;
  o.corpus.num_base_queries = 18;
  o.corpus.num_docs = 600;
  o.corpus.query_min_terms = 3;
  o.generator.rank_cutoff = 40;
  return o;
}

class EpochDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bed_ = new TestBed(TestBed::Build(SmallExperiment()));
  }
  static void TearDownTestSuite() {
    delete bed_;
    bed_ = nullptr;
  }
  static TestBed* bed_;
};

TestBed* EpochDeterminismTest::bed_ = nullptr;

// Serializes ranked lists with exact double bit patterns, so two runs agree
// iff every score is bit-identical.
std::string DumpResults(const std::vector<StatusOr<ir::RankedList>>& results) {
  std::string out;
  for (const auto& r : results) {
    if (!r.ok()) {
      out += "err:" + r.status().ToString() + "\n";
      continue;
    }
    for (const auto& scored : r.value()) {
      uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(scored.score));
      std::memcpy(&bits, &scored.score, sizeof(bits));
      out += StrFormat("%u:%llx ", scored.doc,
                       static_cast<unsigned long long>(bits));
    }
    out += "\n";
  }
  return out;
}

struct ScenarioDump {
  std::string results;
  std::string metrics;
  std::string trace;
  std::string timeseries;
  std::string perf;  // wall-profiler snapshot; sidecar-only, never compared
};

// A fig4a-style workload with churn and the querying-peer caches enabled —
// every epoch entry point, the learning loop, replication and peer
// failures all run. Everything observable is captured.
// `profile` turns on the host-side wall profiler (DESIGN.md §13), which by
// contract must not change a single observable byte.
// `poke_live_seams` explicitly sets the tracer's live-daemon seams to
// their sim defaults (SimClock time source, zero id salt) — the pointer
// indirection those seams add must not change a single observable byte.
// `single_op` drives training and evaluation through loops of RecordQuery,
// ShareDocument and Search instead of TrainSystem and SearchEpoch.
ScenarioDump RunScenario(const TestBed& bed, size_t threads,
                         bool profile = false, bool poke_live_seams = false,
                         bool single_op = false) {
  SpriteConfig config;
  config.num_peers = 48;
  config.initial_terms = 5;
  config.terms_per_iteration = 5;
  config.max_index_terms = 20;
  config.cache = core::CacheMode::kOn;
  config.enable_timeseries = true;
  config.replication_factor = 2;
  config.seed = 11;
  config.num_threads = threads;
  config.enable_wall_profiler = profile;

  SpriteSystem sys(config);
  sys.mutable_tracer().set_enabled(true);
  if (poke_live_seams) {
    sys.mutable_tracer().set_time_source(nullptr);
    sys.mutable_tracer().set_id_salt(0);
  }

  if (single_op) {
    for (size_t idx : bed.split().train) sys.RecordQuery(bed.query(idx));
    for (const corpus::Document& doc : bed.corpus().docs()) {
      EXPECT_TRUE(sys.ShareDocument(doc).ok());
    }
    sys.RunLearningIteration();
    sys.RunLearningIteration();
  } else {
    EXPECT_TRUE(eval::TrainSystem(sys, bed, bed.split().train, 2).ok());
  }
  sys.ReplicateIndexes();
  sys.CaptureTimeSeriesPoint("trained");

  // Churn: fail two peers, heal, keep learning.
  std::vector<uint64_t> ids = sys.ring().AliveIds();
  EXPECT_TRUE(sys.FailPeer(ids[ids.size() / 3]).ok());
  EXPECT_TRUE(sys.FailPeer(ids[(2 * ids.size()) / 3]).ok());
  sys.StabilizeNetwork(3);
  sys.RunLearningIteration();
  sys.ReplicateIndexes();
  sys.CaptureTimeSeriesPoint("churned");

  // Evaluate twice so the second pass exercises cache hits + validation.
  std::vector<const corpus::Query*> queries;
  for (size_t idx : bed.split().test) queries.push_back(&bed.query(idx));
  const auto search_all = [&]() {
    if (!single_op) return sys.SearchEpoch(queries, 20, /*record=*/false);
    std::vector<StatusOr<ir::RankedList>> out;
    for (const corpus::Query* q : queries) {
      out.push_back(sys.Search(*q, 20, /*record=*/false));
    }
    return out;
  };
  ScenarioDump dump;
  dump.results += DumpResults(search_all());
  dump.results += DumpResults(search_all());
  sys.CaptureTimeSeriesPoint("evaluated");

  dump.metrics = sys.metrics().Snapshot().ToJson();
  dump.trace = sys.tracer().ToJsonl();
  dump.timeseries = sys.timeseries().ToCsv();
  dump.perf = sys.profiler().Snapshot().ToJson();
  return dump;
}

TEST_F(EpochDeterminismTest, ThreadCountDoesNotChangeAnyObservableByte) {
  const ScenarioDump one = RunScenario(*bed_, 1);
  const ScenarioDump four = RunScenario(*bed_, 4);
  // Compare sizes first for a readable failure, then the full bytes.
  ASSERT_EQ(one.results.size(), four.results.size());
  EXPECT_EQ(one.results, four.results);
  EXPECT_EQ(one.metrics, four.metrics);
  EXPECT_EQ(one.trace, four.trace);
  EXPECT_EQ(one.timeseries, four.timeseries);
  // The dumps are non-trivial: the scenario really ran.
  EXPECT_GT(one.results.size(), 100u);
  EXPECT_NE(one.metrics.find("learning.iterations"), std::string::npos);
  EXPECT_NE(one.timeseries.find("churned"), std::string::npos);
}

// Single operations are epochs of one (DESIGN.md §12), so the same
// workload issued one call at a time reproduces the batch run's bytes.
// The dumps are compared with == because a failing EXPECT_EQ would print a
// string diff of several megabytes.
TEST_F(EpochDeterminismTest, SingleOpsMatchBatchesByteForByte) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    const ScenarioDump batch = RunScenario(*bed_, threads);
    const ScenarioDump single =
        RunScenario(*bed_, threads, /*profile=*/false,
                    /*poke_live_seams=*/false, /*single_op=*/true);
    EXPECT_TRUE(single.results == batch.results) << "threads=" << threads;
    EXPECT_TRUE(single.metrics == batch.metrics) << "threads=" << threads;
    EXPECT_TRUE(single.trace == batch.trace) << "threads=" << threads;
    EXPECT_TRUE(single.timeseries == batch.timeseries)
        << "threads=" << threads;
  }
}

TEST_F(EpochDeterminismTest, RepeatedRunsAtSameThreadCountAgree) {
  const ScenarioDump a = RunScenario(*bed_, 2);
  const ScenarioDump b = RunScenario(*bed_, 2);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.timeseries, b.timeseries);
}

// The hard observability contract (DESIGN.md §13): the wall profiler sits
// entirely outside the simulated-clock streams, so turning it on changes
// no observable byte — while the profiler itself demonstrably recorded.
TEST_F(EpochDeterminismTest, WallProfilingDoesNotChangeAnyObservableByte) {
  const ScenarioDump off = RunScenario(*bed_, 2, /*profile=*/false);
  const ScenarioDump on = RunScenario(*bed_, 2, /*profile=*/true);
  EXPECT_EQ(off.results, on.results);
  EXPECT_EQ(off.metrics, on.metrics);
  EXPECT_EQ(off.trace, on.trace);
  EXPECT_EQ(off.timeseries, on.timeseries);
  // The profiled run collected wall samples; the unprofiled one collected
  // none. Only the sidecar snapshot differs.
  EXPECT_NE(on.perf.find("perf.epoch.share.plan_us"), std::string::npos);
  EXPECT_NE(on.perf.find("perf.search.total_us"), std::string::npos);
  EXPECT_EQ(off.perf.find("perf."), std::string::npos);
}

// The live-tracing seams (DESIGN.md §16) ship compiled into the sim build:
// a swappable TraceClock and a 32-bit id salt. At their defaults they must
// be invisible — same bytes in every dump, traced ids still sequential.
TEST_F(EpochDeterminismTest, LiveTracingSeamsLeaveSimDumpsByteIdentical) {
  const ScenarioDump plain = RunScenario(*bed_, 2);
  const ScenarioDump poked =
      RunScenario(*bed_, 2, /*profile=*/false, /*poke_live_seams=*/true);
  EXPECT_EQ(plain.results, poked.results);
  EXPECT_EQ(plain.metrics, poked.metrics);
  EXPECT_EQ(plain.trace, poked.trace);
  EXPECT_EQ(plain.timeseries, poked.timeseries);
  EXPECT_NE(plain.trace.find("\"trace\":1,"), std::string::npos);
}

}  // namespace
}  // namespace sprite
