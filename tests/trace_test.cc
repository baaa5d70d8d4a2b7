// Tests for the distributed-tracing subsystem: the simulated clock, span
// nesting, bounded retention (sampling ring + slowest-K), the Perfetto and
// JSONL exporters with their offline parser/report, and the SpriteSystem
// integration — including the acceptance property that a search's span
// tree sums to the latency.search.total_ms observation, deterministically
// across identical runs.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/sprite_system.h"
#include "corpus/corpus.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_report.h"

namespace sprite::obs {
namespace {

// Runs one trace of `dur_ms` total on `t`: root span plus one child.
void RunTrace(Tracer& t, double dur_ms, const std::string& name = "op") {
  t.BeginSpan(name, "peer-a");
  t.BeginSpan("child", "peer-b");
  t.clock().AdvanceMs(dur_ms);
  t.EndSpan();
  t.EndSpan();
}

TEST(SimClockTest, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_DOUBLE_EQ(clock.now_ms(), 0.0);
  clock.AdvanceMs(5.0);
  clock.AdvanceMs(2.5);
  EXPECT_DOUBLE_EQ(clock.now_ms(), 7.5);
  clock.AdvanceMs(-3.0);  // ignored
  clock.AdvanceMs(std::nan(""));  // ignored
  EXPECT_DOUBLE_EQ(clock.now_ms(), 7.5);
  clock.Reset();
  EXPECT_DOUBLE_EQ(clock.now_ms(), 0.0);
}

TEST(TracerTest, DisabledTracerIsANoOp) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  TraceContext ctx = t.BeginSpan("op", "peer");
  EXPECT_FALSE(ctx.valid());
  EXPECT_FALSE(t.InActiveSpan());
  t.EndSpan();
  EXPECT_EQ(t.num_started(), 0u);
  EXPECT_EQ(t.num_retained(), 0u);
}

TEST(TracerTest, NestingAssignsParentIds) {
  Tracer t;
  t.set_enabled(true);
  TraceContext root = t.BeginSpan("search", "peer-1");
  ASSERT_TRUE(root.valid());
  t.clock().AdvanceMs(1.0);
  TraceContext child = t.BeginSpan("route", "peer-1");
  EXPECT_EQ(child.trace_id, root.trace_id);
  t.clock().AdvanceMs(2.0);
  TraceContext grandchild = t.BeginSpan("chord.hop", "peer-2");
  t.clock().AdvanceMs(3.0);
  t.EndSpan();
  t.EndSpan();
  t.EndSpan();

  ASSERT_EQ(t.num_retained(), 1u);
  const Trace* trace = t.Retained()[0];
  ASSERT_EQ(trace->spans.size(), 3u);
  const Span& s0 = trace->spans[0];
  const Span& s1 = trace->spans[1];
  const Span& s2 = trace->spans[2];
  EXPECT_EQ(s0.parent_id, 0u);
  EXPECT_EQ(s1.parent_id, s0.id);
  EXPECT_EQ(s2.parent_id, s1.id);
  EXPECT_EQ(s2.id, grandchild.span_id);
  EXPECT_DOUBLE_EQ(s0.duration_ms(), 6.0);
  EXPECT_DOUBLE_EQ(s1.duration_ms(), 5.0);
  EXPECT_DOUBLE_EQ(s2.duration_ms(), 3.0);
  EXPECT_DOUBLE_EQ(trace->duration_ms(), 6.0);
}

TEST(TracerTest, AnnotationsTargetTheRightSpan) {
  Tracer t;
  t.set_enabled(true);
  {
    ScopedSpan parent(&t, "parent", "p");
    {
      ScopedSpan child(&t, "child", "p");
      child.Annotate("k", "child-value");
      t.Annotate("innermost", "yes");  // lands on child
      t.AnnotateAdd("bytes", 10);
      t.AnnotateAdd("bytes", 5);
    }
    // After the child closed, the parent is annotatable both implicitly
    // (innermost) and explicitly (by its own context).
    parent.Annotate("k", "parent-value");
    t.Annotate("late", "ok");
  }
  ASSERT_EQ(t.num_retained(), 1u);
  const Trace* trace = t.Retained()[0];
  ASSERT_EQ(trace->spans.size(), 2u);
  EXPECT_EQ(trace->spans[0].annotations.at("k"), "parent-value");
  EXPECT_EQ(trace->spans[0].annotations.at("late"), "ok");
  EXPECT_EQ(trace->spans[1].annotations.at("k"), "child-value");
  EXPECT_EQ(trace->spans[1].annotations.at("innermost"), "yes");
  EXPECT_EQ(trace->spans[1].annotations.at("bytes"), "15");
}

TEST(TracerTest, SamplingKeepsEveryNth) {
  TraceOptions options;
  options.sample_every = 3;
  options.keep_slowest = 0;
  Tracer t(options);
  t.set_enabled(true);
  for (int i = 0; i < 10; ++i) RunTrace(t, 1.0);
  EXPECT_EQ(t.num_started(), 10u);
  // Operations 3, 6 and 9 are kept.
  ASSERT_EQ(t.num_retained(), 3u);
  for (const Trace* trace : t.Retained()) {
    EXPECT_EQ(trace->id % 3, 0u);
  }
}

TEST(TracerTest, RetentionNeverExceedsRingPlusSlowest) {
  TraceOptions options;
  options.sample_every = 1;
  options.max_traces = 4;
  options.keep_slowest = 2;
  Tracer t(options);
  t.set_enabled(true);
  // Decreasing durations: the slowest operations are the earliest, which
  // the ring evicts — only the slowest-K reservoir still holds them.
  for (int i = 0; i < 20; ++i) RunTrace(t, 20.0 - i);
  EXPECT_EQ(t.num_started(), 20u);
  const std::vector<const Trace*> retained = t.Retained();
  EXPECT_LE(retained.size(), options.max_traces + options.keep_slowest);
  ASSERT_EQ(retained.size(), 6u);
  // Sorted by start time: slowest-K (traces 1, 2) first, then the ring's
  // last four.
  EXPECT_EQ(retained[0]->id, 1u);
  EXPECT_EQ(retained[1]->id, 2u);
  EXPECT_EQ(retained[2]->id, 17u);
  EXPECT_EQ(retained[5]->id, 20u);
}

TEST(TracerTest, SlowestSurvivesWithSamplingOff) {
  TraceOptions options;
  options.sample_every = 0;  // keep nothing by sampling
  options.keep_slowest = 1;
  Tracer t(options);
  t.set_enabled(true);
  RunTrace(t, 1.0);
  RunTrace(t, 50.0);  // the slowest
  RunTrace(t, 2.0);
  ASSERT_EQ(t.num_retained(), 1u);
  EXPECT_DOUBLE_EQ(t.Retained()[0]->duration_ms(), 50.0);
}

TEST(TracerTest, DisablingMidOperationAbortsTheTrace) {
  Tracer t;
  t.set_enabled(true);
  t.BeginSpan("op", "p");
  t.set_enabled(false);
  EXPECT_FALSE(t.InActiveSpan());
  t.set_enabled(true);
  t.EndSpan();  // no crash, nothing to end
  EXPECT_EQ(t.num_retained(), 0u);
  RunTrace(t, 1.0);
  EXPECT_EQ(t.num_retained(), 1u);
}

TEST(TraceExportTest, PerfettoJsonHasEventsAndThreadNames) {
  Tracer t;
  t.set_enabled(true);
  ScopedSpan span(&t, "search", "peer-1");
  span.Annotate("query", "7");
  t.clock().AdvanceMs(4.0);
  span.End();

  const std::string json = t.ToPerfettoJson();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Durations are exported in microseconds.
  EXPECT_NE(json.find("\"dur\":4000.000"), std::string::npos);
  EXPECT_NE(json.find("\"query\":\"7\""), std::string::npos);
  EXPECT_NE(json.find("\"traces_started\":1"), std::string::npos);
}

TEST(TraceExportTest, JsonlHasHeaderAndOneSpanPerLine) {
  Tracer t;
  t.set_enabled(true);
  RunTrace(t, 3.0, "publish.term");
  const std::string jsonl = t.ToJsonl();
  EXPECT_EQ(jsonl.find("{\"format\":\"sprite-trace-jsonl\""), 0u);
  size_t lines = 0;
  for (char c : jsonl) lines += (c == '\n');
  EXPECT_EQ(lines, 3u);  // header + 2 spans
  EXPECT_NE(jsonl.find("\"name\":\"publish.term\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"dur_ms\":3.000"), std::string::npos);
}

TEST(TraceReportTest, ParsesBothFormatsIdentically) {
  Tracer t;
  t.set_enabled(true);
  {
    ScopedSpan root(&t, "search", "peer-1");
    root.Annotate("query", "3");
    {
      ScopedSpan child(&t, "fetch", "peer-2");
      child.Annotate("bytes", "128");
      t.clock().AdvanceMs(2.0);
    }
    t.clock().AdvanceMs(1.0);
  }

  std::vector<TraceSpanRecord> from_jsonl, from_perfetto;
  std::string error;
  ASSERT_TRUE(ParseTraceDump(t.ToJsonl(), &from_jsonl, &error)) << error;
  ASSERT_TRUE(ParseTraceDump(t.ToPerfettoJson(), &from_perfetto, &error))
      << error;
  ASSERT_EQ(from_jsonl.size(), 2u);
  ASSERT_EQ(from_perfetto.size(), 2u);
  for (size_t i = 0; i < from_jsonl.size(); ++i) {
    EXPECT_EQ(from_jsonl[i].name, from_perfetto[i].name);
    EXPECT_EQ(from_jsonl[i].peer, from_perfetto[i].peer);
    EXPECT_EQ(from_jsonl[i].span_id, from_perfetto[i].span_id);
    EXPECT_EQ(from_jsonl[i].parent_id, from_perfetto[i].parent_id);
    EXPECT_NEAR(from_jsonl[i].dur_ms, from_perfetto[i].dur_ms, 1e-9);
  }
  EXPECT_EQ(from_jsonl[0].annotations.at("query"), "3");
  EXPECT_EQ(from_perfetto[1].annotations.at("bytes"), "128");
}

TEST(TraceReportTest, RejectsGarbage) {
  std::vector<TraceSpanRecord> spans;
  std::string error;
  EXPECT_FALSE(ParseTraceDump("not a trace\nat all\n", &spans, &error));
  EXPECT_FALSE(error.empty());
}

TEST(TraceReportTest, RenderMentionsPhasesTreesAndPeers) {
  Tracer t;
  t.set_enabled(true);
  {
    ScopedSpan root(&t, "search", "peer-1");
    {
      ScopedSpan route(&t, "route", "peer-1");
      t.clock().AdvanceMs(50.0);
    }
    {
      ScopedSpan fetch(&t, "fetch", "peer-2");
      t.clock().AdvanceMs(30.0);
    }
    {
      ScopedSpan rank(&t, "rank", "peer-1");
      t.clock().AdvanceMs(20.0);
    }
  }
  std::vector<TraceSpanRecord> spans;
  std::string error;
  ASSERT_TRUE(ParseTraceDump(t.ToJsonl(), &spans, &error)) << error;
  const std::string report = RenderTraceReport(spans, /*top_k=*/3);
  EXPECT_NE(report.find("search"), std::string::npos);
  EXPECT_NE(report.find("route"), std::string::npos);
  EXPECT_NE(report.find("fetch"), std::string::npos);
  EXPECT_NE(report.find("rank"), std::string::npos);
  EXPECT_NE(report.find("peer-2"), std::string::npos);
  EXPECT_NE(report.find("100.000 ms"), std::string::npos);  // the root
}

// --- SpriteSystem integration ------------------------------------------

text::TermVector TV(const std::vector<std::string>& tokens) {
  return text::TermVector::FromTokens(tokens);
}

corpus::Query Q(corpus::QueryId id, std::vector<std::string> terms) {
  return corpus::Query{id, std::move(terms)};
}

core::SpriteConfig SmallConfig() {
  core::SpriteConfig c;
  c.num_peers = 16;
  c.initial_terms = 2;
  c.terms_per_iteration = 2;
  c.max_index_terms = 6;
  return c;
}

corpus::Corpus PetCorpus() {
  corpus::Corpus corpus;
  corpus.AddDocument(
      TV({"cat", "cat", "cat", "feline", "feline", "whisker", "purr"}));
  corpus.AddDocument(
      TV({"dog", "dog", "dog", "canine", "canine", "leash", "bark"}));
  corpus.AddDocument(TV({"pet", "pet", "cat", "dog", "food"}));
  return corpus;
}

TEST(TraceIntegrationTest, SearchSpanTreeSumsToTotalLatency) {
  corpus::Corpus corpus = PetCorpus();
  core::SpriteSystem system(SmallConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus).ok());
  system.mutable_tracer().set_enabled(true);
  system.ClearMetrics();
  ASSERT_TRUE(system.Search(Q(1, {"cat", "dog"}), 10, /*record=*/false).ok());

  // Exactly one retained trace: the search.
  ASSERT_EQ(system.tracer().num_retained(), 1u);
  const Trace* trace = system.tracer().Retained()[0];
  const Span* root = trace->root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "search");

  // Direct children: one route and one fetch per term, one rank.
  size_t routes = 0, fetches = 0, ranks = 0;
  double children_ms = 0.0;
  for (const Span& s : trace->spans) {
    if (s.parent_id != root->id) continue;
    children_ms += s.duration_ms();
    if (s.name == "route") ++routes;
    if (s.name == "fetch") {
      ++fetches;
      // The fetch span names the indexing peer that served the term.
      EXPECT_EQ(s.annotations.count("peer_id"), 1u);
      EXPECT_FALSE(s.peer.empty());
    }
    if (s.name == "rank") ++ranks;
  }
  EXPECT_EQ(routes, 2u);
  EXPECT_EQ(fetches, 2u);
  EXPECT_EQ(ranks, 1u);

  // Acceptance property: the span tree reproduces the latency metrics —
  // the clock only advances inside the phase children, so their summed
  // durations equal the root's duration and the recorded total.
  const Histogram* total = system.metrics().histogram(
      "latency.search.total_ms");
  ASSERT_NE(total, nullptr);
  ASSERT_EQ(total->count(), 1u);
  EXPECT_NEAR(children_ms, root->duration_ms(), 1e-6);
  EXPECT_NEAR(root->duration_ms(), total->Mean(), 1e-6);
  EXPECT_GT(total->Mean(), 0.0);

  // Route spans decompose into per-hop chord spans mirrored by the
  // chord.lookup_hops histogram.
  size_t hop_spans = 0;
  for (const Span& s : trace->spans) {
    if (s.name == "chord.hop") ++hop_spans;
  }
  const Histogram* hops = system.metrics().histogram("chord.lookup_hops");
  ASSERT_NE(hops, nullptr);
  EXPECT_EQ(static_cast<double>(hop_spans), hops->Mean() *
                                                static_cast<double>(
                                                    hops->count()));
}

TEST(TraceIntegrationTest, LearningAndMaintenanceProduceTraces) {
  corpus::Corpus corpus = PetCorpus();
  core::SpriteConfig config = SmallConfig();
  config.replication_factor = 1;
  core::SpriteSystem system(config);
  system.mutable_tracer().set_enabled(true);
  system.RecordQuery(Q(1, {"cat", "whisker"}));
  system.RecordQuery(Q(2, {"cat", "whisker"}));
  ASSERT_TRUE(system.ShareCorpus(corpus).ok());
  system.RunLearningIteration();
  system.ReplicateIndexes();
  (void)system.RunHeartbeats();

  bool saw_learning = false, saw_replication = false, saw_heartbeat = false;
  for (const Trace* trace : system.tracer().Retained()) {
    const Span* root = trace->root();
    ASSERT_NE(root, nullptr);
    if (root->name == "learning.iteration") saw_learning = true;
    if (root->name == "replication.run") saw_replication = true;
    if (root->name == "heartbeat.round") saw_heartbeat = true;
  }
  EXPECT_TRUE(saw_learning);
  EXPECT_TRUE(saw_replication);
  EXPECT_TRUE(saw_heartbeat);
}

// Runs an identical small workload on a fresh system and exports both
// trace formats.
std::pair<std::string, std::string> TracedRun(uint64_t seed) {
  corpus::Corpus corpus = PetCorpus();
  core::SpriteConfig config = SmallConfig();
  config.seed = seed;
  core::SpriteSystem system(config);
  system.mutable_tracer().set_enabled(true);
  system.RecordQuery(Q(1, {"cat", "dog"}));
  SPRITE_CHECK_OK(system.ShareCorpus(corpus));
  system.RunLearningIteration();
  (void)system.Search(Q(2, {"cat", "dog"}), 10);
  (void)system.Search(Q(3, {"feline", "pet"}), 10);
  return {system.tracer().ToPerfettoJson(), system.tracer().ToJsonl()};
}

TEST(TraceIntegrationTest, IdenticalSeedsYieldByteIdenticalDumps) {
  const auto [perfetto_a, jsonl_a] = TracedRun(/*seed=*/7);
  const auto [perfetto_b, jsonl_b] = TracedRun(/*seed=*/7);
  EXPECT_EQ(perfetto_a, perfetto_b);
  EXPECT_EQ(jsonl_a, jsonl_b);
  EXPECT_FALSE(jsonl_a.empty());
}

TEST(TraceIntegrationTest, RetentionStaysBoundedOnTheLiveSystem) {
  corpus::Corpus corpus = PetCorpus();
  core::SpriteSystem system(SmallConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus).ok());
  TraceOptions options;
  options.sample_every = 2;
  options.max_traces = 8;
  options.keep_slowest = 3;
  system.mutable_tracer().set_options(options);
  system.mutable_tracer().set_enabled(true);
  for (uint32_t i = 0; i < 50; ++i) {
    (void)system.Search(Q(i + 1, {"cat", "dog"}), 10, /*record=*/false);
  }
  EXPECT_EQ(system.tracer().num_started(), 50u);
  EXPECT_LE(system.tracer().num_retained(),
            options.max_traces + options.keep_slowest);
}

// --- Report edge cases --------------------------------------------------

TEST(TraceReportTest, EmptyTraceDumpIsARecognizedError) {
  std::vector<TraceSpanRecord> spans;
  std::string error;
  EXPECT_FALSE(ParseTraceDump("", &spans, &error));
  EXPECT_FALSE(error.empty());

  // A dump from an enabled tracer that never traced anything parses to
  // the same recognized error (header line only, no spans).
  Tracer t;
  t.set_enabled(true);
  spans.clear();
  error.clear();
  EXPECT_FALSE(ParseTraceDump(t.ToJsonl(), &spans, &error));
  EXPECT_FALSE(error.empty());

  // The renderer itself tolerates an empty span list without crashing.
  EXPECT_FALSE(RenderTraceReport({}, 5).empty());
}

TEST(TraceReportTest, SingleSpanTraceRendersItsFullDuration) {
  Tracer t;
  t.set_enabled(true);
  t.BeginSpan("lonely", "peer-x");
  t.clock().AdvanceMs(42.0);
  t.EndSpan();

  std::vector<TraceSpanRecord> spans;
  std::string error;
  ASSERT_TRUE(ParseTraceDump(t.ToJsonl(), &spans, &error)) << error;
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_DOUBLE_EQ(spans[0].dur_ms, 42.0);
  // With no children, the span's self time is its full duration.
  const std::string report = RenderTraceReport(spans, 1);
  EXPECT_NE(report.find("lonely"), std::string::npos);
  EXPECT_NE(report.find("peer-x"), std::string::npos);
  EXPECT_NE(report.find("42"), std::string::npos);
}

TEST(TraceReportTest, WrappedSlowestRingStillReportsTheSlowest) {
  TraceOptions options;
  options.sample_every = 1;
  options.max_traces = 2;
  options.keep_slowest = 2;
  Tracer t(options);
  t.set_enabled(true);
  // The slowest operations (90 ms, 70 ms) land early and mid-stream, so
  // the 2-entry sampling ring evicts them and the slowest-K reservoir
  // must replace its own contents as slower traces arrive ("wrap").
  const double durations[] = {10, 20, 90, 30, 15, 25, 70, 5, 12, 18};
  // Root name "search": the report's slowest-K section only considers
  // search operations.
  for (double d : durations) RunTrace(t, d, "search");
  EXPECT_LE(t.num_retained(), options.max_traces + options.keep_slowest);

  std::vector<TraceSpanRecord> spans;
  std::string error;
  ASSERT_TRUE(ParseTraceDump(t.ToJsonl(), &spans, &error)) << error;
  std::vector<double> root_durations;
  for (const TraceSpanRecord& s : spans) {
    if (s.parent_id == 0) root_durations.push_back(s.dur_ms);
  }
  EXPECT_LE(root_durations.size(), 4u);
  // The reservoir held on to exactly the two slowest operations.
  EXPECT_NE(std::find(root_durations.begin(), root_durations.end(), 90.0),
            root_durations.end());
  EXPECT_NE(std::find(root_durations.begin(), root_durations.end(), 70.0),
            root_durations.end());
  // And they survive into the rendered slowest-K section, slowest first.
  const std::string report = RenderTraceReport(spans, 2);
  const size_t at90 = report.find("90.0");
  const size_t at70 = report.find("70.0");
  EXPECT_NE(at90, std::string::npos);
  EXPECT_NE(at70, std::string::npos);
  EXPECT_LT(at90, at70);
}


// --- Live-tracing seams (DESIGN.md §16) -------------------------------------

TEST(WallClockTest, MonotoneAndOnTheRealtimeAxis) {
  WallClock clock;
  const double a = clock.now_ms();
  double b = a;
  for (int i = 0; i < 1000; ++i) b = clock.now_ms();
  EXPECT_GE(b, a);
  // Milliseconds since the Unix epoch: any plausible "now" is past 2001
  // (1e12 ms) — a cheap guard that the anchor really is realtime, not a
  // process-relative zero.
  EXPECT_GT(a, 1e12);
}

TEST(TracerTest, TimeSourceSeamSwapsAndRestores) {
  Tracer t;
  t.set_enabled(true);
  WallClock wall;
  t.set_time_source(&wall);
  EXPECT_GT(t.now_ms(), 1e12);
  t.set_time_source(nullptr);  // back to the embedded SimClock
  EXPECT_DOUBLE_EQ(t.now_ms(), 0.0);
  RunTrace(t, 3.0);
  ASSERT_EQ(t.num_retained(), 1u);
  EXPECT_DOUBLE_EQ(t.Retained()[0]->duration_ms(), 3.0);
}

TEST(TracerTest, ZeroSaltKeepsSequentialIds) {
  Tracer t;
  t.set_enabled(true);
  RunTrace(t, 1.0);
  ASSERT_EQ(t.num_retained(), 1u);
  const Trace* trace = t.Retained()[0];
  EXPECT_EQ(trace->id, 1u);
  ASSERT_EQ(trace->spans.size(), 2u);
  EXPECT_EQ(trace->spans[0].id, 1u);
  EXPECT_EQ(trace->spans[1].id, 2u);
}

TEST(TracerTest, SaltedIdsAreNonZero32BitAndSaltDependent) {
  Tracer a, b;
  a.set_enabled(true);
  b.set_enabled(true);
  a.set_id_salt(0x1111);
  b.set_id_salt(0x2222);
  RunTrace(a, 1.0);
  RunTrace(b, 1.0);
  ASSERT_EQ(a.num_retained(), 1u);
  ASSERT_EQ(b.num_retained(), 1u);
  const Trace* ta = a.Retained()[0];
  const Trace* tb = b.Retained()[0];
  EXPECT_NE(ta->id, 0u);
  EXPECT_LE(ta->id, 0xffffffffull);  // fits the wire's u32 context field
  EXPECT_NE(ta->id, tb->id);
  for (const Span& s : ta->spans) {
    EXPECT_NE(s.id, 0u);
    EXPECT_LE(s.id, 0xffffffffull);
    EXPECT_NE(s.id, ta->id);  // span and trace streams are disjoint
  }
}

TEST(TracerTest, SpanUnderARemoteParentAdoptsTraceAndParent) {
  Tracer t;
  t.set_enabled(true);
  const TraceContext ctx =
      t.BeginSpanUnder({/*trace_id=*/0xabcdu, /*span_id=*/55}, "serve.query",
                       "n1");
  EXPECT_TRUE(ctx.valid());
  EXPECT_EQ(ctx.trace_id, 0xabcdu);
  t.EndSpan(ctx);
  ASSERT_EQ(t.num_retained(), 1u);
  const Trace* trace = t.Retained()[0];
  EXPECT_EQ(trace->id, 0xabcdu);
  ASSERT_EQ(trace->spans.size(), 1u);
  // The adopted root is not a local root: its parent is the remote
  // caller's span, which is what lets the collector stitch the trees.
  EXPECT_EQ(trace->spans[0].parent_id, 55u);
}

TEST(TracerTest, ConcurrentTracesOpenAndCloseByContext) {
  Tracer t;
  t.set_enabled(true);
  // Two operations interleave, and a synchronous one runs on the stack
  // while both are open: no span nests under another operation's.
  const TraceContext a = t.BeginSpanUnder({}, "search", "n0");
  const TraceContext b = t.BeginSpanUnder({}, "search", "n0");
  ASSERT_TRUE(a.valid() && b.valid());
  EXPECT_NE(a.trace_id, b.trace_id);
  const TraceContext a_fetch = t.BeginSpanUnder(a, "fetch", "n0");
  t.clock().AdvanceMs(1.0);
  t.BeginSpan("serve.QueryRequest", "n0");
  t.EndSpan();
  ASSERT_EQ(t.num_retained(), 1u);
  EXPECT_EQ(t.Retained()[0]->id, 3u);  // its own trace
  EXPECT_EQ(t.Retained()[0]->spans.size(), 1u);
  const TraceContext b_fetch = t.BeginSpanUnder(b, "fetch", "n0");
  t.AnnotateSpan(b_fetch.span_id, "term", "peer");
  t.clock().AdvanceMs(2.0);
  t.EndSpan(a_fetch);
  t.EndSpan(a);
  EXPECT_EQ(t.num_retained(), 2u);  // the serve trace and a
  t.EndSpan(b);  // a root may close before its children
  EXPECT_EQ(t.num_retained(), 2u);
  t.EndSpan(b_fetch);
  ASSERT_EQ(t.num_retained(), 3u);
  EXPECT_EQ(t.num_started(), 3u);
  for (const Trace* trace : t.Retained()) {
    for (const Span& s : trace->spans) {
      EXPECT_EQ(s.trace_id, trace->id);
      if (s.name == "fetch") {
        EXPECT_EQ(s.parent_id, trace->spans[0].id);
        EXPECT_EQ(s.parent_id, trace->id == a.trace_id ? a.span_id : b.span_id);
      }
    }
  }
  const Trace* b_trace = t.Retained()[1];  // by start time, then id
  ASSERT_EQ(b_trace->id, b.trace_id);
  ASSERT_EQ(b_trace->spans.size(), 2u);
  EXPECT_EQ(b_trace->spans[1].annotations.at("term"), "peer");
  EXPECT_DOUBLE_EQ(b_trace->spans[1].duration_ms(), 2.0);
  // Unknown and invalid contexts are ignored.
  t.EndSpan(b_fetch);
  t.EndSpan(TraceContext{});
  EXPECT_EQ(t.num_retained(), 3u);
}

TEST(TracerTest, SpanUnderTheStackJoinsItsTraceAndMayOutliveIt) {
  Tracer t;
  t.set_enabled(true);
  const TraceContext root = t.BeginSpan("publish.term", "n0");
  const TraceContext call = t.BeginSpanUnder(root, "net.call", "n0");
  EXPECT_EQ(call.trace_id, root.trace_id);
  t.clock().AdvanceMs(1.0);
  t.EndSpan();  // the stack empties; the trace waits for its call
  EXPECT_EQ(t.num_retained(), 0u);
  EXPECT_FALSE(t.InActiveSpan());
  t.clock().AdvanceMs(2.0);
  t.EndSpan(call);
  ASSERT_EQ(t.num_retained(), 1u);
  const Trace* trace = t.Retained()[0];
  ASSERT_EQ(trace->spans.size(), 2u);
  EXPECT_EQ(trace->spans[1].parent_id, root.span_id);
  // The stack was untouched: EndSpan() closed the root, not the call.
  EXPECT_DOUBLE_EQ(trace->spans[0].duration_ms(), 1.0);
  EXPECT_DOUBLE_EQ(trace->spans[1].duration_ms(), 3.0);
  // A parent in no open trace is adopted like a remote one.
  const TraceContext adopted = t.BeginSpanUnder({0xabcd, 55}, "net.call", "n0");
  EXPECT_EQ(adopted.trace_id, 0xabcdu);
  t.EndSpan(adopted);
  ASSERT_EQ(t.num_retained(), 2u);
  EXPECT_EQ(t.Retained()[1]->spans[0].parent_id, 55u);
  // Disabling aborts open traces.
  const TraceContext open = t.BeginSpanUnder({}, "search", "n0");
  t.set_enabled(false);
  t.set_enabled(true);
  t.EndSpan(open);
  EXPECT_EQ(t.num_retained(), 2u);
}

TEST(TracerTest, DrainJsonlEmptiesRetentionAndKeepsStarted) {
  Tracer t;
  t.set_enabled(true);
  RunTrace(t, 1.0);
  RunTrace(t, 2.0);
  const std::string first = t.DrainJsonl();
  EXPECT_NE(first.find("\"traces_started\":2"), std::string::npos);
  EXPECT_NE(first.find("\"name\":\"op\""), std::string::npos);
  EXPECT_EQ(t.num_retained(), 0u);
  // The drain is destructive for spans but monotone for the counter.
  const std::string second = t.DrainJsonl();
  EXPECT_NE(second.find("\"traces_started\":2"), std::string::npos);
  EXPECT_EQ(second.find("\"name\""), std::string::npos);
  RunTrace(t, 1.0);
  EXPECT_NE(t.DrainJsonl().find("\"traces_started\":3"), std::string::npos);
}

}  // namespace
}  // namespace sprite::obs
