// Tests for the observability subsystem: the metrics registry (counters,
// gauges, histograms, labels), the JSON snapshot export the benches write,
// the simulated-latency model, and the SpriteSystem integration that feeds
// per-phase metrics from the live system.

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/sprite_system.h"
#include "corpus/corpus.h"
#include "ir/centralized_index.h"
#include "obs/explain.h"
#include "obs/latency_model.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "obs/slo.h"
#include "obs/timeseries.h"

namespace sprite::obs {
namespace {

TEST(MetricsRegistryTest, CountersAccumulate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.counter("requests"), 0u);
  reg.Add("requests");
  reg.Add("requests");
  reg.Add("requests", 5);
  EXPECT_EQ(reg.counter("requests"), 7u);
  EXPECT_EQ(reg.num_counters(), 1u);
}

TEST(MetricsRegistryTest, LabelsSplitMetricInstances) {
  MetricsRegistry reg;
  reg.Add("net.messages", "Query", 3);
  reg.Add("net.messages", "Publish", 1);
  reg.Add("net.messages", "Query", 2);
  EXPECT_EQ(reg.counter("net.messages", "Query"), 5u);
  EXPECT_EQ(reg.counter("net.messages", "Publish"), 1u);
  EXPECT_EQ(reg.counter("net.messages"), 0u);  // unlabeled is distinct
  EXPECT_EQ(reg.num_counters(), 2u);
}

TEST(MetricsRegistryTest, GaugesLastValueWins) {
  MetricsRegistry reg;
  reg.Set("peers.alive", 64.0);
  reg.Set("peers.alive", 63.0);
  EXPECT_DOUBLE_EQ(reg.gauge("peers.alive"), 63.0);
  EXPECT_DOUBLE_EQ(reg.gauge("missing"), 0.0);
}

TEST(MetricsRegistryTest, HistogramsRetainDistribution) {
  MetricsRegistry reg;
  for (int v = 1; v <= 100; ++v) {
    reg.Observe("latency", static_cast<double>(v));
  }
  const Histogram* h = reg.histogram("latency");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 100u);
  EXPECT_DOUBLE_EQ(h->Mean(), 50.5);
  EXPECT_EQ(reg.histogram("never-observed"), nullptr);
}

TEST(MetricsRegistryTest, SnapshotExposesAllKinds) {
  MetricsRegistry reg;
  reg.Add("c", 4);
  reg.Set("g", 2.5);
  reg.Observe("h", 1.0);
  reg.Observe("h", 3.0);

  MetricsSnapshot snap = reg.Snapshot();
  const CounterSample* c = snap.FindCounter("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 4u);

  const GaugeSample* g = snap.FindGauge("g");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->value, 2.5);

  const HistogramSample* h = snap.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_DOUBLE_EQ(h->sum, 4.0);
  EXPECT_DOUBLE_EQ(h->mean, 2.0);
  EXPECT_DOUBLE_EQ(h->min, 1.0);
  EXPECT_DOUBLE_EQ(h->max, 3.0);

  EXPECT_EQ(snap.FindCounter("absent"), nullptr);
  EXPECT_EQ(snap.FindGauge("absent"), nullptr);
  EXPECT_EQ(snap.FindHistogram("absent"), nullptr);
}

TEST(MetricsRegistryTest, SnapshotPercentilesAreExact) {
  MetricsRegistry reg;
  for (int v = 1; v <= 100; ++v) {
    reg.Observe("d", static_cast<double>(v));
  }
  MetricsSnapshot snap = reg.Snapshot();
  const HistogramSample* d = snap.FindHistogram("d");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->count, 100u);
  EXPECT_GE(d->p50, 50.0);
  EXPECT_LE(d->p50, 51.0);
  EXPECT_GE(d->p90, 90.0);
  EXPECT_DOUBLE_EQ(d->p95, 95.0);
  EXPECT_GE(d->p99, 99.0);
  EXPECT_LE(d->p99, 100.0);
}

TEST(MetricsRegistryTest, EraseByNameRemovesEveryLabel) {
  MetricsRegistry reg;
  reg.Add("net.messages", "Query", 3);
  reg.Add("net.messages", "Publish", 1);
  reg.Add("net.bytes", "Query", 64);
  reg.Set("net.messages", "gaugeish", 1.0);
  reg.Observe("net.messages", "histish", 2.0);
  reg.EraseByName("net.messages");
  EXPECT_EQ(reg.counter("net.messages", "Query"), 0u);
  EXPECT_EQ(reg.counter("net.messages", "Publish"), 0u);
  EXPECT_EQ(reg.counter("net.bytes", "Query"), 64u);  // untouched
  EXPECT_DOUBLE_EQ(reg.gauge("net.messages", "gaugeish"), 0.0);
  EXPECT_EQ(reg.histogram("net.messages", "histish"), nullptr);
}

TEST(MetricsRegistryTest, ClearResetsEverything) {
  MetricsRegistry reg;
  reg.Add("c");
  reg.Set("g", 1.0);
  reg.Observe("h", 1.0);
  reg.Clear();
  EXPECT_EQ(reg.num_counters(), 0u);
  EXPECT_EQ(reg.num_gauges(), 0u);
  EXPECT_EQ(reg.num_histograms(), 0u);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(MetricsSnapshotTest, ToJsonContainsAllSections) {
  MetricsRegistry reg;
  reg.Add("search.queries", 3);
  reg.Add("net.messages", "Query", 7);
  reg.Set("peers.alive", 16.0);
  reg.Observe("latency.search.total_ms", 120.0);

  const std::string json = reg.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"search.queries\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":3"), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"Query\""), std::string::npos);
  EXPECT_NE(json.find("\"peers.alive\""), std::string::npos);
  EXPECT_NE(json.find("\"latency.search.total_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  // Unlabeled metrics omit the label field entirely.
  EXPECT_EQ(json.find("\"label\":\"\""), std::string::npos);
}

TEST(MetricsSnapshotTest, ToJsonEscapesStrings) {
  MetricsRegistry reg;
  reg.Add("weird\"name\\with\ncontrols", 1);
  const std::string json = reg.Snapshot().ToJson();
  EXPECT_NE(json.find("weird\\\"name\\\\with\\ncontrols"), std::string::npos);
}

TEST(MetricsSnapshotTest, EmptyRegistryProducesValidSkeleton) {
  MetricsRegistry reg;
  const std::string json = reg.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\": ["), std::string::npos);
  EXPECT_NE(json.find("\"gauges\": ["), std::string::npos);
  EXPECT_NE(json.find("\"histograms\": ["), std::string::npos);
  EXPECT_EQ(json.find("{\"name\""), std::string::npos);  // no entries
}

TEST(MetricsSnapshotTest, WriteJsonFileRoundTrips) {
  MetricsRegistry reg;
  reg.Add("x", 42);
  const std::string json = reg.Snapshot().ToJson();
  const std::string path =
      ::testing::TempDir() + "/sprite_obs_test_metrics.json";
  ASSERT_TRUE(WriteJsonFile(path, json));

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string read_back(json.size(), '\0');
  const size_t n = std::fread(read_back.data(), 1, read_back.size(), f);
  std::fclose(f);
  std::remove(path.c_str());
  ASSERT_EQ(n, json.size());
  EXPECT_EQ(read_back, json);
}

// Count/sum/percentile consistency of a histogram snapshot on a fully
// known distribution (the integers 1..100). The nearest-rank percentile
// definition makes every expected value exact.
TEST(MetricsRegistryTest, HistogramSnapshotConsistentOnKnownDistribution) {
  MetricsRegistry reg;
  for (int v = 1; v <= 100; ++v) {
    reg.Observe("d", static_cast<double>(v));
  }
  const MetricsSnapshot snap = reg.Snapshot();
  const HistogramSample* d = snap.FindHistogram("d");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->count, 100u);
  EXPECT_DOUBLE_EQ(d->sum, 5050.0);
  EXPECT_DOUBLE_EQ(d->mean, d->sum / static_cast<double>(d->count));
  EXPECT_DOUBLE_EQ(d->min, 1.0);
  EXPECT_DOUBLE_EQ(d->max, 100.0);
  EXPECT_DOUBLE_EQ(d->p50, 50.0);
  EXPECT_DOUBLE_EQ(d->p90, 90.0);
  EXPECT_DOUBLE_EQ(d->p95, 95.0);
  EXPECT_DOUBLE_EQ(d->p99, 99.0);
  // Percentiles are monotone and bounded by the observed extremes.
  EXPECT_LE(d->min, d->p50);
  EXPECT_LE(d->p50, d->p90);
  EXPECT_LE(d->p90, d->p95);
  EXPECT_LE(d->p95, d->p99);
  EXPECT_LE(d->p99, d->max);
}

TEST(LoadSkewTest, MaxMeanRatioBasics) {
  EXPECT_DOUBLE_EQ(MaxMeanRatio({}), 0.0);
  EXPECT_DOUBLE_EQ(MaxMeanRatio({0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(MaxMeanRatio({2.0, 2.0, 2.0}), 1.0);
  EXPECT_DOUBLE_EQ(MaxMeanRatio({0.0, 0.0, 4.0}), 3.0);
}

TEST(LoadSkewTest, GiniCoefficientBasics) {
  EXPECT_DOUBLE_EQ(GiniCoefficient({}), 0.0);
  EXPECT_DOUBLE_EQ(GiniCoefficient({0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(GiniCoefficient({5.0, 5.0, 5.0, 5.0}), 0.0);
  // One peer carries everything: (2*4*4)/(4*4) - 5/4 = 0.75.
  EXPECT_DOUBLE_EQ(GiniCoefficient({0.0, 0.0, 0.0, 4.0}), 0.75);
  // Skew is order-independent.
  EXPECT_DOUBLE_EQ(GiniCoefficient({4.0, 0.0, 0.0, 0.0}), 0.75);
  // More even distributions score lower.
  EXPECT_LT(GiniCoefficient({1.0, 2.0, 3.0, 4.0}),
            GiniCoefficient({0.0, 0.0, 1.0, 9.0}));
}

TEST(LatencyModelTest, ComponentsAreAdditiveAndLinear) {
  LatencyParams p;
  p.hop_rtt_ms = 40.0;
  p.bandwidth_bytes_per_sec = 1e6;  // 1000 bytes per ms
  p.rank_ms_per_posting = 0.01;
  LatencyModel model(p);

  EXPECT_DOUBLE_EQ(model.HopsMs(0), 0.0);
  EXPECT_DOUBLE_EQ(model.HopsMs(3), 120.0);
  EXPECT_DOUBLE_EQ(model.RequestMs(2), 80.0);
  EXPECT_DOUBLE_EQ(model.TransferMs(500000), 500.0);
  EXPECT_DOUBLE_EQ(model.RankMs(200), 2.0);
  EXPECT_DOUBLE_EQ(model.OperationMs(3, 2, 500000),
                   model.HopsMs(3) + model.RequestMs(2) +
                       model.TransferMs(500000));
}

TEST(LatencyModelTest, ZeroBandwidthMeansFreeTransfer) {
  LatencyParams p;
  p.bandwidth_bytes_per_sec = 0.0;
  LatencyModel model(p);
  EXPECT_DOUBLE_EQ(model.TransferMs(1 << 20), 0.0);
}

TEST(LatencyModelTest, DefaultsMatchConfigDefaults) {
  core::SpriteConfig config;
  LatencyParams p;
  EXPECT_DOUBLE_EQ(config.hop_rtt_ms, p.hop_rtt_ms);
  EXPECT_DOUBLE_EQ(config.bandwidth_bytes_per_sec, p.bandwidth_bytes_per_sec);
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

class ObsIntegrationTest : public ::testing::Test {
 protected:
  ObsIntegrationTest() {
    corpus_.AddDocument(TV({"cat", "cat", "cat", "feline", "feline",
                            "whisker", "purr"}));
    corpus_.AddDocument(TV({"dog", "dog", "dog", "canine", "canine",
                            "leash", "bark"}));
    corpus_.AddDocument(TV({"pet", "pet", "cat", "dog", "food"}));
  }

  corpus::Corpus corpus_;
};

TEST_F(ObsIntegrationTest, SearchFeedsPhaseMetrics) {
  core::SpriteSystem system(SmallConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  ASSERT_TRUE(system.Search(Q(1, {"cat", "dog"}), 10).ok());
  ASSERT_TRUE(system.Search(Q(2, {"feline"}), 10).ok());

  const MetricsRegistry& m = system.metrics();
  EXPECT_EQ(m.counter("search.queries"), 2u);
  const Histogram* total = m.histogram("latency.search.total_ms");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count(), 2u);
  ASSERT_NE(m.histogram("latency.search.route_ms"), nullptr);
  ASSERT_NE(m.histogram("latency.search.fetch_ms"), nullptr);
  ASSERT_NE(m.histogram("latency.search.rank_ms"), nullptr);
  // Fetch involves at least one request round trip per query.
  EXPECT_GT(m.histogram("latency.search.fetch_ms")->Mean(), 0.0);
  ASSERT_NE(m.histogram("search.postings_fetched"), nullptr);
  EXPECT_GT(m.histogram("search.postings_fetched")->Mean(), 0.0);
}

TEST_F(ObsIntegrationTest, LearningFeedsPollMetrics) {
  core::SpriteSystem system(SmallConfig());
  system.RecordQuery(Q(1, {"cat", "whisker"}));
  system.RecordQuery(Q(2, {"cat", "whisker"}));
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  system.ClearMetrics();
  system.RunLearningIteration();

  const MetricsRegistry& m = system.metrics();
  EXPECT_EQ(m.counter("learning.iterations"), 1u);
  EXPECT_GT(m.counter("learning.polls"), 0u);
  EXPECT_GT(m.counter("learning.pulled_queries"), 0u);
  EXPECT_GT(m.counter("learning.terms_added"), 0u);
  ASSERT_NE(m.histogram("latency.learning.poll_ms"), nullptr);
}

TEST_F(ObsIntegrationTest, MaintenanceFeedsMetricsAndGauges) {
  core::SpriteConfig config = SmallConfig();
  config.replication_factor = 1;
  core::SpriteSystem system(config);
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());

  const MetricsRegistry& m = system.metrics();
  EXPECT_DOUBLE_EQ(m.gauge("peers.alive"), 16.0);
  EXPECT_DOUBLE_EQ(m.gauge("peers.total"), 16.0);

  system.ReplicateIndexes();
  EXPECT_GT(m.counter("replication.pushes"), 0u);
  ASSERT_NE(m.histogram("latency.replication.push_ms"), nullptr);

  const size_t probes = system.RunHeartbeats();
  EXPECT_EQ(m.counter("heartbeat.probes"), probes);
  EXPECT_EQ(m.counter("heartbeat.rounds"), 1u);
  ASSERT_NE(m.histogram("latency.heartbeat.round_ms"), nullptr);

  // Network traffic is mirrored per message type.
  EXPECT_GT(m.counter("net.messages", "Replicate"), 0u);
  EXPECT_GT(m.counter("net.bytes", "Heartbeat"), 0u);

  // Failing a peer moves the gauge and counts the event.
  ASSERT_TRUE(system.FailPeer(system.ring().AliveIds().front()).ok());
  EXPECT_DOUBLE_EQ(m.gauge("peers.alive"), 15.0);
  EXPECT_EQ(m.counter("peers.failed"), 1u);
}

TEST_F(ObsIntegrationTest, ChordLookupsAreMirrored) {
  core::SpriteSystem system(SmallConfig());
  system.ClearMetrics();
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  const MetricsRegistry& m = system.metrics();
  EXPECT_GT(m.counter("chord.lookups"), 0u);
  const Histogram* hops = m.histogram("chord.lookup_hops");
  ASSERT_NE(hops, nullptr);
  EXPECT_GT(hops->count(), 0u);
}

// Regression: the bus's traffic ledger and its mirrored net.* counters
// must reset together — a bench that calls ClearNetworkStats() between
// phases used to leave the registry still holding the pre-reset totals.
TEST_F(ObsIntegrationTest, ClearNetworkStatsResetsMirrorCounters) {
  core::SpriteSystem system(SmallConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  const MetricsRegistry& m = system.metrics();
  ASSERT_GT(system.network_stats().TotalFrames(), 0u);
  ASSERT_GT(m.counter("net.messages", "PublishTerm"), 0u);

  system.ClearNetworkStats();
  EXPECT_EQ(system.network_stats().TotalFrames(), 0u);
  EXPECT_EQ(system.network_stats().TotalBytes(), 0u);
  MetricsSnapshot snap = system.metrics().Snapshot();
  for (const CounterSample& c : snap.counters) {
    EXPECT_NE(c.id.name, "net.messages") << c.id.label;
    EXPECT_NE(c.id.name, "net.bytes") << c.id.label;
  }

  // Both views agree again after new traffic.
  ASSERT_TRUE(system.Search(Q(9, {"cat", "dog"}), 10).ok());
  uint64_t mirrored = 0;
  for (const CounterSample& c : system.metrics().Snapshot().counters) {
    if (c.id.name == "net.messages") mirrored += c.value;
  }
  EXPECT_EQ(mirrored, system.network_stats().TotalFrames());
}

// Same story for the chord.* mirrors behind ChordRing::ClearStats().
TEST_F(ObsIntegrationTest, ClearRingStatsResetsMirrorCounters) {
  core::SpriteSystem system(SmallConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  ASSERT_GT(system.metrics().counter("chord.lookups"), 0u);
  system.mutable_ring().ClearStats();
  EXPECT_EQ(system.ring().stats().lookups, 0u);
  EXPECT_EQ(system.metrics().counter("chord.lookups"), 0u);
  EXPECT_EQ(system.metrics().counter("chord.failed_lookups"), 0u);
  EXPECT_EQ(system.metrics().histogram("chord.lookup_hops"), nullptr);
}

// And for the cache.* mirrors: ClearMetrics() must zero the CacheManager
// stats together with the mirrored counters — while keeping the cached
// contents warm, with the occupancy gauges still reflecting them.
TEST_F(ObsIntegrationTest, ClearMetricsResetsCacheMirrorsButKeepsContents) {
  core::SpriteConfig config = SmallConfig();
  config.cache = core::CacheMode::kOn;
  core::SpriteSystem system(config);
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  // 20 issuances over 16 peers: the pigeonhole guarantees hits.
  for (uint32_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(system.Search(Q(1, {"cat", "dog"}), 10, false).ok());
  }
  const cache::CacheManager& cm = system.query_cache();
  const cache::CacheTierStats& rs = cm.stats(cache::CacheTier::kResult);
  ASSERT_GT(rs.hits, 0u);
  ASSERT_EQ(system.metrics().counter("cache.result.hits"), rs.hits);
  ASSERT_EQ(system.metrics().counter("cache.result.lookups"), rs.lookups);
  const size_t entries = cm.entries(cache::CacheTier::kResult);
  ASSERT_GT(entries, 0u);

  system.ClearMetrics();

  EXPECT_EQ(rs.lookups, 0u);
  EXPECT_EQ(rs.hits, 0u);
  EXPECT_EQ(cm.stats(cache::CacheTier::kPosting).lookups, 0u);
  EXPECT_EQ(system.metrics().counter("cache.result.lookups"), 0u);
  EXPECT_EQ(system.metrics().counter("cache.result.hits"), 0u);
  EXPECT_EQ(system.metrics().counter("cache.posting.lookups"), 0u);
  // Contents survive: same occupancy, gauges republished, and the very
  // next issuance can still hit without refilling.
  EXPECT_EQ(cm.entries(cache::CacheTier::kResult), entries);
  EXPECT_DOUBLE_EQ(system.metrics().gauge("cache.result.entries"),
                   static_cast<double>(entries));

  for (uint32_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(system.Search(Q(2, {"cat", "dog"}), 10, false).ok());
  }
  EXPECT_GT(rs.hits, 0u);
  EXPECT_EQ(system.metrics().counter("cache.result.hits"), rs.hits);
  EXPECT_EQ(system.metrics().counter("cache.result.lookups"), rs.lookups);
}

// ClearMetrics wipes every view at once and restores the membership
// gauges, so post-clear snapshots stay truthful.
TEST_F(ObsIntegrationTest, ClearMetricsLeavesViewsConsistent) {
  core::SpriteSystem system(SmallConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  ASSERT_TRUE(system.Search(Q(1, {"cat"}), 10).ok());
  system.ClearMetrics();
  EXPECT_EQ(system.metrics().counter("search.queries"), 0u);
  EXPECT_EQ(system.network_stats().TotalFrames(), 0u);
  EXPECT_EQ(system.ring().stats().lookups, 0u);
  EXPECT_DOUBLE_EQ(system.metrics().gauge("peers.alive"), 16.0);
  EXPECT_DOUBLE_EQ(system.metrics().gauge("peers.total"), 16.0);
}

TEST_F(ObsIntegrationTest, ExportLoadMetricsPublishesGaugesAndSkew) {
  core::SpriteSystem system(SmallConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  ASSERT_TRUE(system.Search(Q(1, {"cat", "dog"}), 10).ok());
  ASSERT_TRUE(system.Search(Q(2, {"cat"}), 10).ok());
  system.ExportLoadMetrics();

  const MetricsRegistry& m = system.metrics();
  EXPECT_GT(m.gauge("load.postings.max"), 0.0);
  EXPECT_GT(m.gauge("load.postings.mean"), 0.0);
  EXPECT_GE(m.gauge("load.postings.max_mean_ratio"), 1.0);
  EXPECT_GE(m.gauge("load.postings.gini"), 0.0);
  EXPECT_GT(m.gauge("load.queries.max"), 0.0);
  EXPECT_GE(m.gauge("load.queries.max_mean_ratio"), 1.0);

  // Per-peer gauges are labeled peer-<id>.
  MetricsSnapshot snap = m.Snapshot();
  size_t labeled = 0;
  for (const GaugeSample& g : snap.gauges) {
    if (g.id.name == "load.postings" && !g.id.label.empty()) ++labeled;
  }
  EXPECT_GT(labeled, 0u);
}

// The posting-store byte gauges (ISSUE 9): raw vs encoded resident bytes
// per peer plus cluster totals and their quotient, published alongside the
// other load.* gauges and — per the §8 reset audit — erased with them by
// ClearMetrics().
TEST_F(ObsIntegrationTest, ExportLoadMetricsPublishesCompressionGauges) {
  core::SpriteSystem system(SmallConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  system.ExportLoadMetrics();

  const MetricsRegistry& m = system.metrics();
  const double raw = m.gauge("load.posting_bytes_raw.total");
  const double encoded = m.gauge("load.posting_bytes_encoded.total");
  EXPECT_GT(raw, 0.0);
  EXPECT_GT(encoded, 0.0);
  // Raw charges sizeof(PostingEntry) per posting; short lists are stored
  // raw and long ones shrink, so encoded never exceeds raw.
  EXPECT_LE(encoded, raw);
  EXPECT_GE(m.gauge("load.posting_compression_ratio"), 1.0);

  const auto labeled_count = [&system](const char* name) {
    size_t count = 0;
    for (const GaugeSample& g : system.metrics().Snapshot().gauges) {
      if (g.id.name == name && !g.id.label.empty()) ++count;
    }
    return count;
  };
  EXPECT_GT(labeled_count("load.posting_bytes_raw"), 0u);
  EXPECT_GT(labeled_count("load.posting_bytes_encoded"), 0u);

  system.ClearMetrics();
  EXPECT_EQ(m.gauge("load.posting_bytes_raw.total"), 0.0);
  EXPECT_EQ(m.gauge("load.posting_bytes_encoded.total"), 0.0);
  EXPECT_EQ(m.gauge("load.posting_compression_ratio"), 0.0);
  EXPECT_EQ(labeled_count("load.posting_bytes_raw"), 0u);
  EXPECT_EQ(labeled_count("load.posting_bytes_encoded"), 0u);
}

// --- Time-series recorder ----------------------------------------------

TEST(TimeSeriesTest, DisabledCaptureIsNoOp) {
  MetricsRegistry reg;
  reg.Add("c", 3);
  TimeSeriesRecorder rec;
  EXPECT_EQ(rec.Capture(reg.Snapshot(), 0, 0.0, "x"), nullptr);
  EXPECT_TRUE(rec.points().empty());
  EXPECT_EQ(rec.num_captured(), 0u);
}

TEST(TimeSeriesTest, CapturesUnlabeledMetricsWithCounterDeltas) {
  MetricsRegistry reg;
  reg.Add("c", 5);
  reg.Add("c", "some-label", 99);  // labeled: never captured
  reg.Set("g", 1.5);
  reg.Observe("h", 10.0);
  MetricsRegistry mirror;
  TimeSeriesRecorder rec;
  rec.AttachMetrics(&mirror);
  rec.set_enabled(true);

  const TimeSeriesPoint* p1 = rec.Capture(reg.Snapshot(), 1, 100.0, "a");
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(p1->index, 0u);
  EXPECT_EQ(p1->round, 1u);
  EXPECT_DOUBLE_EQ(p1->sim_time_ms, 100.0);
  EXPECT_EQ(p1->label, "a");
  ASSERT_EQ(p1->counters.count("c"), 1u);
  EXPECT_EQ(p1->counters.at("c"), 5u);
  EXPECT_DOUBLE_EQ(p1->gauges.at("g"), 1.5);
  EXPECT_EQ(p1->histograms.at("h").count, 1u);
  EXPECT_EQ(p1->counters.size(), 1u);  // the labeled instance is excluded

  reg.Add("c", 2);
  const TimeSeriesPoint* p2 = rec.Capture(reg.Snapshot(), 2, 200.0, "b");
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(p2->counters.at("c"), 7u);
  EXPECT_EQ(mirror.counter("timeseries.points"), 2u);

  const std::string jsonl = rec.ToJsonl();
  EXPECT_NE(jsonl.find("\"format\":\"sprite-timeseries-jsonl\""),
            std::string::npos);
  // Cumulative + delta views: the second point gained 2 on 'c'.
  EXPECT_NE(jsonl.find("\"total\":7,\"delta\":2"), std::string::npos);
  // First point's delta equals its total.
  EXPECT_NE(jsonl.find("\"total\":5,\"delta\":5"), std::string::npos);
}

TEST(TimeSeriesTest, SelectionListsRestrictCapture) {
  MetricsRegistry reg;
  reg.Add("keep", 1);
  reg.Add("drop", 1);
  reg.Set("keep.g", 1.0);
  reg.Set("drop.g", 2.0);
  TimeSeriesOptions options;
  options.counters = {"keep"};
  options.gauges = {"keep.g"};
  TimeSeriesRecorder rec(options);
  rec.set_enabled(true);
  const TimeSeriesPoint* p = rec.Capture(reg.Snapshot(), 0, 0.0, "");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->counters.count("keep"), 1u);
  EXPECT_EQ(p->counters.count("drop"), 0u);
  EXPECT_EQ(p->gauges.count("keep.g"), 1u);
  EXPECT_EQ(p->gauges.count("drop.g"), 0u);
}

TEST(TimeSeriesTest, RingRetentionEvictsOldestAndClearResets) {
  MetricsRegistry reg;
  reg.Add("c", 1);
  MetricsRegistry mirror;
  TimeSeriesOptions options;
  options.capacity = 2;
  TimeSeriesRecorder rec(options);
  rec.AttachMetrics(&mirror);
  rec.set_enabled(true);
  for (uint64_t i = 0; i < 3; ++i) {
    reg.Add("c", 1);
    ASSERT_NE(rec.Capture(reg.Snapshot(), i, 0.0, "p"), nullptr);
  }
  ASSERT_EQ(rec.points().size(), 2u);
  EXPECT_EQ(rec.num_captured(), 3u);
  EXPECT_EQ(rec.points().front().index, 1u);  // index 0 evicted
  EXPECT_EQ(rec.points().back().index, 2u);
  EXPECT_EQ(mirror.counter("timeseries.points"), 3u);

  rec.Clear();
  EXPECT_TRUE(rec.points().empty());
  EXPECT_EQ(rec.num_captured(), 0u);
  EXPECT_EQ(mirror.counter("timeseries.points"), 0u);
  EXPECT_TRUE(rec.enabled());  // configuration survives the reset

  // The sequence restarts from zero, as a fresh epoch.
  ASSERT_NE(rec.Capture(reg.Snapshot(), 9, 0.0, "q"), nullptr);
  EXPECT_EQ(rec.points().front().index, 0u);
}

TEST(TimeSeriesTest, CsvHasStableColumnsAndEmptyCells) {
  MetricsRegistry reg;
  reg.Add("c", 4);
  TimeSeriesRecorder rec;
  rec.set_enabled(true);
  ASSERT_NE(rec.Capture(reg.Snapshot(), 0, 1.0, "one"), nullptr);
  reg.Set("late.g", 7.0);  // appears only from the second point on
  ASSERT_NE(rec.Capture(reg.Snapshot(), 1, 2.0, "two"), nullptr);
  const std::string csv = rec.ToCsv();
  EXPECT_EQ(csv.rfind("index,round,sim_time_ms,label", 0), 0u);
  EXPECT_NE(csv.find("c.c,c.c.delta"), std::string::npos);
  EXPECT_NE(csv.find("g.late.g"), std::string::npos);
  // Three lines: header + two points.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

// --- SLO watchdog -------------------------------------------------------

TimeSeriesPoint MakePoint(uint64_t index, double recall, uint64_t queries) {
  TimeSeriesPoint p;
  p.index = index;
  p.round = index;
  p.gauges["bench.recall_ratio"] = recall;
  p.counters["search.queries"] = queries;
  HistogramView h;
  h.count = 10;
  h.p95 = 120.0;
  p.histograms["latency.search.total_ms"] = h;
  return p;
}

TEST(SloTest, ResolveTimeSeriesMetricFindsEveryKind) {
  TimeSeriesPoint p = MakePoint(0, 0.8, 42);
  double v = 0.0;
  ASSERT_TRUE(ResolveTimeSeriesMetric(p, "bench.recall_ratio", &v));
  EXPECT_DOUBLE_EQ(v, 0.8);
  ASSERT_TRUE(ResolveTimeSeriesMetric(p, "search.queries", &v));
  EXPECT_DOUBLE_EQ(v, 42.0);
  ASSERT_TRUE(ResolveTimeSeriesMetric(p, "latency.search.total_ms.p95", &v));
  EXPECT_DOUBLE_EQ(v, 120.0);
  ASSERT_TRUE(ResolveTimeSeriesMetric(p, "latency.search.total_ms.count", &v));
  EXPECT_DOUBLE_EQ(v, 10.0);
  EXPECT_FALSE(ResolveTimeSeriesMetric(p, "absent", &v));
  EXPECT_FALSE(ResolveTimeSeriesMetric(p, "latency.search.total_ms.p42", &v));
}

TEST(SloTest, UpperBoundFiresOnlyAboveThreshold) {
  SloWatchdog dog;
  dog.AddRule({"p95-budget", "latency.search.total_ms.p95",
               SloRuleKind::kUpperBound, 150.0});
  TimeSeriesPoint ok = MakePoint(0, 0.8, 1);
  EXPECT_EQ(dog.Evaluate(ok, nullptr), 0u);
  TimeSeriesPoint slow = MakePoint(1, 0.8, 2);
  slow.histograms["latency.search.total_ms"].p95 = 151.0;
  EXPECT_EQ(dog.Evaluate(slow, &ok), 1u);
  ASSERT_EQ(dog.alerts().size(), 1u);
  EXPECT_EQ(dog.alerts()[0].rule, "p95-budget");
  EXPECT_DOUBLE_EQ(dog.alerts()[0].value, 151.0);
  EXPECT_FALSE(dog.alerts()[0].has_previous);
}

TEST(SloTest, DeltaDropComparesAgainstPrevious) {
  SloWatchdog dog;
  dog.AddRule({"recall-drop", "bench.recall_ratio", SloRuleKind::kDeltaDrop,
               0.05});
  TimeSeriesPoint first = MakePoint(0, 0.80, 1);
  // No previous point: delta rules cannot fire at the first capture.
  EXPECT_EQ(dog.Evaluate(first, nullptr), 0u);
  TimeSeriesPoint dip = MakePoint(1, 0.70, 2);
  EXPECT_EQ(dog.Evaluate(dip, &first), 1u);
  ASSERT_EQ(dog.alerts().size(), 1u);
  EXPECT_TRUE(dog.alerts()[0].has_previous);
  EXPECT_DOUBLE_EQ(dog.alerts()[0].previous, 0.80);
  EXPECT_DOUBLE_EQ(dog.alerts()[0].value, 0.70);
  // A small dip within the threshold stays quiet.
  TimeSeriesPoint small = MakePoint(2, 0.66, 3);
  EXPECT_EQ(dog.Evaluate(small, &dip), 0u);
}

TEST(SloTest, NegativeDeltaDropThresholdAssertsImprovement) {
  // threshold -0.02 means "fire unless the metric improved by > 0.02" —
  // the convergence watchdog tools/ci.sh arms on the Fig. 4(a) curve.
  SloWatchdog dog;
  dog.AddRule({"must-improve", "bench.recall_ratio", SloRuleKind::kDeltaDrop,
               -0.02});
  TimeSeriesPoint a = MakePoint(0, 0.60, 1);
  TimeSeriesPoint improved = MakePoint(1, 0.70, 2);
  EXPECT_EQ(dog.Evaluate(improved, &a), 0u);
  TimeSeriesPoint flat = MakePoint(2, 0.71, 3);
  EXPECT_EQ(dog.Evaluate(flat, &improved), 1u);  // +0.01 < required +0.02
}

TEST(SloTest, SpikeFiresOnRise) {
  SloWatchdog dog;
  dog.AddRule({"stale-spike", "search.queries", SloRuleKind::kSpike, 5.0});
  TimeSeriesPoint a = MakePoint(0, 0.8, 10);
  TimeSeriesPoint b = MakePoint(1, 0.8, 14);
  EXPECT_EQ(dog.Evaluate(b, &a), 0u);  // +4 <= 5
  TimeSeriesPoint c = MakePoint(2, 0.8, 20);
  EXPECT_EQ(dog.Evaluate(c, &b), 1u);  // +6 > 5
}

TEST(SloTest, AlertsMirroredIntoRegistryAndCleared) {
  MetricsRegistry reg;
  SloWatchdog dog;
  dog.AttachMetrics(&reg);
  dog.AddRule({"bound", "bench.recall_ratio", SloRuleKind::kUpperBound, 0.5});
  TimeSeriesPoint p = MakePoint(0, 0.9, 1);
  EXPECT_EQ(dog.Evaluate(p, nullptr), 1u);
  EXPECT_EQ(reg.counter("slo.alerts"), 1u);
  EXPECT_EQ(reg.counter("slo.alerts", "bound"), 1u);
  EXPECT_NE(dog.ToJsonl().find("\"format\":\"sprite-slo-jsonl\""),
            std::string::npos);

  dog.ClearAlerts();
  EXPECT_TRUE(dog.alerts().empty());
  EXPECT_EQ(reg.counter("slo.alerts"), 0u);
  EXPECT_EQ(reg.counter("slo.alerts", "bound"), 0u);
  // §8: resets clear state, not configuration.
  EXPECT_EQ(dog.rules().size(), 1u);
}

// --- Explain ledger + miss attribution + §8 reset audit -----------------

core::SpriteConfig TelemetryConfig() {
  core::SpriteConfig c = SmallConfig();
  c.enable_timeseries = true;
  c.enable_explain = true;
  return c;
}

TEST_F(ObsIntegrationTest, ExplainDecomposesSearch) {
  core::SpriteSystem system(TelemetryConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  ASSERT_TRUE(system.Search(Q(1, {"cat", "dog"}), 10).ok());

  const SearchExplain* ex = system.explainer().latest_search();
  ASSERT_NE(ex, nullptr);
  EXPECT_EQ(ex->query, "cat dog");
  EXPECT_FALSE(ex->served_from_result_cache);
  ASSERT_EQ(ex->terms.size(), 2u);
  for (const TermExplain& t : ex->terms) {
    EXPECT_FALSE(t.skipped);
    EXPECT_NE(t.peer, 0u);
    EXPECT_GT(t.indexed_df, 0u);  // both terms are initially indexed
    EXPECT_GT(t.idf, 0.0);
  }
  ASSERT_FALSE(ex->candidates.empty());
  for (const CandidateExplain& c : ex->candidates) {
    EXPECT_GT(c.score, 0.0);
    // The normalization denominator: the doc's distinct terms, at least
    // as many as the query terms that matched it.
    EXPECT_GE(c.distinct_terms, c.contributions.size());
    ASSERT_FALSE(c.contributions.empty());
    for (const auto& [term, w] : c.contributions) {
      EXPECT_TRUE(term == "cat" || term == "dog") << term;
      EXPECT_GT(w, 0.0);
    }
  }
  EXPECT_EQ(system.metrics().counter("explain.searches"), 1u);
}

TEST_F(ObsIntegrationTest, ExplainLedgerRecordsPublishAndWithdraw) {
  core::SpriteConfig config = TelemetryConfig();
  config.max_index_terms = 2;       // at the cap: adding forces eviction
  config.terms_per_iteration = 1;
  core::SpriteSystem system(config);
  // The query must share an indexed term ("cat") with doc 0: owners only
  // discover queries by polling the peers of their *indexed* terms, so a
  // pure-"whisker" query would sit at peer(whisker), never polled.
  system.RecordQuery(Q(1, {"cat", "whisker"}));
  system.RecordQuery(Q(2, {"cat", "whisker"}));
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  system.RunLearningIteration();

  const auto& decisions = system.explainer().decisions();
  ASSERT_FALSE(decisions.empty());
  bool published_whisker = false, withdrew_initial = false;
  for (const LearningDecision& d : decisions) {
    EXPECT_EQ(d.round, 1u);
    if (d.verdict == "publish" && d.term == "whisker") {
      published_whisker = true;
      EXPECT_GT(d.qscore, 0.0);
      EXPECT_GE(d.query_freq, 2u);
      EXPECT_GE(d.score, 0.0);  // Score(t,D) = qScore * log10(QF)
    }
    if (d.verdict == "withdraw") {
      withdrew_initial = true;
      // The evicted term was never queried: the learner's -1 sentinel.
      EXPECT_LT(d.score, 0.0);
    }
  }
  EXPECT_TRUE(published_whisker);
  EXPECT_TRUE(withdrew_initial);
  EXPECT_EQ(system.metrics().counter("explain.decisions"),
            decisions.size());
}

TEST_F(ObsIntegrationTest, MissAttributionNeverIndexed) {
  core::SpriteSystem system(TelemetryConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  // "purr" is below doc 0's two initial index terms and no learning ran.
  auto results = system.Search(Q(1, {"purr"}), 0, /*record=*/false);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
  auto attribution = system.AttributeMisses(Q(1, {"purr"}), {0});
  ASSERT_EQ(attribution.size(), 1u);
  EXPECT_EQ(attribution[0].doc, 0u);
  EXPECT_EQ(attribution[0].cause, core::MissCause::kNeverIndexed);
  EXPECT_EQ(attribution[0].term, "purr");
}

TEST_F(ObsIntegrationTest, MissAttributionWithdrawnByLearning) {
  core::SpriteConfig config = TelemetryConfig();
  config.max_index_terms = 2;
  config.terms_per_iteration = 1;
  core::SpriteSystem system(config);
  system.RecordQuery(Q(1, {"cat", "whisker"}));
  system.RecordQuery(Q(2, {"cat", "whisker"}));
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  system.RunLearningIteration();

  // Find the term learning evicted from doc 0 and query exactly it.
  std::string withdrawn;
  for (const LearningDecision& d : system.explainer().decisions()) {
    if (d.verdict == "withdraw" && d.doc == 0) withdrawn = d.term;
  }
  ASSERT_FALSE(withdrawn.empty());
  auto results = system.Search(Q(3, {withdrawn}), 0, /*record=*/false);
  ASSERT_TRUE(results.ok());
  for (const auto& scored : *results) EXPECT_NE(scored.doc, 0u);
  auto attribution = system.AttributeMisses(Q(3, {withdrawn}), {0});
  ASSERT_EQ(attribution.size(), 1u);
  EXPECT_EQ(attribution[0].cause, core::MissCause::kWithdrawn);
  EXPECT_EQ(attribution[0].term, withdrawn);
}

TEST_F(ObsIntegrationTest, MissAttributionChurnLost) {
  core::SpriteSystem system(TelemetryConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  // Kill the indexing peer responsible for "cat"; with replication off its
  // postings are gone even though the owners still list the term.
  auto node = system.ring().ResponsibleNode(
      system.ring().space().KeyForString("cat"));
  ASSERT_TRUE(node.ok());
  ASSERT_TRUE(system.FailPeer(node.value()).ok());
  system.StabilizeNetwork(2);

  auto results = system.Search(Q(1, {"cat"}), 0, /*record=*/false);
  ASSERT_TRUE(results.ok());
  for (const auto& scored : *results) EXPECT_NE(scored.doc, 0u);
  auto attribution = system.AttributeMisses(Q(1, {"cat"}), {0});
  ASSERT_EQ(attribution.size(), 1u);
  EXPECT_EQ(attribution[0].cause, core::MissCause::kChurnLost);
  EXPECT_EQ(attribution[0].term, "cat");
}

// Every document the centralized oracle retrieves but SPRITE (at k = 0,
// i.e. no ranking cutoff) does not must be attributed to exactly one of
// the three causes — the ISSUE's structural guarantee.
TEST_F(ObsIntegrationTest, EveryMissAgainstCentralizedIsAttributed) {
  core::SpriteSystem system(TelemetryConfig());
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  ir::CentralizedIndex centralized(corpus_);

  const std::vector<corpus::Query> queries = {
      Q(1, {"cat", "dog"}), Q(2, {"purr"}), Q(3, {"leash", "bark"}),
      Q(4, {"pet", "food"})};
  for (const corpus::Query& q : queries) {
    auto results = system.Search(q, 0, /*record=*/false);
    ASSERT_TRUE(results.ok());
    std::vector<bool> got(corpus_.num_docs(), false);
    for (const auto& scored : *results) got[scored.doc] = true;
    std::vector<corpus::DocId> missed;
    for (const auto& scored : centralized.Search(q, 0)) {
      if (!got[scored.doc]) missed.push_back(scored.doc);
    }
    auto attribution = system.AttributeMisses(q, missed);
    ASSERT_EQ(attribution.size(), missed.size());
    for (size_t i = 0; i < missed.size(); ++i) {
      EXPECT_EQ(attribution[i].doc, missed[i]);
      EXPECT_FALSE(attribution[i].term.empty());
      const char* name = core::MissCauseName(attribution[i].cause);
      EXPECT_TRUE(std::string(name) == "never-indexed" ||
                  std::string(name) == "withdrawn-by-learning" ||
                  std::string(name) == "churn-lost")
          << name;
    }
  }
}

// §8 reset audit: ClearMetrics() must zero the time-series buffer, both
// explain ledgers, and the alert state together with their mirrored
// counters — and each subsystem must keep working afterwards.
TEST_F(ObsIntegrationTest, ClearMetricsResetsTelemetryLedgersAndMirrors) {
  core::SpriteSystem system(TelemetryConfig());
  system.mutable_slo().AddRule(
      {"alive-bound", "peers.alive", SloRuleKind::kUpperBound, 1.0});
  system.RecordQuery(Q(1, {"cat", "whisker"}));
  system.RecordQuery(Q(2, {"cat", "whisker"}));
  ASSERT_TRUE(system.ShareCorpus(corpus_).ok());
  system.RunLearningIteration();
  ASSERT_TRUE(system.Search(Q(3, {"cat"}), 10).ok());
  ASSERT_NE(system.CaptureTimeSeriesPoint("audit"), nullptr);

  ASSERT_FALSE(system.timeseries().points().empty());
  ASSERT_FALSE(system.explainer().searches().empty());
  ASSERT_FALSE(system.explainer().decisions().empty());
  ASSERT_FALSE(system.slo().alerts().empty());  // 16 alive peers > 1.0
  const MetricsRegistry& m = system.metrics();
  ASSERT_GT(m.counter("timeseries.points"), 0u);
  ASSERT_GT(m.counter("explain.searches"), 0u);
  ASSERT_GT(m.counter("explain.decisions"), 0u);
  ASSERT_GT(m.counter("slo.alerts"), 0u);

  system.ClearMetrics();

  EXPECT_TRUE(system.timeseries().points().empty());
  EXPECT_EQ(system.timeseries().num_captured(), 0u);
  EXPECT_TRUE(system.explainer().searches().empty());
  EXPECT_TRUE(system.explainer().decisions().empty());
  EXPECT_TRUE(system.slo().alerts().empty());
  EXPECT_EQ(m.counter("timeseries.points"), 0u);
  EXPECT_EQ(m.counter("explain.searches"), 0u);
  EXPECT_EQ(m.counter("explain.decisions"), 0u);
  EXPECT_EQ(m.counter("slo.alerts"), 0u);
  // Rules are configuration, not state: they survive.
  EXPECT_EQ(system.slo().rules().size(), 1u);

  // The subsystems stay live after the reset.
  ASSERT_TRUE(system.Search(Q(4, {"dog"}), 10).ok());
  EXPECT_EQ(system.explainer().searches().size(), 1u);
  const TimeSeriesPoint* p = system.CaptureTimeSeriesPoint("fresh");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->index, 0u);  // fresh epoch
  EXPECT_EQ(m.counter("slo.alerts", "alive-bound"), 1u);  // re-fires
}

// §8 determinism contract: identical seeds and identical operation
// sequences must yield byte-identical telemetry dumps.
TEST_F(ObsIntegrationTest, TelemetryDumpsAreDeterministic) {
  auto run = [this]() {
    core::SpriteSystem system(TelemetryConfig());
    system.mutable_slo().AddRule(
        {"recall-drop", "bench.recall_ratio", SloRuleKind::kDeltaDrop, 0.1});
    system.RecordQuery(Q(1, {"whisker"}));
    EXPECT_TRUE(system.ShareCorpus(corpus_).ok());
    system.RunLearningIteration();
    EXPECT_TRUE(system.Search(Q(2, {"cat", "dog"}), 10).ok());
    system.mutable_metrics().Set("bench.recall_ratio", 0.9);
    system.CaptureTimeSeriesPoint("a");
    system.mutable_metrics().Set("bench.recall_ratio", 0.5);
    system.CaptureTimeSeriesPoint("b");  // drop of 0.4 > 0.1: one alert
    EXPECT_EQ(system.slo().alerts().size(), 1u);
    return std::make_tuple(system.timeseries().ToJsonl(),
                           system.timeseries().ToCsv(),
                           system.explainer().ToJsonl(),
                           system.slo().ToJsonl());
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(std::get<0>(first), std::get<0>(second));
  EXPECT_EQ(std::get<1>(first), std::get<1>(second));
  EXPECT_EQ(std::get<2>(first), std::get<2>(second));
  EXPECT_EQ(std::get<3>(first), std::get<3>(second));
}

// ---------------------------------------------------- wall profiler / perf

TEST(WallProfilerTest, DisabledProfilerRecordsNothing) {
  WallProfiler prof;
  EXPECT_FALSE(prof.enabled());
  prof.RecordNs("perf.test.section", 1000000);
  {
    ScopedWallTimer t(&prof, "perf.test.scoped");
  }
  const std::string json = prof.Snapshot().ToJson();
  EXPECT_EQ(json.find("perf.test"), std::string::npos);
}

TEST(WallProfilerTest, EnabledProfilerRecordsMicroseconds) {
  WallProfiler prof;
  prof.set_enabled(true);
  prof.RecordNs("perf.test.section", 1500000);  // 1.5 ms
  prof.RecordNs("perf.test.section", 500000);
  const MetricsSnapshot snap = prof.Snapshot();
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("perf.test.section_us"), std::string::npos);
  const HistogramSample* h = snap.FindHistogram("perf.test.section_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_DOUBLE_EQ(h->max, 1500.0);
  EXPECT_DOUBLE_EQ(h->min, 500.0);
  prof.Clear();
  EXPECT_EQ(prof.Snapshot().ToJson().find("perf.test"), std::string::npos);
}

TEST(WallProfilerTest, ScopedTimerCapturesElapsedTime) {
  WallProfiler prof;
  prof.set_enabled(true);
  {
    ScopedWallTimer t(&prof, "perf.test.scope");
    // Spin a little so elapsed > 0 even on a coarse clock.
    volatile uint64_t acc = 1;
    for (int i = 0; i < 100000; ++i) acc = acc * 31 + 7;
  }
  const MetricsSnapshot snap = prof.Snapshot();
  const HistogramSample* h = snap.FindHistogram("perf.test.scope_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_GT(h->max, 0.0);
}

TEST(PerfTest, SampleResourcesReportsProcessUsage) {
  const ResourceSample s = SampleResources();
#if defined(__linux__)
  ASSERT_TRUE(s.ok);
  // A running test binary has resident memory and has burned CPU.
  EXPECT_GT(s.rss_mb, 0.0);
  EXPECT_GE(s.peak_rss_mb, s.rss_mb * 0.5);  // HWM can lag but not vanish
  EXPECT_GT(s.user_cpu_ms + s.sys_cpu_ms, 0.0);
#else
  (void)s;  // other platforms may report nothing; ok=false is legal
#endif
}

TEST(PerfTest, ReportJsonRoundTripsThroughParser) {
  PerfReport report;
  report.env.bench = "unit_test_bench";
  report.env.git_commit = "abc1234";
  report.env.build_type = "RelWithDebInfo";
  report.env.nproc = 8;
  report.env.threads = 2;
  report.env.docs = 100;
  report.env.peers = 16;
  report.env.seed = 42;
  report.env.warmup = 1;
  report.env.measured_reps = 3;
  PerfPhaseStat phase;
  phase.name = "train";
  phase.wall_ms.Add(10.0);
  phase.wall_ms.Add(12.0);
  phase.wall_ms.Add(11.0);
  phase.resources = SampleResources();
  phase.has_resources = true;
  report.phases.push_back(std::move(phase));
  report.workers.threads = 2;
  report.has_workers = true;

  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"schema\":\"sprite-perf-v1\""), std::string::npos);

  ParsedPerfReport parsed;
  std::string error;
  ASSERT_TRUE(ParsePerfJson(json, &parsed, &error)) << error;
  EXPECT_EQ(parsed.bench, "unit_test_bench");
  EXPECT_EQ(parsed.git_commit, "abc1234");
  EXPECT_DOUBLE_EQ(parsed.threads, 2.0);
  EXPECT_DOUBLE_EQ(parsed.nproc, 8.0);
  ASSERT_EQ(parsed.phases.size(), 1u);
  EXPECT_EQ(parsed.phases[0].name, "train");
  EXPECT_EQ(parsed.phases[0].reps, 3u);
  EXPECT_DOUBLE_EQ(parsed.phases[0].min_ms, 10.0);
  EXPECT_DOUBLE_EQ(parsed.phases[0].median_ms, 11.0);
  EXPECT_DOUBLE_EQ(parsed.phases[0].max_ms, 12.0);
}

TEST(PerfTest, ParseRejectsGarbage) {
  ParsedPerfReport parsed;
  std::string error;
  EXPECT_FALSE(ParsePerfJson("not json at all", &parsed, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParsePerfJson("{\"schema\": \"wrong-schema\"}", &parsed,
                             &error));
}


// --- Prometheus text exposition (served by /metrics?format=prometheus) ------

TEST(PrometheusTextTest, RendersAllThreeKindsWithTypesAndLabels) {
  MetricsRegistry reg;
  reg.Add("search.queries", 7);
  reg.Add("transport.frames", "query_request", 3);
  reg.Add("transport.frames", "heartbeat", 2);
  reg.Set("load.postings.gini", 0.25);
  reg.Observe("transport.rtt_us", "query_request", 100.0);
  reg.Observe("transport.rtt_us", "query_request", 300.0);
  const std::string text = PrometheusText(reg.Snapshot());
  // Counters: sprite_ prefix, dots to underscores, _total suffix.
  EXPECT_NE(text.find("# TYPE sprite_search_queries_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("sprite_search_queries_total 7\n"), std::string::npos);
  // Labeled series share one TYPE line.
  EXPECT_EQ(text.find("# TYPE sprite_transport_frames_total counter"),
            text.rfind("# TYPE sprite_transport_frames_total counter"));
  EXPECT_NE(
      text.find("sprite_transport_frames_total{label=\"heartbeat\"} 2\n"),
      std::string::npos);
  EXPECT_NE(text.find(
                "sprite_transport_frames_total{label=\"query_request\"} 3\n"),
            std::string::npos);
  // Gauges render without a suffix.
  EXPECT_NE(text.find("# TYPE sprite_load_postings_gini gauge"),
            std::string::npos);
  EXPECT_NE(text.find("sprite_load_postings_gini 0.25\n"), std::string::npos);
  // Histograms render as summaries: quantiles + _sum/_count.
  EXPECT_NE(text.find("# TYPE sprite_transport_rtt_us summary"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "sprite_transport_rtt_us{label=\"query_request\",quantile=\"0.5\"}"),
      std::string::npos);
  EXPECT_NE(
      text.find("sprite_transport_rtt_us_sum{label=\"query_request\"} 400\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("sprite_transport_rtt_us_count{label=\"query_request\"} 2\n"),
      std::string::npos);
}

TEST(PrometheusTextTest, SanitizesNamesAndEscapesLabelValues) {
  MetricsRegistry reg;
  reg.Add("weird-name.v2", "a\"b\\c", 1);
  const std::string text = PrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("sprite_weird_name_v2_total"), std::string::npos);
  EXPECT_NE(text.find("{label=\"a\\\"b\\\\c\"} 1"), std::string::npos);
}

TEST(PrometheusTextTest, EmptySnapshotRendersEmpty) {
  MetricsRegistry reg;
  EXPECT_EQ(PrometheusText(reg.Snapshot()), "");
}

}  // namespace
}  // namespace sprite::obs
