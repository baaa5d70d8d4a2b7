#ifndef SPRITE_OBS_METRICS_H_
#define SPRITE_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"

namespace sprite::obs {

// Identifies one metric instance: a dotted name ("search.route_hops") plus
// an optional label that splits the metric per peer or per message type
// ("" when unlabeled). Ordered so snapshots iterate deterministically.
struct MetricId {
  std::string name;
  std::string label;

  friend bool operator<(const MetricId& a, const MetricId& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.label < b.label;
  }
  friend bool operator==(const MetricId& a, const MetricId& b) {
    return a.name == b.name && a.label == b.label;
  }
};

// A borrowed (name, label) pair: what lookups search by, so a hit builds no
// MetricId.
struct MetricKey {
  std::string_view name;
  std::string_view label;
};

// MetricId's order over both owned and borrowed keys (transparent, so the
// registry's maps find a MetricKey without converting it).
struct MetricIdLess {
  using is_transparent = void;
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    const int by_name = std::string_view(a.name).compare(b.name);
    if (by_name != 0) return by_name < 0;
    return std::string_view(a.label) < std::string_view(b.label);
  }
};

struct CounterSample {
  MetricId id;
  uint64_t value = 0;
};

struct GaugeSample {
  MetricId id;
  double value = 0.0;
};

// Summary of one histogram at snapshot time (percentiles are exact; the
// registry retains the samples).
struct HistogramSample {
  MetricId id;
  size_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

// A point-in-time copy of every metric, detached from the registry.
// `ToJson()` renders the snapshot as a single JSON object — the format the
// benches write to BENCH_*.json files:
//   {"counters": [{"name": ..., "label": ..., "value": ...}, ...],
//    "gauges":   [...],
//    "histograms": [{"name": ..., "count": ..., "p50": ..., ...}, ...]}
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  std::string ToJson() const;

  // Lookup helpers for tests and report code; nullptr when absent.
  const CounterSample* FindCounter(const std::string& name,
                                   const std::string& label = "") const;
  const GaugeSample* FindGauge(const std::string& name,
                               const std::string& label = "") const;
  const HistogramSample* FindHistogram(const std::string& name,
                                       const std::string& label = "") const;
};

// The central metrics registry: counters (monotone), gauges (last value
// wins), and histograms (full-distribution samples), each keyed by name and
// optional label. Metrics are created on first touch; all operations are
// O(log n) map lookups, which is ample for the simulation's rates. Names
// and labels are borrowed: only a metric's first touch copies them.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- Counters ---------------------------------------------------------
  void Add(std::string_view name, uint64_t delta = 1) {
    Add(name, std::string_view(), delta);
  }
  void Add(std::string_view name, std::string_view label, uint64_t delta);
  uint64_t counter(std::string_view name, std::string_view label = {}) const;

  // --- Gauges -----------------------------------------------------------
  void Set(std::string_view name, double value) {
    Set(name, std::string_view(), value);
  }
  void Set(std::string_view name, std::string_view label, double value);
  double gauge(std::string_view name, std::string_view label = {}) const;

  // --- Histograms -------------------------------------------------------
  void Observe(std::string_view name, double value) {
    Observe(name, std::string_view(), value);
  }
  void Observe(std::string_view name, std::string_view label, double value);
  // The live histogram, or nullptr when never observed.
  const Histogram* histogram(std::string_view name,
                             std::string_view label = {}) const;

  // Sample cap applied to histograms as they are created (existing ones
  // are untouched). 0 — the default — retains every sample, which keeps
  // the simulation registries byte-identical to their historical dumps;
  // long-lived host-side registries (obs::WallProfiler) set a cap so they
  // stay bounded. See Histogram::SetSampleCap for the accuracy contract.
  void set_default_histogram_sample_cap(size_t cap) {
    default_histogram_cap_ = cap;
  }

  MetricsSnapshot Snapshot() const;
  void Clear();
  // Removes every counter/gauge/histogram whose name matches exactly,
  // across all labels. Used by component resets (e.g. the sim bus
  // dropping its mirrored net.* counters).
  void EraseByName(std::string_view name);

  size_t num_counters() const { return counters_.size(); }
  size_t num_gauges() const { return gauges_.size(); }
  size_t num_histograms() const { return histograms_.size(); }

 private:
  std::map<MetricId, uint64_t, MetricIdLess> counters_;
  std::map<MetricId, double, MetricIdLess> gauges_;
  std::map<MetricId, Histogram, MetricIdLess> histograms_;
  size_t default_histogram_cap_ = 0;
};

// Writes `json` to `path` (creating/truncating the file). Shared by the
// benches' --metrics-json flag and the CLI.
bool WriteJsonFile(const std::string& path, const std::string& json);

// Renders a snapshot in the Prometheus text exposition format (v0.0.4):
// dots in metric names become underscores under a "sprite_" prefix, labels
// become {label="..."}, counters get a _total suffix, histograms expose
// _count/_sum plus precomputed quantile gauges ({quantile="0.5"} etc. on
// the base name). Served by the daemon's /metrics?format=prometheus.
std::string PrometheusText(const MetricsSnapshot& snapshot);

// --- Load-skew statistics -------------------------------------------------
// Both return 0 for empty input or an all-zero distribution.

// max(values) / mean(values): 1.0 means perfectly even load.
double MaxMeanRatio(const std::vector<double>& values);

// Gini coefficient in [0, 1): 0 means perfectly even load, values near 1
// mean a few peers carry almost everything.
double GiniCoefficient(const std::vector<double>& values);

}  // namespace sprite::obs

#endif  // SPRITE_OBS_METRICS_H_
