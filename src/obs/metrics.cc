#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "common/json_util.h"
#include "common/string_util.h"

namespace sprite::obs {

namespace {

void AppendId(std::string& out, const MetricId& id) {
  out += StrFormat("\"name\":\"%s\"", JsonEscape(id.name).c_str());
  if (!id.label.empty()) {
    out += StrFormat(",\"label\":\"%s\"", JsonEscape(id.label).c_str());
  }
}

// The entry for (name, label), created on first touch: only a miss copies
// the borrowed strings into a MetricId.
template <typename Map>
typename Map::mapped_type& Touch(Map& map, std::string_view name,
                                 std::string_view label,
                                 bool* inserted = nullptr) {
  const MetricKey key{name, label};
  auto it = map.lower_bound(key);
  const bool miss = it == map.end() || map.key_comp()(key, it->first);
  if (miss) {
    it = map.emplace_hint(it, MetricId{std::string(name), std::string(label)},
                          typename Map::mapped_type());
  }
  if (inserted != nullptr) *inserted = miss;
  return it->second;
}

template <typename Map>
const typename Map::mapped_type* Find(const Map& map, std::string_view name,
                                      std::string_view label) {
  auto it = map.find(MetricKey{name, label});
  return it == map.end() ? nullptr : &it->second;
}

}  // namespace

void MetricsRegistry::Add(std::string_view name, std::string_view label,
                          uint64_t delta) {
  Touch(counters_, name, label) += delta;
}

uint64_t MetricsRegistry::counter(std::string_view name,
                                  std::string_view label) const {
  const uint64_t* value = Find(counters_, name, label);
  return value == nullptr ? 0 : *value;
}

void MetricsRegistry::Set(std::string_view name, std::string_view label,
                          double value) {
  Touch(gauges_, name, label) = value;
}

double MetricsRegistry::gauge(std::string_view name,
                              std::string_view label) const {
  const double* value = Find(gauges_, name, label);
  return value == nullptr ? 0.0 : *value;
}

void MetricsRegistry::Observe(std::string_view name, std::string_view label,
                              double value) {
  bool inserted = false;
  Histogram& hist = Touch(histograms_, name, label, &inserted);
  if (inserted && default_histogram_cap_ > 0) {
    hist.SetSampleCap(default_histogram_cap_);
  }
  hist.Add(value);
}

const Histogram* MetricsRegistry::histogram(std::string_view name,
                                            std::string_view label) const {
  return Find(histograms_, name, label);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [id, value] : counters_) {
    snap.counters.push_back({id, value});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [id, value] : gauges_) {
    snap.gauges.push_back({id, value});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [id, hist] : histograms_) {
    HistogramSample s;
    s.id = id;
    s.count = hist.count();
    s.sum = hist.sum();
    if (s.count > 0) {
      s.mean = hist.Mean();
      s.min = hist.min();
      s.max = hist.max();
      s.p50 = hist.Percentile(50);
      s.p90 = hist.Percentile(90);
      s.p95 = hist.Percentile(95);
      s.p99 = hist.Percentile(99);
    }
    snap.histograms.push_back(std::move(s));
  }
  return snap;
}

void MetricsRegistry::Clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

namespace {

template <typename Map>
void EraseName(Map& map, std::string_view name) {
  // MetricId ordering is (name, label), so all labels of `name` form one
  // contiguous range.
  auto first = map.lower_bound(MetricKey{name, {}});
  auto last = first;
  while (last != map.end() && last->first.name == name) ++last;
  map.erase(first, last);
}

}  // namespace

void MetricsRegistry::EraseByName(std::string_view name) {
  EraseName(counters_, name);
  EraseName(gauges_, name);
  EraseName(histograms_, name);
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": [";
  for (size_t i = 0; i < counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {";
    AppendId(out, counters[i].id);
    out += StrFormat(",\"value\":%llu}",
                     static_cast<unsigned long long>(counters[i].value));
  }
  out += "\n  ],\n  \"gauges\": [";
  for (size_t i = 0; i < gauges.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {";
    AppendId(out, gauges[i].id);
    out += StrFormat(",\"value\":%s}", JsonNumber(gauges[i].value).c_str());
  }
  out += "\n  ],\n  \"histograms\": [";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSample& h = histograms[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {";
    AppendId(out, h.id);
    out += StrFormat(
        ",\"count\":%zu,\"sum\":%s,\"mean\":%s,\"min\":%s,\"max\":%s,"
        "\"p50\":%s,\"p90\":%s,\"p95\":%s,\"p99\":%s}",
        h.count, JsonNumber(h.sum).c_str(), JsonNumber(h.mean).c_str(),
        JsonNumber(h.min).c_str(), JsonNumber(h.max).c_str(),
        JsonNumber(h.p50).c_str(), JsonNumber(h.p90).c_str(),
        JsonNumber(h.p95).c_str(), JsonNumber(h.p99).c_str());
  }
  out += "\n  ]\n}\n";
  return out;
}

namespace {

template <typename Vec>
auto* FindById(const Vec& samples, const std::string& name,
               const std::string& label) {
  using Sample = typename Vec::value_type;
  const Sample* found = nullptr;
  for (const Sample& s : samples) {
    if (s.id.name == name && s.id.label == label) {
      found = &s;
      break;
    }
  }
  return found;
}

}  // namespace

const CounterSample* MetricsSnapshot::FindCounter(
    const std::string& name, const std::string& label) const {
  return FindById(counters, name, label);
}

const GaugeSample* MetricsSnapshot::FindGauge(const std::string& name,
                                              const std::string& label) const {
  return FindById(gauges, name, label);
}

const HistogramSample* MetricsSnapshot::FindHistogram(
    const std::string& name, const std::string& label) const {
  return FindById(histograms, name, label);
}

double MaxMeanRatio(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  double max = values[0];
  for (double v : values) {
    sum += v;
    max = std::max(max, v);
  }
  if (sum <= 0.0) return 0.0;
  return max / (sum / static_cast<double>(values.size()));
}

double GiniCoefficient(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  double sum = 0.0;
  double weighted = 0.0;
  const double n = static_cast<double>(sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    sum += sorted[i];
    weighted += static_cast<double>(i + 1) * sorted[i];
  }
  if (sum <= 0.0) return 0.0;
  return (2.0 * weighted) / (n * sum) - (n + 1.0) / n;
}

namespace {

// "search.route_hops" -> "sprite_search_route_hops"; any character outside
// [a-zA-Z0-9_] becomes '_', and a leading digit is prefixed.
std::string PromName(const std::string& name, const char* suffix) {
  std::string out = "sprite_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  out += suffix;
  return out;
}

// Label values need only backslash/quote/newline escaping in the text
// exposition format.
std::string PromLabelValue(const std::string& value) {
  std::string out;
  for (char c : value) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void PromLine(std::string& out, const std::string& metric,
              const std::string& label, const std::string& extra_label,
              const std::string& value) {
  out += metric;
  if (!label.empty() || !extra_label.empty()) {
    out += '{';
    if (!label.empty()) {
      out += "label=\"" + PromLabelValue(label) + "\"";
      if (!extra_label.empty()) out += ',';
    }
    out += extra_label;
    out += '}';
  }
  out += ' ';
  out += value;
  out += '\n';
}

}  // namespace

std::string PrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string last_type_for;
  auto type_line = [&out, &last_type_for](const std::string& metric,
                                          const char* type) {
    if (metric == last_type_for) return;  // labeled series share one TYPE
    out += "# TYPE " + metric + " " + type + "\n";
    last_type_for = metric;
  };
  for (const CounterSample& c : snapshot.counters) {
    const std::string metric = PromName(c.id.name, "_total");
    type_line(metric, "counter");
    PromLine(out, metric, c.id.label, "",
             StrFormat("%llu", static_cast<unsigned long long>(c.value)));
  }
  for (const GaugeSample& g : snapshot.gauges) {
    const std::string metric = PromName(g.id.name, "");
    type_line(metric, "gauge");
    PromLine(out, metric, g.id.label, "", JsonNumber(g.value));
  }
  for (const HistogramSample& h : snapshot.histograms) {
    const std::string metric = PromName(h.id.name, "");
    type_line(metric, "summary");
    static constexpr struct {
      const char* quantile;
      double HistogramSample::* field;
    } kQuantiles[] = {{"0.5", &HistogramSample::p50},
                      {"0.9", &HistogramSample::p90},
                      {"0.95", &HistogramSample::p95},
                      {"0.99", &HistogramSample::p99}};
    for (const auto& q : kQuantiles) {
      PromLine(out, metric, h.id.label,
               std::string("quantile=\"") + q.quantile + "\"",
               JsonNumber(h.*(q.field)));
    }
    PromLine(out, metric + "_sum", h.id.label, "", JsonNumber(h.sum));
    PromLine(out, metric + "_count", h.id.label, "",
             StrFormat("%zu", h.count));
  }
  return out;
}

bool WriteJsonFile(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = std::fclose(f) == 0 && written == json.size();
  return ok;
}

}  // namespace sprite::obs
