#include "obs/trace.h"

#include <algorithm>
#include <cstdarg>
#include <cstdlib>

#include "common/check.h"
#include "common/json_util.h"
#include "common/string_util.h"

namespace sprite::obs {

void Tracer::set_enabled(bool on) {
  if (enabled_) {
    // Abort half-built operations rather than exporting broken trees.
    stack_.clear();
    active_ = Trace{};
    active_unstacked_ = 0;
    open_.clear();
  }
  enabled_ = on;
}

void Tracer::set_options(TraceOptions options) {
  SPRITE_CHECK(stack_.empty() && open_.empty());
  options_ = options;
  while (ring_.size() > options_.max_traces) ring_.pop_front();
}

std::string Tracer::PeerName(uint64_t peer_id) const {
  if (peer_namer_) return peer_namer_(peer_id);
  return StrFormat("peer-%llu", static_cast<unsigned long long>(peer_id));
}

void Tracer::set_time_source(TraceClock* source) {
  SPRITE_CHECK(stack_.empty() && open_.empty());
  time_source_ = source != nullptr ? source : &clock_;
}

namespace {

// splitmix64 finalizer folded to a nonzero 32-bit id.
uint64_t MixId32(uint64_t salt, uint64_t seq) {
  uint64_t x = salt + 0x9e3779b97f4a7c15ull * (seq + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  x = (x ^ (x >> 32)) & 0xffffffffull;
  return x == 0 ? 1 : x;
}

}  // namespace

uint64_t Tracer::NextTraceId() {
  const uint64_t seq = next_trace_id_++;
  if (id_salt_ == 0) return seq;
  return MixId32(id_salt_, seq << 1);
}

SpanId Tracer::NextSpanId() {
  const uint64_t seq = next_span_id_++;
  if (id_salt_ == 0) return seq;
  return MixId32(id_salt_, (seq << 1) | 1);
}

TraceContext Tracer::BeginSpan(const std::string& name,
                               const std::string& peer) {
  if (!enabled_) return {};
  if (stack_.empty()) {
    ++started_;
    active_ = Trace{};
    active_.id = NextTraceId();
    active_.start_ms = time_source_->now_ms();
  }
  Span s;
  s.trace_id = active_.id;
  s.id = NextSpanId();
  s.parent_id = stack_.empty() ? 0 : active_.spans[stack_.back()].id;
  s.name = name;
  s.peer = peer;
  s.start_ms = time_source_->now_ms();
  s.end_ms = s.start_ms;
  stack_.push_back(active_.spans.size());
  active_.spans.push_back(std::move(s));
  return {active_.id, active_.spans[stack_.back()].id};
}

void Tracer::EndSpan() {
  if (!enabled_ || stack_.empty()) return;
  active_.spans[stack_.back()].end_ms = time_source_->now_ms();
  stack_.pop_back();
  if (!stack_.empty()) return;
  if (active_unstacked_ == 0) {
    FinishTrace(std::move(active_));
  } else {
    open_.push_back({std::move(active_), active_unstacked_});
    active_unstacked_ = 0;
  }
  active_ = Trace{};
}

TraceContext Tracer::BeginSpanUnder(const TraceContext& parent,
                                    const std::string& name,
                                    const std::string& peer) {
  if (!enabled_) return {};
  Trace* trace = nullptr;
  if (parent.valid()) {
    if (!stack_.empty() && active_.id == parent.trace_id) {
      trace = &active_;
      ++active_unstacked_;
    } else {
      for (OpenTrace& open : open_) {
        if (open.trace.id == parent.trace_id) {
          trace = &open.trace;
          ++open.open_spans;
          break;
        }
      }
    }
  }
  if (trace == nullptr) {
    ++started_;
    OpenTrace& open = open_.emplace_back();
    open.trace.id = parent.valid() ? parent.trace_id : NextTraceId();
    open.trace.start_ms = time_source_->now_ms();
    open.open_spans = 1;
    trace = &open.trace;
  }
  Span s;
  s.trace_id = trace->id;
  s.id = NextSpanId();
  s.parent_id = parent.span_id;
  s.name = name;
  s.peer = peer;
  s.start_ms = time_source_->now_ms();
  s.end_ms = s.start_ms;
  trace->spans.push_back(std::move(s));
  return {trace->id, trace->spans.back().id};
}

void Tracer::EndSpan(const TraceContext& span) {
  if (!enabled_ || !span.valid()) return;
  if (!stack_.empty() && active_.id == span.trace_id) {
    for (Span& s : active_.spans) {
      if (s.id != span.span_id) continue;
      s.end_ms = time_source_->now_ms();
      --active_unstacked_;
      return;
    }
  }
  for (size_t i = 0; i < open_.size(); ++i) {
    if (open_[i].trace.id != span.trace_id) continue;
    for (Span& s : open_[i].trace.spans) {
      if (s.id != span.span_id) continue;
      s.end_ms = time_source_->now_ms();
      if (--open_[i].open_spans == 0) {
        FinishTrace(std::move(open_[i].trace));
        open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
      }
      return;
    }
  }
}

Span* Tracer::FindOpenSpan(SpanId id) {
  auto find = [id](Trace& trace) -> Span* {
    for (auto it = trace.spans.rbegin(); it != trace.spans.rend(); ++it) {
      if (it->id == id) return &*it;
    }
    return nullptr;
  };
  if (Span* s = find(active_)) return s;
  for (OpenTrace& open : open_) {
    if (Span* s = find(open.trace)) return s;
  }
  return nullptr;
}

void Tracer::Annotate(const std::string& key, std::string value) {
  if (!InActiveSpan()) return;
  active_.spans[stack_.back()].annotations[key] = std::move(value);
}

void Tracer::AnnotateAdd(const std::string& key, uint64_t delta) {
  if (!InActiveSpan()) return;
  std::string& slot = active_.spans[stack_.back()].annotations[key];
  uint64_t current = 0;
  if (!slot.empty()) current = std::strtoull(slot.c_str(), nullptr, 10);
  slot = StrFormat("%llu", static_cast<unsigned long long>(current + delta));
}

void Tracer::AnnotateSpan(SpanId id, const std::string& key,
                          std::string value) {
  if (!enabled_) return;
  if (Span* s = FindOpenSpan(id)) {
    s->annotations[key] = std::move(value);
  }
}

void ScopedSpan::Annotatef(std::string_view key, const char* fmt, ...) {
  if (!open_) return;
  va_list args;
  va_start(args, fmt);
  std::string value = StrFormatV(fmt, args);
  va_end(args);
  tracer_->AnnotateSpan(ctx_.span_id, std::string(key), std::move(value));
}

void Tracer::FinishTrace(Trace trace) {
  trace.end_ms = time_source_->now_ms();
  const double dur = trace.duration_ms();
  const bool sampled =
      options_.sample_every > 0 && started_ % options_.sample_every == 0;
  if (sampled && options_.max_traces > 0) {
    ring_.push_back(trace);
    while (ring_.size() > options_.max_traces) ring_.pop_front();
  }
  if (options_.keep_slowest > 0) {
    if (slowest_.size() < options_.keep_slowest) {
      slowest_.push_back(std::move(trace));
    } else {
      size_t min_i = 0;
      for (size_t i = 1; i < slowest_.size(); ++i) {
        if (slowest_[i].duration_ms() < slowest_[min_i].duration_ms()) {
          min_i = i;
        }
      }
      if (dur > slowest_[min_i].duration_ms()) {
        slowest_[min_i] = std::move(trace);
      }
    }
  }
}

std::vector<const Trace*> Tracer::Retained() const {
  std::vector<const Trace*> out;
  out.reserve(ring_.size() + slowest_.size());
  for (const Trace& t : ring_) out.push_back(&t);
  for (const Trace& t : slowest_) {
    bool dup = false;
    for (const Trace& r : ring_) {
      if (r.id == t.id) {
        dup = true;
        break;
      }
    }
    if (!dup) out.push_back(&t);
  }
  std::sort(out.begin(), out.end(), [](const Trace* a, const Trace* b) {
    if (a->start_ms != b->start_ms) return a->start_ms < b->start_ms;
    return a->id < b->id;
  });
  return out;
}

namespace {

void AppendAnnotations(std::string& out, const Span& s, bool leading_comma) {
  for (const auto& [key, value] : s.annotations) {
    if (leading_comma) out += ',';
    out += StrFormat("\"%s\":\"%s\"", JsonEscape(key).c_str(),
                     JsonEscape(value).c_str());
    leading_comma = true;
  }
}

}  // namespace

std::string Tracer::ToPerfettoJson() const {
  const std::vector<const Trace*> traces = Retained();
  // One pseudo-thread per peer, numbered in first-appearance order.
  std::map<std::string, int> tid;
  std::vector<std::string> tid_order;
  for (const Trace* t : traces) {
    for (const Span& s : t->spans) {
      if (tid.emplace(s.peer, static_cast<int>(tid.size()) + 1).second) {
        tid_order.push_back(s.peer);
      }
    }
  }

  std::string out = StrFormat(
      "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
      "\"format\":\"sprite-trace\",\"traces_started\":%llu,"
      "\"traces_retained\":%zu},\"traceEvents\":[\n",
      static_cast<unsigned long long>(started_), traces.size());
  bool first = true;
  auto sep = [&]() {
    if (!first) out += ",\n";
    first = false;
  };
  for (const std::string& peer : tid_order) {
    sep();
    out += StrFormat(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
        "\"args\":{\"name\":\"%s\"}}",
        tid.at(peer), JsonEscape(peer).c_str());
  }
  for (const Trace* t : traces) {
    for (const Span& s : t->spans) {
      sep();
      out += StrFormat(
          "{\"name\":\"%s\",\"cat\":\"sprite\",\"ph\":\"X\",\"ts\":%.3f,"
          "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{"
          "\"trace\":%llu,\"span\":%llu,\"parent\":%llu,\"peer\":\"%s\"",
          JsonEscape(s.name).c_str(), s.start_ms * 1000.0,
          s.duration_ms() * 1000.0, tid.at(s.peer),
          static_cast<unsigned long long>(s.trace_id),
          static_cast<unsigned long long>(s.id),
          static_cast<unsigned long long>(s.parent_id),
          JsonEscape(s.peer).c_str());
      AppendAnnotations(out, s, /*leading_comma=*/true);
      out += "}}";
    }
  }
  out += "\n]}\n";
  return out;
}

std::string Tracer::ToJsonl() const {
  const std::vector<const Trace*> traces = Retained();
  size_t spans = 0;
  for (const Trace* t : traces) spans += t->spans.size();
  std::string out = StrFormat(
      "{\"format\":\"sprite-trace-jsonl\",\"traces_started\":%llu,"
      "\"traces_retained\":%zu,\"spans\":%zu}\n",
      static_cast<unsigned long long>(started_), traces.size(), spans);
  for (const Trace* t : traces) {
    for (const Span& s : t->spans) {
      out += StrFormat(
          "{\"trace\":%llu,\"span\":%llu,\"parent\":%llu,\"name\":\"%s\","
          "\"peer\":\"%s\",\"start_ms\":%.3f,\"dur_ms\":%.3f",
          static_cast<unsigned long long>(s.trace_id),
          static_cast<unsigned long long>(s.id),
          static_cast<unsigned long long>(s.parent_id),
          JsonEscape(s.name).c_str(), JsonEscape(s.peer).c_str(),
          s.start_ms, s.duration_ms());
      if (!s.annotations.empty()) {
        out += ",\"ann\":{";
        AppendAnnotations(out, s, /*leading_comma=*/false);
        out += "}";
      }
      out += "}\n";
    }
  }
  return out;
}

std::string Tracer::DrainJsonl() {
  std::string out = ToJsonl();
  ring_.clear();
  slowest_.clear();
  return out;
}

}  // namespace sprite::obs
