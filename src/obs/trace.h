#ifndef SPRITE_OBS_TRACE_H_
#define SPRITE_OBS_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sprite::obs {

// Time source seam for the tracer (DESIGN.md §16). The simulation runs on
// the deterministic SimClock below; live daemons substitute a WallClock so
// spans carry real timestamps that can be compared across processes.
class TraceClock {
 public:
  virtual ~TraceClock() = default;
  virtual double now_ms() const = 0;
};

// Simulated wall clock. The simulation executes everything as instantaneous
// in-process calls; instrumented operations advance this clock by their
// LatencyModel cost as they run, so spans carry coherent timestamps (a
// global timeline) instead of bare durations. Deterministic by
// construction: identical runs advance the clock identically.
class SimClock : public TraceClock {
 public:
  double now_ms() const override { return now_ms_; }
  // Advances simulated time; negative or NaN deltas are ignored.
  void AdvanceMs(double ms) {
    if (ms > 0.0) now_ms_ += ms;
  }
  void Reset() { now_ms_ = 0.0; }

 private:
  double now_ms_ = 0.0;
};

// Monotonic wall clock for live daemons. Timestamps are milliseconds on the
// realtime axis — a system_clock anchor captured at construction plus the
// steady_clock delta since — so spans from different processes on one host
// line up to within clock skew while staying immune to realtime jumps.
class WallClock : public TraceClock {
 public:
  WallClock()
      : steady_epoch_(std::chrono::steady_clock::now()),
        anchor_ms_(std::chrono::duration<double, std::milli>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count()) {}
  double now_ms() const override {
    return anchor_ms_ + std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - steady_epoch_)
                            .count();
  }

 private:
  std::chrono::steady_clock::time_point steady_epoch_;
  double anchor_ms_ = 0.0;
};

using SpanId = uint64_t;

// Identifies the span an operation is currently executing under. The
// simulator is synchronous, so there context propagates implicitly through
// the tracer's span stack; asynchronous live operations carry it
// explicitly (Tracer::BeginSpanUnder), and frames carry it across daemons.
struct TraceContext {
  uint64_t trace_id = 0;
  SpanId span_id = 0;
  bool valid() const { return trace_id != 0; }
};

// One timed, named unit of work attributed to a peer. parent_id == 0 marks
// the root of an operation. Annotations are sorted key/value strings so
// exports are deterministic.
struct Span {
  uint64_t trace_id = 0;
  SpanId id = 0;
  SpanId parent_id = 0;
  std::string name;
  std::string peer;
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::map<std::string, std::string> annotations;

  double duration_ms() const { return end_ms - start_ms; }
};

// One finished operation: the root span plus every descendant, in begin
// order (root first).
struct Trace {
  uint64_t id = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::vector<Span> spans;

  double duration_ms() const { return end_ms - start_ms; }
  const Span* root() const {
    for (const Span& s : spans) {
      if (s.parent_id == 0) return &s;
    }
    return nullptr;
  }
};

// Retention policy. Every operation is traced while it runs; at finish it
// is kept if it is the Nth started operation (sample_every; 1 keeps all,
// 0 keeps none by sampling) and/or among the keep_slowest slowest
// operations seen so far. Sampled traces live in a ring buffer of
// max_traces, so memory stays bounded no matter how long the run is.
struct TraceOptions {
  size_t sample_every = 1;
  size_t max_traces = 2048;
  size_t keep_slowest = 16;
};

// The tracer: a span stack over a SimClock with bounded retention and two
// exporters (Chrome trace-event JSON for Perfetto, structured JSONL).
// Disabled by default — BeginSpan/Annotate are cheap no-ops until
// set_enabled(true). Single-threaded, like the simulator.
//
// Synchronous code traces through the stack: one operation at a time, each
// span nested under the innermost open one. An asynchronous operation (a
// live search waiting on its replies) cannot hold the stack, or every span
// the event loop opens while it waits would nest under it; it opens spans
// under an explicit parent with BeginSpanUnder and closes them by context
// with EndSpan(ctx), so any number of its traces are open at once.
class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(TraceOptions options) : options_(options) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  // Toggling mid-operation aborts the operation's trace (the spans of a
  // half-built tree would be misleading either way).
  void set_enabled(bool on);
  // Must not be called while a trace is active.
  void set_options(TraceOptions options);
  const TraceOptions& options() const { return options_; }

  SimClock& clock() { return clock_; }
  const SimClock& clock() const { return clock_; }

  // Swaps the time source (nullptr restores the embedded SimClock). The
  // default is the SimClock, which keeps every simulated stream
  // byte-identical; daemons point this at a WallClock. Must not be called
  // while a trace is active.
  void set_time_source(TraceClock* source);
  double now_ms() const { return time_source_->now_ms(); }

  // When nonzero, trace and span ids are drawn from a salted 32-bit hash
  // sequence instead of the sequential counters, so ids minted by distinct
  // daemons (salt = ring id) collide with negligible probability and fit
  // the 32-bit wire trace-context fields. The sim never sets a salt, so
  // its sequential ids — and every golden dump — are unchanged.
  void set_id_salt(uint64_t salt) { id_salt_ = salt; }
  uint64_t id_salt() const { return id_salt_; }

  // Cost of one overlay routing hop, advanced by ChordRing per hop span.
  void set_hop_cost_ms(double ms) { hop_cost_ms_ = ms; }
  double hop_cost_ms() const { return hop_cost_ms_; }

  // Names the peer of a span opened by id (ScopedSpan's peer-id
  // constructor). Called only for spans that open, so a disabled tracer
  // names nothing. Unset, a peer is "peer-<id>".
  using PeerNamer = std::function<std::string(uint64_t)>;
  void set_peer_namer(PeerNamer namer) { peer_namer_ = std::move(namer); }
  std::string PeerName(uint64_t peer_id) const;

  // Opens a span. With an empty stack this starts a new operation (a new
  // trace); otherwise the span nests under the innermost open span.
  // Returns an invalid context when the tracer is disabled.
  TraceContext BeginSpan(const std::string& name, const std::string& peer);
  // Closes the innermost open span at the current clock; finishing the
  // root applies the retention policy.
  void EndSpan();

  // Opens a span under `parent` without touching the stack. The parent
  // may sit in the stack's trace or in any trace opened this way; an
  // invalid parent starts a new trace, and a parent in no open trace
  // starts one that adopts its trace id, so a span serving another node's
  // frame continues that node's trace under its remote caller's span.
  // Returns an invalid context when the tracer is disabled.
  TraceContext BeginSpanUnder(const TraceContext& parent,
                              const std::string& name,
                              const std::string& peer);
  // Closes a span opened by BeginSpanUnder. A trace finishes, and
  // retention applies, once none of its spans is open; an invalid or
  // unknown context is ignored.
  void EndSpan(const TraceContext& span);

  // True when a span is open on the stack (an operation is being traced).
  bool InActiveSpan() const { return enabled_ && !stack_.empty(); }

  // Annotates the innermost open span (used by layers that do not hold a
  // context, e.g. the sim bus's cost model).
  void Annotate(const std::string& key, std::string value);
  // Accumulates a numeric annotation on the innermost open span.
  void AnnotateAdd(const std::string& key, uint64_t delta);
  // Annotates a specific open span by id, in the stack's trace or one
  // opened by BeginSpanUnder.
  void AnnotateSpan(SpanId id, const std::string& key, std::string value);

  // --- Retention / export ----------------------------------------------
  uint64_t num_started() const { return started_; }
  // Sampled ring buffer ∪ slowest-K, deduplicated, ordered by start time.
  std::vector<const Trace*> Retained() const;
  size_t num_retained() const { return Retained().size(); }

  // Chrome trace-event JSON ("X" complete events, one pseudo-thread per
  // peer) — load in Perfetto (ui.perfetto.dev) or chrome://tracing.
  std::string ToPerfettoJson() const;
  // One JSON object per line per span; first line is a header record.
  // Input format of `sprite_cli trace-report`.
  std::string ToJsonl() const;
  // ToJsonl() followed by dropping every retained trace (the `/trace`
  // HTTP drain). The started-operations counter is preserved, so repeated
  // drains report monotone `traces_started` headers.
  std::string DrainJsonl();

 private:
  // A trace that outlived the stack or never used it, with the number of
  // its spans still open.
  struct OpenTrace {
    Trace trace;
    size_t open_spans = 0;
  };

  void FinishTrace(Trace trace);
  // The span `id` while its trace is open, else null.
  Span* FindOpenSpan(SpanId id);
  uint64_t NextTraceId();
  SpanId NextSpanId();

  TraceOptions options_;
  bool enabled_ = false;
  SimClock clock_;
  TraceClock* time_source_ = &clock_;
  double hop_cost_ms_ = 50.0;
  PeerNamer peer_namer_;
  uint64_t id_salt_ = 0;
  uint64_t next_trace_id_ = 1;
  uint64_t next_span_id_ = 1;
  uint64_t started_ = 0;
  Trace active_;
  std::vector<size_t> stack_;  // indices into active_.spans
  // Spans of active_ opened by BeginSpanUnder and not yet closed: when the
  // stack empties before they close, active_ moves to open_.
  size_t active_unstacked_ = 0;
  std::vector<OpenTrace> open_;
  std::deque<Trace> ring_;
  std::vector<Trace> slowest_;
};

// RAII span guard: begins a span on construction (no-op when `tracer` is
// null or disabled) and ends it on destruction or explicit End().
// Annotations target this span specifically, so they are safe after child
// spans have opened and closed.
//
// A span that did not open (tracer off) formats nothing: give the peer as
// an id, which Tracer::PeerName resolves only on open, and annotate with
// borrowed strings or a printf format, which are copied or formatted only
// while the span is open.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const std::string& peer)
      : tracer_(tracer) {
    if (tracer_ != nullptr && tracer_->enabled()) Open(name, peer);
  }
  ScopedSpan(Tracer* tracer, const char* name, uint64_t peer_id)
      : tracer_(tracer) {
    if (tracer_ != nullptr && tracer_->enabled()) {
      Open(name, tracer_->PeerName(peer_id));
    }
  }
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Annotate(std::string_view key, std::string_view value) {
    if (open_) {
      tracer_->AnnotateSpan(ctx_.span_id, std::string(key),
                            std::string(value));
    }
  }
  // printf-style annotation, formatted only while the span is open.
  void Annotatef(std::string_view key, const char* fmt, ...)
      __attribute__((format(printf, 3, 4)));
  void End() {
    if (open_) {
      tracer_->EndSpan();
      open_ = false;
    }
  }
  const TraceContext& context() const { return ctx_; }

 private:
  void Open(const char* name, const std::string& peer) {
    ctx_ = tracer_->BeginSpan(name, peer);
    open_ = ctx_.valid();
  }

  Tracer* tracer_;
  TraceContext ctx_;
  bool open_ = false;
};

}  // namespace sprite::obs

#endif  // SPRITE_OBS_TRACE_H_
