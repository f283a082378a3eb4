#ifndef CODES_COMMON_TRACE_H_
#define CODES_COMMON_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace codes {

/// Lightweight request tracing: RAII TraceSpans nest into a per-request
/// tree on the current thread, timed with the steady clock.
///
/// Two consumers, independently optional:
///  * A Histogram (usually cached via CODES_TRACE_SPAN) receives every
///    span duration — this is how per-stage latency breakdowns accumulate
///    in the MetricsRegistry with no recorder installed.
///  * A TraceRecorder, when one is active on the thread, additionally
///    receives the (name, depth, start, duration) event so the full tree
///    of one request can be rendered or exported.
///
/// Cost model: an armed span is two steady-clock reads plus one relaxed
/// histogram update; with MetricsRegistry::SetEnabled(false) and no
/// recorder, constructor and destructor are a couple of branches
/// (bench_latency reports the cost against a <= 2% end-to-end budget).
/// Spans are strictly thread-local: a request's tree lives on the thread
/// serving it, which is exactly the share-nothing model of the parallel
/// evaluator.

/// One finished span, in pre-order (a parent precedes its children).
struct TraceEvent {
  const char* name;  ///< the span site's string literal; never owned
  int depth = 0;     ///< 0 for a root span
  uint64_t start_us = 0;  ///< offset from TraceRecorder construction
  uint64_t duration_us = 0;
};

/// Collects the span tree(s) opened on the current thread while alive.
/// Recorders nest (the innermost wins); the destructor restores the
/// outer one. Install around a single request to capture its tree.
class TraceRecorder {
 public:
  TraceRecorder();
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Finished events, pre-order. Spans still open have duration 0.
  const std::vector<TraceEvent>& events() const { return events_; }

  /// Indented tree rendering, one "name  <dur> us" line per span.
  std::string ToString() const;
  /// JSON array of {"name","depth","start_us","duration_us"} objects.
  std::string ToJson() const;

 private:
  friend class TraceSpan;

  TraceRecorder* prev_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<TraceEvent> events_;
};

/// RAII span: opens on construction, closes (and records) on
/// destruction. `histogram`, when given, receives the duration in us —
/// use CODES_TRACE_SPAN to resolve it once per call site.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, Histogram* histogram = nullptr);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
  TraceRecorder* recorder_;  ///< recorder this span reports to (may be null)
  int event_index_ = -1;     ///< slot in recorder_->events_
  bool armed_ = false;       ///< false => destructor is a no-op
};

/// Declares a span named `name` (a string literal) whose duration feeds
/// the global histogram "span.<name>"; the histogram reference resolves
/// once per call site.
#define CODES_TRACE_SPAN(var, name)                                   \
  static ::codes::Histogram& var##_histogram =                        \
      ::codes::MetricsRegistry::Global().GetHistogram("span." name);  \
  ::codes::TraceSpan var((name), &var##_histogram)

}  // namespace codes

#endif  // CODES_COMMON_TRACE_H_
