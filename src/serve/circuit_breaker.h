#ifndef CODES_SERVE_CIRCUIT_BREAKER_H_
#define CODES_SERVE_CIRCUIT_BREAKER_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace codes {
namespace serve {

/// Breaker state machine:
///
///   Closed ──(failure ratio over window ≥ threshold)──▶ Open
///   Open ──(cooldown elapsed)──▶ HalfOpen
///   HalfOpen ──(any probe fails)──▶ Open (cooldown restarts)
///   HalfOpen ──(kCloseAfter probes succeed)──▶ Closed (window cleared)
///
/// While Open (and for non-probe traffic while HalfOpen) the owning front
/// end forces the mapped degradation-ladder rung instead of touching the
/// stage, so a persistently failing stage costs its requests nothing.
enum class BreakerState { kClosed = 0, kOpen, kHalfOpen };

/// Failure-rate circuit breaker over a sliding outcome window. Time is
/// explicit (µs) like every src/serve/ component, so virtual-time load
/// campaigns and wall-clock serving share the exact same transitions. Not
/// thread-safe; the owner serializes access.
class CircuitBreaker {
 public:
  /// Sliding outcome window (ring buffer) length.
  static constexpr size_t kWindow = 32;
  /// Minimum outcomes in the window before the ratio is meaningful.
  static constexpr size_t kMinSamples = 8;
  /// Open → HalfOpen after this long without traffic to the stage.
  static constexpr uint64_t kCooldownUs = 2'000'000;
  /// Probes let through per HalfOpen episode.
  static constexpr int kHalfOpenProbes = 3;
  /// Probe successes needed to close.
  static constexpr int kCloseAfter = 2;

  struct Options {
    /// Trip when failures / outcomes ≥ this.
    double failure_threshold = 0.5;
  };

  explicit CircuitBreaker(const Options& options);

  /// True when the stage must be forced off for a request dispatched at
  /// `now_us`. Performs the Open → HalfOpen transition when the cooldown
  /// has elapsed, and meters out HalfOpen probes (a false return in
  /// HalfOpen consumes one probe slot).
  bool ShouldForce(uint64_t now_us);

  /// Feeds one finished request's outcome for this stage. Closed outcomes
  /// land in the window; HalfOpen outcomes are probe verdicts. Outcomes
  /// arriving while Open (requests admitted before the trip) are dropped —
  /// they describe the pre-trip world.
  void RecordOutcome(bool failed, uint64_t now_us);

  BreakerState state() const { return state_; }
  /// Transition counter since construction (every state change counts).
  uint64_t transitions() const { return transitions_; }

 private:
  void MoveTo(BreakerState next, uint64_t now_us);
  double FailureRatio() const;

  Options options_;
  BreakerState state_ = BreakerState::kClosed;
  /// Ring buffer of outcomes (true = failed) while Closed.
  std::array<bool, kWindow> window_{};
  size_t window_next_ = 0;
  size_t window_count_ = 0;
  size_t window_failures_ = 0;
  uint64_t opened_at_us_ = 0;
  int probes_issued_ = 0;
  int probe_successes_ = 0;
  uint64_t transitions_ = 0;
};

}  // namespace serve
}  // namespace codes

#endif  // CODES_SERVE_CIRCUIT_BREAKER_H_
