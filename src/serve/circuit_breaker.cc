#include "serve/circuit_breaker.h"

namespace codes {
namespace serve {

static_assert(CircuitBreaker::kMinSamples <= CircuitBreaker::kWindow);
static_assert(CircuitBreaker::kCloseAfter <= CircuitBreaker::kHalfOpenProbes);

CircuitBreaker::CircuitBreaker(const Options& options) : options_(options) {}

void CircuitBreaker::MoveTo(BreakerState next, uint64_t now_us) {
  state_ = next;
  ++transitions_;
  if (next == BreakerState::kOpen) {
    opened_at_us_ = now_us;
  } else if (next == BreakerState::kHalfOpen) {
    probes_issued_ = 0;
    probe_successes_ = 0;
  } else {  // kClosed: forget the failing era entirely
    window_.fill(false);
    window_next_ = 0;
    window_count_ = 0;
    window_failures_ = 0;
  }
}

double CircuitBreaker::FailureRatio() const {
  if (window_count_ == 0) return 0.0;
  return static_cast<double>(window_failures_) /
         static_cast<double>(window_count_);
}

bool CircuitBreaker::ShouldForce(uint64_t now_us) {
  if (state_ == BreakerState::kOpen) {
    // A time before the trip (out-of-order callers) is no elapsed time.
    if (now_us > opened_at_us_ && now_us - opened_at_us_ >= kCooldownUs) {
      MoveTo(BreakerState::kHalfOpen, now_us);
    } else {
      return true;
    }
  }
  if (state_ == BreakerState::kHalfOpen) {
    if (probes_issued_ < kHalfOpenProbes) {
      ++probes_issued_;
      return false;  // this request is a probe: let it touch the stage
    }
    return true;  // probe quota spent; wait for their verdicts
  }
  return false;
}

void CircuitBreaker::RecordOutcome(bool failed, uint64_t now_us) {
  switch (state_) {
    case BreakerState::kOpen:
      // Straggler from before the trip; its world no longer exists.
      return;
    case BreakerState::kHalfOpen:
      if (failed) {
        MoveTo(BreakerState::kOpen, now_us);
      } else if (++probe_successes_ >= kCloseAfter) {
        MoveTo(BreakerState::kClosed, now_us);
      }
      return;
    case BreakerState::kClosed:
      break;
  }
  if (window_count_ == kWindow) {
    // Ring slot being overwritten leaves the window.
    if (window_[window_next_]) --window_failures_;
  } else {
    ++window_count_;
  }
  window_[window_next_] = failed;
  if (failed) ++window_failures_;
  window_next_ = (window_next_ + 1) % kWindow;
  if (window_count_ >= kMinSamples &&
      FailureRatio() >= options_.failure_threshold) {
    MoveTo(BreakerState::kOpen, now_us);
  }
}

}  // namespace serve
}  // namespace codes
