#ifndef CODES_COMMON_TIMER_H_
#define CODES_COMMON_TIMER_H_

#include <chrono>

namespace codes {

/// Monotonic wall-clock stopwatch used by latency benchmarks and the VES
/// metric. Starts on construction; `Restart()` resets the origin.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time in seconds since construction or last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace codes

#endif  // CODES_COMMON_TIMER_H_
