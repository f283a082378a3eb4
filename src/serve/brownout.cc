#include "serve/brownout.h"

#include <algorithm>

namespace codes {
namespace serve {

namespace {

/// Queue fullness (depth / capacity) at or above which richness steps
/// down one level.
constexpr double kHighWatermark = 0.75;
/// Fullness at or below which richness steps back up one level.
constexpr double kLowWatermark = 0.25;

}  // namespace

BrownoutController::BrownoutController(const Options& options)
    : options_(options) {
  options_.max_level =
      std::clamp(options_.max_level, 0, kNumBrownoutLevels - 1);
}

int BrownoutController::Update(double queue_fullness, uint64_t now_us) {
  if (!primed_) {
    primed_ = true;
    // Anchor the dwell clock one dwell in the past so a front end born
    // into an overload can degrade on its first observation.
    last_change_us_ = now_us >= options_.dwell_us
                          ? now_us - options_.dwell_us
                          : 0;
  }
  uint64_t elapsed_us =
      now_us > last_change_us_ ? now_us - last_change_us_ : 0;
  if (elapsed_us < options_.dwell_us) return level_;
  if (queue_fullness >= kHighWatermark && level_ < options_.max_level) {
    ++level_;
    ++degrades_;
    last_change_us_ = now_us;
  } else if (queue_fullness <= kLowWatermark && level_ > 0) {
    --level_;
    ++recoveries_;
    last_change_us_ = now_us;
  }
  return level_;
}

}  // namespace serve
}  // namespace codes
