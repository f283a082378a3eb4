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
  if (now_us - last_change_us_ < options_.dwell_us) return level_;
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

void BrownoutController::ApplyLevel(int level, ServeOptions* options) {
  options->brownout_level = level;
  if (level >= 1) options->max_icl_demos = 1;
  if (level >= 2) {
    options->max_icl_demos = 0;
    options->disable_value_retriever = true;
  }
  if (level >= 3) {
    options->top_k1_override = 2;
    options->top_k2_override = 4;
  }
  if (level >= 4) options->force_emergency_sql = true;
}

}  // namespace serve
}  // namespace codes
