#ifndef CODES_SERVE_BROWNOUT_H_
#define CODES_SERVE_BROWNOUT_H_

#include <cstdint>

#include "core/pipeline.h"

namespace codes {
namespace serve {

/// Adaptive prompt-richness controller: it picks the brownout level, and
/// only the level. Under load the prompt knobs the paper tunes for
/// quality (ICL demonstrations, retrieved values, schema top-k1/k2)
/// become a cost dial; what each level strips is the kBrownoutLadder
/// table in core/pipeline.h, which PredictGuarded applies to the
/// ServeOptions::brownout_level a request carries (L0 full richness ..
/// L4 emergency SQL, the one level that fires a ladder rung).
///
/// Levels move one step at a time on a queue-fullness signal with two
/// guards against flapping: watermark hysteresis (degrade at 75% fullness
/// or more, recover at 25% or less, hold in between) and a minimum dwell
/// time between consecutive changes. Explicit-time like the rest of
/// src/serve/; a time earlier than the last change counts as no elapsed
/// time. Not thread-safe.
class BrownoutController {
 public:
  struct Options {
    int max_level = kNumBrownoutLevels - 1;
    /// Minimum time between consecutive level changes.
    uint64_t dwell_us = 250'000;
  };

  explicit BrownoutController(const Options& options);

  /// Feeds one observation of queue fullness in [0, 1]; returns the level
  /// in force after the observation.
  int Update(double queue_fullness, uint64_t now_us);

  int level() const { return level_; }
  /// Times richness stepped down (level went up) / back up.
  uint64_t degrades() const { return degrades_; }
  uint64_t recoveries() const { return recoveries_; }

 private:
  Options options_;
  int level_ = 0;
  uint64_t last_change_us_ = 0;
  bool primed_ = false;  ///< first Update anchors the dwell clock
  uint64_t degrades_ = 0;
  uint64_t recoveries_ = 0;
};

}  // namespace serve
}  // namespace codes

#endif  // CODES_SERVE_BROWNOUT_H_
