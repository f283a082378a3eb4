#ifndef CODES_BENCH_PERF_REPORT_H_
#define CODES_BENCH_PERF_REPORT_H_

// Machine-readable benchmark snapshots (BENCH_latency.json). The schema
// contract (DESIGN.md section 13):
//
//  * the KEY SET is deterministic — two runs of the same binary on any
//    machine produce the same keys in the same order (std::map), only the
//    values move. codes_benchdiff hard-fails on any key-set drift, so a
//    metric rename is a reviewed schema change, not silent churn.
//  * `calibration_ops_per_sec` measures this machine's single-thread speed
//    on a fixed pinned workload (the reference LCS DP). codes_benchdiff
//    uses the committed/current calibration ratio to compare time and rate
//    metrics across machines of different speeds.
//  * `noisy` lists metrics excluded from the regression gate (reported
//    only): tiny overhead deltas and anything dependent on the runner's
//    core count.
//  * `profile` records quick vs full so CI never compares across query
//    budgets.
//
// Key suffixes carry the unit and the improvement direction for
// codes_benchdiff: `_us`/`_ms`/`_seconds` time-like lower-better
// (calibration-normalized), `_qps`/`_per_sec` rate-like higher-better
// (calibration-normalized), `_speedup_x`, `_ex_pct` and `_des_qps` (a
// virtual-time simulation's rate) raw higher-better, any other `_pct` raw
// lower-better.

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "common/string_util.h"
#include "common/timer.h"
#include "text/similarity.h"

namespace codes::bench {

/// Collects named scalar metrics and writes them as deterministic-schema
/// JSON. Keys are emitted in sorted order; the field layout is fixed.
class PerfReport {
 public:
  PerfReport(std::string bench_name, std::string profile)
      : bench_name_(std::move(bench_name)), profile_(std::move(profile)) {}

  void SetCalibration(double ops_per_sec) { calibration_ = ops_per_sec; }

  /// A gated metric: codes_benchdiff fails the build when it regresses.
  void Add(const std::string& key, double value) { metrics_[key] = value; }

  /// A reported-only metric: listed in `noisy`, never gates.
  void AddNoisy(const std::string& key, double value) {
    metrics_[key] = value;
    noisy_.insert(key);
  }

  std::string ToJson() const {
    std::string out = "{\n";
    out += "  \"schema_version\": 1,\n";
    out += "  \"bench\": \"" + bench_name_ + "\",\n";
    out += "  \"profile\": \"" + profile_ + "\",\n";
    out += "  \"calibration_ops_per_sec\": " + Num(calibration_) + ",\n";
    out += "  \"noisy\": [";
    bool first = true;
    for (const auto& key : noisy_) {
      if (!first) out += ", ";
      first = false;
      out += "\"" + key + "\"";
    }
    out += "],\n  \"metrics\": {\n";
    first = true;
    for (const auto& [key, value] : metrics_) {
      if (!first) out += ",\n";
      first = false;
      out += "    \"" + key + "\": " + Num(value);
    }
    out += "\n  }\n}\n";
    return out;
  }

 private:
  static std::string Num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }

  std::string bench_name_;
  std::string profile_;
  double calibration_ = 0.0;
  std::map<std::string, double> metrics_;
  std::set<std::string> noisy_;
};

/// Single-thread machine-speed probe: iterations/sec of the pinned
/// reference LCS DP on a fixed input pair. The workload is deliberately
/// the *reference* implementation — it never changes with the code under
/// test (and ignores CODES_PERF_INJECT), so the committed/current ratio
/// isolates machine speed from code speed.
inline double CalibrateOpsPerSec() {
  std::string a, b;
  for (int i = 0; i < 160; ++i) {
    a += static_cast<char>('a' + (i * 7) % 17);
    b += static_cast<char>('a' + (i * 5) % 19);
  }
  // Warm once, then take the fastest of several timing windows: the
  // least-interrupted window is the best estimate of machine capability,
  // and the max is far more stable run-to-run than any single window
  // (scheduler noise only ever subtracts speed). The committed/current
  // ratio this feeds scales every normalized metric, so calibration
  // jitter would read as across-the-board regressions.
  (void)LongestCommonSubstringLengthReferenceDp(a, b);
  double best = 0.0;
  for (int window = 0; window < 5; ++window) {
    int iterations = 0;
    Timer timer;
    do {
      for (int i = 0; i < 8; ++i) {
        (void)LongestCommonSubstringLengthReferenceDp(a, b);
      }
      iterations += 8;
    } while (timer.ElapsedSeconds() < 0.1);
    best = std::max(best, iterations / timer.ElapsedSeconds());
  }
  return best;
}

}  // namespace codes::bench

#endif  // CODES_BENCH_PERF_REPORT_H_
