// codes_benchdiff: the CI perf-regression gate.
//
//   codes_benchdiff <committed.json> <current.json> [--max-regress-pct=15]
//   codes_benchdiff --selftest
//
// Both inputs are PerfReport snapshots (bench/perf_report.h). The tool
// hard-fails (exit 1) on schema drift — bench/profile mismatch, any
// metric added or removed, noisy-allowlist drift — and on any gated
// metric regressing by more than the threshold after calibration
// normalization. Key suffixes carry unit and direction: _us/_ms/_seconds
// time-like lower-better (scaled by the current/committed calibration
// ratio), _per_sec/_qps rate-like higher-better (divided by it),
// _speedup_x, _ex_pct and _des_qps raw higher-better, other _pct raw
// lower-better. A _des_qps rate comes from a virtual-time discrete-event
// simulation, a pure function of its seed and options, so machine speed
// must not rescale it.
// Metrics in the `noisy` allowlist are printed but never gate.

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "common/flags.h"
#include "common/string_util.h"

namespace {

struct Report {
  std::string bench;
  std::string profile;
  double calibration = 0.0;
  std::set<std::string> noisy;
  std::map<std::string, double> metrics;
};

// Minimal parser for the flat PerfReport JSON: quoted keys, string/number
// scalars, one string array ("noisy"), one nested object ("metrics").
struct Parser {
  const std::string& s;
  size_t i = 0;
  bool ok = true;

  void Skip() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool Eat(char c) {
    Skip();
    if (i < s.size() && s[i] == c) { ++i; return true; }
    ok = false;
    return false;
  }
  std::string String() {
    Skip();
    std::string out;
    if (!Eat('"')) return out;
    while (i < s.size() && s[i] != '"') out += s[i++];
    Eat('"');
    return out;
  }
  double Number() {
    Skip();
    size_t end = 0;
    double v = 0.0;
    try {
      v = std::stod(s.substr(i), &end);
    } catch (...) {
      ok = false;
      return 0.0;
    }
    i += end;
    return v;
  }
};

bool ParseReport(const std::string& text, Report* out) {
  Parser p{text};
  if (!p.Eat('{')) return false;
  while (p.ok) {
    std::string key = p.String();
    p.Eat(':');
    if (key == "bench") {
      out->bench = p.String();
    } else if (key == "profile") {
      out->profile = p.String();
    } else if (key == "calibration_ops_per_sec") {
      out->calibration = p.Number();
    } else if (key == "schema_version") {
      (void)p.Number();
    } else if (key == "noisy") {
      p.Eat('[');
      p.Skip();
      while (p.ok && p.i < text.size() && text[p.i] != ']') {
        out->noisy.insert(p.String());
        p.Skip();
        if (p.i < text.size() && text[p.i] == ',') { ++p.i; p.Skip(); }
      }
      p.Eat(']');
    } else if (key == "metrics") {
      p.Eat('{');
      p.Skip();
      while (p.ok && p.i < text.size() && text[p.i] != '}') {
        std::string name = p.String();
        p.Eat(':');
        out->metrics[name] = p.Number();
        p.Skip();
        if (p.i < text.size() && text[p.i] == ',') { ++p.i; p.Skip(); }
      }
      p.Eat('}');
    } else {
      return false;  // unknown field: the schema is closed
    }
    p.Skip();
    if (p.i < text.size() && text[p.i] == ',') { ++p.i; continue; }
    break;
  }
  p.Eat('}');
  return p.ok && !out->bench.empty() && out->calibration > 0.0;
}

using codes::EndsWith;

enum class Direction { kLowerTime, kHigherRate, kHigherRaw, kLowerRaw, kInfo };

Direction Classify(const std::string& key) {
  if (EndsWith(key, "_speedup_x") || EndsWith(key, "_ex_pct") ||
      EndsWith(key, "_des_qps"))
    return Direction::kHigherRaw;
  if (EndsWith(key, "_pct")) return Direction::kLowerRaw;
  if (EndsWith(key, "_us") || EndsWith(key, "_ms") || EndsWith(key, "_seconds"))
    return Direction::kLowerTime;
  if (EndsWith(key, "_per_sec") || EndsWith(key, "_qps"))
    return Direction::kHigherRate;
  return Direction::kInfo;
}

int Compare(const Report& committed, const Report& current, double max_pct) {
  int failures = 0;
  if (committed.bench != current.bench ||
      committed.profile != current.profile) {
    std::fprintf(stderr, "FAIL: bench/profile mismatch (%s/%s vs %s/%s)\n",
                 committed.bench.c_str(), committed.profile.c_str(),
                 current.bench.c_str(), current.profile.c_str());
    return 1;
  }
  for (const auto& [key, _] : committed.metrics) {
    if (!current.metrics.count(key)) {
      std::fprintf(stderr, "FAIL: metric removed: %s\n", key.c_str());
      ++failures;
    }
  }
  for (const auto& [key, _] : current.metrics) {
    if (!committed.metrics.count(key)) {
      std::fprintf(stderr, "FAIL: metric added: %s\n", key.c_str());
      ++failures;
    }
  }
  if (committed.noisy != current.noisy) {
    std::fprintf(stderr, "FAIL: noisy allowlist drifted\n");
    ++failures;
  }
  if (failures > 0) return 1;

  // Machine-speed ratio: < 1 means the current machine is slower, so its
  // raw times shrink (and rates grow) before comparison.
  const double ratio = current.calibration / committed.calibration;
  std::printf("calibration: committed %.0f ops/s, current %.0f ops/s "
              "(ratio %.3f)\n", committed.calibration, current.calibration,
              ratio);
  std::printf("%-34s %12s %12s %12s  %s\n", "metric", "committed", "current",
              "adjusted", "verdict");
  for (const auto& [key, base] : committed.metrics) {
    const double raw = current.metrics.at(key);
    const Direction dir = Classify(key);
    double adjusted = raw;
    if (dir == Direction::kLowerTime) adjusted = raw * ratio;
    if (dir == Direction::kHigherRate) adjusted = raw / ratio;
    const bool noisy = committed.noisy.count(key) > 0;
    // A metric regresses only when BOTH the raw and the
    // calibration-adjusted values are past the threshold: a slower
    // machine is excused by adjustment, calibration jitter on an equal
    // machine is excused by the raw reading, and a genuine code slowdown
    // fails both.
    bool regressed = false;
    if (!noisy) {
      if (dir == Direction::kLowerTime || dir == Direction::kLowerRaw) {
        const double limit = base * (1.0 + max_pct / 100.0);
        regressed = adjusted > limit && raw > limit;
      } else if (dir == Direction::kHigherRate ||
                 dir == Direction::kHigherRaw) {
        const double limit = base * (1.0 - max_pct / 100.0);
        regressed = adjusted < limit && raw < limit;
      }
    }
    const char* verdict = noisy ? "noisy" : (regressed ? "REGRESSED" : "ok");
    std::printf("%-34s %12.4g %12.4g %12.4g  %s\n", key.c_str(), base, raw,
                adjusted, verdict);
    if (regressed) ++failures;
  }
  if (failures > 0) {
    std::fprintf(stderr, "FAIL: %d metric(s) regressed more than %.0f%%\n",
                 failures, max_pct);
    return 1;
  }
  std::printf("PASS: no gated metric regressed more than %.0f%%\n", max_pct);
  return 0;
}

int SelfTest() {
  const std::string base =
      "{\"schema_version\": 1, \"bench\": \"latency\", \"profile\": "
      "\"quick\", \"calibration_ops_per_sec\": 1000, \"noisy\": "
      "[\"jitter_pct\"], \"metrics\": {\"hotpath_lcs_after_us\": 2.0, "
      "\"hotpath_lcs_speedup_x\": 4.0, \"eval_qps_1t_per_sec\": 100, "
      "\"adv_verified_goodput_des_qps\": 250, \"jitter_pct\": 1.0}}";
  Report committed;
  if (!ParseReport(base, &committed)) return 1;

  // Same numbers on a machine measured 2x slower: times double, rates
  // halve, dimensionless metrics hold — normalization must pass it.
  Report slower = committed;
  slower.calibration = 500;
  slower.metrics["hotpath_lcs_after_us"] = 4.0;
  slower.metrics["eval_qps_1t_per_sec"] = 50;
  slower.metrics["jitter_pct"] = 99.0;  // noisy: huge swing, still passes
  if (Compare(committed, slower, 15.0) != 0) return 1;

  // A genuine 2x hot-path slowdown on the same machine must fail.
  Report slow = committed;
  slow.metrics["hotpath_lcs_after_us"] = 4.0;
  slow.metrics["hotpath_lcs_speedup_x"] = 2.0;
  if (Compare(committed, slow, 15.0) != 1) return 1;

  // A virtual-time goodput is exact: a 20% drop fails even on a machine
  // measured at 0.6x speed, which would excuse a wall-clock rate.
  Report des_drop = committed;
  des_drop.calibration = 600;
  des_drop.metrics["adv_verified_goodput_des_qps"] = 200;
  if (Compare(committed, des_drop, 15.0) != 1) return 1;

  // Schema drift (metric renamed) must fail.
  Report drifted = committed;
  drifted.metrics.erase("hotpath_lcs_after_us");
  drifted.metrics["hotpath_lcs_after_usec"] = 2.0;
  if (Compare(committed, drifted, 15.0) != 1) return 1;

  std::printf("selftest ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--selftest") return SelfTest();
  // A garbage or negative threshold, or an unknown flag, must not turn
  // into a silently different gate.
  double max_pct = 15.0;
  codes::FlagSet flags("codes_benchdiff", "<committed.json> <current.json>");
  flags.Double("--max-regress-pct", &max_pct, "N").AtLeast(0.0);
  if (argc < 3) return flags.Fail("expected two snapshot paths or --selftest");
  if (int rc = flags.Parse(argc, argv, /*first=*/3)) return rc;
  Report committed;
  Report current;
  for (int i = 1; i <= 2; ++i) {
    std::ifstream in(argv[i]);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", argv[i]);
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    if (!ParseReport(buf.str(), i == 1 ? &committed : &current)) {
      std::fprintf(stderr, "cannot parse %s\n", argv[i]);
      return 2;
    }
  }
  return Compare(committed, current, max_pct);
}
