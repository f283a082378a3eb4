#ifndef CODES_BENCH_BENCH_COMMON_H_
#define CODES_BENCH_BENCH_COMMON_H_

// Shared helpers for the table-reproduction harnesses. Each bench binary
// regenerates one table/figure of the paper and prints it in a fixed-width
// layout; EXPERIMENTS.md records the paper-vs-measured comparison.

#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/metrics.h"
#include "common/string_util.h"

namespace codes::bench {

/// The whole main of a table bench: parses its one flag,
/// `--metrics-out=PATH`, runs `run`, then writes the global MetricsRegistry
/// snapshot (JSON, schema in DESIGN.md) there, so campaigns can harvest
/// machine-readable per-stage breakdowns alongside the printed tables.
/// Returns the exit code: 2 on a usage error, 1 when the snapshot cannot be
/// written.
inline int RunTableBench(const char* program, int argc, char** argv,
                         void (*run)()) {
  std::string metrics_out;
  FlagSet flags(program);
  flags.Path("--metrics-out", &metrics_out);
  if (int rc = flags.Parse(argc, argv)) return rc;
  run();
  return WriteSnapshot(metrics_out, MetricsRegistry::Global().SnapshotJson(),
                       "metrics snapshot")
             ? 0
             : 1;
}

/// Fixed-width table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<int> widths) : widths_(std::move(widths)) {}

  void Row(const std::vector<std::string>& cells) const {
    std::string line;
    for (size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
      std::string cell = cells[i];
      int width = widths_[i];
      if (static_cast<int>(cell.size()) > width) cell.resize(width);
      line += cell;
      line.append(static_cast<size_t>(width - static_cast<int>(cell.size())),
                  ' ');
      line += "  ";
    }
    std::printf("%s\n", line.c_str());
  }

  void Separator() const {
    size_t total = 0;
    for (int w : widths_) total += static_cast<size_t>(w) + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
  }

 private:
  std::vector<int> widths_;
};

inline std::string Pct(double value) { return FormatDouble(value, 1); }
inline std::string Pct2(double value) { return FormatDouble(value, 2); }

inline void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace codes::bench

#endif  // CODES_BENCH_BENCH_COMMON_H_
