#ifndef CODES_EVAL_METRICS_H_
#define CODES_EVAL_METRICS_H_

#include <functional>
#include <string>

#include "dataset/sample.h"

namespace codes {

/// Controls which metrics are computed. EX is always computed; TS and VES
/// add execution cost.
struct EvalOptions {
  /// Test-suite accuracy: EX must hold on `ts_instances` freshly
  /// regenerated database instances in addition to the original database.
  bool compute_ts = false;
  int ts_instances = 3;
  /// Valid efficiency score: execution-time ratio for correct predictions
  /// (BIRD's VES, in its R-VES square-root form).
  bool compute_ves = false;
  uint64_t seed = 4242;
  /// Cap the number of dev samples evaluated (<0: all).
  int max_samples = -1;
  /// Worker threads for evaluation. 0 (the default) uses one thread per
  /// hardware thread; 1 reproduces the historical serial loop bit-for-bit.
  /// Any thread count yields identical predictions and EX/TS metrics —
  /// samples are sharded deterministically and merged in index order — but
  /// the predictor must be safe to call concurrently when the count is not
  /// 1 (CodesPipeline::PredictorFor qualifies; a lambda capturing mutable
  /// state by reference does not).
  int num_threads = 0;
};

/// Aggregated metrics over a dev set, all in percent.
struct EvalMetrics {
  double ex = 0.0;
  double ts = 0.0;
  double ves = 0.0;
  int n = 0;
};

/// A prediction function: sample -> SQL text.
using SqlPredictor = std::function<std::string(const Text2SqlSample&)>;

/// Whether `predicted` and `gold` produce equivalent results on `db`
/// (the EX criterion: order-sensitive iff the gold query orders output).
/// A prediction that fails to parse/execute is incorrect.
bool ExecutionMatch(const sql::Database& db, const std::string& predicted,
                    const std::string& gold);

/// Human-evaluation proxy (the paper's HE metric, Section 9.6): a
/// prediction whose result *contains* the requested information counts as
/// correct even if it selects extra columns. Concretely: EX passes, or
/// some subset of the predicted columns matches the gold result as a
/// multiset.
bool LenientExecutionMatch(const sql::Database& db,
                           const std::string& predicted,
                           const std::string& gold);

/// Evaluates `predictor` over `bench.dev`, sharding samples across
/// `options.num_threads` workers (see eval/parallel_eval.h for the driver
/// and for access to per-sample results). Metrics are independent of the
/// thread count.
EvalMetrics EvaluateDevSet(const Text2SqlBenchmark& bench,
                           const SqlPredictor& predictor,
                           const EvalOptions& options);

}  // namespace codes

#endif  // CODES_EVAL_METRICS_H_
