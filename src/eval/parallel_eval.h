#ifndef CODES_EVAL_PARALLEL_EVAL_H_
#define CODES_EVAL_PARALLEL_EVAL_H_

#include <string>
#include <vector>

#include "eval/metrics.h"

namespace codes {

/// Outcome of one dev sample inside an EvalResult.
struct SampleEvalResult {
  int index = 0;           ///< position in `bench.dev`
  std::string predicted;   ///< the predictor's SQL, verbatim
  bool ex = false;         ///< execution match on the original database
  bool ts = false;         ///< EX on original + every test-suite instance
  double ves = 0.0;        ///< R-VES contribution (0 unless computed & EX)
};

/// Full result of a (possibly parallel) dev-set evaluation: the aggregate
/// metrics plus per-sample outcomes, always ordered by sample index.
struct EvalResult {
  EvalMetrics metrics;
  std::vector<SampleEvalResult> samples;
};

/// The parallel evaluation driver behind EvaluateDevSet.
///
/// Samples are sharded across `options.num_threads` workers (0 = one per
/// hardware thread) in fixed contiguous blocks; each worker runs the
/// predictor and the metric checks for its block, writing into
/// pre-assigned slots. The merge then walks slots in index order, so the
/// result — predictions, EX, TS, and their aggregation order — is
/// bit-for-bit identical at every thread count, and identical to the
/// historical serial loop:
///  * per-sample generation seeds never depended on evaluation order
///    (CodesPipeline derives them by hashing the question);
///  * test-suite database instances are generated in a serial pre-pass
///    that replays the exact lazy construction order (and thus the exact
///    Rng fork chain) of the serial evaluator;
///  * VES timings are measured serially after prediction, since wall-clock
///    measurements taken on loaded cores would be noise, not signal.
///
/// The predictor must be safe to call concurrently when the resolved
/// thread count is > 1.
EvalResult ParallelEvaluateDevSet(const Text2SqlBenchmark& bench,
                                  const SqlPredictor& predictor,
                                  const EvalOptions& options);

/// Runs only the predictor (no metric scoring) over the first
/// `max_samples` dev samples (<0: all) on `num_threads` workers, returning
/// predictions ordered by sample index, for callers that score the
/// predictions themselves (bench_tab10_new_domain).
std::vector<std::string> ParallelPredict(const Text2SqlBenchmark& bench,
                                         const SqlPredictor& predictor,
                                         int num_threads,
                                         int max_samples = -1);

}  // namespace codes

#endif  // CODES_EVAL_PARALLEL_EVAL_H_
