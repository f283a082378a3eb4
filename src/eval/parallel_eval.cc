#include "eval/parallel_eval.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "dataset/db_generator.h"
#include "dataset/domains.h"
#include "sqlengine/executor.h"
#include "sqlengine/parser.h"

namespace codes {

namespace {

/// Median execution seconds over `repeats` runs (parse and bind once).
double TimedExecution(const sql::Database& db, const std::string& sql_text,
                      int repeats) {
  auto stmt = sql::ParseSql(sql_text);
  if (!stmt.ok()) return 0.0;
  const sql::BoundStatement bound = sql::Bind(std::move(*stmt), db.schema());
  std::vector<double> times;
  times.reserve(static_cast<size_t>(repeats));
  for (int i = 0; i < repeats; ++i) {
    Timer timer;
    auto result = sql::Execute(db, bound);
    if (!result.ok()) return 0.0;
    times.push_back(timer.ElapsedSeconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Number of dev samples the options select.
size_t EvalSampleCount(const Text2SqlBenchmark& bench,
                       const EvalOptions& options) {
  size_t n = bench.dev.size();
  if (options.max_samples >= 0) {
    n = std::min(n, static_cast<size_t>(options.max_samples));
  }
  return n;
}

}  // namespace

std::vector<std::string> ParallelPredict(const Text2SqlBenchmark& bench,
                                         const SqlPredictor& predictor,
                                         int num_threads, int max_samples) {
  size_t n = bench.dev.size();
  if (max_samples >= 0) n = std::min(n, static_cast<size_t>(max_samples));
  std::vector<std::string> predictions(n);
  ThreadPool pool(num_threads);
  pool.ParallelFor(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      predictions[i] = predictor(bench.dev[i]);
    }
  });
  return predictions;
}

EvalResult ParallelEvaluateDevSet(const Text2SqlBenchmark& bench,
                                  const SqlPredictor& predictor,
                                  const EvalOptions& options) {
  EvalResult result;
  size_t n = EvalSampleCount(bench, options);
  result.samples.resize(n);

  ThreadPool pool(options.num_threads);

  // ---- stage 1 (parallel): predict + EX on the original database.
  pool.ParallelFor(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const auto& sample = bench.dev[i];
      SampleEvalResult& out = result.samples[i];
      out.index = static_cast<int>(i);
      out.predicted = predictor(sample);
      out.ex = ExecutionMatch(bench.DbOf(sample), out.predicted, sample.sql);
    }
  });

  // ---- stage 2 (serial): build test-suite instances. Replays the lazy
  // construction order of the historical serial evaluator exactly — walk
  // samples in index order and materialize a database's instances the
  // first time an EX-correct sample needs them — so the Rng fork chain,
  // and therefore every instance's contents, match the serial run.
  std::unordered_map<int, std::vector<sql::Database>> ts_instances;
  if (options.compute_ts) {
    Rng rng(options.seed);
    for (size_t i = 0; i < n; ++i) {
      if (!result.samples[i].ex) continue;
      int db_index = bench.dev[i].db_index;
      if (ts_instances.count(db_index) != 0) continue;
      std::vector<sql::Database> instances;
      const sql::Database& db = bench.databases[db_index];
      const DomainSpec* domain =
          db_index < static_cast<int>(bench.domain_names.size())
              ? FindDomain(bench.domain_names[db_index])
              : nullptr;
      if (domain != nullptr) {
        for (int k = 0; k < options.ts_instances; ++k) {
          Rng instance_rng = rng.Fork();
          instances.push_back(
              RegenerateContents(db, *domain, bench.profile, instance_rng));
        }
      }
      ts_instances.emplace(db_index, std::move(instances));
    }

    // ---- stage 3 (parallel): TS checks against the now-immutable
    // instances.
    pool.ParallelFor(n, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        SampleEvalResult& out = result.samples[i];
        if (!out.ex) continue;
        const auto& sample = bench.dev[i];
        bool ts_pass = true;
        auto it = ts_instances.find(sample.db_index);
        if (it != ts_instances.end()) {
          for (const auto& instance : it->second) {
            if (!ExecutionMatch(instance, out.predicted, sample.sql)) {
              ts_pass = false;
              break;
            }
          }
        }
        out.ts = ts_pass;
      }
    });
  }

  // ---- stage 4 (serial): VES timing. Wall-clock measured while sibling
  // shards saturate the cores would be contention noise, so timing runs
  // alone; it is cheap next to prediction.
  if (options.compute_ves) {
    for (size_t i = 0; i < n; ++i) {
      SampleEvalResult& out = result.samples[i];
      if (!out.ex) continue;
      const auto& sample = bench.dev[i];
      const sql::Database& db = bench.DbOf(sample);
      double gold_time = TimedExecution(db, sample.sql, options.ves_repeats);
      double pred_time =
          TimedExecution(db, out.predicted, options.ves_repeats);
      if (gold_time > 0 && pred_time > 0) {
        // R-VES: sqrt of the time ratio, clamped to a sane band.
        double ratio = std::sqrt(gold_time / pred_time);
        out.ves = std::clamp(ratio, 0.0, 2.0);
      } else {
        out.ves = 1.0;
      }
    }
  }

  // ---- merge (serial, index order): the accumulation order is fixed, so
  // the floating-point sums match the serial evaluator exactly.
  double ex_sum = 0, ts_sum = 0, ves_sum = 0;
  for (const SampleEvalResult& out : result.samples) {
    ex_sum += out.ex ? 1.0 : 0.0;
    ts_sum += out.ts ? 1.0 : 0.0;
    ves_sum += out.ves;
  }
  result.metrics.n = static_cast<int>(n);
  if (n > 0) {
    result.metrics.ex = 100.0 * ex_sum / static_cast<double>(n);
    result.metrics.ts = 100.0 * ts_sum / static_cast<double>(n);
    result.metrics.ves = 100.0 * ves_sum / static_cast<double>(n);
  }
  return result;
}

}  // namespace codes
