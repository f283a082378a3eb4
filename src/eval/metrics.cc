#include "eval/metrics.h"

#include <functional>

#include "eval/parallel_eval.h"
#include "sqlengine/executor.h"
#include "sqlengine/parser.h"

namespace codes {

namespace {

/// Runs the gold SQL from one parse: its ORDER BY decides whether row
/// order counts, and the same statement is bound and executed.
bool ExecuteGold(const sql::Database& db, const std::string& gold,
                 sql::ResultTable* result, bool* ordered) {
  auto stmt = sql::ParseSql(gold);
  if (!stmt.ok()) return false;
  *ordered = (*stmt)->HasOrderBy();
  auto run = sql::Execute(db, sql::Bind(std::move(*stmt), db.schema()));
  if (!run.ok()) return false;
  *result = std::move(*run);
  return true;
}

}  // namespace

bool ExecutionMatch(const sql::Database& db, const std::string& predicted,
                    const std::string& gold) {
  sql::ResultTable gold_result;
  bool ordered = false;
  if (!ExecuteGold(db, gold, &gold_result, &ordered)) return false;
  auto pred_result = sql::ExecuteSql(db, predicted);
  if (!pred_result.ok()) return false;
  return sql::ResultsEquivalent(*pred_result, gold_result, ordered);
}

bool LenientExecutionMatch(const sql::Database& db,
                           const std::string& predicted,
                           const std::string& gold) {
  sql::ResultTable gold_result;
  bool ordered = false;
  if (!ExecuteGold(db, gold, &gold_result, &ordered)) return false;
  auto pred_result = sql::ExecuteSql(db, predicted);
  if (!pred_result.ok()) return false;
  if (sql::ResultsEquivalent(*pred_result, gold_result, ordered)) return true;
  size_t g = gold_result.NumColumns();
  size_t p = pred_result->NumColumns();
  if (p <= g || g == 0 || p > g + 3) return false;
  // Try every g-sized combination of predicted columns (p is small).
  std::vector<size_t> pick(g);
  std::function<bool(size_t, size_t)> search = [&](size_t start,
                                                   size_t depth) -> bool {
    if (depth == g) {
      sql::ResultTable projected;
      projected.column_names.resize(g);
      projected.rows.reserve(pred_result->rows.size());
      for (const auto& row : pred_result->rows) {
        std::vector<sql::Value> out;
        out.reserve(g);
        for (size_t i = 0; i < g; ++i) out.push_back(row[pick[i]]);
        projected.rows.push_back(std::move(out));
      }
      return sql::ResultsEquivalent(projected, gold_result, ordered);
    }
    for (size_t i = start; i < p; ++i) {
      pick[depth] = i;
      if (search(i + 1, depth + 1)) return true;
    }
    return false;
  };
  return search(0, 0);
}

EvalMetrics EvaluateDevSet(const Text2SqlBenchmark& bench,
                           const SqlPredictor& predictor,
                           const EvalOptions& options) {
  // The sharded driver with num_threads == 1 is bit-for-bit the historical
  // serial loop; see eval/parallel_eval.h for the determinism argument.
  return ParallelEvaluateDevSet(bench, predictor, options).metrics;
}

}  // namespace codes
