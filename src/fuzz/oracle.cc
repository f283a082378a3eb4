#include "fuzz/oracle.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "sqlengine/executor.h"
#include "sqlengine/fingerprint.h"
#include "sqlengine/parser.h"
#include "sqlengine/result_table.h"

namespace codes::fuzz {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::ResultTable;
using sql::SelectStatement;
using sql::UnaryOp;
using sql::Value;

const char* OracleName(OracleId id) {
  switch (id) {
    case OracleId::kExec: return "exec";
    case OracleId::kRoundTrip: return "roundtrip";
    case OracleId::kRerun: return "rerun";
    case OracleId::kTlp: return "tlp";
    case OracleId::kNoRec: return "norec";
    case OracleId::kOrderLimit: return "orderlimit";
    case OracleId::kStorageDiff: return "storagediff";
  }
  return "unknown";
}

namespace {

bool Truthy(const Value& v) { return !v.is_null() && v.ToNumeric() != 0.0; }

/// Exact (type- and bit-sensitive) value equality, stricter than the EX
/// metric's tolerant comparison: rerun and limit-prefix checks compare two
/// executions of the same engine, so any difference at all is a bug.
bool ValueExact(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_integer() && b.is_integer()) return a.AsInteger() == b.AsInteger();
  if (a.is_real() && b.is_real()) {
    // NaN is bitwise-identical across two runs of the same engine, so
    // treat NaN == NaN here; `==` alone would flag it as a difference.
    if (std::isnan(a.AsReal()) && std::isnan(b.AsReal())) return true;
    return a.AsReal() == b.AsReal();
  }
  if (a.is_text() && b.is_text()) return a.AsText() == b.AsText();
  return false;
}

bool TableExact(const ResultTable& a, const ResultTable& b) {
  if (a.NumColumns() != b.NumColumns() || a.NumRows() != b.NumRows()) {
    return false;
  }
  for (size_t r = 0; r < a.rows.size(); ++r) {
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      if (!ValueExact(a.rows[r][c], b.rows[r][c])) return false;
    }
  }
  return true;
}

std::string Clip(const std::string& s) {
  constexpr size_t kMax = 200;
  if (s.size() <= kMax) return s;
  return s.substr(0, kMax) + "...";
}

/// Binds `stmt` against `db` and executes it.
Result<ResultTable> BindAndRun(const sql::Database& db,
                               std::unique_ptr<SelectStatement> stmt) {
  return sql::Execute(db, sql::Bind(std::move(stmt), db.schema()));
}

std::unique_ptr<Expr> AndWith(std::unique_ptr<Expr> where,
                              std::unique_ptr<Expr> p) {
  if (!where) return p;
  return Expr::MakeBinary(BinaryOp::kAnd, std::move(where), std::move(p));
}

void CheckRerun(const sql::Database& db, const sql::BoundStatement& bound,
                const ResultTable& base, std::vector<OracleViolation>* out) {
  auto again = sql::Execute(db, bound);
  if (!again.ok()) {
    out->push_back({OracleId::kRerun,
                    "second execution failed: " + again.status().ToString()});
    return;
  }
  if (!TableExact(base, *again)) {
    out->push_back({OracleId::kRerun,
                    "second execution differs (" +
                        std::to_string(base.NumRows()) + " vs " +
                        std::to_string(again->NumRows()) + " rows)"});
  }
}

void CheckRoundTrip(const sql::Database& db, const SelectStatement& stmt,
                    const ResultTable& base,
                    std::vector<OracleViolation>* out) {
  const std::string sql1 = stmt.ToSql();
  auto parsed = sql::ParseSql(sql1);
  if (!parsed.ok()) {
    out->push_back({OracleId::kRoundTrip,
                    "reparse failed: " + parsed.status().ToString() +
                        " sql=" + Clip(sql1)});
    return;
  }
  const SelectStatement& reparsed = **parsed;
  const std::string sql2 = reparsed.ToSql();
  if (sql2 != sql1) {
    out->push_back({OracleId::kRoundTrip,
                    "not a serialization fixpoint: " + Clip(sql1) + " -> " +
                        Clip(sql2)});
  }
  const std::string key1 = sql::FingerprintOf(stmt).ToKey();
  const std::string key2 = sql::FingerprintOf(reparsed).ToKey();
  if (key1 != key2) {
    out->push_back({OracleId::kRoundTrip,
                    "fingerprint changed: " + key1 + " -> " + key2 +
                        " sql=" + Clip(sql1)});
  }
  auto result = BindAndRun(db, std::move(*parsed));
  if (!result.ok()) {
    out->push_back({OracleId::kRoundTrip,
                    "reparsed execution failed: " +
                        result.status().ToString() + " sql=" + Clip(sql1)});
    return;
  }
  if (!sql::ResultsEquivalent(base, *result, stmt.HasOrderBy())) {
    out->push_back({OracleId::kRoundTrip,
                    "reparsed execution differs (" +
                        std::to_string(base.NumRows()) + " vs " +
                        std::to_string(result->NumRows()) +
                        " rows) sql=" + Clip(sql1)});
  }
}

void CheckTlp(const sql::Database& db, const QueryGenerator& gen,
              const SelectStatement& stmt, const ResultTable& base,
              uint64_t oracle_seed, std::vector<OracleViolation>* out) {
  Rng rng(oracle_seed);
  auto p = gen.GeneratePredicateFor(stmt, rng);

  ResultTable combined;
  combined.column_names = base.column_names;
  for (int part = 0; part < 3; ++part) {
    auto clone = stmt.Clone();
    clone->order_by.clear();  // multiset comparison; skip the sort
    auto branch = p->Clone();
    if (part == 1) {
      branch = Expr::MakeUnary(UnaryOp::kNot, std::move(branch));
    } else if (part == 2) {
      branch = Expr::MakeUnary(UnaryOp::kIsNull, std::move(branch));
    }
    clone->where = AndWith(std::move(clone->where), std::move(branch));
    auto result = BindAndRun(db, std::move(clone));
    if (!result.ok()) {
      out->push_back({OracleId::kTlp,
                      "partition " + std::to_string(part) + " failed: " +
                          result.status().ToString() + " p=" +
                          Clip(p->ToSql())});
      return;
    }
    for (auto& row : result->rows) combined.rows.push_back(std::move(row));
  }
  if (!sql::ResultsEquivalent(base, combined, /*ordered=*/false)) {
    out->push_back({OracleId::kTlp,
                    "partition union differs: " +
                        std::to_string(base.NumRows()) + " base rows vs " +
                        std::to_string(combined.NumRows()) +
                        " partitioned, p=" + Clip(p->ToSql())});
  }
}

void CheckNoRec(const sql::Database& db, const SelectStatement& stmt,
                const ResultTable& base, std::vector<OracleViolation>* out) {
  auto probe = stmt.Clone();
  probe->order_by.clear();
  sql::SelectItem item;
  item.expr = probe->where->Clone();
  probe->select_list.clear();
  probe->select_list.push_back(std::move(item));
  probe->where.reset();

  auto result = BindAndRun(db, std::move(probe));
  if (!result.ok()) {
    out->push_back({OracleId::kNoRec,
                    "hoisted predicate failed: " +
                        result.status().ToString()});
    return;
  }
  size_t truthy = 0;
  for (const auto& row : result->rows) {
    if (!row.empty() && Truthy(row[0])) ++truthy;
  }
  if (truthy != base.NumRows()) {
    out->push_back({OracleId::kNoRec,
                    "filtered row count " + std::to_string(base.NumRows()) +
                        " != " + std::to_string(truthy) +
                        " truthy hoisted predicates, p=" +
                        Clip(stmt.where->ToSql())});
  }
}

void CheckOrderLimit(const sql::Database& db, const SelectStatement& stmt,
                     const ResultTable& base,
                     std::vector<OracleViolation>* out) {
  const ResultTable* full = &base;
  Result<ResultTable> unlimited = ResultTable{};
  if (stmt.limit.has_value()) {
    auto clone = stmt.Clone();
    clone->limit.reset();
    unlimited = BindAndRun(db, std::move(clone));
    if (!unlimited.ok()) {
      out->push_back({OracleId::kOrderLimit,
                      "unlimited rerun failed: " +
                          unlimited.status().ToString()});
      return;
    }
    full = &*unlimited;

    // LIMIT k must produce the exact k-prefix of the unlimited result
    // (the sort is stable and execution deterministic, so even ties must
    // agree).
    size_t expect = std::min<size_t>(
        full->NumRows(),
        static_cast<size_t>(std::max<int64_t>(0, *stmt.limit)));
    bool prefix_ok = base.NumRows() == expect;
    for (size_t r = 0; prefix_ok && r < expect; ++r) {
      for (size_t c = 0; c < base.rows[r].size(); ++c) {
        if (!ValueExact(base.rows[r][c], full->rows[r][c])) {
          prefix_ok = false;
          break;
        }
      }
    }
    if (!prefix_ok) {
      out->push_back({OracleId::kOrderLimit,
                      "LIMIT " + std::to_string(*stmt.limit) +
                          " result is not a prefix of the unlimited result"});
      return;
    }
  }

  // Sortedness: map each ORDER BY key to the select column that prints
  // identically; check the matched key prefix is monotone under the
  // executor's comparator (NULLs sort first ascending).
  std::vector<std::pair<size_t, bool>> keys;  // (column index, ascending)
  for (const auto& order : stmt.order_by) {
    const std::string key_sql = order.expr->ToSql();
    bool matched = false;
    for (size_t i = 0; i < stmt.select_list.size(); ++i) {
      if (stmt.select_list[i].expr->ToSql() == key_sql) {
        keys.emplace_back(i, order.ascending);
        matched = true;
        break;
      }
    }
    if (!matched) break;  // only a matched prefix is checkable
  }
  if (keys.empty()) return;
  for (size_t r = 1; r < full->rows.size(); ++r) {
    const auto& prev = full->rows[r - 1];
    const auto& cur = full->rows[r];
    for (const auto& [col, ascending] : keys) {
      int cmp = prev[col].Compare(cur[col]);
      if (cmp == 0) continue;
      bool ok = ascending ? cmp < 0 : cmp > 0;
      if (!ok) {
        out->push_back({OracleId::kOrderLimit,
                        "rows " + std::to_string(r - 1) + "/" +
                            std::to_string(r) +
                            " violate ORDER BY on output column " +
                            std::to_string(col)});
        return;
      }
      break;  // ordered by this key; later keys are tie-breakers only
    }
  }
}

/// Differential backend check: byte-identical results (or identical error
/// statuses) between the in-memory execution and the disk-backed one. The
/// disk backend may pick an index-scan access path, so this is what pins
/// access-path equivalence.
void CheckStorageDiff(const sql::ExecSource& storage,
                      const sql::BoundStatement& bound,
                      const Result<ResultTable>& base,
                      std::vector<OracleViolation>* out) {
  auto disk = sql::Execute(storage, bound);
  if (base.ok() != disk.ok()) {
    out->push_back({OracleId::kStorageDiff,
                    std::string("backends disagree on outcome: memory=") +
                        (base.ok() ? "ok" : base.status().ToString()) +
                        " disk=" +
                        (disk.ok() ? "ok" : disk.status().ToString())});
    return;
  }
  if (!base.ok()) {
    if (base.status().code() != disk.status().code() ||
        base.status().message() != disk.status().message()) {
      out->push_back({OracleId::kStorageDiff,
                      "backends fail differently: memory=" +
                          base.status().ToString() +
                          " disk=" + disk.status().ToString()});
    }
    return;
  }
  if (base->column_names != disk->column_names) {
    out->push_back({OracleId::kStorageDiff,
                    "column names differ between backends"});
    return;
  }
  if (!TableExact(*base, *disk)) {
    out->push_back({OracleId::kStorageDiff,
                    "disk-backed result differs (" +
                        std::to_string(base->NumRows()) + " vs " +
                        std::to_string(disk->NumRows()) + " rows)"});
  }
}

}  // namespace

bool PartitionOraclesApplicable(const SelectStatement& stmt) {
  if (stmt.distinct || !stmt.group_by.empty() || stmt.having ||
      stmt.limit.has_value() || stmt.set_op != sql::SetOp::kNone) {
    return false;
  }
  for (const auto& item : stmt.select_list) {
    if (item.expr->ContainsAggregate()) return false;
  }
  return true;
}

std::vector<OracleViolation> RunOracles(const sql::Database& db,
                                        const QueryGenerator& gen,
                                        const SelectStatement& stmt,
                                        uint64_t oracle_seed,
                                        const sql::ExecSource* storage) {
  std::vector<OracleViolation> out;
  // Every oracle checks the bound copy, whose text has '*', aliases and
  // positions rewritten; `stmt` keeps the generator's SQL for reproducers.
  // The storage twin holds a copy of db's schema, so one bind serves both.
  const sql::BoundStatement bound = sql::Bind(stmt.Clone(), db.schema());
  const SelectStatement& checked = bound.statement();

  auto base = sql::Execute(db, bound);
  // The differential oracle runs even for failing statements: the two
  // backends must agree on the error, not just on result bytes.
  if (storage != nullptr) CheckStorageDiff(*storage, bound, base, &out);
  if (!base.ok()) {
    out.push_back({OracleId::kExec,
                   "execution failed: " + base.status().ToString()});
    return out;
  }

  CheckRerun(db, bound, *base, &out);
  CheckRoundTrip(db, checked, *base, &out);
  if (PartitionOraclesApplicable(checked)) {
    CheckTlp(db, gen, checked, *base, oracle_seed, &out);
    if (checked.where) CheckNoRec(db, checked, *base, &out);
  }
  if (!checked.order_by.empty() && checked.set_op == sql::SetOp::kNone) {
    CheckOrderLimit(db, checked, *base, &out);
  }
  return out;
}

}  // namespace codes::fuzz
