#include "sqlengine/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "sqlengine/exec_source.h"
#include "sqlengine/parser.h"

namespace codes::sql {

namespace {

/// Hard cap on intermediate row counts; exceeding it aborts execution with
/// an error instead of consuming unbounded memory. ExecGuard budgets are
/// per-request and usually far tighter; this is the engine's own backstop.
constexpr size_t kMaxIntermediateRows = 4'000'000;

/// The executor.step failpoint is evaluated once per statement and then
/// once per this many materialized rows, so an injected fault can land
/// mid-scan without the disabled-registry check costing anything per row.
constexpr size_t kStepFailpointStride = 1024;

/// One row in this many has its text payload measured exactly for byte
/// budgeting; the sample is scaled to cover the stride.
constexpr size_t kByteSampleStride = 8;

/// Hash of a row of values, for hash joins and DISTINCT.
struct RowHash {
  size_t operator()(const Row& row) const {
    size_t h = 1469598103934665603ULL;
    for (const auto& v : row) {
      h ^= v.Hash();
      h *= 1099511628211ULL;
    }
    return h;
  }
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].Compare(b[i]) != 0) return false;
    }
    return true;
  }
};

Result<ResultTable> ExecuteLevel(const ExecSource& source,
                                 const BoundStatement& bound,
                                 const SelectStatement& stmt,
                                 ExecGuard* guard);

/// Runs one SELECT level of a bound statement. Everything a run computes
/// (aggregate values, subquery results) lives here, never in the AST.
class SelectRunner {
 public:
  SelectRunner(const ExecSource& source, const BoundStatement& bound,
               const SelectStatement& stmt, ExecGuard* guard)
      : source_(source),
        bound_(bound),
        stmt_(stmt),
        level_(bound.Level(stmt)),
        guard_(guard) {}

  Result<ResultTable> Run() {
    if (Failpoints::ShouldFail(FailpointSite::kExecutorStep)) {
      return Failpoints::FailStatus(FailpointSite::kExecutorStep);
    }
    if (guard_ != nullptr) CODES_RETURN_IF_ERROR(guard_->Check());
    CODES_RETURN_IF_ERROR(level_.error);
    CODES_ASSIGN_OR_RETURN(std::vector<Row> rows, ProduceJoinedRows());
    return Project(std::move(rows));
  }

 private:
  // -------------------------------------------------------- guard charging
  /// Approximate heap footprint of one materialized row: per-cell Value
  /// storage plus text payloads (an estimate, not allocator-exact).
  static size_t ApproxRowBytes(const Row& row) {
    size_t bytes = row.size() * sizeof(Value);
    for (const auto& v : row) {
      if (v.is_text()) bytes += v.AsText().size();
    }
    return bytes;
  }

  /// Charges one materialized row against the guard and periodically
  /// evaluates the executor.step failpoint. Text payloads are sampled —
  /// every kByteSampleStride-th row is inspected exactly and scaled — so
  /// byte budgeting stays an O(1)-per-row estimate instead of a per-cell
  /// variant walk.
  Status ChargeRow(const Row& row) {
    if (++step_rows_ % kStepFailpointStride == 0 &&
        Failpoints::ShouldFail(FailpointSite::kExecutorStep)) {
      return Failpoints::FailStatus(FailpointSite::kExecutorStep);
    }
    if (guard_ == nullptr) return Status::Ok();
    size_t bytes = 0;
    if (guard_->tracks_bytes() && step_rows_ % kByteSampleStride == 0) {
      bytes = ApproxRowBytes(row) * kByteSampleStride;
    }
    return guard_->ChargeRow(bytes);
  }

  // ------------------------------------------------ access-path selection
  /// Cost rule: an index scan must not be estimated to touch more than
  /// this fraction of the table, else a sequential scan wins (an index
  /// scan pays a tree descent plus a RID sort on top of the row fetches).
  static constexpr double kIndexScanMaxSelectivity = 0.25;

  /// Equality on a non-unique index has no distinct-count statistic;
  /// assume a selective point lookup (passes the cost gate).
  static constexpr double kNonUniqueEqSelectivity = 0.1;

  /// One sargable conjunct: `col op literal` / `col BETWEEN lit AND lit`
  /// over a column of the first FROM table (flat offset 0).
  struct Sarg {
    int column = -1;
    IndexBound lo;
    IndexBound hi;
    bool equality = false;
  };

  /// Flattens the top-level AND chain of the WHERE clause. WHERE true
  /// implies every conjunct true, which is what lets any single conjunct
  /// act as an index prefilter.
  static void CollectConjuncts(const Expr* e, std::vector<const Expr*>* out) {
    if (e == nullptr) return;
    if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAnd) {
      CollectConjuncts(e->children[0].get(), out);
      CollectConjuncts(e->children[1].get(), out);
      return;
    }
    out->push_back(e);
  }

  static BinaryOp MirrorComparison(BinaryOp op) {
    switch (op) {
      case BinaryOp::kLt: return BinaryOp::kGt;
      case BinaryOp::kLe: return BinaryOp::kGe;
      case BinaryOp::kGt: return BinaryOp::kLt;
      case BinaryOp::kGe: return BinaryOp::kLe;
      default: return op;
    }
  }

  /// Extracts a sargable predicate from one conjunct, restricted to
  /// columns of the first FROM table (resolved flat index < first_width).
  /// NULL literals are never sargable (comparisons with NULL are never
  /// true). Bound Value pointers alias the statement's literals, which
  /// outlive the scan.
  static bool SargFromConjunct(const Expr& e, int first_width, Sarg* out) {
    if (e.kind == ExprKind::kBetween && !e.negated) {
      const Expr& col = *e.children[0];
      const Expr& lo = *e.children[1];
      const Expr& hi = *e.children[2];
      if (col.kind != ExprKind::kColumnRef || col.resolved_index < 0 ||
          col.resolved_index >= first_width) {
        return false;
      }
      if (lo.kind != ExprKind::kLiteral || lo.literal.is_null()) return false;
      if (hi.kind != ExprKind::kLiteral || hi.literal.is_null()) return false;
      out->column = col.resolved_index;
      out->lo = {&lo.literal, true};
      out->hi = {&hi.literal, true};
      return true;
    }
    if (e.kind != ExprKind::kBinary) return false;
    BinaryOp op = e.binary_op;
    if (op != BinaryOp::kEq && op != BinaryOp::kLt && op != BinaryOp::kLe &&
        op != BinaryOp::kGt && op != BinaryOp::kGe) {
      return false;
    }
    const Expr* lhs = e.children[0].get();
    const Expr* rhs = e.children[1].get();
    if (lhs->kind == ExprKind::kLiteral && rhs->kind == ExprKind::kColumnRef) {
      std::swap(lhs, rhs);
      op = MirrorComparison(op);  // 5 < col  ==  col > 5
    }
    if (lhs->kind != ExprKind::kColumnRef || rhs->kind != ExprKind::kLiteral) {
      return false;
    }
    if (lhs->resolved_index < 0 || lhs->resolved_index >= first_width) {
      return false;
    }
    const Value& lit = rhs->literal;
    if (lit.is_null()) return false;
    out->column = lhs->resolved_index;
    switch (op) {
      case BinaryOp::kEq:
        out->lo = {&lit, true};
        out->hi = {&lit, true};
        out->equality = true;
        break;
      case BinaryOp::kLt: out->hi = {&lit, false}; break;
      case BinaryOp::kLe: out->hi = {&lit, true}; break;
      case BinaryOp::kGt: out->lo = {&lit, false}; break;
      case BinaryOp::kGe: out->lo = {&lit, true}; break;
      default: return false;
    }
    return true;
  }

  /// An index scan evaluates the WHERE clause over fewer rows than a full
  /// scan, so any WHERE subexpression that can raise an execution error
  /// (unknown function, bare '*', misused aggregate, erroring subquery)
  /// would make error behavior depend on the access path. Such clauses
  /// always take the sequential path.
  static bool SafeForPrefilter(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kStar:
      case ExprKind::kFunction:
      case ExprKind::kInSubquery:
      case ExprKind::kScalarSubquery:
        return false;
      default:
        break;
    }
    for (const auto& c : e.children) {
      if (!SafeForPrefilter(*c)) return false;
    }
    return true;
  }

  /// Index ordering is Value::Compare (NULL-free); predicate evaluation is
  /// EvalBinary. The two agree exactly when the column values and the
  /// literal bounds sit on the same side of the numeric/text divide, so an
  /// index is usable only for a clean same-class match.
  static bool SargMatchesStats(const Sarg& s, const ColumnIndexStats& st) {
    using VC = ColumnIndexStats::ValueClass;
    if (st.value_class == VC::kMixed) return false;
    if (st.value_class == VC::kEmpty) return true;  // no rows either way
    if (s.lo.value == nullptr && s.hi.value == nullptr) return false;
    auto bound_ok = [&st](const IndexBound& b) {
      if (b.value == nullptr) return true;
      if (b.value->is_numeric()) return st.value_class == VC::kNumeric;
      if (b.value->is_text()) return st.value_class == VC::kText;
      return false;
    };
    return bound_ok(s.lo) && bound_ok(s.hi);
  }

  /// Fraction of the table the scan is expected to touch. Numeric ranges
  /// use a uniform estimate over the index's [min, max]; text ranges have
  /// no histogram and are treated as unselective.
  static double EstimateSelectivity(const Sarg& s,
                                    const ColumnIndexStats& st) {
    if (st.entries == 0) return 0.0;
    if (s.equality) {
      if (st.unique) return 1.0 / static_cast<double>(st.entries);
      return kNonUniqueEqSelectivity;
    }
    if (st.value_class != ColumnIndexStats::ValueClass::kNumeric) return 1.0;
    double min = st.min_value.ToNumeric();
    double max = st.max_value.ToNumeric();
    double lo = s.lo.value != nullptr ? s.lo.value->ToNumeric() : min;
    double hi = s.hi.value != nullptr ? s.hi.value->ToNumeric() : max;
    lo = std::max(lo, min);
    hi = std::min(hi, max);
    if (hi < lo) return 0.0;
    if (max <= min) return 1.0;  // single distinct key
    return (hi - lo) / (max - min);
  }

  /// Picks the access path that seeds the plan for backends without a
  /// direct row vector: the first sargable WHERE conjunct with a usable,
  /// selective-enough index wins; otherwise sequential scan. Never returns
  /// null.
  std::unique_ptr<RowCursor> ChooseSeedCursor(int table_index,
                                              int first_width) {
    static Counter& index_paths =
        MetricsRegistry::Global().GetCounter("storage.path.index_scan");
    static Counter& seq_paths =
        MetricsRegistry::Global().GetCounter("storage.path.seq_scan");
    std::unique_ptr<RowCursor> chosen;
    if (stmt_.where != nullptr && SafeForPrefilter(*stmt_.where)) {
      std::vector<const Expr*> conjuncts;
      CollectConjuncts(stmt_.where.get(), &conjuncts);
      for (const Expr* conjunct : conjuncts) {
        Sarg sarg;
        if (!SargFromConjunct(*conjunct, first_width, &sarg)) continue;
        ColumnIndexStats stats;
        if (!source_.IndexStats(table_index, sarg.column, &stats)) continue;
        if (!SargMatchesStats(sarg, stats)) continue;
        if (EstimateSelectivity(sarg, stats) > kIndexScanMaxSelectivity) {
          continue;
        }
        chosen = source_.IndexScan(table_index, sarg.column, sarg.lo, sarg.hi);
        if (chosen != nullptr) break;
      }
    }
    if (chosen != nullptr) {
      index_paths.Increment();
    } else {
      seq_paths.Increment();
      chosen = source_.Scan(table_index);
    }
    return chosen;
  }

  /// Materializes a join's right table when the backend has no direct row
  /// vector. Right-table rows are not charged here — matching historical
  /// behavior, where only combined rows are charged during joins.
  Result<const std::vector<Row>*> MaterializeTable(
      int table_index, std::vector<Row>* storage) {
    if (const std::vector<Row>* direct = source_.DirectRows(table_index)) {
      return direct;
    }
    storage->clear();
    storage->reserve(source_.SourceRowCount(table_index));
    std::unique_ptr<RowCursor> cursor = source_.Scan(table_index);
    Row row;
    while (cursor->Next(&row)) {
      storage->push_back(std::move(row));
      if (storage->size() > kMaxIntermediateRows) {
        return Status::ExecutionError("scan result too large");
      }
    }
    CODES_RETURN_IF_ERROR(cursor->status());
    return storage;
  }

  // ------------------------------------------------------------ join phase
  /// Computes the joined, WHERE-filtered working rows.
  Result<std::vector<Row>> ProduceJoinedRows() {
    // Seed with the first table through its chosen access path.
    const std::vector<BoundTable>& tables = level_.tables;
    const int first_table = tables[0].table_index;
    const int first_width = static_cast<int>(
        source_.schema().tables[first_table].columns.size());
    std::vector<Row> current;
    if (const std::vector<Row>* direct = source_.DirectRows(first_table)) {
      current.reserve(direct->size());
      for (const auto& row : *direct) {
        current.push_back(row);
        CODES_RETURN_IF_ERROR(ChargeRow(current.back()));
      }
    } else {
      std::unique_ptr<RowCursor> cursor =
          ChooseSeedCursor(first_table, first_width);
      current.reserve(source_.SourceRowCount(first_table));
      Row row;
      while (cursor->Next(&row)) {
        current.push_back(std::move(row));
        CODES_RETURN_IF_ERROR(ChargeRow(current.back()));
      }
      CODES_RETURN_IF_ERROR(cursor->status());
    }
    int current_width = first_width;

    for (size_t j = 0; j < stmt_.joins.size(); ++j) {
      const JoinClause& join = stmt_.joins[j];
      const BoundTable& entry = tables[j + 1];
      std::vector<Row> right_storage;
      CODES_ASSIGN_OR_RETURN(
          const std::vector<Row>* right_rows,
          MaterializeTable(entry.table_index, &right_storage));
      int right_width = static_cast<int>(
          source_.schema().tables[entry.table_index].columns.size());

      // Try hash join: condition of form colA = colB with one side in the
      // accumulated prefix and the other in the new table.
      int left_key = -1;
      int right_key = -1;
      if (join.condition && join.condition->kind == ExprKind::kBinary &&
          join.condition->binary_op == BinaryOp::kEq) {
        const Expr& lhs = *join.condition->children[0];
        const Expr& rhs = *join.condition->children[1];
        if (lhs.kind == ExprKind::kColumnRef &&
            rhs.kind == ExprKind::kColumnRef) {
          int li = lhs.resolved_index;
          int ri = rhs.resolved_index;
          int new_offset = entry.offset;
          if (li < new_offset && ri >= new_offset) {
            left_key = li;
            right_key = ri - new_offset;
          } else if (ri < new_offset && li >= new_offset) {
            left_key = ri;
            right_key = li - new_offset;
          }
        }
      }

      std::vector<Row> next;
      if (left_key >= 0) {
        // Hash join on equality keys.
        std::unordered_multimap<size_t, const Row*> table;
        table.reserve(right_rows->size());
        for (const auto& rrow : *right_rows) {
          if (rrow[right_key].is_null()) continue;
          table.emplace(rrow[right_key].Hash(), &rrow);
        }
        for (const auto& lrow : current) {
          const Value& key = lrow[left_key];
          if (key.is_null()) continue;
          auto range = table.equal_range(key.Hash());
          for (auto it = range.first; it != range.second; ++it) {
            const Row& rrow = *it->second;
            if (!key.SqlEquals(rrow[right_key])) continue;
            Row combined = lrow;
            combined.insert(combined.end(), rrow.begin(), rrow.end());
            next.push_back(std::move(combined));
            CODES_RETURN_IF_ERROR(ChargeRow(next.back()));
            if (next.size() > kMaxIntermediateRows) {
              return Status::ExecutionError("join result too large");
            }
          }
        }
      } else {
        // Nested-loop join with optional theta condition.
        for (const auto& lrow : current) {
          for (const auto& rrow : *right_rows) {
            Row combined = lrow;
            combined.insert(combined.end(), rrow.begin(), rrow.end());
            if (join.condition) {
              CODES_ASSIGN_OR_RETURN(Value v, Eval(*join.condition, combined));
              if (!Truthy(v)) continue;
            }
            next.push_back(std::move(combined));
            CODES_RETURN_IF_ERROR(ChargeRow(next.back()));
            if (next.size() > kMaxIntermediateRows) {
              return Status::ExecutionError("join result too large");
            }
          }
        }
      }
      current = std::move(next);
      current_width += right_width;
      (void)current_width;
    }

    if (stmt_.where) {
      std::vector<Row> filtered;
      filtered.reserve(current.size());
      for (auto& row : current) {
        CODES_ASSIGN_OR_RETURN(Value v, Eval(*stmt_.where, row));
        if (Truthy(v)) filtered.push_back(std::move(row));
      }
      current = std::move(filtered);
    }
    return current;
  }

  // ------------------------------------------------------- expression eval
  static bool Truthy(const Value& v) {
    if (v.is_null()) return false;
    return v.ToNumeric() != 0.0;
  }

  /// Three-valued `x [NOT] IN (...)`: TRUE on a match, otherwise NULL when
  /// the list contains a NULL (the comparison to it is unknown), else
  /// FALSE. NOT IN inverts TRUE/FALSE and keeps NULL.
  static Value InResult(const Value& v, const std::vector<Value>& items,
                        bool negated) {
    bool has_null = false;
    for (const auto& item : items) {
      if (item.is_null()) {
        has_null = true;
        continue;
      }
      if (v.SqlEquals(item)) {
        return Value(static_cast<int64_t>(negated ? 0 : 1));
      }
    }
    if (has_null) return Value();
    return Value(static_cast<int64_t>(negated ? 1 : 0));
  }

  /// Evaluates `e` against a working row. In post-aggregation context an
  /// aggregate node reads the value the grouping phase stored in its slot.
  Result<Value> Eval(const Expr& e, const Row& row) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return e.literal;
      case ExprKind::kColumnRef:
        if (e.resolved_index < 0 ||
            e.resolved_index >= static_cast<int>(row.size())) {
          return Status::Internal("unresolved column " + e.column);
        }
        return row[e.resolved_index];
      case ExprKind::kStar:
        return Status::ExecutionError("'*' outside COUNT(*)");
      case ExprKind::kUnary: {
        CODES_ASSIGN_OR_RETURN(Value inner, Eval(*e.children[0], row));
        switch (e.unary_op) {
          case UnaryOp::kNot:
            if (inner.is_null()) return Value();
            return Value(static_cast<int64_t>(Truthy(inner) ? 0 : 1));
          case UnaryOp::kNegate:
            if (inner.is_null()) return Value();
            if (inner.is_integer() &&
                inner.AsInteger() != std::numeric_limits<int64_t>::min()) {
              return Value(-inner.AsInteger());
            }
            return Value(-inner.ToNumeric());
          case UnaryOp::kIsNull:
            return Value(static_cast<int64_t>(inner.is_null() ? 1 : 0));
          case UnaryOp::kIsNotNull:
            return Value(static_cast<int64_t>(inner.is_null() ? 0 : 1));
        }
        return Value();
      }
      case ExprKind::kBinary:
        return EvalBinary(e, row);
      case ExprKind::kFunction:
        return EvalFunction(e, row);
      case ExprKind::kBetween: {
        CODES_ASSIGN_OR_RETURN(Value v, Eval(*e.children[0], row));
        CODES_ASSIGN_OR_RETURN(Value lo, Eval(*e.children[1], row));
        CODES_ASSIGN_OR_RETURN(Value hi, Eval(*e.children[2], row));
        if (v.is_null() || lo.is_null() || hi.is_null()) return Value();
        bool in_range = v.Compare(lo) >= 0 && v.Compare(hi) <= 0;
        if (e.negated) in_range = !in_range;
        return Value(static_cast<int64_t>(in_range ? 1 : 0));
      }
      case ExprKind::kInList: {
        CODES_ASSIGN_OR_RETURN(Value v, Eval(*e.children[0], row));
        if (v.is_null()) return Value();
        return InResult(v, e.in_list, e.negated);
      }
      case ExprKind::kInSubquery: {
        CODES_ASSIGN_OR_RETURN(Value v, Eval(*e.children[0], row));
        if (v.is_null()) return Value();
        CODES_ASSIGN_OR_RETURN(const std::vector<Value>* sub,
                               SubqueryValues(e));
        return InResult(v, *sub, e.negated);
      }
      case ExprKind::kScalarSubquery: {
        CODES_ASSIGN_OR_RETURN(const std::vector<Value>* sub,
                               SubqueryValues(e));
        if (sub->empty()) return Value();
        return (*sub)[0];
      }
      case ExprKind::kCast: {
        CODES_ASSIGN_OR_RETURN(Value v, Eval(*e.children[0], row));
        if (v.is_null()) return Value();
        switch (e.cast_type) {
          case DataType::kInteger: {
            // Out-of-range double→int64 conversion is UB; saturate like a
            // checked cast instead.
            double d = v.ToNumeric();
            if (std::isnan(d)) return Value(static_cast<int64_t>(0));
            if (d >= 9223372036854775808.0) {  // 2^63
              return Value(std::numeric_limits<int64_t>::max());
            }
            if (d < -9223372036854775808.0) {
              return Value(std::numeric_limits<int64_t>::min());
            }
            return Value(static_cast<int64_t>(d));
          }
          case DataType::kReal:
            return Value(v.ToNumeric());
          case DataType::kText:
            return Value(v.ToString());
        }
        return Value();
      }
    }
    return Status::Internal("unhandled expression kind");
  }

  Result<Value> EvalBinary(const Expr& e, const Row& row) {
    // Short-circuit logic with SQLite-style NULL propagation.
    if (e.binary_op == BinaryOp::kAnd || e.binary_op == BinaryOp::kOr) {
      CODES_ASSIGN_OR_RETURN(Value l, Eval(*e.children[0], row));
      CODES_ASSIGN_OR_RETURN(Value r, Eval(*e.children[1], row));
      bool lnull = l.is_null();
      bool rnull = r.is_null();
      bool lt = !lnull && Truthy(l);
      bool rt = !rnull && Truthy(r);
      if (e.binary_op == BinaryOp::kAnd) {
        if ((!lnull && !lt) || (!rnull && !rt)) {
          return Value(static_cast<int64_t>(0));
        }
        if (lnull || rnull) return Value();
        return Value(static_cast<int64_t>(1));
      }
      if (lt || rt) return Value(static_cast<int64_t>(1));
      if (lnull || rnull) return Value();
      return Value(static_cast<int64_t>(0));
    }

    CODES_ASSIGN_OR_RETURN(Value l, Eval(*e.children[0], row));
    CODES_ASSIGN_OR_RETURN(Value r, Eval(*e.children[1], row));

    switch (e.binary_op) {
      case BinaryOp::kEq:
      case BinaryOp::kNe:
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe: {
        if (l.is_null() || r.is_null()) return Value();
        // Text-vs-text compares lexicographically; otherwise numeric.
        int cmp;
        if (l.is_text() && r.is_text()) {
          cmp = l.Compare(r);
        } else if (l.is_numeric() || r.is_numeric()) {
          double a = l.ToNumeric();
          double b = r.ToNumeric();
          cmp = (a < b) ? -1 : (a > b ? 1 : 0);
          // Equality between text and number also requires exact text match
          // of the numeric rendering to avoid '2009-01-01' == 2009.
          if (cmp == 0 && l.is_text() != r.is_text()) {
            const Value& text_side = l.is_text() ? l : r;
            const Value& num_side = l.is_text() ? r : l;
            if (Trim(text_side.AsText()) != num_side.ToString() &&
                text_side.ToNumeric() != num_side.ToNumeric()) {
              cmp = 1;
            }
          }
        } else {
          cmp = l.Compare(r);
        }
        bool out = false;
        switch (e.binary_op) {
          case BinaryOp::kEq: out = (cmp == 0); break;
          case BinaryOp::kNe: out = (cmp != 0); break;
          case BinaryOp::kLt: out = (cmp < 0); break;
          case BinaryOp::kLe: out = (cmp <= 0); break;
          case BinaryOp::kGt: out = (cmp > 0); break;
          case BinaryOp::kGe: out = (cmp >= 0); break;
          default: break;
        }
        return Value(static_cast<int64_t>(out ? 1 : 0));
      }
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kDiv: {
        if (l.is_null() || r.is_null()) return Value();
        double a = l.ToNumeric();
        double b = r.ToNumeric();
        bool both_int = l.is_integer() && r.is_integer();
        // Integer arithmetic widens to REAL on overflow instead of
        // wrapping (signed overflow is UB and trips UBSan).
        int64_t iout = 0;
        switch (e.binary_op) {
          case BinaryOp::kAdd:
            if (both_int && !__builtin_add_overflow(l.AsInteger(),
                                                    r.AsInteger(), &iout)) {
              return Value(iout);
            }
            return Value(a + b);
          case BinaryOp::kSub:
            if (both_int && !__builtin_sub_overflow(l.AsInteger(),
                                                    r.AsInteger(), &iout)) {
              return Value(iout);
            }
            return Value(a - b);
          case BinaryOp::kMul:
            if (both_int && !__builtin_mul_overflow(l.AsInteger(),
                                                    r.AsInteger(), &iout)) {
              return Value(iout);
            }
            return Value(a * b);
          case BinaryOp::kDiv:
            if (b == 0.0) return Value();
            if (both_int && r.AsInteger() != 0 &&
                !(l.AsInteger() == std::numeric_limits<int64_t>::min() &&
                  r.AsInteger() == -1)) {
              return Value(l.AsInteger() / r.AsInteger());
            }
            return Value(a / b);
          default:
            break;
        }
        return Value();
      }
      case BinaryOp::kConcat: {
        if (l.is_null() || r.is_null()) return Value();
        return Value(l.ToString() + r.ToString());
      }
      case BinaryOp::kLike:
      case BinaryOp::kNotLike: {
        if (l.is_null() || r.is_null()) return Value();
        bool match = LikeMatch(l.ToString(), r.ToString());
        if (e.binary_op == BinaryOp::kNotLike) match = !match;
        return Value(static_cast<int64_t>(match ? 1 : 0));
      }
      default:
        break;
    }
    return Status::Internal("unhandled binary op");
  }

  /// SQL LIKE with % and _ wildcards, ASCII case-insensitive.
  static bool LikeMatch(const std::string& text_raw,
                        const std::string& pattern_raw) {
    std::string text = ToLower(text_raw);
    std::string pattern = ToLower(pattern_raw);
    size_t ti = 0, pi = 0, star_ti = std::string::npos, star_pi = 0;
    while (ti < text.size()) {
      if (pi < pattern.size() &&
          (pattern[pi] == '_' || pattern[pi] == text[ti])) {
        ++ti;
        ++pi;
      } else if (pi < pattern.size() && pattern[pi] == '%') {
        star_pi = pi++;
        star_ti = ti;
      } else if (star_ti != std::string::npos) {
        pi = star_pi + 1;
        ti = ++star_ti;
      } else {
        return false;
      }
    }
    while (pi < pattern.size() && pattern[pi] == '%') ++pi;
    return pi == pattern.size();
  }

  Result<Value> EvalFunction(const Expr& e, const Row& row) {
    if (e.IsAggregate()) {
      if (e.agg_slot < 0 ||
          static_cast<size_t>(e.agg_slot) >= agg_values_.size()) {
        return Status::ExecutionError("aggregate " + e.function +
                                      " used outside aggregation context");
      }
      return agg_values_[static_cast<size_t>(e.agg_slot)];
    }
    auto arg = [&](size_t i) -> Result<Value> {
      if (i >= e.children.size()) {
        return Status::ExecutionError(e.function + ": missing argument");
      }
      return Eval(*e.children[i], row);
    };
    const std::string& f = e.function;
    if (f == "ABS") {
      CODES_ASSIGN_OR_RETURN(Value v, arg(0));
      if (v.is_null()) return Value();
      if (v.is_integer() &&
          v.AsInteger() != std::numeric_limits<int64_t>::min()) {
        return Value(std::abs(v.AsInteger()));
      }
      return Value(std::abs(v.ToNumeric()));
    }
    if (f == "ROUND") {
      CODES_ASSIGN_OR_RETURN(Value v, arg(0));
      if (v.is_null()) return Value();
      int64_t digits = 0;
      if (e.children.size() > 1) {
        CODES_ASSIGN_OR_RETURN(Value d, arg(1));
        digits = static_cast<int64_t>(std::clamp(d.ToNumeric(), -30.0, 30.0));
      }
      double scale = std::pow(10.0, static_cast<double>(digits));
      double scaled = std::round(v.ToNumeric() * scale) / scale;
      if (!std::isfinite(scaled)) return Value(v.ToNumeric());
      return Value(scaled);
    }
    if (f == "LENGTH") {
      CODES_ASSIGN_OR_RETURN(Value v, arg(0));
      if (v.is_null()) return Value();
      return Value(static_cast<int64_t>(v.ToString().size()));
    }
    if (f == "UPPER" || f == "LOWER") {
      CODES_ASSIGN_OR_RETURN(Value v, arg(0));
      if (v.is_null()) return Value();
      return Value(f == "UPPER" ? ToUpper(v.ToString())
                                : ToLower(v.ToString()));
    }
    if (f == "SUBSTR" || f == "SUBSTRING") {
      CODES_ASSIGN_OR_RETURN(Value v, arg(0));
      if (v.is_null()) return Value();
      CODES_ASSIGN_OR_RETURN(Value start_v, arg(1));
      std::string s = v.ToString();
      int64_t start = static_cast<int64_t>(start_v.ToNumeric());
      int64_t len = static_cast<int64_t>(s.size());
      if (e.children.size() > 2) {
        CODES_ASSIGN_OR_RETURN(Value len_v, arg(2));
        len = static_cast<int64_t>(len_v.ToNumeric());
      }
      // 1-based indexing per SQL; negative start counts from the end.
      int64_t begin = start > 0 ? start - 1
                                : std::max<int64_t>(0, static_cast<int64_t>(s.size()) + start);
      if (begin >= static_cast<int64_t>(s.size()) || len <= 0) {
        return Value(std::string());
      }
      return Value(s.substr(static_cast<size_t>(begin),
                            static_cast<size_t>(len)));
    }
    if (f == "COALESCE") {
      for (size_t i = 0; i < e.children.size(); ++i) {
        CODES_ASSIGN_OR_RETURN(Value v, arg(i));
        if (!v.is_null()) return v;
      }
      return Value();
    }
    return Status::ExecutionError("unknown function: " + f);
  }

  /// First-column values of an uncorrelated subquery, cached per node.
  /// Subquery execution shares the runner's guard and counts one level of
  /// guarded nesting depth.
  Result<const std::vector<Value>*> SubqueryValues(const Expr& e) {
    auto it = subquery_cache_.find(&e);
    if (it == subquery_cache_.end()) {
      if (guard_ != nullptr) CODES_RETURN_IF_ERROR(guard_->EnterNested());
      auto result = ExecuteLevel(source_, bound_, *e.subquery, guard_);
      if (guard_ != nullptr) guard_->LeaveNested();
      if (!result.ok()) return result.status();
      if (result->NumColumns() < 1) {
        return Status::ExecutionError("subquery returned no columns");
      }
      std::vector<Value> values;
      values.reserve(result->rows.size());
      for (const auto& r : result->rows) values.push_back(r[0]);
      it = subquery_cache_.emplace(&e, std::move(values)).first;
    }
    return &it->second;
  }

  // ------------------------------------------------------ projection phase
  Result<ResultTable> Project(std::vector<Row> rows) {
    const bool has_agg = !stmt_.group_by.empty() || !level_.aggregates.empty();

    ResultTable result;
    for (const auto& item : stmt_.select_list) {
      result.column_names.push_back(
          item.alias.empty() ? item.expr->ToSql() : item.alias);
    }

    // Each output row remembers its ORDER BY keys.
    struct Keyed {
      Row out;
      std::vector<Value> keys;
    };
    std::vector<Keyed> keyed_rows;

    if (!has_agg) {
      for (const auto& row : rows) {
        Keyed k;
        for (const auto& item : stmt_.select_list) {
          CODES_ASSIGN_OR_RETURN(Value v, Eval(*item.expr, row));
          k.out.push_back(std::move(v));
        }
        for (const auto& o : stmt_.order_by) {
          CODES_ASSIGN_OR_RETURN(Value v, Eval(*o.expr, row));
          k.keys.push_back(std::move(v));
        }
        CODES_RETURN_IF_ERROR(ChargeRow(k.out));
        keyed_rows.push_back(std::move(k));
      }
    } else {
      // Group rows.
      std::unordered_map<Row, std::vector<const Row*>, RowHash, RowEq> groups;
      std::vector<Row> group_order;  // deterministic iteration
      for (const auto& row : rows) {
        Row key;
        for (const auto& g : stmt_.group_by) {
          CODES_ASSIGN_OR_RETURN(Value v, Eval(*g, row));
          key.push_back(std::move(v));
        }
        auto [it, inserted] = groups.try_emplace(key);
        if (inserted) group_order.push_back(key);
        it->second.push_back(&row);
      }
      // Global aggregation over zero rows still yields one group.
      if (stmt_.group_by.empty() && groups.empty()) {
        groups.try_emplace(Row{});
        group_order.push_back(Row{});
      }

      // Compute the aggregate calls Bind numbered, per group, into the
      // slots their Expr::agg_slot names.
      const std::vector<const Expr*>& aggregates = level_.aggregates;
      agg_values_.resize(aggregates.size());
      for (const auto& key : group_order) {
        const auto& members = groups[key];
        for (size_t slot = 0; slot < aggregates.size(); ++slot) {
          CODES_ASSIGN_OR_RETURN(agg_values_[slot],
                                 ComputeAggregate(*aggregates[slot], members));
        }
        // Representative row for evaluating group keys inside exprs.
        Row representative;
        if (!members.empty()) {
          representative = *members[0];
        } else {
          representative.assign(static_cast<size_t>(level_.width), Value());
        }
        if (stmt_.having) {
          CODES_ASSIGN_OR_RETURN(Value hv, Eval(*stmt_.having, representative));
          if (!Truthy(hv)) continue;
        }
        Keyed k;
        for (const auto& item : stmt_.select_list) {
          CODES_ASSIGN_OR_RETURN(Value v, Eval(*item.expr, representative));
          k.out.push_back(std::move(v));
        }
        for (const auto& o : stmt_.order_by) {
          CODES_ASSIGN_OR_RETURN(Value v, Eval(*o.expr, representative));
          k.keys.push_back(std::move(v));
        }
        CODES_RETURN_IF_ERROR(ChargeRow(k.out));
        keyed_rows.push_back(std::move(k));
      }
    }

    // DISTINCT.
    if (stmt_.distinct) {
      std::unordered_map<Row, bool, RowHash, RowEq> seen;
      std::vector<Keyed> unique;
      for (auto& k : keyed_rows) {
        if (seen.try_emplace(k.out, true).second) {
          unique.push_back(std::move(k));
        }
      }
      keyed_rows = std::move(unique);
    }

    // ORDER BY (stable sort keeps input order for ties).
    if (!stmt_.order_by.empty()) {
      std::stable_sort(keyed_rows.begin(), keyed_rows.end(),
                       [this](const Keyed& a, const Keyed& b) {
                         for (size_t i = 0; i < stmt_.order_by.size(); ++i) {
                           int cmp = a.keys[i].Compare(b.keys[i]);
                           if (cmp != 0) {
                             return stmt_.order_by[i].ascending ? cmp < 0
                                                                : cmp > 0;
                           }
                         }
                         return false;
                       });
    }

    // LIMIT.
    if (stmt_.limit.has_value() &&
        keyed_rows.size() > static_cast<size_t>(*stmt_.limit)) {
      keyed_rows.resize(static_cast<size_t>(std::max<int64_t>(0, *stmt_.limit)));
    }

    result.rows.reserve(keyed_rows.size());
    for (auto& k : keyed_rows) result.rows.push_back(std::move(k.out));
    return result;
  }

  Result<Value> ComputeAggregate(const Expr& agg,
                                 const std::vector<const Row*>& members) {
    const std::string& f = agg.function;
    bool star = !agg.children.empty() &&
                agg.children[0]->kind == ExprKind::kStar;
    if (f == "COUNT" && (agg.children.empty() || star)) {
      return Value(static_cast<int64_t>(members.size()));
    }
    if (agg.children.empty()) {
      return Status::ExecutionError(f + " requires an argument");
    }
    std::vector<Value> values;
    values.reserve(members.size());
    for (const Row* row : members) {
      CODES_ASSIGN_OR_RETURN(Value v, Eval(*agg.children[0], *row));
      if (!v.is_null()) values.push_back(std::move(v));
    }
    if (agg.distinct_arg) {
      std::vector<Value> unique;
      for (auto& v : values) {
        bool seen = false;
        for (const auto& u : unique) {
          if (u.Compare(v) == 0) {
            seen = true;
            break;
          }
        }
        if (!seen) unique.push_back(std::move(v));
      }
      values = std::move(unique);
    }
    if (f == "COUNT") return Value(static_cast<int64_t>(values.size()));
    if (values.empty()) return Value();  // SUM/AVG/MIN/MAX of nothing: NULL
    if (f == "SUM" || f == "AVG") {
      bool all_int = true;
      double total = 0;
      int64_t itotal = 0;
      for (const auto& v : values) {
        total += v.ToNumeric();
        if (!v.is_integer() ||
            __builtin_add_overflow(itotal, v.AsInteger(), &itotal)) {
          all_int = false;  // overflow: report the REAL running sum
        }
      }
      if (f == "SUM") {
        if (all_int) return Value(itotal);
        return Value(total);
      }
      return Value(total / static_cast<double>(values.size()));
    }
    if (f == "MIN" || f == "MAX") {
      const Value* best = &values[0];
      for (const auto& v : values) {
        int cmp = v.Compare(*best);
        if ((f == "MIN" && cmp < 0) || (f == "MAX" && cmp > 0)) best = &v;
      }
      return *best;
    }
    return Status::ExecutionError("unknown aggregate: " + f);
  }

  const ExecSource& source_;
  const BoundStatement& bound_;
  const SelectStatement& stmt_;
  const BoundSelect& level_;    ///< what Bind recorded for stmt_
  ExecGuard* guard_;            ///< may be null (unguarded)
  size_t step_rows_ = 0;        ///< rows since start, for the step failpoint
  std::vector<Value> agg_values_;  ///< current group's value per agg_slot
  std::unordered_map<const Expr*, std::vector<Value>> subquery_cache_;
};

/// Multiset-combining for set operations.
std::vector<Row> DedupeRows(const std::vector<Row>& rows) {
  std::unordered_map<Row, bool, RowHash, RowEq> seen;
  std::vector<Row> out;
  for (const auto& r : rows) {
    if (seen.try_emplace(r, true).second) out.push_back(r);
  }
  return out;
}

/// Executes `stmt`, one level of `bound`, and its chain of set-op arms.
Result<ResultTable> ExecuteLevel(const ExecSource& source,
                                 const BoundStatement& bound,
                                 const SelectStatement& stmt,
                                 ExecGuard* guard) {
  SelectRunner runner(source, bound, stmt, guard);
  auto left = runner.Run();
  if (!left.ok()) return left.status();
  if (stmt.set_op == SetOp::kNone) return left;

  // The right arm of a set operation counts one level of guarded nesting.
  if (guard != nullptr) CODES_RETURN_IF_ERROR(guard->EnterNested());
  auto right = ExecuteLevel(source, bound, *stmt.set_rhs, guard);
  if (guard != nullptr) guard->LeaveNested();
  if (!right.ok()) return right.status();
  if (left->NumColumns() != right->NumColumns()) {
    return Status::ExecutionError("set operands have different column counts");
  }
  ResultTable out;
  out.column_names = left->column_names;
  switch (stmt.set_op) {
    case SetOp::kUnionAll: {
      out.rows = left->rows;
      out.rows.insert(out.rows.end(), right->rows.begin(), right->rows.end());
      break;
    }
    case SetOp::kUnion: {
      auto all = left->rows;
      all.insert(all.end(), right->rows.begin(), right->rows.end());
      out.rows = DedupeRows(all);
      break;
    }
    case SetOp::kIntersect: {
      std::unordered_map<Row, bool, RowHash, RowEq> in_right;
      for (const auto& r : right->rows) in_right.try_emplace(r, true);
      for (const auto& r : DedupeRows(left->rows)) {
        if (in_right.count(r)) out.rows.push_back(r);
      }
      break;
    }
    case SetOp::kExcept: {
      std::unordered_map<Row, bool, RowHash, RowEq> in_right;
      for (const auto& r : right->rows) in_right.try_emplace(r, true);
      for (const auto& r : DedupeRows(left->rows)) {
        if (!in_right.count(r)) out.rows.push_back(r);
      }
      break;
    }
    case SetOp::kNone:
      break;
  }
  return out;
}

}  // namespace

Result<ResultTable> Execute(const ExecSource& source,
                            const BoundStatement& bound, ExecGuard* guard) {
  return ExecuteLevel(source, bound, bound.statement(), guard);
}

Result<ResultTable> ExecuteSql(const ExecSource& source, std::string_view sql,
                               ExecGuard* guard) {
  CODES_ASSIGN_OR_RETURN(auto stmt, ParseSql(sql));
  return Execute(source, Bind(std::move(stmt), source.schema()), guard);
}

bool IsExecutable(const ExecSource& source, std::string_view sql) {
  return ExecuteSql(source, sql).ok();
}

}  // namespace codes::sql
