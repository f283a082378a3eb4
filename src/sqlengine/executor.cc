#include "sqlengine/executor.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
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
/// once per this many produced rows, so an injected fault can land
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

/// Indices of the first occurrence of each distinct row of `rows`, in
/// order (rows are equal when every cell compares equal).
std::vector<uint32_t> FirstOccurrences(const std::vector<Row>& rows) {
  struct HashAt {
    const std::vector<Row>* rows;
    size_t operator()(uint32_t i) const { return RowHash()((*rows)[i]); }
  };
  struct EqAt {
    const std::vector<Row>* rows;
    bool operator()(uint32_t a, uint32_t b) const {
      return RowEq()((*rows)[a], (*rows)[b]);
    }
  };
  std::unordered_set<uint32_t, HashAt, EqAt> seen(rows.size(), HashAt{&rows},
                                                  EqAt{&rows});
  std::vector<uint32_t> first;
  for (uint32_t i = 0; i < rows.size(); ++i) {
    if (seen.insert(i).second) first.push_back(i);
  }
  return first;
}

/// Multiset-combining for set operations: the first occurrence of each
/// distinct row, in order.
std::vector<Row> DedupeRows(std::vector<Row> rows) {
  std::vector<Row> out;
  for (uint32_t i : FirstOccurrences(rows)) out.push_back(std::move(rows[i]));
  return out;
}

Result<ResultTable> ExecuteLevel(const ExecSource& source,
                                 const BoundStatement& bound,
                                 const SelectStatement& stmt,
                                 ExecGuard* guard);

/// A working row: one pointer per joined table, each to a row the source
/// stores, and the number of flat columns those tables hold.
struct RowRef {
  const Row* const* parts;
  int width;
};

/// The working rows of a plan: `stride` row pointers per working row, one
/// per table joined so far, in the order the joins produced them.
struct WorkingRows {
  std::vector<const Row*> parts;
  size_t stride = 1;
  int width = 0;

  size_t size() const { return parts.size() / stride; }
  RowRef at(size_t i) const { return {parts.data() + i * stride, width}; }
};

/// Runs one SELECT level of a bound statement. Everything a run computes
/// (aggregate values, subquery results) lives here, never in the AST.
///
/// No source row is copied: working rows point into the source's own row
/// vectors (or, for a backend without them, into rows fetched once per
/// table), and expressions read literals and cells in place. The only
/// rows built are output rows and group keys.
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
    CODES_ASSIGN_OR_RETURN(WorkingRows rows, ProduceJoinedRows());
    return Project(rows);
  }

 private:
  // -------------------------------------------------------- guard charging
  /// Approximate heap footprint of one working row made of `count` parts:
  /// per-cell Value storage plus text payloads (an estimate, not
  /// allocator-exact). A joined row costs the sum of its parts, exactly
  /// what the same row would cost as one flat vector.
  static size_t ApproxRowBytes(const Row* const* parts, size_t count) {
    size_t bytes = 0;
    for (size_t p = 0; p < count; ++p) {
      bytes += parts[p]->size() * sizeof(Value);
      for (const auto& v : *parts[p]) {
        if (v.is_text()) bytes += v.AsText().size();
      }
    }
    return bytes;
  }

  /// Charges one produced row (scanned, joined or projected) against the
  /// guard and periodically evaluates the executor.step failpoint. Text
  /// payloads are sampled — every kByteSampleStride-th row is inspected
  /// exactly and scaled — so byte budgeting stays an O(1)-per-row estimate
  /// instead of a per-cell variant walk.
  Status ChargeRow(const Row* const* parts, size_t count) {
    if (++step_rows_ % kStepFailpointStride == 0 &&
        Failpoints::ShouldFail(FailpointSite::kExecutorStep)) {
      return Failpoints::FailStatus(FailpointSite::kExecutorStep);
    }
    if (guard_ == nullptr) return Status::Ok();
    size_t bytes = 0;
    if (guard_->tracks_bytes() && step_rows_ % kByteSampleStride == 0) {
      bytes = ApproxRowBytes(parts, count) * kByteSampleStride;
    }
    return guard_->ChargeRow(bytes);
  }
  Status ChargeRow(const Row& row) {
    const Row* part = &row;
    return ChargeRow(&part, 1);
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

  /// A new vector for rows fetched from a backend without a direct row
  /// vector. Working rows point into these vectors, so they are never
  /// moved: at most one is fetched per joined table, and the capacity for
  /// all of them is reserved up front.
  std::vector<Row>* NewFetched() {
    if (fetched_.capacity() == 0) fetched_.reserve(level_.tables.size());
    CODES_CHECK(fetched_.size() < fetched_.capacity());
    return &fetched_.emplace_back();
  }

  /// The rows of a join's right table: the backend's own vector, or one
  /// fetched by a full scan. Right-table rows are not charged here — only
  /// the joined rows are charged.
  Result<const std::vector<Row>*> MaterializeTable(int table_index) {
    if (const std::vector<Row>* direct = source_.DirectRows(table_index)) {
      return direct;
    }
    std::vector<Row>* storage = NewFetched();
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

  /// The joined table that flat column `index` belongs to.
  size_t SlotOf(int index) const {
    size_t slot = level_.tables.size() - 1;
    while (index < level_.tables[slot].offset) --slot;
    return slot;
  }

  /// The cell at flat column `index` (< row.width) of a working row.
  const Value& CellAt(RowRef row, int index) const {
    const size_t slot = SlotOf(index);
    return (*row.parts[slot])[static_cast<size_t>(
        index - level_.tables[slot].offset)];
  }

  // ------------------------------------------------------------ join phase
  /// Computes the joined, WHERE-filtered working rows. Rows are charged as
  /// they are produced: each seed row, then each joined row. WHERE runs
  /// after the joins, so the charges do not depend on it.
  Result<WorkingRows> ProduceJoinedRows() {
    // Seed with the first table through its chosen access path.
    const std::vector<BoundTable>& tables = level_.tables;
    const int first_table = tables[0].table_index;
    const int first_width = static_cast<int>(
        source_.schema().tables[first_table].columns.size());
    WorkingRows current;
    current.width = first_width;
    const std::vector<Row>* seed = source_.DirectRows(first_table);
    if (seed != nullptr) {
      for (const Row& row : *seed) CODES_RETURN_IF_ERROR(ChargeRow(row));
    } else {
      std::unique_ptr<RowCursor> cursor =
          ChooseSeedCursor(first_table, first_width);
      std::vector<Row>* fetched = NewFetched();
      fetched->reserve(source_.SourceRowCount(first_table));
      Row row;
      while (cursor->Next(&row)) {
        fetched->push_back(std::move(row));
        CODES_RETURN_IF_ERROR(ChargeRow(fetched->back()));
      }
      CODES_RETURN_IF_ERROR(cursor->status());
      seed = fetched;
    }
    current.parts.reserve(seed->size());
    for (const Row& row : *seed) current.parts.push_back(&row);

    for (size_t j = 0; j < stmt_.joins.size(); ++j) {
      const JoinClause& join = stmt_.joins[j];
      const BoundTable& entry = tables[j + 1];
      CODES_ASSIGN_OR_RETURN(const std::vector<Row>* right_rows,
                             MaterializeTable(entry.table_index));
      const int right_width = static_cast<int>(
          source_.schema().tables[entry.table_index].columns.size());
      const int joined_width = entry.offset + right_width;

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
          auto in_new = [&](int i) {
            return i >= entry.offset && i < joined_width;
          };
          int li = lhs.resolved_index;
          int ri = rhs.resolved_index;
          if (li >= 0 && li < entry.offset && in_new(ri)) {
            left_key = li;
            right_key = ri - entry.offset;
          } else if (ri >= 0 && ri < entry.offset && in_new(li)) {
            left_key = ri;
            right_key = li - entry.offset;
          }
        }
      }

      WorkingRows next;
      next.stride = current.stride + 1;
      next.width = joined_width;
      // Appends the current row `lrow` joined with `rrow` and charges it.
      auto emit = [&](RowRef lrow, const Row& rrow) -> Status {
        next.parts.insert(next.parts.end(), lrow.parts,
                          lrow.parts + current.stride);
        next.parts.push_back(&rrow);
        CODES_RETURN_IF_ERROR(ChargeRow(
            next.parts.data() + next.parts.size() - next.stride,
            next.stride));
        if (next.size() > kMaxIntermediateRows) {
          return Status::ExecutionError("join result too large");
        }
        return Status::Ok();
      };
      if (left_key >= 0) {
        // Hash join on equality keys.
        std::unordered_multimap<size_t, const Row*> table;
        table.reserve(right_rows->size());
        for (const auto& rrow : *right_rows) {
          if (rrow[right_key].is_null()) continue;
          table.emplace(rrow[right_key].Hash(), &rrow);
        }
        for (size_t i = 0; i < current.size(); ++i) {
          const RowRef lrow = current.at(i);
          const Value& key = CellAt(lrow, left_key);
          if (key.is_null()) continue;
          auto range = table.equal_range(key.Hash());
          for (auto it = range.first; it != range.second; ++it) {
            const Row& rrow = *it->second;
            if (!key.SqlEquals(rrow[right_key])) continue;
            CODES_RETURN_IF_ERROR(emit(lrow, rrow));
          }
        }
      } else {
        // Nested-loop join with optional theta condition, tested on a
        // candidate row that is appended only when it passes.
        std::vector<const Row*> candidate(next.stride);
        const RowRef combined{candidate.data(), joined_width};
        for (size_t i = 0; i < current.size(); ++i) {
          const RowRef lrow = current.at(i);
          std::copy(lrow.parts, lrow.parts + current.stride,
                    candidate.begin());
          for (const auto& rrow : *right_rows) {
            candidate.back() = &rrow;
            if (join.condition) {
              CODES_ASSIGN_OR_RETURN(bool pass,
                                     Test(*join.condition, combined));
              if (!pass) continue;
            }
            CODES_RETURN_IF_ERROR(emit(lrow, rrow));
          }
        }
      }
      current = std::move(next);
    }

    if (stmt_.where) {
      const size_t stride = current.stride;
      size_t kept = 0;
      for (size_t i = 0; i < current.size(); ++i) {
        CODES_ASSIGN_OR_RETURN(bool pass, Test(*stmt_.where, current.at(i)));
        if (!pass) continue;
        if (kept != i) {
          std::copy_n(current.parts.begin() + i * stride, stride,
                      current.parts.begin() + kept * stride);
        }
        ++kept;
      }
      current.parts.resize(kept * stride);
    }
    return current;
  }

  // ------------------------------------------------------- expression eval
  static bool Truthy(const Value& v) {
    if (v.is_null()) return false;
    return v.ToNumeric() != 0.0;
  }

  /// True when `e` is truthy on `row` (a filter or join condition).
  Result<bool> Test(const Expr& e, RowRef row) {
    Value scratch;
    CODES_ASSIGN_OR_RETURN(const Value* v, EvalRef(e, row, &scratch));
    return Truthy(*v);
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

  /// The text of `v` as string functions and LIKE see it: a text value in
  /// place, anything else rendered into `*buf`.
  static std::string_view TextOf(const Value& v, std::string* buf) {
    if (v.is_text()) return v.AsText();
    *buf = v.ToString();
    return *buf;
  }

  /// Evaluates `e` against `row` without copying what it reads: a
  /// literal, a column cell, the current group's aggregate value and a
  /// scalar subquery's value are returned in place; anything else is
  /// computed into `*scratch`, and the result points there.
  Result<const Value*> EvalRef(const Expr& e, RowRef row, Value* scratch) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return &e.literal;
      case ExprKind::kColumnRef:
        if (e.resolved_index < 0 || e.resolved_index >= row.width) {
          return Status::Internal("unresolved column " + e.column);
        }
        return &CellAt(row, e.resolved_index);
      case ExprKind::kFunction:
        // Bind numbers only the aggregates the grouping phase computes.
        if (e.agg_slot >= 0 &&
            static_cast<size_t>(e.agg_slot) < agg_values_.size()) {
          return &agg_values_[static_cast<size_t>(e.agg_slot)];
        }
        break;
      case ExprKind::kScalarSubquery: {
        static const Value kNull;
        CODES_ASSIGN_OR_RETURN(const std::vector<Value>* sub,
                               SubqueryValues(e));
        return sub->empty() ? &kNull : &(*sub)[0];
      }
      default:
        break;
    }
    CODES_ASSIGN_OR_RETURN(*scratch, Eval(e, row));
    return scratch;
  }

  /// Evaluates `e` against a working row. In post-aggregation context an
  /// aggregate node reads the value the grouping phase stored in its slot.
  Result<Value> Eval(const Expr& e, RowRef row) {
    Value buf;
    switch (e.kind) {
      case ExprKind::kLiteral:
      case ExprKind::kColumnRef:
      case ExprKind::kScalarSubquery: {
        CODES_ASSIGN_OR_RETURN(const Value* v, EvalRef(e, row, &buf));
        return *v;
      }
      case ExprKind::kStar:
        return Status::ExecutionError("'*' outside COUNT(*)");
      case ExprKind::kUnary: {
        CODES_ASSIGN_OR_RETURN(const Value* v,
                               EvalRef(*e.children[0], row, &buf));
        const Value& inner = *v;
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
        Value lo_buf, hi_buf;
        CODES_ASSIGN_OR_RETURN(const Value* v,
                               EvalRef(*e.children[0], row, &buf));
        CODES_ASSIGN_OR_RETURN(const Value* lo,
                               EvalRef(*e.children[1], row, &lo_buf));
        CODES_ASSIGN_OR_RETURN(const Value* hi,
                               EvalRef(*e.children[2], row, &hi_buf));
        if (v->is_null() || lo->is_null() || hi->is_null()) return Value();
        bool in_range = v->Compare(*lo) >= 0 && v->Compare(*hi) <= 0;
        if (e.negated) in_range = !in_range;
        return Value(static_cast<int64_t>(in_range ? 1 : 0));
      }
      case ExprKind::kInList: {
        CODES_ASSIGN_OR_RETURN(const Value* v,
                               EvalRef(*e.children[0], row, &buf));
        if (v->is_null()) return Value();
        return InResult(*v, e.in_list, e.negated);
      }
      case ExprKind::kInSubquery: {
        CODES_ASSIGN_OR_RETURN(const Value* v,
                               EvalRef(*e.children[0], row, &buf));
        if (v->is_null()) return Value();
        CODES_ASSIGN_OR_RETURN(const std::vector<Value>* sub,
                               SubqueryValues(e));
        return InResult(*v, *sub, e.negated);
      }
      case ExprKind::kCast: {
        CODES_ASSIGN_OR_RETURN(const Value* arg,
                               EvalRef(*e.children[0], row, &buf));
        const Value& v = *arg;
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

  Result<Value> EvalBinary(const Expr& e, RowRef row) {
    Value l_buf, r_buf;
    CODES_ASSIGN_OR_RETURN(const Value* lp,
                           EvalRef(*e.children[0], row, &l_buf));
    CODES_ASSIGN_OR_RETURN(const Value* rp,
                           EvalRef(*e.children[1], row, &r_buf));
    const Value& l = *lp;
    const Value& r = *rp;

    // Logic with SQLite-style NULL propagation. Both operands are always
    // evaluated, so an error on either side surfaces.
    if (e.binary_op == BinaryOp::kAnd || e.binary_op == BinaryOp::kOr) {
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
        std::string l_text, r_text;
        bool match = LikeMatch(TextOf(l, &l_text), TextOf(r, &r_text));
        if (e.binary_op == BinaryOp::kNotLike) match = !match;
        return Value(static_cast<int64_t>(match ? 1 : 0));
      }
      default:
        break;
    }
    return Status::Internal("unhandled binary op");
  }

  /// SQL LIKE with % and _ wildcards, ASCII case-insensitive (bytes fold
  /// one at a time, so neither side is copied).
  static bool LikeMatch(std::string_view text, std::string_view pattern) {
    size_t ti = 0, pi = 0, star_ti = std::string::npos, star_pi = 0;
    while (ti < text.size()) {
      if (pi < pattern.size() &&
          (pattern[pi] == '_' ||
           AsciiLower(pattern[pi]) == AsciiLower(text[ti]))) {
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

  Result<Value> EvalFunction(const Expr& e, RowRef row) {
    if (e.IsAggregate()) {
      if (e.agg_slot < 0 ||
          static_cast<size_t>(e.agg_slot) >= agg_values_.size()) {
        return Status::ExecutionError("aggregate " + e.function +
                                      " used outside aggregation context");
      }
      return agg_values_[static_cast<size_t>(e.agg_slot)];
    }
    auto arg = [&](size_t i, Value* scratch) -> Result<const Value*> {
      if (i >= e.children.size()) {
        return Status::ExecutionError(e.function + ": missing argument");
      }
      return EvalRef(*e.children[i], row, scratch);
    };
    Value buf;
    std::string text_buf;
    const std::string& f = e.function;
    if (f == "ABS") {
      CODES_ASSIGN_OR_RETURN(const Value* arg0, arg(0, &buf));
      const Value& v = *arg0;
      if (v.is_null()) return Value();
      if (v.is_integer() &&
          v.AsInteger() != std::numeric_limits<int64_t>::min()) {
        return Value(std::abs(v.AsInteger()));
      }
      return Value(std::abs(v.ToNumeric()));
    }
    if (f == "ROUND") {
      CODES_ASSIGN_OR_RETURN(const Value* v, arg(0, &buf));
      if (v->is_null()) return Value();
      int64_t digits = 0;
      if (e.children.size() > 1) {
        Value d_buf;
        CODES_ASSIGN_OR_RETURN(const Value* d, arg(1, &d_buf));
        digits = static_cast<int64_t>(std::clamp(d->ToNumeric(), -30.0, 30.0));
      }
      double scale = std::pow(10.0, static_cast<double>(digits));
      double scaled = std::round(v->ToNumeric() * scale) / scale;
      if (!std::isfinite(scaled)) return Value(v->ToNumeric());
      return Value(scaled);
    }
    if (f == "LENGTH") {
      CODES_ASSIGN_OR_RETURN(const Value* v, arg(0, &buf));
      if (v->is_null()) return Value();
      return Value(static_cast<int64_t>(TextOf(*v, &text_buf).size()));
    }
    if (f == "UPPER" || f == "LOWER") {
      CODES_ASSIGN_OR_RETURN(const Value* v, arg(0, &buf));
      if (v->is_null()) return Value();
      std::string_view text = TextOf(*v, &text_buf);
      return Value(f == "UPPER" ? ToUpper(text) : ToLower(text));
    }
    if (f == "SUBSTR" || f == "SUBSTRING") {
      CODES_ASSIGN_OR_RETURN(const Value* v, arg(0, &buf));
      if (v->is_null()) return Value();
      Value start_buf;
      CODES_ASSIGN_OR_RETURN(const Value* start_v, arg(1, &start_buf));
      std::string_view s = TextOf(*v, &text_buf);
      int64_t start = static_cast<int64_t>(start_v->ToNumeric());
      int64_t len = static_cast<int64_t>(s.size());
      if (e.children.size() > 2) {
        Value len_buf;
        CODES_ASSIGN_OR_RETURN(const Value* len_v, arg(2, &len_buf));
        len = static_cast<int64_t>(len_v->ToNumeric());
      }
      // 1-based indexing per SQL; negative start counts from the end.
      int64_t begin = start > 0 ? start - 1
                                : std::max<int64_t>(0, static_cast<int64_t>(s.size()) + start);
      if (begin >= static_cast<int64_t>(s.size()) || len <= 0) {
        return Value(std::string());
      }
      return Value(std::string(s.substr(static_cast<size_t>(begin),
                                        static_cast<size_t>(len))));
    }
    if (f == "COALESCE") {
      for (size_t i = 0; i < e.children.size(); ++i) {
        CODES_ASSIGN_OR_RETURN(const Value* v, arg(i, &buf));
        if (!v->is_null()) return *v;
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
      for (auto& r : result->rows) values.push_back(std::move(r[0]));
      it = subquery_cache_.emplace(&e, std::move(values)).first;
    }
    return &it->second;
  }

  // ------------------------------------------------------ projection phase
  /// A working row whose every cell is NULL: the representative of the
  /// one group a global aggregation over zero rows yields.
  RowRef NullRow() {
    size_t widest = 0;
    for (const BoundTable& t : level_.tables) {
      widest = std::max(
          widest, source_.schema().tables[t.table_index].columns.size());
    }
    null_row_.assign(widest, Value());
    null_parts_.assign(level_.tables.size(), &null_row_);
    return {null_parts_.data(), level_.width};
  }

  /// Groups the working rows by the GROUP BY keys: `*group_begin` gets
  /// each group's start in `*members` (plus one past the end), and
  /// `*members` the working-row indices of every group, groups in
  /// first-seen order and rows in order within a group. Without GROUP BY
  /// every row is in the one group, even when there are none.
  Status GroupRows(const WorkingRows& rows, std::vector<uint32_t>* group_begin,
                   std::vector<uint32_t>* members) {
    const size_t n = rows.size();
    std::vector<uint32_t> group_of(n, 0);
    size_t num_groups = 1;
    if (!stmt_.group_by.empty()) {
      std::unordered_map<Row, uint32_t, RowHash, RowEq> ids;
      Row key(stmt_.group_by.size());  // reused: only new keys are copied
      for (size_t i = 0; i < n; ++i) {
        for (size_t g = 0; g < stmt_.group_by.size(); ++g) {
          CODES_ASSIGN_OR_RETURN(const Value* v,
                                 EvalRef(*stmt_.group_by[g], rows.at(i),
                                         &key[g]));
          if (v != &key[g]) key[g] = *v;
        }
        auto it = ids.try_emplace(key, static_cast<uint32_t>(ids.size()))
                      .first;
        group_of[i] = it->second;
      }
      num_groups = ids.size();
    }
    group_begin->assign(num_groups + 1, 0);
    for (uint32_t g : group_of) ++(*group_begin)[g + 1];
    for (size_t g = 0; g < num_groups; ++g) {
      (*group_begin)[g + 1] += (*group_begin)[g];
    }
    members->resize(n);
    std::vector<uint32_t> fill(group_begin->begin(), group_begin->end() - 1);
    for (size_t i = 0; i < n; ++i) {
      (*members)[fill[group_of[i]]++] = static_cast<uint32_t>(i);
    }
    return Status::Ok();
  }

  Result<ResultTable> Project(const WorkingRows& rows) {
    const bool has_agg = !stmt_.group_by.empty() || !level_.aggregates.empty();

    ResultTable result;
    for (const auto& item : stmt_.select_list) {
      result.column_names.push_back(
          item.alias.empty() ? item.expr->ToSql() : item.alias);
    }

    // Output rows, and for each its ORDER BY keys (`num_keys` per row).
    const size_t num_keys = stmt_.order_by.size();
    std::vector<Row> out_rows;
    std::vector<Value> keys;
    auto emit = [&](RowRef row) -> Status {
      Row out;
      out.reserve(stmt_.select_list.size());
      for (const auto& item : stmt_.select_list) {
        CODES_ASSIGN_OR_RETURN(Value v, Eval(*item.expr, row));
        out.push_back(std::move(v));
      }
      for (const auto& o : stmt_.order_by) {
        CODES_ASSIGN_OR_RETURN(Value v, Eval(*o.expr, row));
        keys.push_back(std::move(v));
      }
      CODES_RETURN_IF_ERROR(ChargeRow(out));
      out_rows.push_back(std::move(out));
      return Status::Ok();
    };

    if (!has_agg) {
      out_rows.reserve(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) {
        CODES_RETURN_IF_ERROR(emit(rows.at(i)));
      }
    } else {
      std::vector<uint32_t> group_begin;
      std::vector<uint32_t> members;
      CODES_RETURN_IF_ERROR(GroupRows(rows, &group_begin, &members));
      // Compute the aggregate calls Bind numbered, per group, into the
      // slots their Expr::agg_slot names.
      const std::vector<const Expr*>& aggregates = level_.aggregates;
      agg_values_.resize(aggregates.size());
      for (size_t g = 0; g + 1 < group_begin.size(); ++g) {
        const uint32_t* first = members.data() + group_begin[g];
        const size_t count = group_begin[g + 1] - group_begin[g];
        for (size_t slot = 0; slot < aggregates.size(); ++slot) {
          CODES_ASSIGN_OR_RETURN(
              agg_values_[slot],
              ComputeAggregate(*aggregates[slot], rows, first, count));
        }
        // Representative row for evaluating group keys inside exprs.
        const RowRef representative =
            count > 0 ? rows.at(first[0]) : NullRow();
        if (stmt_.having) {
          CODES_ASSIGN_OR_RETURN(bool pass, Test(*stmt_.having, representative));
          if (!pass) continue;
        }
        CODES_RETURN_IF_ERROR(emit(representative));
      }
    }

    // DISTINCT keeps each row's first occurrence; ORDER BY is a stable
    // sort (ties keep their order); LIMIT cuts what is left. `order` holds
    // the surviving output rows' indices unless it is the identity.
    std::vector<uint32_t> order;
    bool identity = true;
    if (stmt_.distinct) {
      order = FirstOccurrences(out_rows);
      identity = false;
    }
    if (num_keys > 0) {
      if (identity) {
        order.resize(out_rows.size());
        for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
        identity = false;
      }
      std::stable_sort(order.begin(), order.end(),
                       [&](uint32_t a, uint32_t b) {
                         for (size_t i = 0; i < num_keys; ++i) {
                           int cmp = keys[a * num_keys + i].Compare(
                               keys[b * num_keys + i]);
                           if (cmp != 0) {
                             return stmt_.order_by[i].ascending ? cmp < 0
                                                                : cmp > 0;
                           }
                         }
                         return false;
                       });
    }
    size_t count = identity ? out_rows.size() : order.size();
    if (stmt_.limit.has_value() &&
        count > static_cast<size_t>(*stmt_.limit)) {
      count = static_cast<size_t>(std::max<int64_t>(0, *stmt_.limit));
    }
    if (identity) {
      out_rows.resize(count);
      result.rows = std::move(out_rows);
    } else {
      result.rows.reserve(count);
      for (size_t i = 0; i < count; ++i) {
        result.rows.push_back(std::move(out_rows[order[i]]));
      }
    }
    return result;
  }

  /// One aggregate over the working rows `members[0, count)` of a group,
  /// folded as the rows are read: NULLs are skipped, DISTINCT keeps each
  /// value's first occurrence, and SUM/AVG add in row order.
  Result<Value> ComputeAggregate(const Expr& agg, const WorkingRows& rows,
                                 const uint32_t* members, size_t count) {
    const std::string& f = agg.function;
    bool star = !agg.children.empty() &&
                agg.children[0]->kind == ExprKind::kStar;
    if (f == "COUNT" && (agg.children.empty() || star)) {
      return Value(static_cast<int64_t>(count));
    }
    if (agg.children.empty()) {
      return Status::ExecutionError(f + " requires an argument");
    }
    const bool sum = f == "SUM" || f == "AVG";
    const bool min = f == "MIN";
    const bool max = f == "MAX";
    size_t counted = 0;
    bool all_int = true;
    double total = 0;
    int64_t itotal = 0;
    Value best;
    std::vector<Value> distinct;  // DISTINCT: the values kept so far
    Value scratch;
    for (size_t k = 0; k < count; ++k) {
      CODES_ASSIGN_OR_RETURN(
          const Value* v,
          EvalRef(*agg.children[0], rows.at(members[k]), &scratch));
      if (v->is_null()) continue;
      if (agg.distinct_arg) {
        bool seen = false;
        for (const auto& u : distinct) {
          if (u.Compare(*v) == 0) {
            seen = true;
            break;
          }
        }
        if (seen) continue;
        distinct.push_back(*v);
      }
      if (sum) {
        total += v->ToNumeric();
        if (!v->is_integer() ||
            __builtin_add_overflow(itotal, v->AsInteger(), &itotal)) {
          all_int = false;  // overflow: report the REAL running sum
        }
      } else if (min || max) {
        int cmp = counted == 0 ? 0 : v->Compare(best);
        if (counted == 0 || (min && cmp < 0) || (max && cmp > 0)) best = *v;
      }
      ++counted;
    }
    if (f == "COUNT") return Value(static_cast<int64_t>(counted));
    if (counted == 0) return Value();  // SUM/AVG/MIN/MAX of nothing: NULL
    if (sum) {
      if (f == "SUM") {
        if (all_int) return Value(itotal);
        return Value(total);
      }
      return Value(total / static_cast<double>(counted));
    }
    if (min || max) return best;
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
  /// Rows fetched from a backend without direct row vectors; working rows
  /// point into them.
  std::vector<std::vector<Row>> fetched_;
  Row null_row_;                        ///< see NullRow
  std::vector<const Row*> null_parts_;  ///< see NullRow
};

/// Executes `stmt`, one level of `bound`, and its chain of set-op arms.
/// Set operations consume both arms' rows.
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
  out.column_names = std::move(left->column_names);
  std::vector<Row>& left_rows = left->rows;
  std::vector<Row>& right_rows = right->rows;
  switch (stmt.set_op) {
    case SetOp::kUnionAll:
    case SetOp::kUnion: {
      out.rows = std::move(left_rows);
      out.rows.insert(out.rows.end(),
                      std::make_move_iterator(right_rows.begin()),
                      std::make_move_iterator(right_rows.end()));
      if (stmt.set_op == SetOp::kUnion) {
        out.rows = DedupeRows(std::move(out.rows));
      }
      break;
    }
    case SetOp::kIntersect:
    case SetOp::kExcept: {
      const bool keep_if_in_right = stmt.set_op == SetOp::kIntersect;
      std::unordered_set<Row, RowHash, RowEq> in_right(
          std::make_move_iterator(right_rows.begin()),
          std::make_move_iterator(right_rows.end()));
      for (Row& r : DedupeRows(std::move(left_rows))) {
        if ((in_right.count(r) > 0) == keep_if_in_right) {
          out.rows.push_back(std::move(r));
        }
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
