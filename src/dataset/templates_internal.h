#ifndef CODES_DATASET_TEMPLATES_INTERNAL_H_
#define CODES_DATASET_TEMPLATES_INTERNAL_H_

// Internal slot-filling helpers shared by the template builder translation
// units (templates.cc, templates_join.cc, templates_nested.cc). Not part
// of the public API.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "dataset/column_profile.h"
#include "dataset/db_generator.h"
#include "dataset/templates.h"
#include "sqlengine/ast.h"
#include "sqlengine/database.h"

namespace codes::template_internal {

using sql::BinaryOp;
using sql::Database;
using sql::DataType;
using sql::Expr;
using sql::ExprKind;
using sql::OrderItem;
using sql::SelectItem;
using sql::SelectStatement;
using sql::SetOp;
using sql::UnaryOp;
using sql::Value;

/// Per-instantiation context: database, its column profile, RNG, optional
/// guidance.
struct Ctx {
  const Database& db;
  const ColumnProfile& prof;
  Rng& rng;
  const SlotGuidance* guide;

  double Noise() {
    if (guide == nullptr || guide->noise <= 0) return 0.0;
    return rng.Gaussian() * guide->noise;
  }
};

/// Picks from `candidates` with guidance scoring (or uniformly).
template <typename ScoreFn>
std::optional<int> PickScored(Ctx& ctx, const std::vector<int>& candidates,
                              ScoreFn&& score) {
  if (candidates.empty()) return std::nullopt;
  if (ctx.guide == nullptr) return candidates[ctx.rng.Index(candidates.size())];
  double best = -1e300;
  int best_idx = candidates[0];
  for (int cand : candidates) {
    double s = score(cand) + ctx.Noise();
    if (s > best) {
      best = s;
      best_idx = cand;
    }
  }
  // Scores at -1e9 mark items the prompt never exposed; the model cannot
  // reference what it cannot see.
  if (best < -1e8) return std::nullopt;
  return best_idx;
}

inline std::optional<int> PickTable(Ctx& ctx,
                                    const std::vector<int>& candidates) {
  return PickScored(ctx, candidates, [&ctx](int t) {
    return (ctx.guide && ctx.guide->table_score) ? ctx.guide->table_score(t)
                                                 : 0.0;
  });
}

inline std::optional<int> PickSelectColumn(Ctx& ctx, int t,
                                           const std::vector<int>& candidates) {
  return PickScored(ctx, candidates, [&ctx, t](int c) {
    return (ctx.guide && ctx.guide->select_column_score)
               ? ctx.guide->select_column_score(t, c)
               : 0.0;
  });
}

inline std::optional<int> PickFilterColumn(Ctx& ctx, int t,
                                           const std::vector<int>& candidates) {
  return PickScored(ctx, candidates, [&ctx, t](int c) {
    return (ctx.guide && ctx.guide->filter_column_score)
               ? ctx.guide->filter_column_score(t, c)
               : 0.0;
  });
}

/// All tables satisfying `pred`.
template <typename Pred>
std::vector<int> TablesWhere(const Database& db, Pred&& pred) {
  std::vector<int> out;
  for (size_t t = 0; t < db.schema().tables.size(); ++t) {
    if (pred(static_cast<int>(t))) out.push_back(static_cast<int>(t));
  }
  return out;
}

/// Predicate value for a column. Unguided (data-generation) mode samples a
/// random non-null cell. Guided (model) mode never reads raw cells: it
/// uses question-matched values, then prompt representative values, and
/// otherwise fails the slot — the model cannot know values its prompt
/// never showed it.
inline std::optional<Value> SampleCell(Ctx& ctx, int t, int c) {
  if (ctx.guide != nullptr) {
    if (ctx.guide->filter_value) {
      auto guided = ctx.guide->filter_value(t, c);
      if (guided.has_value()) return guided;
    }
    if (ctx.guide->representative_value) {
      auto rep = ctx.guide->representative_value(t, c);
      if (rep.has_value()) return rep;
    }
    return std::nullopt;
  }
  const auto& rows = ctx.db.TableAt(t).rows;
  if (rows.empty()) return std::nullopt;
  for (int attempt = 0; attempt < 12; ++attempt) {
    const auto& row = rows[ctx.rng.Index(rows.size())];
    if (!row[c].is_null()) return row[c];
  }
  return std::nullopt;
}

/// A numeric threshold for comparisons: guided by question numbers, else a
/// mid-range value from the column's data (keeps predicates selective).
inline std::optional<Value> PickThreshold(Ctx& ctx, int t, int c) {
  if (ctx.guide != nullptr) {
    if (ctx.guide->numbers.empty()) return std::nullopt;
    double n = ctx.guide->numbers[0];
    if (n == std::floor(n)) return Value(static_cast<int64_t>(n));
    return Value(n);
  }
  std::vector<double> values;
  for (const auto& row : ctx.db.TableAt(t).rows) {
    if (!row[c].is_null()) values.push_back(row[c].ToNumeric());
  }
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  double v = values[values.size() / 2];
  if (ctx.db.schema().tables[t].columns[c].type == DataType::kInteger) {
    return Value(static_cast<int64_t>(v));
  }
  return Value(std::round(v * 100.0) / 100.0);
}

/// Small count (2..5) for LIMIT k / HAVING thresholds.
inline int64_t PickSmallCount(Ctx& ctx) {
  if (ctx.guide != nullptr && !ctx.guide->numbers.empty()) {
    double n = ctx.guide->numbers[0];
    if (n >= 2 && n <= 10 && n == std::floor(n)) {
      return static_cast<int64_t>(n);
    }
  }
  return ctx.rng.UniformInt(2, 5);
}

/// Orders `columns` of table `t` by their first mention in the question
/// (guided mode only); data-generation order is left untouched.
inline void OrderByMention(Ctx& ctx, int t, std::vector<int>& columns) {
  if (ctx.guide == nullptr || !ctx.guide->mention_position) return;
  std::stable_sort(columns.begin(), columns.end(), [&ctx, t](int a, int b) {
    return ctx.guide->mention_position(t, a) <
           ctx.guide->mention_position(t, b);
  });
}

// ------------------------------------------------------------ FK edges

inline std::optional<JoinEdge> PickJoinEdge(Ctx& ctx) {
  std::vector<JoinEdge> edges = ctx.prof.join_edges();
  if (ctx.guide != nullptr && ctx.guide->join_visible) {
    std::vector<JoinEdge> visible;
    for (const auto& e : edges) {
      if (ctx.guide->join_visible(e.child_t, e.parent_t)) visible.push_back(e);
    }
    edges = std::move(visible);
  }
  if (edges.empty()) return std::nullopt;
  if (ctx.guide == nullptr) return edges[ctx.rng.Index(edges.size())];
  double best = -1e300;
  JoinEdge best_edge = edges[0];
  for (const auto& e : edges) {
    double s = ctx.Noise();
    if (ctx.guide->table_score) {
      s += ctx.guide->table_score(e.child_t) +
           ctx.guide->table_score(e.parent_t);
    }
    if (s > best) {
      best = s;
      best_edge = e;
    }
  }
  return best_edge;
}

// ----------------------------------------------------------- AST helpers

inline std::string TName(const Database& db, int t) {
  return db.schema().tables[t].name;
}
inline std::string ColName(const Database& db, int t, int c) {
  return db.schema().tables[t].columns[c].name;
}

inline std::unique_ptr<Expr> ColRef(const Database& db, int t, int c,
                                    bool qualified) {
  return Expr::MakeColumn(qualified ? TName(db, t) : "", ColName(db, t, c));
}

inline std::unique_ptr<SelectStatement> From(const Database& db, int t) {
  auto stmt = std::make_unique<SelectStatement>();
  stmt->from.table = TName(db, t);
  return stmt;
}

inline void AddSelect(SelectStatement& stmt, std::unique_ptr<Expr> e) {
  SelectItem item;
  item.expr = std::move(e);
  stmt.select_list.push_back(std::move(item));
}

inline std::unique_ptr<Expr> Agg(const std::string& fn,
                                 std::unique_ptr<Expr> arg,
                                 bool distinct = false) {
  std::vector<std::unique_ptr<Expr>> args;
  args.push_back(std::move(arg));
  return Expr::MakeFunction(fn, std::move(args), distinct);
}

inline std::unique_ptr<Expr> CountStar() {
  std::vector<std::unique_ptr<Expr>> args;
  args.push_back(Expr::MakeStar());
  return Expr::MakeFunction("COUNT", std::move(args));
}

// ------------------------------------------------------- question helpers

inline std::string PhraseT(const Database& db, int t) {
  return TablePhrase(db.schema().tables[t]);
}
inline std::string PhraseC(const Database& db, int t, int c) {
  return ColumnPhrase(db.schema().tables[t].columns[c]);
}

inline std::string QuoteVal(const Value& v) {
  if (v.is_text()) return "'" + v.AsText() + "'";
  return v.ToString();
}

/// Fills "{X}" placeholders in a pattern.
inline std::string Fill(
    std::string pattern,
    std::initializer_list<std::pair<const char*, std::string>> substitutions) {
  for (const auto& [key, value] : substitutions) {
    pattern = ReplaceAll(pattern, std::string("{") + key + "}", value);
  }
  return pattern;
}

inline std::string PickPhrase(Ctx& ctx, std::vector<std::string> variants) {
  return variants[ctx.rng.Index(variants.size())];
}

// --------------------------------------------------------- instance build

inline void AddUsed(TemplateInstance& inst, const Database& db, int t,
                    std::initializer_list<int> cols) {
  bool table_seen = false;
  for (const auto& item : inst.used_items) {
    if (item.column.empty() && item.table == TName(db, t)) table_seen = true;
  }
  if (!table_seen) {
    inst.used_items.push_back(UsedSchemaItem{TName(db, t), ""});
  }
  for (int c : cols) {
    std::string col = ColName(db, t, c);
    bool seen = false;
    for (const auto& item : inst.used_items) {
      if (item.table == TName(db, t) && item.column == col) seen = true;
    }
    if (!seen) inst.used_items.push_back(UsedSchemaItem{TName(db, t), col});
  }
}

inline TemplateInstance Finish(std::unique_ptr<SelectStatement> stmt,
                               std::string question) {
  TemplateInstance inst;
  inst.sql_text = stmt->ToSql();
  inst.question = std::move(question);
  return inst;
}

/// A comparison operator bundle used by parameterized registrations.
struct CmpSpec {
  BinaryOp op;
  const char* sql_name;
  const char* phrase;        // "greater than"
  const char* short_phrase;  // "above"
};

inline constexpr CmpSpec kGt{BinaryOp::kGt, ">", "greater than", "above"};
inline constexpr CmpSpec kLt{BinaryOp::kLt, "<", "less than", "below"};
inline constexpr CmpSpec kGe{BinaryOp::kGe, ">=", "at least", "no less than"};
inline constexpr CmpSpec kLe{BinaryOp::kLe, "<=", "at most", "no more than"};

struct AggSpec {
  const char* fn;
  const char* phrase;  // "average"
};
inline constexpr AggSpec kSum{"SUM", "total"};
inline constexpr AggSpec kAvg{"AVG", "average"};
inline constexpr AggSpec kMin{"MIN", "minimum"};
inline constexpr AggSpec kMax{"MAX", "maximum"};

}  // namespace codes::template_internal

#endif  // CODES_DATASET_TEMPLATES_INTERNAL_H_
