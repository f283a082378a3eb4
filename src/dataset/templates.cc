#include "dataset/templates.h"

#include "dataset/templates_internal.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"
#include "common/string_util.h"
#include "dataset/db_generator.h"
#include "sqlengine/fingerprint.h"
#include "sqlengine/parser.h"

namespace codes {

using namespace codes::template_internal;

// ===========================================================================
// Template registration
// ===========================================================================

void TemplateLibrary::Register(std::string name, std::string skeleton,
                               BuildFn build) {
  TemplateDef def;
  def.name = std::move(name);
  def.question_skeleton = std::move(skeleton);
  def.build = std::move(build);
  defs_.push_back(std::move(def));
}

TemplateLibrary::TemplateLibrary() {
  // ---------------------------------------------------------------- A. basic
  Register("select_col", "Show the {COLUMN} of all {TABLE}.",
           [](const Database& db, const ColumnProfile& prof, Rng& rng,
              const SlotGuidance* g) -> std::optional<TemplateInstance> {
             Ctx ctx{db, prof, rng, g};
             auto tables = TablesWhere(db, [&prof](int t) {
               return !prof.text(t).empty();
             });
             auto t = PickTable(ctx, tables);
             if (!t) return std::nullopt;
             auto c = PickSelectColumn(ctx, *t, prof.text(*t));
             if (!c) return std::nullopt;
             auto stmt = From(db, *t);
             AddSelect(*stmt, ColRef(db, *t, *c, false));
             auto inst = Finish(
                 std::move(stmt),
                 Fill(PickPhrase(ctx, {"List the {C} of every {T}.",
                                       "Show the {C} of all {T}.",
                                       "What are the {C} of the {T}?"}),
                      {{"C", PhraseC(db, *t, *c)}, {"T", PhraseT(db, *t)}}));
             AddUsed(inst, db, *t, {*c});
             return inst;
           });

  Register("select_two_cols", "Show the {COLUMN1} and {COLUMN2} of {TABLE}.",
           [](const Database& db, const ColumnProfile& prof, Rng& rng,
              const SlotGuidance* g) -> std::optional<TemplateInstance> {
             Ctx ctx{db, prof, rng, g};
             auto tables = TablesWhere(db, [&prof](int t) {
               return prof.text(t).size() + prof.numeric(t).size() >=
                      2;
             });
             auto t = PickTable(ctx, tables);
             if (!t) return std::nullopt;
             auto cols = prof.text(*t);
             for (int n : prof.numeric(*t)) cols.push_back(n);
             auto c1 = PickSelectColumn(ctx, *t, cols);
             if (!c1) return std::nullopt;
             cols.erase(std::remove(cols.begin(), cols.end(), *c1), cols.end());
             auto c2 = PickSelectColumn(ctx, *t, cols);
             if (!c2) return std::nullopt;
             std::vector<int> chosen{*c1, *c2};
             OrderByMention(ctx, *t, chosen);
             auto stmt = From(db, *t);
             AddSelect(*stmt, ColRef(db, *t, chosen[0], false));
             AddSelect(*stmt, ColRef(db, *t, chosen[1], false));
             *c1 = chosen[0];
             *c2 = chosen[1];
             auto inst = Finish(
                 std::move(stmt),
                 Fill(PickPhrase(
                          ctx,
                          {"List the {C1} and {C2} of each {T}.",
                           "Show the {C1} and {C2} for all {T}.",
                           "What are the {C1} and {C2} of the {T}?"}),
                      {{"C1", PhraseC(db, *t, *c1)},
                       {"C2", PhraseC(db, *t, *c2)},
                       {"T", PhraseT(db, *t)}}));
             AddUsed(inst, db, *t, {*c1, *c2});
             return inst;
           });

  Register("select_three_cols",
           "Show the {COLUMN1}, {COLUMN2} and {COLUMN3} of {TABLE}.",
           [](const Database& db, const ColumnProfile& prof, Rng& rng,
              const SlotGuidance* g) -> std::optional<TemplateInstance> {
             Ctx ctx{db, prof, rng, g};
             auto tables = TablesWhere(db, [&prof](int t) {
               return prof.text(t).size() + prof.numeric(t).size() >=
                      3;
             });
             auto t = PickTable(ctx, tables);
             if (!t) return std::nullopt;
             auto cols = prof.text(*t);
             for (int n : prof.numeric(*t)) cols.push_back(n);
             std::vector<int> chosen;
             for (int i = 0; i < 3; ++i) {
               auto c = PickSelectColumn(ctx, *t, cols);
               if (!c) return std::nullopt;
               chosen.push_back(*c);
               cols.erase(std::remove(cols.begin(), cols.end(), *c),
                          cols.end());
             }
             OrderByMention(ctx, *t, chosen);
             auto stmt = From(db, *t);
             for (int c : chosen) AddSelect(*stmt, ColRef(db, *t, c, false));
             auto inst = Finish(
                 std::move(stmt),
                 Fill("List the {C1}, {C2} and {C3} of every {T}.",
                      {{"C1", PhraseC(db, *t, chosen[0])},
                       {"C2", PhraseC(db, *t, chosen[1])},
                       {"C3", PhraseC(db, *t, chosen[2])},
                       {"T", PhraseT(db, *t)}}));
             AddUsed(inst, db, *t, {chosen[0], chosen[1], chosen[2]});
             return inst;
           });

  Register("select_distinct_col", "Show the distinct {COLUMN} of {TABLE}.",
           [](const Database& db, const ColumnProfile& prof, Rng& rng,
              const SlotGuidance* g) -> std::optional<TemplateInstance> {
             Ctx ctx{db, prof, rng, g};
             auto tables = TablesWhere(db, [&prof](int t) {
               return !prof.category(t).empty();
             });
             auto t = PickTable(ctx, tables);
             if (!t) return std::nullopt;
             auto c = PickSelectColumn(ctx, *t, prof.category(*t));
             if (!c) return std::nullopt;
             auto stmt = From(db, *t);
             stmt->distinct = true;
             AddSelect(*stmt, ColRef(db, *t, *c, false));
             auto inst = Finish(
                 std::move(stmt),
                 Fill(PickPhrase(ctx,
                                 {"What are the different {C} of the {T}?",
                                  "List the distinct {C} among all {T}.",
                                  "Show all unique {C} for the {T}."}),
                      {{"C", PhraseC(db, *t, *c)}, {"T", PhraseT(db, *t)}}));
             AddUsed(inst, db, *t, {*c});
             return inst;
           });

  Register("select_star_where_eq",
           "Show all information of {TABLE} whose {COLUMN} is {VALUE}.",
           [](const Database& db, const ColumnProfile& prof, Rng& rng,
              const SlotGuidance* g) -> std::optional<TemplateInstance> {
             Ctx ctx{db, prof, rng, g};
             auto tables = TablesWhere(db, [&prof](int t) {
               return !prof.category(t).empty();
             });
             auto t = PickTable(ctx, tables);
             if (!t) return std::nullopt;
             auto c = PickFilterColumn(ctx, *t, prof.category(*t));
             if (!c) return std::nullopt;
             auto v = SampleCell(ctx, *t, *c);
             if (!v) return std::nullopt;
             auto stmt = From(db, *t);
             AddSelect(*stmt, Expr::MakeStar());
             stmt->where = Expr::MakeBinary(
                 BinaryOp::kEq, ColRef(db, *t, *c, false),
                 Expr::MakeLiteral(*v));
             auto inst = Finish(
                 std::move(stmt),
                 Fill(PickPhrase(
                          ctx,
                          {"Show all information about the {T} whose {C} is "
                           "{V}.",
                           "Give every detail of {T} with {C} {V}."}),
                      {{"T", PhraseT(db, *t)},
                       {"C", PhraseC(db, *t, *c)},
                       {"V", QuoteVal(*v)}}));
             AddUsed(inst, db, *t, {*c});
             inst.value_strings.push_back(v->ToString());
             return inst;
           });

  // ------------------------------------------------------------ B. filters
  auto register_where_eq = [this](std::string name, bool numeric,
                                  BinaryOp op, std::string op_phrase) {
    Register(
        std::move(name),
        "Show the {COLUMN1} of {TABLE} whose {COLUMN2} " + op_phrase +
            " {VALUE}.",
        [numeric, op, op_phrase](
            const Database& db, const ColumnProfile& prof, Rng& rng,
            const SlotGuidance* g) -> std::optional<TemplateInstance> {
          Ctx ctx{db, prof, rng, g};
          auto tables = TablesWhere(db, [&prof, numeric](int t) {
            if (prof.text(t).empty()) return false;
            return numeric ? !prof.numeric(t).empty()
                           : !prof.category(t).empty();
          });
          auto t = PickTable(ctx, tables);
          if (!t) return std::nullopt;
          auto sel = PickSelectColumn(ctx, *t, prof.text(*t));
          if (!sel) return std::nullopt;
          auto filt = PickFilterColumn(
              ctx, *t, numeric ? prof.numeric(*t)
                               : prof.category(*t));
          if (!filt || *filt == *sel) {
            if (!filt) return std::nullopt;
          }
          auto v = SampleCell(ctx, *t, *filt);
          if (!v) return std::nullopt;
          auto stmt = From(db, *t);
          AddSelect(*stmt, ColRef(db, *t, *sel, false));
          stmt->where = Expr::MakeBinary(op, ColRef(db, *t, *filt, false),
                                         Expr::MakeLiteral(*v));
          auto inst = Finish(
              std::move(stmt),
              Fill(PickPhrase(
                       ctx, {"What is the {C1} of the {T} whose {C2} " +
                                 op_phrase + " {V}?",
                             "Show the {C1} for {T} with {C2} " + op_phrase +
                                 " {V}.",
                             "Find the {C1} of {T} where the {C2} " +
                                 op_phrase + " {V}."}),
                   {{"C1", PhraseC(db, *t, *sel)},
                    {"T", PhraseT(db, *t)},
                    {"C2", PhraseC(db, *t, *filt)},
                    {"V", QuoteVal(*v)}}));
          AddUsed(inst, db, *t, {*sel, *filt});
          inst.value_strings.push_back(v->ToString());
          return inst;
        });
  };
  register_where_eq("where_eq_text", /*numeric=*/false, BinaryOp::kEq, "is");
  register_where_eq("where_eq_num", /*numeric=*/true, BinaryOp::kEq,
                    "equals");
  register_where_eq("where_ne_text", /*numeric=*/false, BinaryOp::kNe,
                    "is not");

  auto register_where_cmp = [this](std::string name, CmpSpec cmp) {
    Register(
        std::move(name),
        std::string("Show the {COLUMN1} of {TABLE} whose {COLUMN2} is ") +
            cmp.phrase + " {VALUE}.",
        [cmp](const Database& db, const ColumnProfile& prof, Rng& rng,
              const SlotGuidance* g) -> std::optional<TemplateInstance> {
          Ctx ctx{db, prof, rng, g};
          auto tables = TablesWhere(db, [&prof](int t) {
            return !prof.text(t).empty() &&
                   !prof.numeric(t).empty();
          });
          auto t = PickTable(ctx, tables);
          if (!t) return std::nullopt;
          auto sel = PickSelectColumn(ctx, *t, prof.text(*t));
          auto filt = PickFilterColumn(ctx, *t, prof.numeric(*t));
          if (!sel || !filt) return std::nullopt;
          auto v = PickThreshold(ctx, *t, *filt);
          if (!v) return std::nullopt;
          auto stmt = From(db, *t);
          AddSelect(*stmt, ColRef(db, *t, *sel, false));
          stmt->where = Expr::MakeBinary(cmp.op, ColRef(db, *t, *filt, false),
                                         Expr::MakeLiteral(*v));
          auto inst = Finish(
              std::move(stmt),
              Fill(PickPhrase(
                       ctx,
                       {std::string("Which {T} have a {C2} ") + cmp.phrase +
                            " {V}? Show their {C1}.",
                        std::string("List the {C1} of {T} whose {C2} is ") +
                            cmp.phrase + " {V}.",
                        std::string("Find the {C1} of every {T} with {C2} ") +
                            cmp.short_phrase + " {V}."}),
                   {{"C1", PhraseC(db, *t, *sel)},
                    {"T", PhraseT(db, *t)},
                    {"C2", PhraseC(db, *t, *filt)},
                    {"V", v->ToString()}}));
          AddUsed(inst, db, *t, {*sel, *filt});
          inst.value_strings.push_back(v->ToString());
          return inst;
        });
  };
  register_where_cmp("where_gt", kGt);
  register_where_cmp("where_lt", kLt);
  register_where_cmp("where_ge", kGe);
  register_where_cmp("where_le", kLe);

  Register(
      "where_and",
      "Show the {COLUMN1} of {TABLE} whose {COLUMN2} is {VALUE1} and whose "
      "{COLUMN3} is greater than {VALUE2}.",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto tables = TablesWhere(db, [&prof](int t) {
          return !prof.text(t).empty() &&
                 !prof.category(t).empty() &&
                 !prof.numeric(t).empty();
        });
        auto t = PickTable(ctx, tables);
        if (!t) return std::nullopt;
        auto sel = PickSelectColumn(ctx, *t, prof.text(*t));
        auto cat = PickFilterColumn(ctx, *t, prof.category(*t));
        auto num = PickFilterColumn(ctx, *t, prof.numeric(*t));
        if (!sel || !cat || !num) return std::nullopt;
        auto v1 = SampleCell(ctx, *t, *cat);
        auto v2 = PickThreshold(ctx, *t, *num);
        if (!v1 || !v2) return std::nullopt;
        auto stmt = From(db, *t);
        AddSelect(*stmt, ColRef(db, *t, *sel, false));
        stmt->where = Expr::MakeBinary(
            BinaryOp::kAnd,
            Expr::MakeBinary(BinaryOp::kEq, ColRef(db, *t, *cat, false),
                             Expr::MakeLiteral(*v1)),
            Expr::MakeBinary(BinaryOp::kGt, ColRef(db, *t, *num, false),
                             Expr::MakeLiteral(*v2)));
        auto inst = Finish(
            std::move(stmt),
            Fill(PickPhrase(ctx,
                            {"Show the {C1} of {T} whose {C2} is {V1} and "
                             "whose {C3} is greater than {V2}.",
                             "Which {T} have {C2} {V1} and {C3} above {V2}? "
                             "List their {C1}."}),
                 {{"C1", PhraseC(db, *t, *sel)},
                  {"T", PhraseT(db, *t)},
                  {"C2", PhraseC(db, *t, *cat)},
                  {"V1", QuoteVal(*v1)},
                  {"C3", PhraseC(db, *t, *num)},
                  {"V2", v2->ToString()}}));
        AddUsed(inst, db, *t, {*sel, *cat, *num});
        inst.value_strings.push_back(v1->ToString());
        inst.value_strings.push_back(v2->ToString());
        return inst;
      });

  Register(
      "where_or",
      "Show the {COLUMN1} of {TABLE} whose {COLUMN2} is {VALUE1} or {VALUE2}.",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto tables = TablesWhere(db, [&prof](int t) {
          return !prof.text(t).empty() &&
                 !prof.category(t).empty();
        });
        auto t = PickTable(ctx, tables);
        if (!t) return std::nullopt;
        auto sel = PickSelectColumn(ctx, *t, prof.text(*t));
        auto cat = PickFilterColumn(ctx, *t, prof.category(*t));
        if (!sel || !cat) return std::nullopt;
        auto v1 = SampleCell(ctx, *t, *cat);
        auto v2 = SampleCell(ctx, *t, *cat);
        if (!v1 || !v2) return std::nullopt;
        if (v1->ToString() == v2->ToString()) {
          // Try to draw a different second value from the column data.
          for (int i = 0; i < 8 && v1->ToString() == v2->ToString(); ++i) {
            auto retry = SampleCell(ctx, *t, *cat);
            if (retry) v2 = retry;
          }
        }
        auto stmt = From(db, *t);
        AddSelect(*stmt, ColRef(db, *t, *sel, false));
        stmt->where = Expr::MakeBinary(
            BinaryOp::kOr,
            Expr::MakeBinary(BinaryOp::kEq, ColRef(db, *t, *cat, false),
                             Expr::MakeLiteral(*v1)),
            Expr::MakeBinary(BinaryOp::kEq, ColRef(db, *t, *cat, false),
                             Expr::MakeLiteral(*v2)));
        auto inst = Finish(
            std::move(stmt),
            Fill(PickPhrase(ctx,
                            {"Show the {C1} of {T} whose {C2} is {V1} or "
                             "{V2}.",
                             "List the {C1} of every {T} with {C2} either "
                             "{V1} or {V2}."}),
                 {{"C1", PhraseC(db, *t, *sel)},
                  {"T", PhraseT(db, *t)},
                  {"C2", PhraseC(db, *t, *cat)},
                  {"V1", QuoteVal(*v1)},
                  {"V2", QuoteVal(*v2)}}));
        AddUsed(inst, db, *t, {*sel, *cat});
        inst.value_strings.push_back(v1->ToString());
        inst.value_strings.push_back(v2->ToString());
        return inst;
      });

  Register(
      "where_between",
      "Show the {COLUMN1} of {TABLE} whose {COLUMN2} is between {VALUE1} and "
      "{VALUE2}.",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto tables = TablesWhere(db, [&prof](int t) {
          return !prof.text(t).empty() && !prof.numeric(t).empty();
        });
        auto t = PickTable(ctx, tables);
        if (!t) return std::nullopt;
        auto sel = PickSelectColumn(ctx, *t, prof.text(*t));
        auto num = PickFilterColumn(ctx, *t, prof.numeric(*t));
        if (!sel || !num) return std::nullopt;
        // Bounds: two question numbers when guided, else data quartiles.
        Value lo, hi;
        if (ctx.guide != nullptr && ctx.guide->numbers.size() < 2) {
          return std::nullopt;  // the model cannot invent range bounds
        }
        if (ctx.guide != nullptr && ctx.guide->numbers.size() >= 2) {
          double a = ctx.guide->numbers[0];
          double b = ctx.guide->numbers[1];
          if (a > b) std::swap(a, b);
          lo = (a == std::floor(a)) ? Value(static_cast<int64_t>(a)) : Value(a);
          hi = (b == std::floor(b)) ? Value(static_cast<int64_t>(b)) : Value(b);
        } else {
          std::vector<double> values;
          for (const auto& row : db.TableAt(*t).rows) {
            if (!row[*num].is_null()) values.push_back(row[*num].ToNumeric());
          }
          if (values.size() < 4) return std::nullopt;
          std::sort(values.begin(), values.end());
          double a = values[values.size() / 4];
          double b = values[(values.size() * 3) / 4];
          bool is_int = db.schema().tables[*t].columns[*num].type ==
                        DataType::kInteger;
          lo = is_int ? Value(static_cast<int64_t>(a)) : Value(a);
          hi = is_int ? Value(static_cast<int64_t>(b)) : Value(b);
        }
        auto stmt = From(db, *t);
        AddSelect(*stmt, ColRef(db, *t, *sel, false));
        auto between = std::make_unique<Expr>();
        between->kind = ExprKind::kBetween;
        between->children.push_back(ColRef(db, *t, *num, false));
        between->children.push_back(Expr::MakeLiteral(lo));
        between->children.push_back(Expr::MakeLiteral(hi));
        stmt->where = std::move(between);
        auto inst = Finish(
            std::move(stmt),
            Fill(PickPhrase(ctx,
                            {"Show the {C1} of {T} whose {C2} is between "
                             "{V1} and {V2}.",
                             "Which {T} have a {C2} between {V1} and {V2}? "
                             "List their {C1}."}),
                 {{"C1", PhraseC(db, *t, *sel)},
                  {"T", PhraseT(db, *t)},
                  {"C2", PhraseC(db, *t, *num)},
                  {"V1", lo.ToString()},
                  {"V2", hi.ToString()}}));
        AddUsed(inst, db, *t, {*sel, *num});
        inst.value_strings.push_back(lo.ToString());
        inst.value_strings.push_back(hi.ToString());
        return inst;
      });

  auto register_like = [this](std::string name, bool substring) {
    Register(
        std::move(name),
        substring
            ? "Show the {COLUMN} of {TABLE} containing '{VALUE}'."
            : "Show the {COLUMN} of {TABLE} starting with '{VALUE}'.",
        [substring](const Database& db, const ColumnProfile& prof, Rng& rng,
                    const SlotGuidance* g) -> std::optional<TemplateInstance> {
          Ctx ctx{db, prof, rng, g};
          auto tables = TablesWhere(db, [&prof](int t) {
            return !prof.text(t).empty();
          });
          auto t = PickTable(ctx, tables);
          if (!t) return std::nullopt;
          auto c = PickSelectColumn(ctx, *t, prof.text(*t));
          if (!c) return std::nullopt;
          auto v = SampleCell(ctx, *t, *c);
          if (!v || !v->is_text() || v->AsText().size() < 3) {
            return std::nullopt;
          }
          // In guided (model) mode the question's quoted span *is* the
          // fragment; data-generation mode derives one from a cell value.
          std::string fragment;
          if (ctx.guide != nullptr) {
            fragment = v->AsText();
          } else {
            fragment = substring ? v->AsText().substr(1, 4)
                                 : v->AsText().substr(0, 3);
          }
          fragment = Trim(fragment);
          if (fragment.empty()) return std::nullopt;
          std::string pattern =
              substring ? "%" + fragment + "%" : fragment + "%";
          auto stmt = From(db, *t);
          AddSelect(*stmt, ColRef(db, *t, *c, false));
          stmt->where =
              Expr::MakeBinary(BinaryOp::kLike, ColRef(db, *t, *c, false),
                               Expr::MakeLiteral(Value(pattern)));
          auto inst = Finish(
              std::move(stmt),
              Fill(substring
                       ? std::string(
                             "Which {C} of the {T} contain '{V}'?")
                       : std::string(
                             "Which {C} of the {T} start with '{V}'?"),
                   {{"C", PhraseC(db, *t, *c)},
                    {"T", PhraseT(db, *t)},
                    {"V", fragment}}));
          AddUsed(inst, db, *t, {*c});
          inst.value_strings.push_back(fragment);
          return inst;
        });
  };
  register_like("like_prefix", /*substring=*/false);
  register_like("like_contains", /*substring=*/true);

  auto register_null = [this](std::string name, bool is_null) {
    Register(
        std::move(name),
        is_null ? "Show the {COLUMN1} of {TABLE} whose {COLUMN2} is missing."
                : "Show the {COLUMN1} of {TABLE} whose {COLUMN2} is recorded.",
        [is_null](const Database& db, const ColumnProfile& prof, Rng& rng,
                  const SlotGuidance* g) -> std::optional<TemplateInstance> {
          Ctx ctx{db, prof, rng, g};
          auto tables = TablesWhere(db, [&prof](int t) {
            return prof.text(t).size() >= 1 &&
                   prof.text(t).size() + prof.numeric(t).size() >=
                       2;
          });
          auto t = PickTable(ctx, tables);
          if (!t) return std::nullopt;
          auto sel = PickSelectColumn(ctx, *t, prof.text(*t));
          if (!sel) return std::nullopt;
          auto cands = prof.text(*t);
          for (int n : prof.numeric(*t)) cands.push_back(n);
          cands.erase(std::remove(cands.begin(), cands.end(), *sel),
                      cands.end());
          auto filt = PickFilterColumn(ctx, *t, cands);
          if (!filt) return std::nullopt;
          auto stmt = From(db, *t);
          AddSelect(*stmt, ColRef(db, *t, *sel, false));
          stmt->where = Expr::MakeUnary(
              is_null ? UnaryOp::kIsNull : UnaryOp::kIsNotNull,
              ColRef(db, *t, *filt, false));
          auto inst = Finish(
              std::move(stmt),
              Fill(is_null ? std::string("List the {C1} of {T} whose {C2} is "
                                         "missing.")
                           : std::string("List the {C1} of {T} that have a "
                                         "recorded {C2}."),
                   {{"C1", PhraseC(db, *t, *sel)},
                    {"T", PhraseT(db, *t)},
                    {"C2", PhraseC(db, *t, *filt)}}));
          AddUsed(inst, db, *t, {*sel, *filt});
          return inst;
        });
  };
  register_null("is_null", true);
  register_null("is_not_null", false);

  Register(
      "in_list",
      "Show the {COLUMN1} of {TABLE} whose {COLUMN2} is one of {VALUES}.",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto tables = TablesWhere(db, [&prof](int t) {
          return !prof.text(t).empty() &&
                 !prof.category(t).empty();
        });
        auto t = PickTable(ctx, tables);
        if (!t) return std::nullopt;
        auto sel = PickSelectColumn(ctx, *t, prof.text(*t));
        auto cat = PickFilterColumn(ctx, *t, prof.category(*t));
        if (!sel || !cat) return std::nullopt;
        std::vector<Value> values;
        for (int i = 0; i < 3; ++i) {
          auto v = SampleCell(ctx, *t, *cat);
          if (!v) break;
          bool dup = false;
          for (const auto& existing : values) {
            if (existing.ToString() == v->ToString()) dup = true;
          }
          if (!dup) values.push_back(*v);
        }
        if (values.size() < 2) return std::nullopt;
        auto stmt = From(db, *t);
        AddSelect(*stmt, ColRef(db, *t, *sel, false));
        auto in = std::make_unique<Expr>();
        in->kind = ExprKind::kInList;
        in->children.push_back(ColRef(db, *t, *cat, false));
        in->in_list = values;
        stmt->where = std::move(in);
        std::string value_list;
        for (size_t i = 0; i < values.size(); ++i) {
          if (i > 0) value_list += (i + 1 == values.size()) ? " or " : ", ";
          value_list += QuoteVal(values[i]);
        }
        auto inst = Finish(
            std::move(stmt),
            Fill("Show the {C1} of {T} whose {C2} is {V}.",
                 {{"C1", PhraseC(db, *t, *sel)},
                  {"T", PhraseT(db, *t)},
                  {"C2", PhraseC(db, *t, *cat)},
                  {"V", value_list}}));
        AddUsed(inst, db, *t, {*sel, *cat});
        for (const auto& v : values) inst.value_strings.push_back(v.ToString());
        return inst;
      });

  Register(
      "where_two_col_cmp",
      "Show the {COLUMN1} of {TABLE} whose {COLUMN2} exceeds its {COLUMN3}.",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto tables = TablesWhere(db, [&prof](int t) {
          return !prof.text(t).empty() &&
                 prof.numeric(t).size() >= 2;
        });
        auto t = PickTable(ctx, tables);
        if (!t) return std::nullopt;
        auto sel = PickSelectColumn(ctx, *t, prof.text(*t));
        auto nums = prof.numeric(*t);
        auto n1 = PickFilterColumn(ctx, *t, nums);
        if (!sel || !n1) return std::nullopt;
        nums.erase(std::remove(nums.begin(), nums.end(), *n1), nums.end());
        auto n2 = PickFilterColumn(ctx, *t, nums);
        if (!n2) return std::nullopt;
        auto stmt = From(db, *t);
        AddSelect(*stmt, ColRef(db, *t, *sel, false));
        stmt->where = Expr::MakeBinary(BinaryOp::kGt,
                                       ColRef(db, *t, *n1, false),
                                       ColRef(db, *t, *n2, false));
        auto inst = Finish(
            std::move(stmt),
            Fill("Which {T} have a {C2} greater than their {C3}? Show the "
                 "{C1}.",
                 {{"C1", PhraseC(db, *t, *sel)},
                  {"T", PhraseT(db, *t)},
                  {"C2", PhraseC(db, *t, *n1)},
                  {"C3", PhraseC(db, *t, *n2)}}));
        AddUsed(inst, db, *t, {*sel, *n1, *n2});
        return inst;
      });

  Register(
      "substr_date_eq",
      "Show the {COLUMN1} of {TABLE} whose {COLUMN2} falls in year {VALUE}.",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto tables = TablesWhere(db, [&prof](int t) {
          return !prof.text(t).empty() && !prof.date(t).empty();
        });
        auto t = PickTable(ctx, tables);
        if (!t) return std::nullopt;
        auto sel = PickSelectColumn(ctx, *t, prof.text(*t));
        auto date = PickFilterColumn(ctx, *t, prof.date(*t));
        if (!sel || !date || *sel == *date) return std::nullopt;
        std::string year;
        if (ctx.guide != nullptr) {
          if (ctx.guide->numbers.empty()) return std::nullopt;
          year = std::to_string(
              static_cast<int64_t>(ctx.guide->numbers[0]));
        } else {
          auto v = SampleCell(ctx, *t, *date);
          if (!v || !v->is_text() || v->AsText().size() < 4) {
            return std::nullopt;
          }
          year = v->AsText().substr(0, 4);
        }
        auto stmt = From(db, *t);
        AddSelect(*stmt, ColRef(db, *t, *sel, false));
        std::vector<std::unique_ptr<Expr>> args;
        args.push_back(ColRef(db, *t, *date, false));
        args.push_back(Expr::MakeLiteral(Value(int64_t{1})));
        args.push_back(Expr::MakeLiteral(Value(int64_t{4})));
        stmt->where = Expr::MakeBinary(
            BinaryOp::kEq, Expr::MakeFunction("SUBSTR", std::move(args)),
            Expr::MakeLiteral(Value(year)));
        auto inst = Finish(
            std::move(stmt),
            Fill("List the {C1} of {T} whose {C2} is in the year {V}.",
                 {{"C1", PhraseC(db, *t, *sel)},
                  {"T", PhraseT(db, *t)},
                  {"C2", PhraseC(db, *t, *date)},
                  {"V", year}}));
        AddUsed(inst, db, *t, {*sel, *date});
        inst.value_strings.push_back(year);
        return inst;
      });

  Register(
      "select_two_cols_where_eq",
      "Show the {COLUMN1} and {COLUMN2} of {TABLE} whose {COLUMN3} is "
      "{VALUE}.",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto tables = TablesWhere(db, [&prof](int t) {
          return prof.text(t).size() + prof.numeric(t).size() >=
                     2 &&
                 !prof.category(t).empty();
        });
        auto t = PickTable(ctx, tables);
        if (!t) return std::nullopt;
        auto cols = prof.text(*t);
        for (int n : prof.numeric(*t)) cols.push_back(n);
        auto c1 = PickSelectColumn(ctx, *t, cols);
        if (!c1) return std::nullopt;
        cols.erase(std::remove(cols.begin(), cols.end(), *c1), cols.end());
        auto c2 = PickSelectColumn(ctx, *t, cols);
        auto cat = PickFilterColumn(ctx, *t, prof.category(*t));
        if (!c2 || !cat) return std::nullopt;
        auto v = SampleCell(ctx, *t, *cat);
        if (!v) return std::nullopt;
        std::vector<int> chosen{*c1, *c2};
        OrderByMention(ctx, *t, chosen);
        *c1 = chosen[0];
        *c2 = chosen[1];
        auto stmt = From(db, *t);
        AddSelect(*stmt, ColRef(db, *t, *c1, false));
        AddSelect(*stmt, ColRef(db, *t, *c2, false));
        stmt->where = Expr::MakeBinary(BinaryOp::kEq,
                                       ColRef(db, *t, *cat, false),
                                       Expr::MakeLiteral(*v));
        auto inst = Finish(
            std::move(stmt),
            Fill("What are the {C1} and {C2} of the {T} whose {C3} is {V}?",
                 {{"C1", PhraseC(db, *t, *c1)},
                  {"C2", PhraseC(db, *t, *c2)},
                  {"T", PhraseT(db, *t)},
                  {"C3", PhraseC(db, *t, *cat)},
                  {"V", QuoteVal(*v)}}));
        AddUsed(inst, db, *t, {*c1, *c2, *cat});
        inst.value_strings.push_back(v->ToString());
        return inst;
      });

  // ----------------------------------------------------------- C. counting
  Register("count_all", "How many {TABLE} are there?",
           [](const Database& db, const ColumnProfile& prof, Rng& rng,
              const SlotGuidance* g) -> std::optional<TemplateInstance> {
             Ctx ctx{db, prof, rng, g};
             auto tables = TablesWhere(db, [](int) { return true; });
             auto t = PickTable(ctx, tables);
             if (!t) return std::nullopt;
             auto stmt = From(db, *t);
             AddSelect(*stmt, CountStar());
             auto inst = Finish(
                 std::move(stmt),
                 Fill(PickPhrase(ctx, {"How many {T} are there?",
                                       "Count the number of {T}.",
                                       "What is the total number of {T}?"}),
                      {{"T", PhraseT(db, *t)}}));
             AddUsed(inst, db, *t, {});
             return inst;
           });

  Register(
      "count_where_eq_text",
      "How many {TABLE} have {COLUMN} {VALUE}?",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto tables = TablesWhere(db, [&prof](int t) {
          return !prof.category(t).empty();
        });
        auto t = PickTable(ctx, tables);
        if (!t) return std::nullopt;
        auto cat = PickFilterColumn(ctx, *t, prof.category(*t));
        if (!cat) return std::nullopt;
        auto v = SampleCell(ctx, *t, *cat);
        if (!v) return std::nullopt;
        auto stmt = From(db, *t);
        AddSelect(*stmt, CountStar());
        stmt->where = Expr::MakeBinary(BinaryOp::kEq,
                                       ColRef(db, *t, *cat, false),
                                       Expr::MakeLiteral(*v));
        auto inst = Finish(
            std::move(stmt),
            Fill(PickPhrase(ctx, {"How many {T} have a {C} of {V}?",
                                  "Count the {T} whose {C} is {V}.",
                                  "What is the number of {T} with {C} {V}?"}),
                 {{"T", PhraseT(db, *t)},
                  {"C", PhraseC(db, *t, *cat)},
                  {"V", QuoteVal(*v)}}));
        AddUsed(inst, db, *t, {*cat});
        inst.value_strings.push_back(v->ToString());
        return inst;
      });

  Register(
      "count_where_cmp",
      "How many {TABLE} have {COLUMN} greater than {VALUE}?",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto tables = TablesWhere(db, [&prof](int t) {
          return !prof.numeric(t).empty();
        });
        auto t = PickTable(ctx, tables);
        if (!t) return std::nullopt;
        auto num = PickFilterColumn(ctx, *t, prof.numeric(*t));
        if (!num) return std::nullopt;
        auto v = PickThreshold(ctx, *t, *num);
        if (!v) return std::nullopt;
        auto stmt = From(db, *t);
        AddSelect(*stmt, CountStar());
        stmt->where = Expr::MakeBinary(BinaryOp::kGt,
                                       ColRef(db, *t, *num, false),
                                       Expr::MakeLiteral(*v));
        auto inst = Finish(
            std::move(stmt),
            Fill("How many {T} have a {C} greater than {V}?",
                 {{"T", PhraseT(db, *t)},
                  {"C", PhraseC(db, *t, *num)},
                  {"V", v->ToString()}}));
        AddUsed(inst, db, *t, {*num});
        inst.value_strings.push_back(v->ToString());
        return inst;
      });

  Register("count_distinct", "How many different {COLUMN} do the {TABLE} have?",
           [](const Database& db, const ColumnProfile& prof, Rng& rng,
              const SlotGuidance* g) -> std::optional<TemplateInstance> {
             Ctx ctx{db, prof, rng, g};
             auto tables = TablesWhere(db, [&prof](int t) {
               return !prof.category(t).empty();
             });
             auto t = PickTable(ctx, tables);
             if (!t) return std::nullopt;
             auto c = PickSelectColumn(ctx, *t, prof.category(*t));
             if (!c) return std::nullopt;
             auto stmt = From(db, *t);
             AddSelect(*stmt,
                       Agg("COUNT", ColRef(db, *t, *c, false), true));
             auto inst = Finish(
                 std::move(stmt),
                 Fill(PickPhrase(
                          ctx, {"How many different {C} are there among the "
                                "{T}?",
                                "Count the distinct {C} of the {T}."}),
                      {{"C", PhraseC(db, *t, *c)}, {"T", PhraseT(db, *t)}}));
             AddUsed(inst, db, *t, {*c});
             return inst;
           });

  Register(
      "count_where_and",
      "How many {TABLE} have {COLUMN1} {VALUE1} and {COLUMN2} above {VALUE2}?",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto tables = TablesWhere(db, [&prof](int t) {
          return !prof.category(t).empty() &&
                 !prof.numeric(t).empty();
        });
        auto t = PickTable(ctx, tables);
        if (!t) return std::nullopt;
        auto cat = PickFilterColumn(ctx, *t, prof.category(*t));
        auto num = PickFilterColumn(ctx, *t, prof.numeric(*t));
        if (!cat || !num) return std::nullopt;
        auto v1 = SampleCell(ctx, *t, *cat);
        auto v2 = PickThreshold(ctx, *t, *num);
        if (!v1 || !v2) return std::nullopt;
        auto stmt = From(db, *t);
        AddSelect(*stmt, CountStar());
        stmt->where = Expr::MakeBinary(
            BinaryOp::kAnd,
            Expr::MakeBinary(BinaryOp::kEq, ColRef(db, *t, *cat, false),
                             Expr::MakeLiteral(*v1)),
            Expr::MakeBinary(BinaryOp::kGt, ColRef(db, *t, *num, false),
                             Expr::MakeLiteral(*v2)));
        auto inst = Finish(
            std::move(stmt),
            Fill("How many {T} have {C1} {V1} and {C2} greater than {V2}?",
                 {{"T", PhraseT(db, *t)},
                  {"C1", PhraseC(db, *t, *cat)},
                  {"V1", QuoteVal(*v1)},
                  {"C2", PhraseC(db, *t, *num)},
                  {"V2", v2->ToString()}}));
        AddUsed(inst, db, *t, {*cat, *num});
        inst.value_strings.push_back(v1->ToString());
        inst.value_strings.push_back(v2->ToString());
        return inst;
      });

  // ---------------------------------------------------------- D. aggregates
  auto register_agg = [this](std::string name, AggSpec agg, bool with_where) {
    Register(
        std::move(name),
        with_where
            ? std::string("What is the ") + agg.phrase +
                  " {COLUMN1} of {TABLE} whose {COLUMN2} is {VALUE}?"
            : std::string("What is the ") + agg.phrase +
                  " {COLUMN} of all {TABLE}?",
        [agg, with_where](
            const Database& db, const ColumnProfile& prof, Rng& rng,
            const SlotGuidance* g) -> std::optional<TemplateInstance> {
          Ctx ctx{db, prof, rng, g};
          auto tables = TablesWhere(db, [&prof, with_where](int t) {
            if (prof.numeric(t).empty()) return false;
            return !with_where || !prof.category(t).empty();
          });
          auto t = PickTable(ctx, tables);
          if (!t) return std::nullopt;
          auto num = PickSelectColumn(ctx, *t, prof.numeric(*t));
          if (!num) return std::nullopt;
          auto stmt = From(db, *t);
          AddSelect(*stmt, Agg(agg.fn, ColRef(db, *t, *num, false)));
          TemplateInstance inst;
          if (with_where) {
            auto cat = PickFilterColumn(ctx, *t, prof.category(*t));
            if (!cat) return std::nullopt;
            auto v = SampleCell(ctx, *t, *cat);
            if (!v) return std::nullopt;
            stmt->where = Expr::MakeBinary(BinaryOp::kEq,
                                           ColRef(db, *t, *cat, false),
                                           Expr::MakeLiteral(*v));
            inst = Finish(
                std::move(stmt),
                Fill(std::string("What is the ") + agg.phrase +
                         " {C1} of {T} whose {C2} is {V}?",
                     {{"C1", PhraseC(db, *t, *num)},
                      {"T", PhraseT(db, *t)},
                      {"C2", PhraseC(db, *t, *cat)},
                      {"V", QuoteVal(*v)}}));
            AddUsed(inst, db, *t, {*num, *cat});
            inst.value_strings.push_back(v->ToString());
          } else {
            inst = Finish(
                std::move(stmt),
                Fill(PickPhrase(
                         ctx,
                         {std::string("What is the ") + agg.phrase +
                              " {C} of all {T}?",
                          std::string("Find the ") + agg.phrase +
                              " {C} across the {T}.",
                          std::string("Give the ") + agg.phrase +
                              " {C} of the {T}."}),
                     {{"C", PhraseC(db, *t, *num)}, {"T", PhraseT(db, *t)}}));
            AddUsed(inst, db, *t, {*num});
          }
          return inst;
        });
  };
  register_agg("agg_sum", kSum, false);
  register_agg("agg_avg", kAvg, false);
  register_agg("agg_min", kMin, false);
  register_agg("agg_max", kMax, false);
  register_agg("agg_sum_where", kSum, true);
  register_agg("agg_avg_where", kAvg, true);
  register_agg("agg_min_where", kMin, true);
  register_agg("agg_max_where", kMax, true);

  Register("min_max_pair",
           "What are the minimum and maximum {COLUMN} of {TABLE}?",
           [](const Database& db, const ColumnProfile& prof, Rng& rng,
              const SlotGuidance* g) -> std::optional<TemplateInstance> {
             Ctx ctx{db, prof, rng, g};
             auto tables = TablesWhere(db, [&prof](int t) {
               return !prof.numeric(t).empty();
             });
             auto t = PickTable(ctx, tables);
             if (!t) return std::nullopt;
             auto num = PickSelectColumn(ctx, *t, prof.numeric(*t));
             if (!num) return std::nullopt;
             auto stmt = From(db, *t);
             AddSelect(*stmt, Agg("MIN", ColRef(db, *t, *num, false)));
             AddSelect(*stmt, Agg("MAX", ColRef(db, *t, *num, false)));
             auto inst = Finish(
                 std::move(stmt),
                 Fill("What are the minimum and maximum {C} of the {T}?",
                      {{"C", PhraseC(db, *t, *num)}, {"T", PhraseT(db, *t)}}));
             AddUsed(inst, db, *t, {*num});
             return inst;
           });

  Register("max_minus_min",
           "What is the range between highest and lowest {COLUMN} of {TABLE}?",
           [](const Database& db, const ColumnProfile& prof, Rng& rng,
              const SlotGuidance* g) -> std::optional<TemplateInstance> {
             Ctx ctx{db, prof, rng, g};
             auto tables = TablesWhere(db, [&prof](int t) {
               return !prof.numeric(t).empty();
             });
             auto t = PickTable(ctx, tables);
             if (!t) return std::nullopt;
             auto num = PickSelectColumn(ctx, *t, prof.numeric(*t));
             if (!num) return std::nullopt;
             auto stmt = From(db, *t);
             AddSelect(*stmt, Expr::MakeBinary(
                                  BinaryOp::kSub,
                                  Agg("MAX", ColRef(db, *t, *num, false)),
                                  Agg("MIN", ColRef(db, *t, *num, false))));
             auto inst = Finish(
                 std::move(stmt),
                 Fill("What is the difference between the highest and lowest "
                      "{C} of the {T}?",
                      {{"C", PhraseC(db, *t, *num)}, {"T", PhraseT(db, *t)}}));
             AddUsed(inst, db, *t, {*num});
             return inst;
           });

  Register("avg_round",
           "What is the average {COLUMN} of {TABLE}, rounded to 2 decimals?",
           [](const Database& db, const ColumnProfile& prof, Rng& rng,
              const SlotGuidance* g) -> std::optional<TemplateInstance> {
             Ctx ctx{db, prof, rng, g};
             auto tables = TablesWhere(db, [&prof](int t) {
               return !prof.numeric(t).empty();
             });
             auto t = PickTable(ctx, tables);
             if (!t) return std::nullopt;
             auto num = PickSelectColumn(ctx, *t, prof.numeric(*t));
             if (!num) return std::nullopt;
             auto stmt = From(db, *t);
             std::vector<std::unique_ptr<Expr>> args;
             args.push_back(Agg("AVG", ColRef(db, *t, *num, false)));
             args.push_back(Expr::MakeLiteral(Value(int64_t{2})));
             AddSelect(*stmt, Expr::MakeFunction("ROUND", std::move(args)));
             auto inst = Finish(
                 std::move(stmt),
                 Fill("What is the average {C} of the {T}, rounded to two "
                      "decimal places?",
                      {{"C", PhraseC(db, *t, *num)}, {"T", PhraseT(db, *t)}}));
             AddUsed(inst, db, *t, {*num});
             return inst;
           });

  // ------------------------------------------------------------ E. ordering
  auto register_order = [this](std::string name, bool asc, int limit_kind) {
    // limit_kind: 0 none, 1 LIMIT 1, 2 LIMIT k.
    std::string skeleton;
    if (limit_kind == 0) {
      skeleton = asc ? "List the {COLUMN1} of {TABLE} ordered by {COLUMN2} "
                       "ascending."
                     : "List the {COLUMN1} of {TABLE} ordered by {COLUMN2} "
                       "descending.";
    } else if (limit_kind == 1) {
      skeleton = asc ? "Return the {COLUMN1} of the {TABLE} with the lowest "
                       "{COLUMN2}."
                     : "Return the {COLUMN1} of the {TABLE} with the highest "
                       "{COLUMN2}.";
    } else {
      skeleton = asc ? "Return the {COLUMN1} of the {K} {TABLE} with the "
                       "lowest {COLUMN2}."
                     : "Return the {COLUMN1} of the top {K} {TABLE} by "
                       "{COLUMN2}.";
    }
    Register(
        std::move(name), std::move(skeleton),
        [asc, limit_kind](
            const Database& db, const ColumnProfile& prof, Rng& rng,
            const SlotGuidance* g) -> std::optional<TemplateInstance> {
          Ctx ctx{db, prof, rng, g};
          auto tables = TablesWhere(db, [&prof](int t) {
            return !prof.text(t).empty() &&
                   !prof.numeric(t).empty();
          });
          auto t = PickTable(ctx, tables);
          if (!t) return std::nullopt;
          auto sel = PickSelectColumn(ctx, *t, prof.text(*t));
          auto key = PickFilterColumn(ctx, *t, prof.numeric(*t));
          if (!sel || !key) return std::nullopt;
          auto stmt = From(db, *t);
          AddSelect(*stmt, ColRef(db, *t, *sel, false));
          OrderItem oi;
          oi.expr = ColRef(db, *t, *key, false);
          oi.ascending = asc;
          stmt->order_by.push_back(std::move(oi));
          int64_t k = 0;
          if (limit_kind == 1) {
            stmt->limit = 1;
          } else if (limit_kind == 2) {
            k = PickSmallCount(ctx);
            if (k <= 1) k = 3;
            stmt->limit = k;
          }
          std::string question;
          if (limit_kind == 0) {
            question = Fill(
                asc ? std::string("List the {C1} of all {T} sorted by {C2} "
                                  "from low to high.")
                    : std::string("List the {C1} of all {T} sorted by {C2} "
                                  "in descending order."),
                {{"C1", PhraseC(db, *t, *sel)},
                 {"T", PhraseT(db, *t)},
                 {"C2", PhraseC(db, *t, *key)}});
          } else if (limit_kind == 1) {
            question = Fill(
                PickPhrase(
                    ctx,
                    {asc ? std::string("What is the {C1} of the {T} with the "
                                       "lowest {C2}?")
                         : std::string("What is the {C1} of the {T} with the "
                                       "highest {C2}?"),
                     asc ? std::string("Return the {C1} of the {T} having "
                                       "the smallest {C2}.")
                         : std::string("Return the {C1} of the {T} having "
                                       "the largest {C2}.")}),
                {{"C1", PhraseC(db, *t, *sel)},
                 {"T", PhraseT(db, *t)},
                 {"C2", PhraseC(db, *t, *key)}});
          } else {
            question = Fill(
                asc ? std::string("Show the {C1} of the {K} {T} with the "
                                  "lowest {C2}.")
                    : std::string("Show the {C1} of the top {K} {T} by "
                                  "{C2}."),
                {{"C1", PhraseC(db, *t, *sel)},
                 {"T", PhraseT(db, *t)},
                 {"C2", PhraseC(db, *t, *key)},
                 {"K", std::to_string(k)}});
          }
          auto inst = Finish(std::move(stmt), std::move(question));
          AddUsed(inst, db, *t, {*sel, *key});
          if (limit_kind == 2) inst.value_strings.push_back(std::to_string(k));
          return inst;
        });
  };
  register_order("order_asc", true, 0);
  register_order("order_desc", false, 0);
  register_order("top1_desc", false, 1);
  register_order("bottom1_asc", true, 1);
  register_order("topk_desc", false, 2);
  register_order("bottomk_asc", true, 2);

  Register(
      "order_two_select",
      "Show the {COLUMN1} and {COLUMN2} of {TABLE} ordered by {COLUMN2} "
      "descending.",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto tables = TablesWhere(db, [&prof](int t) {
          return !prof.text(t).empty() && !prof.numeric(t).empty();
        });
        auto t = PickTable(ctx, tables);
        if (!t) return std::nullopt;
        auto sel = PickSelectColumn(ctx, *t, prof.text(*t));
        auto key = PickFilterColumn(ctx, *t, prof.numeric(*t));
        if (!sel || !key) return std::nullopt;
        auto stmt = From(db, *t);
        AddSelect(*stmt, ColRef(db, *t, *sel, false));
        AddSelect(*stmt, ColRef(db, *t, *key, false));
        OrderItem oi;
        oi.expr = ColRef(db, *t, *key, false);
        oi.ascending = false;
        stmt->order_by.push_back(std::move(oi));
        auto inst = Finish(
            std::move(stmt),
            Fill("Show the {C1} and {C2} of every {T}, ordered by {C2} from "
                 "high to low.",
                 {{"C1", PhraseC(db, *t, *sel)},
                  {"C2", PhraseC(db, *t, *key)},
                  {"T", PhraseT(db, *t)}}));
        AddUsed(inst, db, *t, {*sel, *key});
        return inst;
      });

  // ------------------------------------------------------------ F. grouping
  Register("group_count",
           "For each {COLUMN} of {TABLE}, how many rows are there?",
           [](const Database& db, const ColumnProfile& prof, Rng& rng,
              const SlotGuidance* g) -> std::optional<TemplateInstance> {
             Ctx ctx{db, prof, rng, g};
             auto tables = TablesWhere(db, [&prof](int t) {
               return !prof.category(t).empty();
             });
             auto t = PickTable(ctx, tables);
             if (!t) return std::nullopt;
             auto cat = PickSelectColumn(ctx, *t, prof.category(*t));
             if (!cat) return std::nullopt;
             auto stmt = From(db, *t);
             AddSelect(*stmt, ColRef(db, *t, *cat, false));
             AddSelect(*stmt, CountStar());
             stmt->group_by.push_back(ColRef(db, *t, *cat, false));
             auto inst = Finish(
                 std::move(stmt),
                 Fill(PickPhrase(
                          ctx,
                          {"For each {C}, how many {T} are there?",
                           "Show each {C} and the number of {T} with it.",
                           "Count the {T} in each {C}."}),
                      {{"C", PhraseC(db, *t, *cat)}, {"T", PhraseT(db, *t)}}));
             AddUsed(inst, db, *t, {*cat});
             return inst;
           });

  auto register_group_extreme = [this](std::string name, bool most) {
    Register(
        std::move(name),
        most ? "Return the most common {COLUMN} of {TABLE}."
             : "Return the least common {COLUMN} of {TABLE}.",
        [most](const Database& db, const ColumnProfile& prof, Rng& rng,
               const SlotGuidance* g) -> std::optional<TemplateInstance> {
          Ctx ctx{db, prof, rng, g};
          auto tables = TablesWhere(db, [&prof](int t) {
            return !prof.category(t).empty();
          });
          auto t = PickTable(ctx, tables);
          if (!t) return std::nullopt;
          auto cat = PickSelectColumn(ctx, *t, prof.category(*t));
          if (!cat) return std::nullopt;
          auto stmt = From(db, *t);
          AddSelect(*stmt, ColRef(db, *t, *cat, false));
          stmt->group_by.push_back(ColRef(db, *t, *cat, false));
          OrderItem oi;
          oi.expr = CountStar();
          oi.ascending = !most;
          stmt->order_by.push_back(std::move(oi));
          stmt->limit = 1;
          auto inst = Finish(
              std::move(stmt),
              Fill(most ? std::string("What is the most common {C} among the "
                                      "{T}?")
                        : std::string("What is the least common {C} among "
                                      "the {T}?"),
                   {{"C", PhraseC(db, *t, *cat)}, {"T", PhraseT(db, *t)}}));
          AddUsed(inst, db, *t, {*cat});
          return inst;
        });
  };
  register_group_extreme("group_count_desc_limit1", true);
  register_group_extreme("group_count_asc_limit1", false);

  auto register_group_agg = [this](std::string name, AggSpec agg) {
    Register(
        std::move(name),
        std::string("For each {COLUMN1} of {TABLE}, what is the ") +
            agg.phrase + " {COLUMN2}?",
        [agg](const Database& db, const ColumnProfile& prof, Rng& rng,
              const SlotGuidance* g) -> std::optional<TemplateInstance> {
          Ctx ctx{db, prof, rng, g};
          auto tables = TablesWhere(db, [&prof](int t) {
            return !prof.category(t).empty() &&
                   !prof.numeric(t).empty();
          });
          auto t = PickTable(ctx, tables);
          if (!t) return std::nullopt;
          auto cat = PickSelectColumn(ctx, *t, prof.category(*t));
          auto num = PickSelectColumn(ctx, *t, prof.numeric(*t));
          if (!cat || !num) return std::nullopt;
          auto stmt = From(db, *t);
          AddSelect(*stmt, ColRef(db, *t, *cat, false));
          AddSelect(*stmt, Agg(agg.fn, ColRef(db, *t, *num, false)));
          stmt->group_by.push_back(ColRef(db, *t, *cat, false));
          auto inst = Finish(
              std::move(stmt),
              Fill(std::string("For each {C1}, what is the ") + agg.phrase +
                       " {C2} of the {T}?",
                   {{"C1", PhraseC(db, *t, *cat)},
                    {"C2", PhraseC(db, *t, *num)},
                    {"T", PhraseT(db, *t)}}));
          AddUsed(inst, db, *t, {*cat, *num});
          return inst;
        });
  };
  register_group_agg("group_avg", kAvg);
  register_group_agg("group_sum", kSum);
  register_group_agg("group_max", kMax);
  register_group_agg("group_min", kMin);

  Register(
      "group_having_count",
      "Which {COLUMN} of {TABLE} appear at least {VALUE} times?",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto tables = TablesWhere(db, [&prof](int t) {
          return !prof.category(t).empty();
        });
        auto t = PickTable(ctx, tables);
        if (!t) return std::nullopt;
        auto cat = PickSelectColumn(ctx, *t, prof.category(*t));
        if (!cat) return std::nullopt;
        int64_t k = PickSmallCount(ctx);
        auto stmt = From(db, *t);
        AddSelect(*stmt, ColRef(db, *t, *cat, false));
        stmt->group_by.push_back(ColRef(db, *t, *cat, false));
        stmt->having = Expr::MakeBinary(
            BinaryOp::kGe, CountStar(),
            Expr::MakeLiteral(Value(k)));
        auto inst = Finish(
            std::move(stmt),
            Fill("Which {C} appear in at least {K} of the {T}?",
                 {{"C", PhraseC(db, *t, *cat)},
                  {"T", PhraseT(db, *t)},
                  {"K", std::to_string(k)}}));
        AddUsed(inst, db, *t, {*cat});
        inst.value_strings.push_back(std::to_string(k));
        return inst;
      });

  Register(
      "group_having_avg",
      "Which {COLUMN1} of {TABLE} have an average {COLUMN2} above {VALUE}?",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto tables = TablesWhere(db, [&prof](int t) {
          return !prof.category(t).empty() &&
                 !prof.numeric(t).empty();
        });
        auto t = PickTable(ctx, tables);
        if (!t) return std::nullopt;
        auto cat = PickSelectColumn(ctx, *t, prof.category(*t));
        auto num = PickSelectColumn(ctx, *t, prof.numeric(*t));
        if (!cat || !num) return std::nullopt;
        auto v = PickThreshold(ctx, *t, *num);
        if (!v) return std::nullopt;
        auto stmt = From(db, *t);
        AddSelect(*stmt, ColRef(db, *t, *cat, false));
        stmt->group_by.push_back(ColRef(db, *t, *cat, false));
        stmt->having = Expr::MakeBinary(
            BinaryOp::kGt, Agg("AVG", ColRef(db, *t, *num, false)),
            Expr::MakeLiteral(*v));
        auto inst = Finish(
            std::move(stmt),
            Fill("Which {C1} have an average {C2} above {V} among the {T}?",
                 {{"C1", PhraseC(db, *t, *cat)},
                  {"C2", PhraseC(db, *t, *num)},
                  {"V", v->ToString()},
                  {"T", PhraseT(db, *t)}}));
        AddUsed(inst, db, *t, {*cat, *num});
        inst.value_strings.push_back(v->ToString());
        return inst;
      });

  Register(
      "group_count_where",
      "For each {COLUMN1} of {TABLE} with {COLUMN2} above {VALUE}, how many "
      "rows are there?",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto tables = TablesWhere(db, [&prof](int t) {
          return !prof.category(t).empty() &&
                 !prof.numeric(t).empty();
        });
        auto t = PickTable(ctx, tables);
        if (!t) return std::nullopt;
        auto cat = PickSelectColumn(ctx, *t, prof.category(*t));
        auto num = PickFilterColumn(ctx, *t, prof.numeric(*t));
        if (!cat || !num) return std::nullopt;
        auto v = PickThreshold(ctx, *t, *num);
        if (!v) return std::nullopt;
        auto stmt = From(db, *t);
        AddSelect(*stmt, ColRef(db, *t, *cat, false));
        AddSelect(*stmt, CountStar());
        stmt->where = Expr::MakeBinary(BinaryOp::kGt,
                                       ColRef(db, *t, *num, false),
                                       Expr::MakeLiteral(*v));
        stmt->group_by.push_back(ColRef(db, *t, *cat, false));
        auto inst = Finish(
            std::move(stmt),
            Fill("Among {T} with {C2} greater than {V}, count them for each "
                 "{C1}.",
                 {{"T", PhraseT(db, *t)},
                  {"C2", PhraseC(db, *t, *num)},
                  {"V", v->ToString()},
                  {"C1", PhraseC(db, *t, *cat)}}));
        AddUsed(inst, db, *t, {*cat, *num});
        inst.value_strings.push_back(v->ToString());
        return inst;
      });

  RegisterJoinTemplates();
  RegisterSubqueryAndSetTemplates();

  BuildFingerprintMap();
}

// Continued in templates_join.cc (join templates) and
// templates_nested.cc (subquery and set-operation templates).

const std::string& TemplateLibrary::name(int template_id) const {
  CODES_CHECK(template_id >= 0 &&
              template_id < static_cast<int>(defs_.size()));
  return defs_[template_id].name;
}

const std::string& TemplateLibrary::QuestionSkeleton(int template_id) const {
  CODES_CHECK(template_id >= 0 &&
              template_id < static_cast<int>(defs_.size()));
  return defs_[template_id].question_skeleton;
}

std::optional<TemplateInstance> TemplateLibrary::Instantiate(
    int template_id, const sql::Database& db, const ColumnProfile& profile,
    Rng& rng, const SlotGuidance* guidance) const {
  CODES_CHECK(template_id >= 0 &&
              template_id < static_cast<int>(defs_.size()));
  auto inst = defs_[template_id].build(db, profile, rng, guidance);
  if (inst.has_value()) inst->template_id = template_id;
  return inst;
}

std::optional<TemplateInstance> TemplateLibrary::Instantiate(
    int template_id, const sql::Database& db, Rng& rng,
    const SlotGuidance* guidance) const {
  return Instantiate(template_id, db, ColumnProfile(db), rng, guidance);
}

std::optional<TemplateInstance> TemplateLibrary::InstantiateRandom(
    const sql::Database& db, const ColumnProfile& profile, Rng& rng) const {
  std::vector<int> order(defs_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  rng.Shuffle(order);
  for (int id : order) {
    auto inst = Instantiate(id, db, profile, rng);
    if (inst.has_value()) return inst;
  }
  return std::nullopt;
}

std::optional<TemplateInstance> TemplateLibrary::InstantiateRandom(
    const sql::Database& db, Rng& rng) const {
  return InstantiateRandom(db, ColumnProfile(db), rng);
}

int TemplateLibrary::IdentifyTemplate(const std::string& sql_text) const {
  auto stmt = sql::ParseSql(sql_text);
  if (!stmt.ok()) return -1;
  std::string key = sql::FingerprintOf(**stmt).ToKey();
  auto it = fingerprint_to_id_.find(key);
  if (it == fingerprint_to_id_.end()) return -1;
  return it->second;
}

namespace {

/// A reference domain that satisfies every template's slot needs: two
/// category columns, two numeric columns, a date column, and an FK edge.
/// Used only to compute template fingerprints at library construction.
DomainSpec FingerprintReferenceDomain() {
  using VK = ValueKind;
  DomainSpec d;
  d.name = "fingerprint_reference";
  TableConcept band;
  band.name = "band";
  band.comment = "reference parent table";
  band.columns = {
      ColumnConcept{"band_id", VK::kSequentialId, ""},
      ColumnConcept{"band_name", VK::kWord, ""},
      ColumnConcept{"genre", VK::kWord, ""},
      ColumnConcept{"city", VK::kCity, ""},
      ColumnConcept{"rating", VK::kRate, ""},
      ColumnConcept{"founded_year", VK::kYear, ""},
      ColumnConcept{"formed_date", VK::kDate, ""},
  };
  TableConcept album;
  album.name = "album";
  album.comment = "reference child table";
  album.columns = {
      ColumnConcept{"album_id", VK::kSequentialId, ""},
      ColumnConcept{"album_title", VK::kTitleWords, ""},
      ColumnConcept{"band_id", VK::kSmallInt, "recording band"},
      ColumnConcept{"sales", VK::kBigInt, ""},
      ColumnConcept{"price", VK::kMoney, ""},
      ColumnConcept{"release_date", VK::kDate, ""},
      ColumnConcept{"label", VK::kWord, ""},
  };
  d.tables = {band, album};
  d.fks = {FkConcept{"album", "band_id", "band", "band_id"}};
  return d;
}

}  // namespace

void TemplateLibrary::BuildFingerprintMap() {
  // Instantiate each template against a reference database and record its
  // structural fingerprint. The reference database must satisfy every
  // template's slot needs.
  Rng rng(0xC0DE5);
  DbProfile profile = DbProfile::Spider();
  profile.min_rows = 80;
  profile.max_rows = 120;
  sql::Database reference =
      GenerateDatabase(FingerprintReferenceDomain(), profile, rng, "ref");
  const ColumnProfile columns(reference);
  for (size_t id = 0; id < defs_.size(); ++id) {
    std::optional<TemplateInstance> inst;
    for (int attempt = 0; attempt < 40 && !inst.has_value(); ++attempt) {
      inst = defs_[id].build(reference, columns, rng, nullptr);
    }
    CODES_CHECK(inst.has_value());
    auto stmt = sql::ParseSql(inst->sql_text);
    CODES_CHECK(stmt.ok());
    std::string key = sql::FingerprintOf(**stmt).ToKey();
    auto [it, inserted] =
        fingerprint_to_id_.emplace(key, static_cast<int>(id));
    if (!inserted) {
      std::fprintf(stderr,
                   "fingerprint collision: template %zu (%s) vs %d (%s): %s\n",
                   id, defs_[id].name.c_str(), it->second,
                   defs_[it->second].name.c_str(), key.c_str());
      std::abort();
    }
  }
}

const TemplateLibrary& GlobalTemplates() {
  static const TemplateLibrary* const kLibrary = new TemplateLibrary();
  return *kLibrary;
}

}  // namespace codes
