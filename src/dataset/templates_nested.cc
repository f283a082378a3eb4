#include "dataset/templates.h"
#include "dataset/templates_internal.h"

namespace codes {

using namespace codes::template_internal;

void TemplateLibrary::RegisterSubqueryAndSetTemplates() {
  // 69/70. membership via subquery over the FK column.
  auto register_in_subquery = [this](std::string name, bool negated) {
    Register(
        std::move(name),
        negated ? "Show the {COLUMN} of {TABLE2} that have no {TABLE1}."
                : "Show the {COLUMN} of {TABLE2} that have some {TABLE1}.",
        [negated](const Database& db, const ColumnProfile& prof, Rng& rng,
                  const SlotGuidance* g) -> std::optional<TemplateInstance> {
          Ctx ctx{db, prof, rng, g};
          auto edge = PickJoinEdge(ctx);
          if (!edge) return std::nullopt;
          auto label = PickSelectColumn(ctx, edge->parent_t,
                                        prof.text(edge->parent_t));
          if (!label) return std::nullopt;
          auto stmt = From(db, edge->parent_t);
          AddSelect(*stmt, ColRef(db, edge->parent_t, *label, false));
          auto sub = From(db, edge->child_t);
          AddSelect(*sub, ColRef(db, edge->child_t, edge->child_c, false));
          auto in = std::make_unique<Expr>();
          in->kind = ExprKind::kInSubquery;
          in->negated = negated;
          in->children.push_back(
              ColRef(db, edge->parent_t, edge->parent_c, false));
          in->subquery = std::move(sub);
          stmt->where = std::move(in);
          auto inst = Finish(
              std::move(stmt),
              Fill(negated
                       ? std::string(
                             "Which {T2} do not have any {T1}? Show the {C}.")
                       : std::string(
                             "Which {T2} have at least one {T1}? Show the "
                             "{C}."),
                   {{"T2", PhraseT(db, edge->parent_t)},
                    {"T1", PhraseT(db, edge->child_t)},
                    {"C", PhraseC(db, edge->parent_t, *label)}}));
          AddUsed(inst, edge->parent_t, {*label, edge->parent_c});
          AddUsed(inst, edge->child_t, {edge->child_c});
          return inst;
        });
  };
  register_in_subquery("in_subquery", false);
  register_in_subquery("not_in_subquery", true);

  // 71/72. compare against the table-wide average.
  auto register_scalar_avg = [this](std::string name, bool above) {
    Register(
        std::move(name),
        above ? "Show the {COLUMN1} of {TABLE} whose {COLUMN2} is above "
                "average."
              : "Show the {COLUMN1} of {TABLE} whose {COLUMN2} is below "
                "average.",
        [above](const Database& db, const ColumnProfile& prof, Rng& rng,
                const SlotGuidance* g) -> std::optional<TemplateInstance> {
          Ctx ctx{db, prof, rng, g};
          auto tables = TablesWhere(db, [&prof](int t) {
            return !prof.text(t).empty() &&
                   !prof.numeric(t).empty();
          });
          auto t = PickTable(ctx, tables);
          if (!t) return std::nullopt;
          auto sel = PickSelectColumn(ctx, *t, prof.text(*t));
          auto num = PickFilterColumn(ctx, *t, prof.numeric(*t));
          if (!sel || !num) return std::nullopt;
          auto stmt = From(db, *t);
          AddSelect(*stmt, ColRef(db, *t, *sel, false));
          auto sub = From(db, *t);
          AddSelect(*sub, Agg("AVG", ColRef(db, *t, *num, false)));
          auto scalar = std::make_unique<Expr>();
          scalar->kind = ExprKind::kScalarSubquery;
          scalar->subquery = std::move(sub);
          stmt->where = Expr::MakeBinary(
              above ? BinaryOp::kGt : BinaryOp::kLt,
              ColRef(db, *t, *num, false), std::move(scalar));
          auto inst = Finish(
              std::move(stmt),
              Fill(above ? std::string("Which {T} have a {C2} higher than "
                                       "the average? Show the {C1}.")
                         : std::string("Which {T} have a {C2} lower than the "
                                       "average? Show the {C1}."),
                   {{"T", PhraseT(db, *t)},
                    {"C2", PhraseC(db, *t, *num)},
                    {"C1", PhraseC(db, *t, *sel)}}));
          AddUsed(inst, *t, {*sel, *num});
          return inst;
        });
  };
  register_scalar_avg("scalar_gt_avg", true);
  register_scalar_avg("scalar_lt_avg", false);

  // 73/74/75. set operations over two category filters.
  auto register_set_op = [this](std::string name, SetOp op,
                                std::string connective) {
    Register(
        std::move(name),
        "Show the {COLUMN1} of {TABLE} whose {COLUMN2} is {VALUE1} " +
            connective + " whose {COLUMN3} is {VALUE2}.",
        [op](const Database& db, const ColumnProfile& prof, Rng& rng,
             const SlotGuidance* g) -> std::optional<TemplateInstance> {
          Ctx ctx{db, prof, rng, g};
          auto tables = TablesWhere(db, [&prof](int t) {
            return !prof.text(t).empty() &&
                   prof.category(t).size() >= 2;
          });
          auto t = PickTable(ctx, tables);
          if (!t) return std::nullopt;
          auto sel = PickSelectColumn(ctx, *t, prof.text(*t));
          auto cats = prof.category(*t);
          auto c1 = PickFilterColumn(ctx, *t, cats);
          if (!sel || !c1) return std::nullopt;
          cats.erase(std::remove(cats.begin(), cats.end(), *c1), cats.end());
          auto c2 = PickFilterColumn(ctx, *t, cats);
          if (!c2) return std::nullopt;
          auto v1 = SampleCell(ctx, *t, *c1);
          auto v2 = SampleCell(ctx, *t, *c2);
          if (!v1 || !v2) return std::nullopt;

          auto lhs = From(db, *t);
          AddSelect(*lhs, ColRef(db, *t, *sel, false));
          lhs->where = Expr::MakeBinary(BinaryOp::kEq,
                                        ColRef(db, *t, *c1, false),
                                        Expr::MakeLiteral(*v1));
          auto rhs = From(db, *t);
          AddSelect(*rhs, ColRef(db, *t, *sel, false));
          rhs->where = Expr::MakeBinary(BinaryOp::kEq,
                                        ColRef(db, *t, *c2, false),
                                        Expr::MakeLiteral(*v2));
          lhs->set_op = op;
          lhs->set_rhs = std::move(rhs);

          std::string pattern;
          switch (op) {
            case SetOp::kUnion:
              pattern = "Show the {C1} of {T} whose {C2} is {V1} together "
                        "with those whose {C3} is {V2}.";
              break;
            case SetOp::kIntersect:
              pattern = "Show the {C1} of {T} that both have {C2} {V1} and "
                        "have {C3} {V2}.";
              break;
            default:
              pattern = "Show the {C1} of {T} whose {C2} is {V1} but whose "
                        "{C3} is not {V2}.";
              break;
          }
          auto inst = Finish(
              std::move(lhs),
              Fill(pattern, {{"C1", PhraseC(db, *t, *sel)},
                             {"T", PhraseT(db, *t)},
                             {"C2", PhraseC(db, *t, *c1)},
                             {"V1", QuoteVal(*v1)},
                             {"C3", PhraseC(db, *t, *c2)},
                             {"V2", QuoteVal(*v2)}}));
          AddUsed(inst, *t, {*sel, *c1, *c2});
          inst.value_strings.push_back(v1->ToString());
          inst.value_strings.push_back(v2->ToString());
          return inst;
        });
  };
  register_set_op("union_two", SetOp::kUnion, "or");
  register_set_op("intersect_two", SetOp::kIntersect, "and");
  register_set_op("except_two", SetOp::kExcept, "but not");

  // 76th/77th shapes (74/75 after zero-indexing): distinct projection with
  // a filter, and counting rows with a missing value.
  Register(
      "distinct_where",
      "Show the different {COLUMN1} of {TABLE} whose {COLUMN2} is {VALUE}.",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto tables = TablesWhere(db, [&prof](int t) {
          return prof.category(t).size() >= 2;
        });
        auto t = PickTable(ctx, tables);
        if (!t) return std::nullopt;
        auto cats = prof.category(*t);
        auto sel = PickSelectColumn(ctx, *t, cats);
        if (!sel) return std::nullopt;
        cats.erase(std::remove(cats.begin(), cats.end(), *sel), cats.end());
        auto filt = PickFilterColumn(ctx, *t, cats);
        if (!filt) return std::nullopt;
        auto v = SampleCell(ctx, *t, *filt);
        if (!v) return std::nullopt;
        auto stmt = From(db, *t);
        stmt->distinct = true;
        AddSelect(*stmt, ColRef(db, *t, *sel, false));
        stmt->where = Expr::MakeBinary(BinaryOp::kEq,
                                       ColRef(db, *t, *filt, false),
                                       Expr::MakeLiteral(*v));
        auto inst = Finish(
            std::move(stmt),
            Fill("What are the different {C1} of the {T} whose {C2} is {V}?",
                 {{"C1", PhraseC(db, *t, *sel)},
                  {"T", PhraseT(db, *t)},
                  {"C2", PhraseC(db, *t, *filt)},
                  {"V", QuoteVal(*v)}}));
        AddUsed(inst, *t, {*sel, *filt});
        inst.value_strings.push_back(v->ToString());
        return inst;
      });

  Register(
      "count_is_null",
      "How many {TABLE} have no recorded {COLUMN}?",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto tables = TablesWhere(db, [&prof](int t) {
          return !prof.text(t).empty() || !prof.numeric(t).empty();
        });
        auto t = PickTable(ctx, tables);
        if (!t) return std::nullopt;
        auto cands = prof.text(*t);
        for (int n : prof.numeric(*t)) cands.push_back(n);
        auto c = PickFilterColumn(ctx, *t, cands);
        if (!c) return std::nullopt;
        auto stmt = From(db, *t);
        AddSelect(*stmt, CountStar());
        stmt->where = Expr::MakeUnary(UnaryOp::kIsNull,
                                      ColRef(db, *t, *c, false));
        auto inst = Finish(
            std::move(stmt),
            Fill("How many {T} are missing a {C}?",
                 {{"T", PhraseT(db, *t)}, {"C", PhraseC(db, *t, *c)}}));
        AddUsed(inst, *t, {*c});
        return inst;
      });
}

}  // namespace codes
