#include "dataset/templates.h"
#include "dataset/templates_internal.h"

namespace codes {

using namespace codes::template_internal;

namespace {

/// Adds `JOIN child/parent ON child.fk = parent.pk` to a statement whose
/// FROM table is the edge's child, or vice versa.
void AddJoin(SelectStatement& stmt, const Database& db, const JoinEdge& edge,
             bool from_is_child) {
  sql::JoinClause join;
  join.table.table =
      from_is_child ? TName(db, edge.parent_t) : TName(db, edge.child_t);
  join.condition = Expr::MakeBinary(
      BinaryOp::kEq, ColRef(db, edge.child_t, edge.child_c, true),
      ColRef(db, edge.parent_t, edge.parent_c, true));
  stmt.joins.push_back(std::move(join));
}

void AddJoinKeysUsed(TemplateInstance& inst, const Database& db,
                     const JoinEdge& edge) {
  AddUsed(inst, db, edge.child_t, {edge.child_c});
  AddUsed(inst, db, edge.parent_t, {edge.parent_c});
}

}  // namespace

void TemplateLibrary::RegisterJoinTemplates() {
  // 57. child text column filtered by parent category value.
  Register(
      "join_select_text",
      "Show the {COLUMN1} of {TABLE1} whose {TABLE2} has {COLUMN2} {VALUE}.",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto edge = PickJoinEdge(ctx);
        if (!edge) return std::nullopt;
        auto sel_cands = prof.text(edge->child_t);
        auto filt_cands = prof.category(edge->parent_t);
        if (filt_cands.empty()) filt_cands = prof.text(edge->parent_t);
        auto sel = PickSelectColumn(ctx, edge->child_t, sel_cands);
        auto filt = PickFilterColumn(ctx, edge->parent_t, filt_cands);
        if (!sel || !filt) return std::nullopt;
        auto v = SampleCell(ctx, edge->parent_t, *filt);
        if (!v) return std::nullopt;
        auto stmt = From(db, edge->child_t);
        AddSelect(*stmt, ColRef(db, edge->child_t, *sel, true));
        AddJoin(*stmt, db, *edge, /*from_is_child=*/true);
        stmt->where = Expr::MakeBinary(
            BinaryOp::kEq, ColRef(db, edge->parent_t, *filt, true),
            Expr::MakeLiteral(*v));
        auto inst = Finish(
            std::move(stmt),
            Fill(PickPhrase(
                     ctx, {"Show the {C1} of the {T1} whose {T2} has {C2} "
                           "{V}.",
                           "List the {C1} of every {T1} belonging to the "
                           "{T2} with {C2} {V}."}),
                 {{"C1", PhraseC(db, edge->child_t, *sel)},
                  {"T1", PhraseT(db, edge->child_t)},
                  {"T2", PhraseT(db, edge->parent_t)},
                  {"C2", PhraseC(db, edge->parent_t, *filt)},
                  {"V", QuoteVal(*v)}}));
        AddUsed(inst, db, edge->child_t, {*sel});
        AddUsed(inst, db, edge->parent_t, {*filt});
        AddJoinKeysUsed(inst, db, *edge);
        inst.value_strings.push_back(v->ToString());
        return inst;
      });

  // 58. parent text column filtered by child numeric comparison.
  Register(
      "join_select_cmp",
      "Show the {COLUMN1} of {TABLE1} that have a {TABLE2} with {COLUMN2} "
      "above {VALUE}.",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto edge = PickJoinEdge(ctx);
        if (!edge) return std::nullopt;
        auto sel = PickSelectColumn(ctx, edge->parent_t,
                                    prof.text(edge->parent_t));
        auto filt = PickFilterColumn(ctx, edge->child_t,
                                     prof.numeric(edge->child_t));
        if (!sel || !filt) return std::nullopt;
        auto v = PickThreshold(ctx, edge->child_t, *filt);
        if (!v) return std::nullopt;
        auto stmt = From(db, edge->parent_t);
        AddSelect(*stmt, ColRef(db, edge->parent_t, *sel, true));
        AddJoin(*stmt, db, *edge, /*from_is_child=*/false);
        stmt->where = Expr::MakeBinary(
            BinaryOp::kGt, ColRef(db, edge->child_t, *filt, true),
            Expr::MakeLiteral(*v));
        auto inst = Finish(
            std::move(stmt),
            Fill("Show the {C1} of the {T1} that have a {T2} with {C2} "
                 "greater than {V}.",
                 {{"C1", PhraseC(db, edge->parent_t, *sel)},
                  {"T1", PhraseT(db, edge->parent_t)},
                  {"T2", PhraseT(db, edge->child_t)},
                  {"C2", PhraseC(db, edge->child_t, *filt)},
                  {"V", v->ToString()}}));
        AddUsed(inst, db, edge->parent_t, {*sel});
        AddUsed(inst, db, edge->child_t, {*filt});
        AddJoinKeysUsed(inst, db, *edge);
        inst.value_strings.push_back(v->ToString());
        return inst;
      });

  // 59. one column from each side.
  Register(
      "join_two_cols",
      "Show the {COLUMN1} of {TABLE1} together with the {COLUMN2} of its "
      "{TABLE2}.",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto edge = PickJoinEdge(ctx);
        if (!edge) return std::nullopt;
        auto c1 = PickSelectColumn(ctx, edge->child_t,
                                   prof.text(edge->child_t));
        auto c2 = PickSelectColumn(ctx, edge->parent_t,
                                   prof.text(edge->parent_t));
        if (!c1 || !c2) return std::nullopt;
        auto stmt = From(db, edge->child_t);
        AddSelect(*stmt, ColRef(db, edge->child_t, *c1, true));
        AddSelect(*stmt, ColRef(db, edge->parent_t, *c2, true));
        AddJoin(*stmt, db, *edge, /*from_is_child=*/true);
        auto inst = Finish(
            std::move(stmt),
            Fill("For each {T1}, show its {C1} and the {C2} of its {T2}.",
                 {{"T1", PhraseT(db, edge->child_t)},
                  {"C1", PhraseC(db, edge->child_t, *c1)},
                  {"C2", PhraseC(db, edge->parent_t, *c2)},
                  {"T2", PhraseT(db, edge->parent_t)}}));
        AddUsed(inst, db, edge->child_t, {*c1});
        AddUsed(inst, db, edge->parent_t, {*c2});
        AddJoinKeysUsed(inst, db, *edge);
        return inst;
      });

  // 60. count children of a given parent.
  Register(
      "join_count",
      "How many {TABLE1} belong to the {TABLE2} whose {COLUMN} is {VALUE}?",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto edge = PickJoinEdge(ctx);
        if (!edge) return std::nullopt;
        auto filt_cands = prof.text(edge->parent_t);
        auto filt = PickFilterColumn(ctx, edge->parent_t, filt_cands);
        if (!filt) return std::nullopt;
        auto v = SampleCell(ctx, edge->parent_t, *filt);
        if (!v) return std::nullopt;
        auto stmt = From(db, edge->child_t);
        AddSelect(*stmt, CountStar());
        AddJoin(*stmt, db, *edge, /*from_is_child=*/true);
        stmt->where = Expr::MakeBinary(
            BinaryOp::kEq, ColRef(db, edge->parent_t, *filt, true),
            Expr::MakeLiteral(*v));
        auto inst = Finish(
            std::move(stmt),
            Fill(PickPhrase(ctx,
                            {"How many {T1} belong to the {T2} whose {C} is "
                             "{V}?",
                             "Count the {T1} of the {T2} with {C} {V}."}),
                 {{"T1", PhraseT(db, edge->child_t)},
                  {"T2", PhraseT(db, edge->parent_t)},
                  {"C", PhraseC(db, edge->parent_t, *filt)},
                  {"V", QuoteVal(*v)}}));
        AddUsed(inst, db, edge->parent_t, {*filt});
        AddJoinKeysUsed(inst, db, *edge);
        inst.value_strings.push_back(v->ToString());
        return inst;
      });

  // 61. per-parent child counts.
  Register(
      "join_group_count",
      "For each {TABLE2} {COLUMN}, count its {TABLE1}.",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto edge = PickJoinEdge(ctx);
        if (!edge) return std::nullopt;
        auto label = PickSelectColumn(ctx, edge->parent_t,
                                      prof.text(edge->parent_t));
        if (!label) return std::nullopt;
        auto stmt = From(db, edge->child_t);
        AddSelect(*stmt, ColRef(db, edge->parent_t, *label, true));
        AddSelect(*stmt, CountStar());
        AddJoin(*stmt, db, *edge, /*from_is_child=*/true);
        stmt->group_by.push_back(ColRef(db, edge->parent_t, *label, true));
        auto inst = Finish(
            std::move(stmt),
            Fill("For each {T2}, show its {C} and how many {T1} it has.",
                 {{"T2", PhraseT(db, edge->parent_t)},
                  {"C", PhraseC(db, edge->parent_t, *label)},
                  {"T1", PhraseT(db, edge->child_t)}}));
        AddUsed(inst, db, edge->parent_t, {*label});
        AddJoinKeysUsed(inst, db, *edge);
        return inst;
      });

  // 62. parent with the most children.
  Register(
      "join_group_count_limit1",
      "Which {TABLE2} has the most {TABLE1}? Show its {COLUMN}.",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto edge = PickJoinEdge(ctx);
        if (!edge) return std::nullopt;
        auto label = PickSelectColumn(ctx, edge->parent_t,
                                      prof.text(edge->parent_t));
        if (!label) return std::nullopt;
        auto stmt = From(db, edge->child_t);
        AddSelect(*stmt, ColRef(db, edge->parent_t, *label, true));
        AddJoin(*stmt, db, *edge, /*from_is_child=*/true);
        stmt->group_by.push_back(ColRef(db, edge->parent_t, *label, true));
        OrderItem oi;
        oi.expr = CountStar();
        oi.ascending = false;
        stmt->order_by.push_back(std::move(oi));
        stmt->limit = 1;
        auto inst = Finish(
            std::move(stmt),
            Fill(PickPhrase(ctx,
                            {"Which {T2} has the most {T1}? Show its {C}.",
                             "Return the {C} of the {T2} with the largest "
                             "number of {T1}."}),
                 {{"T2", PhraseT(db, edge->parent_t)},
                  {"T1", PhraseT(db, edge->child_t)},
                  {"C", PhraseC(db, edge->parent_t, *label)}}));
        AddUsed(inst, db, edge->parent_t, {*label});
        AddJoinKeysUsed(inst, db, *edge);
        return inst;
      });

  // 63/64. aggregate of child numeric for a named parent.
  auto register_join_agg = [this](std::string name, AggSpec agg) {
    Register(
        std::move(name),
        std::string("What is the ") + agg.phrase +
            " {COLUMN1} of the {TABLE1} of the {TABLE2} whose {COLUMN2} is "
            "{VALUE}?",
        [agg](const Database& db, const ColumnProfile& prof, Rng& rng,
              const SlotGuidance* g) -> std::optional<TemplateInstance> {
          Ctx ctx{db, prof, rng, g};
          auto edge = PickJoinEdge(ctx);
          if (!edge) return std::nullopt;
          auto num = PickSelectColumn(ctx, edge->child_t,
                                      prof.numeric(edge->child_t));
          auto filt = PickFilterColumn(ctx, edge->parent_t,
                                       prof.text(edge->parent_t));
          if (!num || !filt) return std::nullopt;
          auto v = SampleCell(ctx, edge->parent_t, *filt);
          if (!v) return std::nullopt;
          auto stmt = From(db, edge->child_t);
          AddSelect(*stmt, Agg(agg.fn, ColRef(db, edge->child_t, *num, true)));
          AddJoin(*stmt, db, *edge, /*from_is_child=*/true);
          stmt->where = Expr::MakeBinary(
              BinaryOp::kEq, ColRef(db, edge->parent_t, *filt, true),
              Expr::MakeLiteral(*v));
          auto inst = Finish(
              std::move(stmt),
              Fill(std::string("What is the ") + agg.phrase +
                       " {C1} of {T1} for the {T2} whose {C2} is {V}?",
                   {{"C1", PhraseC(db, edge->child_t, *num)},
                    {"T1", PhraseT(db, edge->child_t)},
                    {"T2", PhraseT(db, edge->parent_t)},
                    {"C2", PhraseC(db, edge->parent_t, *filt)},
                    {"V", QuoteVal(*v)}}));
          AddUsed(inst, db, edge->child_t, {*num});
          AddUsed(inst, db, edge->parent_t, {*filt});
          AddJoinKeysUsed(inst, db, *edge);
          inst.value_strings.push_back(v->ToString());
          return inst;
        });
  };
  register_join_agg("join_agg_avg", kAvg);
  register_join_agg("join_agg_sum", kSum);

  // 65. parents with at least k children.
  Register(
      "join_group_having",
      "Which {TABLE2} have at least {VALUE} {TABLE1}? Show the {COLUMN}.",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto edge = PickJoinEdge(ctx);
        if (!edge) return std::nullopt;
        auto label = PickSelectColumn(ctx, edge->parent_t,
                                      prof.text(edge->parent_t));
        if (!label) return std::nullopt;
        int64_t k = PickSmallCount(ctx);
        auto stmt = From(db, edge->child_t);
        AddSelect(*stmt, ColRef(db, edge->parent_t, *label, true));
        AddJoin(*stmt, db, *edge, /*from_is_child=*/true);
        stmt->group_by.push_back(ColRef(db, edge->parent_t, *label, true));
        stmt->having = Expr::MakeBinary(BinaryOp::kGe, CountStar(),
                                        Expr::MakeLiteral(Value(k)));
        auto inst = Finish(
            std::move(stmt),
            Fill("Show the {C} of the {T2} that have at least {K} {T1}.",
                 {{"C", PhraseC(db, edge->parent_t, *label)},
                  {"T2", PhraseT(db, edge->parent_t)},
                  {"K", std::to_string(k)},
                  {"T1", PhraseT(db, edge->child_t)}}));
        AddUsed(inst, db, edge->parent_t, {*label});
        AddJoinKeysUsed(inst, db, *edge);
        inst.value_strings.push_back(std::to_string(k));
        return inst;
      });

  // 66. parent label of the child with extreme numeric value.
  Register(
      "join_order_limit1",
      "Return the {COLUMN1} of the {TABLE2} whose {TABLE1} has the highest "
      "{COLUMN2}.",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto edge = PickJoinEdge(ctx);
        if (!edge) return std::nullopt;
        auto label = PickSelectColumn(ctx, edge->parent_t,
                                      prof.text(edge->parent_t));
        auto num = PickFilterColumn(ctx, edge->child_t,
                                    prof.numeric(edge->child_t));
        if (!label || !num) return std::nullopt;
        auto stmt = From(db, edge->child_t);
        AddSelect(*stmt, ColRef(db, edge->parent_t, *label, true));
        AddJoin(*stmt, db, *edge, /*from_is_child=*/true);
        OrderItem oi;
        oi.expr = ColRef(db, edge->child_t, *num, true);
        oi.ascending = false;
        stmt->order_by.push_back(std::move(oi));
        stmt->limit = 1;
        auto inst = Finish(
            std::move(stmt),
            Fill("What is the {C1} of the {T2} whose {T1} has the highest "
                 "{C2}?",
                 {{"C1", PhraseC(db, edge->parent_t, *label)},
                  {"T2", PhraseT(db, edge->parent_t)},
                  {"T1", PhraseT(db, edge->child_t)},
                  {"C2", PhraseC(db, edge->child_t, *num)}}));
        AddUsed(inst, db, edge->parent_t, {*label});
        AddUsed(inst, db, edge->child_t, {*num});
        AddJoinKeysUsed(inst, db, *edge);
        return inst;
      });

  // 67. join plus two-sided predicate.
  Register(
      "join_where_and",
      "Show the {COLUMN1} of {TABLE1} whose {TABLE2} has {COLUMN2} {VALUE1} "
      "and whose {COLUMN3} is above {VALUE2}.",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto edge = PickJoinEdge(ctx);
        if (!edge) return std::nullopt;
        auto sel = PickSelectColumn(ctx, edge->child_t,
                                    prof.text(edge->child_t));
        auto cat = PickFilterColumn(ctx, edge->parent_t,
                                    prof.text(edge->parent_t));
        auto num = PickFilterColumn(ctx, edge->child_t,
                                    prof.numeric(edge->child_t));
        if (!sel || !cat || !num) return std::nullopt;
        auto v1 = SampleCell(ctx, edge->parent_t, *cat);
        auto v2 = PickThreshold(ctx, edge->child_t, *num);
        if (!v1 || !v2) return std::nullopt;
        auto stmt = From(db, edge->child_t);
        AddSelect(*stmt, ColRef(db, edge->child_t, *sel, true));
        AddJoin(*stmt, db, *edge, /*from_is_child=*/true);
        stmt->where = Expr::MakeBinary(
            BinaryOp::kAnd,
            Expr::MakeBinary(BinaryOp::kEq,
                             ColRef(db, edge->parent_t, *cat, true),
                             Expr::MakeLiteral(*v1)),
            Expr::MakeBinary(BinaryOp::kGt,
                             ColRef(db, edge->child_t, *num, true),
                             Expr::MakeLiteral(*v2)));
        auto inst = Finish(
            std::move(stmt),
            Fill("List the {C1} of {T1} whose {T2} has {C2} {V1} and whose "
                 "{C3} exceeds {V2}.",
                 {{"C1", PhraseC(db, edge->child_t, *sel)},
                  {"T1", PhraseT(db, edge->child_t)},
                  {"T2", PhraseT(db, edge->parent_t)},
                  {"C2", PhraseC(db, edge->parent_t, *cat)},
                  {"V1", QuoteVal(*v1)},
                  {"C3", PhraseC(db, edge->child_t, *num)},
                  {"V2", v2->ToString()}}));
        AddUsed(inst, db, edge->child_t, {*sel, *num});
        AddUsed(inst, db, edge->parent_t, {*cat});
        AddJoinKeysUsed(inst, db, *edge);
        inst.value_strings.push_back(v1->ToString());
        inst.value_strings.push_back(v2->ToString());
        return inst;
      });

  // 68. distinct child categories per named parent.
  Register(
      "join_count_distinct",
      "How many different {COLUMN1} do the {TABLE1} of the {TABLE2} with "
      "{COLUMN2} {VALUE} have?",
      [](const Database& db, const ColumnProfile& prof, Rng& rng,
         const SlotGuidance* g) -> std::optional<TemplateInstance> {
        Ctx ctx{db, prof, rng, g};
        auto edge = PickJoinEdge(ctx);
        if (!edge) return std::nullopt;
        auto cat_cands = prof.category(edge->child_t);
        if (cat_cands.empty()) cat_cands = prof.text(edge->child_t);
        auto cat = PickSelectColumn(ctx, edge->child_t, cat_cands);
        auto filt = PickFilterColumn(ctx, edge->parent_t,
                                     prof.text(edge->parent_t));
        if (!cat || !filt) return std::nullopt;
        auto v = SampleCell(ctx, edge->parent_t, *filt);
        if (!v) return std::nullopt;
        auto stmt = From(db, edge->child_t);
        AddSelect(*stmt,
                  Agg("COUNT", ColRef(db, edge->child_t, *cat, true), true));
        AddJoin(*stmt, db, *edge, /*from_is_child=*/true);
        stmt->where = Expr::MakeBinary(
            BinaryOp::kEq, ColRef(db, edge->parent_t, *filt, true),
            Expr::MakeLiteral(*v));
        auto inst = Finish(
            std::move(stmt),
            Fill("How many distinct {C1} do the {T1} of the {T2} with {C2} "
                 "{V} have?",
                 {{"C1", PhraseC(db, edge->child_t, *cat)},
                  {"T1", PhraseT(db, edge->child_t)},
                  {"T2", PhraseT(db, edge->parent_t)},
                  {"C2", PhraseC(db, edge->parent_t, *filt)},
                  {"V", QuoteVal(*v)}}));
        AddUsed(inst, db, edge->child_t, {*cat});
        AddUsed(inst, db, edge->parent_t, {*filt});
        AddJoinKeysUsed(inst, db, *edge);
        inst.value_strings.push_back(v->ToString());
        return inst;
      });
}

}  // namespace codes
