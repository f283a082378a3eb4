#include "prompt/prompt_builder.h"

#include <algorithm>

#include "common/string_util.h"
#include "common/trace.h"

namespace codes {

int CountPromptTokens(const std::string& text) {
  return static_cast<int>(SplitWhitespace(text).size());
}

bool DatabasePrompt::TableKept(int table) const {
  return std::find(kept_tables.begin(), kept_tables.end(), table) !=
         kept_tables.end();
}

bool DatabasePrompt::ColumnKept(int table, int column) const {
  for (size_t i = 0; i < kept_tables.size(); ++i) {
    if (kept_tables[i] == table) {
      return std::find(kept_columns[i].begin(), kept_columns[i].end(),
                       column) != kept_columns[i].end();
    }
  }
  return false;
}

std::optional<sql::Value> DatabasePrompt::RepresentativeValue(
    int table, int column) const {
  for (size_t i = 0; i < kept_tables.size(); ++i) {
    if (kept_tables[i] != table) continue;
    const std::vector<int>& columns = kept_columns[i];
    auto it = std::find(columns.begin(), columns.end(), column);
    if (it == columns.end()) break;
    const sql::Value& value = first_values[i][it - columns.begin()];
    if (value.is_null()) break;
    return value;
  }
  return std::nullopt;
}

namespace {

/// Representative values serialized per kept column (Section 6.3).
constexpr size_t kRepresentativeValues = 2;

}  // namespace

DatabasePrompt PromptBuilder::Build(
    const sql::Database& db, const std::string& question,
    const ValueRetriever* value_retriever) const {
  const auto& schema = db.schema();
  std::vector<int> kept_tables;
  std::vector<std::vector<int>> kept_columns;

  if (options_.use_schema_filter && classifier_ != nullptr) {
    // Stage span: schema filtering — classifier scoring + top-k1/k2
    // selection (the "schema item classifier" column of the paper's
    // latency breakdown).
    CODES_TRACE_SPAN(span, "pipeline.classifier");
    // One pass scores every table and column; keep the top-k1 tables.
    const SchemaScores scores = classifier_->ScoreSchema(question, db);
    std::vector<std::pair<double, int>> table_scores;
    for (size_t t = 0; t < schema.tables.size(); ++t) {
      table_scores.emplace_back(scores.tables[t], static_cast<int>(t));
    }
    std::sort(table_scores.begin(), table_scores.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    int keep_t = std::min<int>(options_.top_k1,
                               static_cast<int>(table_scores.size()));
    for (int i = 0; i < keep_t; ++i) {
      kept_tables.push_back(table_scores[i].second);
    }
    std::sort(kept_tables.begin(), kept_tables.end());

    // Per kept table: the top-k2 scored columns, plus PK/FK columns which
    // always ride along (they are cheap to serialize and joins are
    // impossible without them).
    for (int t : kept_tables) {
      const auto& table = schema.tables[t];
      std::vector<int> cols;
      std::vector<std::pair<double, int>> scored;
      for (size_t c = 0; c < table.columns.size(); ++c) {
        if (schema.IsKeyColumn(t, static_cast<int>(c))) {
          cols.push_back(static_cast<int>(c));
        } else {
          scored.emplace_back(scores.columns[t][c], static_cast<int>(c));
        }
      }
      std::sort(scored.begin(), scored.end(), [](const auto& a,
                                                 const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;
      });
      int kept_scored = 0;
      for (const auto& [score, c] : scored) {
        if (kept_scored >= options_.top_k2) break;
        cols.push_back(c);
        ++kept_scored;
      }
      std::sort(cols.begin(), cols.end());
      kept_columns.push_back(std::move(cols));
    }
  } else {
    for (size_t t = 0; t < schema.tables.size(); ++t) {
      kept_tables.push_back(static_cast<int>(t));
      std::vector<int> cols;
      for (size_t c = 0; c < schema.tables[t].columns.size(); ++c) {
        cols.push_back(static_cast<int>(c));
      }
      kept_columns.push_back(std::move(cols));
    }
  }
  return Serialize(db, question, std::move(kept_tables),
                   std::move(kept_columns), value_retriever);
}

DatabasePrompt PromptBuilder::Serialize(
    const sql::Database& db, const std::string& question,
    std::vector<int> kept_tables, std::vector<std::vector<int>> kept_columns,
    const ValueRetriever* value_retriever) const {
  const auto& schema = db.schema();
  DatabasePrompt prompt;
  prompt.comments_included = options_.include_comments;
  prompt.types_included = options_.include_column_types;
  prompt.keys_included = options_.include_keys;

  // Retrieve question-matched values first; they are serialized at the end
  // but are part of the token budget. Stage span: "value retrieval" in
  // the per-stage latency breakdown (BM25 coarse lookup + LCS fine rank
  // nest inside it).
  if (options_.use_value_retriever && value_retriever != nullptr) {
    CODES_TRACE_SPAN(span, "pipeline.value_retrieval");
    prompt.matched_values = value_retriever->Retrieve(
        question, PromptOptions::value_coarse_k, PromptOptions::value_fine_k);
  }

  // Serialize table blocks under the token budget; tables or columns that
  // do not fit are dropped from the kept sets (truncation). Stage span:
  // prompt text construction proper (schema rendering + budgeting).
  CODES_TRACE_SPAN(serialize_span, "pipeline.prompt_serialize");
  std::string text = "database " + schema.name + "\n";
  int budget = options_.max_prompt_tokens;
  budget -= CountPromptTokens(text) + CountPromptTokens(question);

  std::vector<int> final_tables;
  std::vector<std::vector<int>> final_columns;
  std::vector<std::vector<sql::Value>> first_values;
  for (size_t i = 0; i < kept_tables.size(); ++i) {
    int t = kept_tables[i];
    const auto& table = schema.tables[t];
    std::string block = "table " + table.name;
    if (options_.include_comments && !table.comment.empty()) {
      block += " -- " + table.comment;
    }
    block += " , columns = [\n";
    std::vector<int> cols_that_fit;
    std::vector<sql::Value> firsts;
    for (int c : kept_columns[i]) {
      const auto& col = table.columns[c];
      std::string line = "  " + table.name + "." + col.name;
      std::vector<std::string> attrs;
      if (options_.include_column_types) {
        attrs.push_back(sql::DataTypeName(col.type));
      }
      if (col.is_primary_key && options_.include_keys) {
        attrs.push_back("primary key");
      }
      if (options_.include_comments && !col.comment.empty()) {
        attrs.push_back("comment : " + col.comment);
      }
      std::vector<sql::Value> values;
      if (options_.include_representative_values) {
        values = db.DistinctValues(t, c, kRepresentativeValues);
        if (!values.empty()) {
          std::string value_list = "values : ";
          for (size_t v = 0; v < values.size(); ++v) {
            if (v > 0) value_list += " , ";
            value_list += values[v].ToSqlLiteral();
          }
          attrs.push_back(std::move(value_list));
        }
      }
      if (!attrs.empty()) {
        line += " ( " + Join(attrs, " | ") + " )";
      }
      line += "\n";
      int line_tokens = CountPromptTokens(line);
      if (line_tokens > budget) break;  // truncate within the table
      budget -= line_tokens;
      block += line;
      cols_that_fit.push_back(c);
      firsts.push_back(values.empty() ? sql::Value() : std::move(values[0]));
    }
    block += "]\n";
    int overhead = CountPromptTokens("table , columns = [ ]") + 2;
    if (cols_that_fit.empty() || overhead > budget) break;  // table dropped
    budget -= overhead;
    text += block;
    final_tables.push_back(t);
    final_columns.push_back(std::move(cols_that_fit));
    first_values.push_back(std::move(firsts));
  }

  // Foreign keys between kept tables.
  if (options_.include_keys) {
    std::string fk_text;
    for (const auto& fk : schema.foreign_keys) {
      auto t1 = schema.FindTable(fk.table);
      auto t2 = schema.FindTable(fk.ref_table);
      if (!t1 || !t2) continue;
      bool both_kept =
          std::find(final_tables.begin(), final_tables.end(), *t1) !=
              final_tables.end() &&
          std::find(final_tables.begin(), final_tables.end(), *t2) !=
              final_tables.end();
      if (!both_kept) continue;
      fk_text += "foreign key : " + fk.table + "." + fk.column + " = " +
                 fk.ref_table + "." + fk.ref_column + "\n";
    }
    if (!fk_text.empty() && CountPromptTokens(fk_text) <= budget) {
      budget -= CountPromptTokens(fk_text);
      text += fk_text;
    }
  }

  // Question-matched values.
  if (!prompt.matched_values.empty()) {
    std::string value_text;
    for (const auto& v : prompt.matched_values) {
      const auto& table = schema.tables[v.table];
      value_text += "matched value : " + table.name + "." +
                    table.columns[v.column].name + " = '" + v.text + "'\n";
    }
    if (CountPromptTokens(value_text) <= budget) {
      budget -= CountPromptTokens(value_text);
      text += value_text;
    } else {
      prompt.matched_values.clear();
    }
  }

  prompt.text = std::move(text);
  prompt.kept_tables = std::move(final_tables);
  prompt.kept_columns = std::move(final_columns);
  prompt.first_values = std::move(first_values);
  prompt.token_count = CountPromptTokens(prompt.text);
  return prompt;
}

}  // namespace codes
