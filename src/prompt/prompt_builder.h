#ifndef CODES_PROMPT_PROMPT_BUILDER_H_
#define CODES_PROMPT_PROMPT_BUILDER_H_

#include <optional>
#include <string>
#include <vector>

#include "linker/schema_classifier.h"
#include "retrieval/value_retriever.h"
#include "sqlengine/database.h"

namespace codes {

/// Knobs of the database prompt (Section 6 / Algorithm 1). Each boolean
/// corresponds to one row of the Table 9 ablation.
struct PromptOptions {
  bool use_schema_filter = true;
  int top_k1 = 6;   ///< max tables kept
  int top_k2 = 10;  ///< max columns kept per table
  bool use_value_retriever = true;
  /// BM25 candidates and LCS-ranked values the value retriever keeps.
  static constexpr int value_coarse_k = 200;
  static constexpr int value_fine_k = 6;
  bool include_column_types = true;
  bool include_comments = true;
  bool include_representative_values = true;
  bool include_keys = true;  ///< primary/foreign keys
  /// Serialized prompts beyond this many tokens are truncated; schema
  /// items that fall past the boundary are unavailable to the generator
  /// (max context length of Table 1).
  int max_prompt_tokens = 8192;
};

/// The structured result of prompt construction. Besides the serialized
/// text, it records *which* schema items survived filtering/truncation and
/// which values were matched — the generator can only use what is here,
/// which is precisely how prompt quality gates accuracy.
struct DatabasePrompt {
  std::string text;
  /// Tables kept (schema indexes) and, per kept table, kept column indexes.
  std::vector<int> kept_tables;
  std::vector<std::vector<int>> kept_columns;  // parallel to kept_tables
  /// The first representative value shown for each kept column (parallel
  /// to kept_columns); NULL where the prompt shows none.
  std::vector<std::vector<sql::Value>> first_values;
  std::vector<RetrievedValue> matched_values;
  int token_count = 0;
  /// Which metadata sections were serialized; the generator may only use
  /// information whose section is present.
  bool comments_included = true;
  bool types_included = true;
  bool keys_included = true;

  bool TableKept(int table) const;
  bool ColumnKept(int table, int column) const;
  /// The first representative value the prompt shows for (table, column);
  /// nullopt when the column was not kept or shows no values.
  std::optional<sql::Value> RepresentativeValue(int table, int column) const;
};

/// Builds database prompts. A classifier is required only when
/// `use_schema_filter` is on; a value retriever only when
/// `use_value_retriever` is on.
class PromptBuilder {
 public:
  PromptBuilder(const SchemaItemClassifier* classifier,
                const PromptOptions& options)
      : classifier_(classifier), options_(options) {}

  /// Inference-time construction (Algorithm 1): scores schema items with
  /// the classifier, keeps top-k1/k2, retrieves matched values, and
  /// serializes with metadata.
  DatabasePrompt Build(const sql::Database& db, const std::string& question,
                       const ValueRetriever* value_retriever) const;

 private:
  DatabasePrompt Serialize(const sql::Database& db,
                           const std::string& question,
                           std::vector<int> kept_tables,
                           std::vector<std::vector<int>> kept_columns,
                           const ValueRetriever* value_retriever) const;

  const SchemaItemClassifier* classifier_;
  PromptOptions options_;
};

/// Counts whitespace-delimited tokens; the prompt length unit.
int CountPromptTokens(const std::string& text);

}  // namespace codes

#endif  // CODES_PROMPT_PROMPT_BUILDER_H_
