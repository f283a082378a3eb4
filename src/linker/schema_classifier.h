#ifndef CODES_LINKER_SCHEMA_CLASSIFIER_H_
#define CODES_LINKER_SCHEMA_CLASSIFIER_H_

#include <array>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dataset/sample.h"
#include "embed/sentence_encoder.h"
#include "sqlengine/database.h"
#include "text/similarity.h"

namespace codes {

/// Feature vector for a (question, schema item) pair.
/// Index meanings are documented in schema_classifier.cc.
using LinkerFeatures = std::array<double, 10>;

/// The question side of the linker features, computed once per question
/// and shared by every schema item scored against it. `question` should
/// already include the external-knowledge hint when available.
struct LinkerQuestion {
  LinkerQuestion(std::string question, const SentenceEncoder& encoder);

  std::string text;
  std::vector<float> embedding;     ///< encoder.Encode(text)
  std::vector<std::string> tokens;  ///< ExpandWithSynonyms(WordTokens(text))
  StemSet stems;                    ///< StemSet(tokens)
};

/// Computes features for a column; `encoder` must be the one `question`
/// was built with.
LinkerFeatures ColumnLinkFeatures(const LinkerQuestion& question,
                                  const SentenceEncoder& encoder,
                                  const sql::Database& db, int table,
                                  int column);

/// Every table and column score of one database for one question.
struct SchemaScores {
  std::vector<double> tables;                ///< [table]
  std::vector<std::vector<double>> columns;  ///< [table][column]
};

/// The schema item classifier of Section 6.1 (a RoBERTa cross-encoder in
/// the paper; here a logistic regression over lexical/semantic features,
/// trained with SGD). Given a question it scores every table and column;
/// the prompt builder keeps the top-k1 tables and top-k2 columns each.
class SchemaItemClassifier {
 public:
  explicit SchemaItemClassifier(int embedding_dim = 192);

  /// Options for Train().
  struct TrainOptions {
    int epochs = 6;
    uint64_t seed = 11;
  };

  /// Trains on a benchmark's training split: columns in a sample's
  /// used_items are positives, sampled other columns are negatives.
  void Train(const Text2SqlBenchmark& bench, const TrainOptions& options);

  /// Relevance score (sigmoid, in [0,1]) of a column for a question.
  double ScoreColumn(const std::string& question, const sql::Database& db,
                     int table, int column) const;

  /// Relevance score of a table: a blend of its name/comment match and its
  /// best column score.
  double ScoreTable(const std::string& question, const sql::Database& db,
                    int table) const;

  /// ScoreTable and ScoreColumn for every item of `db`, with the question
  /// encoded and tokenized once. Equal, score for score, to calling them
  /// one item at a time.
  SchemaScores ScoreSchema(const std::string& question,
                           const sql::Database& db) const;

 private:
  double ScoreColumn(const LinkerQuestion& question, const sql::Database& db,
                     int table, int column) const;
  /// The table blend, given the best of its column scores.
  static double TableScore(const LinkerQuestion& question,
                           const sql::TableDef& table, double best_column);

  SentenceEncoder encoder_;
  LinkerFeatures weights_{};
  double bias_ = 0.0;
};

/// Area under the ROC curve for `scores` against binary `labels`.
/// Ties contribute 0.5; returns 0.5 when one class is empty.
double ComputeAuc(const std::vector<double>& scores,
                  const std::vector<int>& labels);

/// Evaluates a trained classifier on a benchmark's dev split, returning
/// {table AUC, column AUC} — the two rows of the paper's Table 3.
/// When `use_external_knowledge` is set, each sample's EK string is
/// appended to its question before scoring.
std::pair<double, double> EvaluateClassifierAuc(
    const SchemaItemClassifier& classifier, const Text2SqlBenchmark& bench,
    bool use_external_knowledge);

}  // namespace codes

#endif  // CODES_LINKER_SCHEMA_CLASSIFIER_H_
