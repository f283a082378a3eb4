#include "linker/schema_classifier.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "dataset/db_generator.h"
#include "dataset/perturb.h"
#include "text/similarity.h"
#include "text/tokenize.h"

namespace codes {

namespace {

// Logistic-regression training: SGD step size, L2 weight decay, and the
// random negative columns sampled per gold column.
constexpr double kLearningRate = 0.15;
constexpr double kL2 = 1e-4;
constexpr int kNegativesPerPositive = 4;

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

/// Does any cell of (table, column) literally appear in the question?
/// Scans at most `kMaxRowsScanned` rows to bound latency.
bool ValueAppearsInQuestion(const std::string& question,
                            const sql::Database& db, int table, int column) {
  constexpr size_t kMaxRowsScanned = 64;
  const auto& rows = db.TableAt(table).rows;
  size_t limit = std::min(rows.size(), kMaxRowsScanned);
  for (size_t r = 0; r < limit; ++r) {
    const sql::Value& v = rows[r][column];
    if (!v.is_text()) continue;
    const std::string& text = v.AsText();
    if (text.size() >= 3 && ContainsIgnoreCase(question, text)) return true;
  }
  return false;
}

}  // namespace

LinkerQuestion::LinkerQuestion(std::string question,
                               const SentenceEncoder& encoder)
    : text(std::move(question)),
      embedding(encoder.Encode(text)),
      tokens(ExpandWithSynonyms(WordTokens(text))),
      stems(tokens) {}

// Feature indices:
//   0: question-token coverage of the column-name words
//   1: question-token coverage of the column-comment words
//   2: LCS match degree between question and column name
//   3: LCS match degree between question and column phrase (comment|name)
//   4: embedding cosine between question and "table column comment" text
//   5: 1 if a value of this column literally appears in the question
//   6: 1 if the column is a primary key
//   7: question-token coverage of the table name words
//   8: 1 if the question mentions the exact column name (BIRD EK effect)
//   9: 1 if the column name is the initials of a question token window
//      ("npgr" vs "net profit growth rate") — abbreviation guessing
LinkerFeatures ColumnLinkFeatures(const LinkerQuestion& question,
                                  const SentenceEncoder& encoder,
                                  const sql::Database& db, int table,
                                  int column) {
  const auto& table_def = db.schema().tables[table];
  const auto& col = table_def.columns[column];
  LinkerFeatures f{};

  std::vector<std::string> name_tokens = WordTokens(col.name);
  std::vector<std::string> comment_tokens = WordTokens(col.comment);
  std::vector<std::string> table_tokens = WordTokens(table_def.name);

  f[0] = TokenCoverage(name_tokens, question.stems);
  f[1] = comment_tokens.empty() ? 0.0
                                : TokenCoverage(comment_tokens, question.stems);
  f[2] = LcsMatchDegree(col.name, question.text);
  f[3] = LcsMatchDegree(ColumnPhrase(col), question.text);
  std::string item_text =
      table_def.name + " " + col.name + " " + col.comment;
  f[4] = CosineSimilarity(question.embedding, encoder.Encode(item_text));
  f[5] = ValueAppearsInQuestion(question.text, db, table, column) ? 1.0 : 0.0;
  f[6] = col.is_primary_key ? 1.0 : 0.0;
  f[7] = TokenCoverage(table_tokens, question.stems);
  f[8] = ContainsIgnoreCase(question.text, col.name) && col.name.size() >= 2
             ? 1.0
             : 0.0;
  f[9] = InitialsMatch(col.name, question.tokens) ? 1.0 : 0.0;
  return f;
}

SchemaItemClassifier::SchemaItemClassifier(int embedding_dim)
    : encoder_(embedding_dim) {
  // Sensible prior weights so the classifier is usable even before Train()
  // (the few-shot setting fine-tunes nothing).
  weights_ = {1.5, 1.5, 0.8, 1.2, 1.0, 2.0, 0.3, 0.8, 1.5, 1.2};
  bias_ = -2.0;
}

void SchemaItemClassifier::Train(const Text2SqlBenchmark& bench,
                                 const TrainOptions& options) {
  // Fit IDF on training questions for better embeddings.
  std::vector<std::string> questions;
  questions.reserve(bench.train.size());
  for (const auto& s : bench.train) questions.push_back(s.question);
  encoder_.FitIdf(questions);

  struct Example {
    LinkerFeatures features;
    int label;
  };
  std::vector<Example> examples;
  Rng rng(options.seed);

  for (const auto& sample : bench.train) {
    const sql::Database& db = bench.DbOf(sample);
    const LinkerQuestion question(
        QuestionWithEvidence(sample.question, sample.external_knowledge),
        encoder_);

    // Positive columns from used_items.
    std::vector<std::pair<int, int>> positives;
    for (const auto& item : sample.used_items) {
      if (item.column >= 0) positives.emplace_back(item.table, item.column);
    }
    for (const auto& [t, c] : positives) {
      examples.push_back(
          {ColumnLinkFeatures(question, encoder_, db, t, c), 1});
    }
    // Random negatives from the same database.
    int negatives = static_cast<int>(positives.size()) * kNegativesPerPositive;
    for (int i = 0; i < negatives; ++i) {
      int t = static_cast<int>(rng.Index(db.schema().tables.size()));
      const auto& table = db.schema().tables[t];
      int c = static_cast<int>(rng.Index(table.columns.size()));
      bool is_positive = false;
      for (const auto& [pt, pc] : positives) {
        if (pt == t && pc == c) is_positive = true;
      }
      if (is_positive) continue;
      examples.push_back(
          {ColumnLinkFeatures(question, encoder_, db, t, c), 0});
    }
  }

  // SGD over logistic loss.
  weights_ = {};
  bias_ = 0.0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(examples);
    for (const auto& ex : examples) {
      double z = bias_;
      for (size_t i = 0; i < ex.features.size(); ++i) {
        z += weights_[i] * ex.features[i];
      }
      double grad = Sigmoid(z) - static_cast<double>(ex.label);
      for (size_t i = 0; i < ex.features.size(); ++i) {
        weights_[i] -=
            kLearningRate * (grad * ex.features[i] + kL2 * weights_[i]);
      }
      bias_ -= kLearningRate * grad;
    }
  }
}

double SchemaItemClassifier::ScoreColumn(const std::string& question,
                                         const sql::Database& db, int table,
                                         int column) const {
  return ScoreColumn(LinkerQuestion(question, encoder_), db, table, column);
}

double SchemaItemClassifier::ScoreColumn(const LinkerQuestion& question,
                                         const sql::Database& db, int table,
                                         int column) const {
  LinkerFeatures f = ColumnLinkFeatures(question, encoder_, db, table, column);
  double z = bias_;
  for (size_t i = 0; i < f.size(); ++i) z += weights_[i] * f[i];
  return Sigmoid(z);
}

double SchemaItemClassifier::TableScore(const LinkerQuestion& question,
                                        const sql::TableDef& table,
                                        double best_column) {
  double name_cov = TokenCoverage(WordTokens(table.name), question.stems);
  double comment_cov =
      table.comment.empty()
          ? 0.0
          : TokenCoverage(WordTokens(table.comment), question.stems);
  return 0.45 * best_column + 0.35 * name_cov + 0.20 * comment_cov;
}

double SchemaItemClassifier::ScoreTable(const std::string& question,
                                        const sql::Database& db,
                                        int table) const {
  const LinkerQuestion q(question, encoder_);
  const auto& table_def = db.schema().tables[table];
  double best_column = 0.0;
  for (size_t c = 0; c < table_def.columns.size(); ++c) {
    best_column = std::max(best_column,
                           ScoreColumn(q, db, table, static_cast<int>(c)));
  }
  return TableScore(q, table_def, best_column);
}

SchemaScores SchemaItemClassifier::ScoreSchema(const std::string& question,
                                               const sql::Database& db) const {
  const LinkerQuestion q(question, encoder_);
  const auto& tables = db.schema().tables;
  SchemaScores scores;
  scores.tables.reserve(tables.size());
  scores.columns.resize(tables.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    std::vector<double>& columns = scores.columns[t];
    columns.reserve(tables[t].columns.size());
    double best_column = 0.0;
    for (size_t c = 0; c < tables[t].columns.size(); ++c) {
      columns.push_back(
          ScoreColumn(q, db, static_cast<int>(t), static_cast<int>(c)));
      best_column = std::max(best_column, columns.back());
    }
    scores.tables.push_back(TableScore(q, tables[t], best_column));
  }
  return scores;
}

double ComputeAuc(const std::vector<double>& scores,
                  const std::vector<int>& labels) {
  CODES_CHECK(scores.size() == labels.size());
  // Rank-sum (Mann-Whitney U) formulation with tie handling.
  std::vector<size_t> order(scores.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&scores](size_t a, size_t b) {
    return scores[a] < scores[b];
  });
  double positive_rank_sum = 0;
  size_t positives = 0;
  size_t i = 0;
  double rank = 1;
  while (i < order.size()) {
    size_t j = i;
    while (j < order.size() && scores[order[j]] == scores[order[i]]) ++j;
    double avg_rank = (rank + rank + static_cast<double>(j - i) - 1) / 2.0;
    for (size_t k = i; k < j; ++k) {
      if (labels[order[k]] == 1) {
        positive_rank_sum += avg_rank;
        ++positives;
      }
    }
    rank += static_cast<double>(j - i);
    i = j;
  }
  size_t negatives = scores.size() - positives;
  if (positives == 0 || negatives == 0) return 0.5;
  double u = positive_rank_sum -
             static_cast<double>(positives) * (positives + 1) / 2.0;
  return u / (static_cast<double>(positives) * static_cast<double>(negatives));
}

std::pair<double, double> EvaluateClassifierAuc(
    const SchemaItemClassifier& classifier, const Text2SqlBenchmark& bench,
    bool use_external_knowledge) {
  std::vector<double> table_scores, column_scores;
  std::vector<int> table_labels, column_labels;
  for (const auto& sample : bench.dev) {
    const sql::Database& db = bench.DbOf(sample);
    const std::string question =
        use_external_knowledge
            ? QuestionWithEvidence(sample.question, sample.external_knowledge)
            : sample.question;
    const SchemaScores scores = classifier.ScoreSchema(question, db);
    for (size_t t = 0; t < db.schema().tables.size(); ++t) {
      const int table = static_cast<int>(t);
      bool table_used = false;
      for (const auto& item : sample.used_items) {
        if (item.table == table) table_used = true;
      }
      table_scores.push_back(scores.tables[t]);
      table_labels.push_back(table_used ? 1 : 0);
      for (size_t c = 0; c < db.schema().tables[t].columns.size(); ++c) {
        bool col_used = false;
        for (const auto& item : sample.used_items) {
          if (item.table == table && item.column == static_cast<int>(c)) {
            col_used = true;
          }
        }
        column_scores.push_back(scores.columns[t][c]);
        column_labels.push_back(col_used ? 1 : 0);
      }
    }
  }
  return {ComputeAuc(table_scores, table_labels),
          ComputeAuc(column_scores, column_labels)};
}

}  // namespace codes
