#include "retrieval/demonstration_retriever.h"

#include <algorithm>

#include "text/pattern.h"

namespace codes {

DemonstrationRetriever::DemonstrationRetriever(
    const std::vector<Text2SqlSample>& pool, const Options& options)
    : options_(options), encoder_(options.embedding_dim) {
  std::vector<std::string> corpus;
  corpus.reserve(pool.size());
  for (const auto& sample : pool) corpus.push_back(sample.question);
  encoder_.FitIdf(corpus);
  questions_.reserve(pool.size());
  question_embeddings_.reserve(pool.size());
  pattern_embeddings_.reserve(pool.size());
  for (const auto& sample : pool) {
    questions_.push_back(sample.question);
    question_embeddings_.push_back(encoder_.Encode(sample.question));
    pattern_embeddings_.push_back(
        encoder_.Encode(ExtractQuestionPattern(sample.question)));
  }
}

std::vector<int> DemonstrationRetriever::TopK(const std::string& question,
                                              int k) const {
  std::vector<float> q_emb = encoder_.Encode(question);
  std::vector<float> p_emb;
  if (options_.use_pattern_similarity) {
    p_emb = encoder_.Encode(ExtractQuestionPattern(question));
  }
  std::vector<std::pair<double, int>> scored;
  scored.reserve(questions_.size());
  for (size_t i = 0; i < questions_.size(); ++i) {
    double sim = CosineSimilarity(q_emb, question_embeddings_[i]);
    if (options_.use_pattern_similarity) {
      sim = std::max(sim, CosineSimilarity(p_emb, pattern_embeddings_[i]));
    }
    scored.emplace_back(sim, static_cast<int>(i));
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  std::vector<int> out;
  for (int i = 0; i < k && i < static_cast<int>(scored.size()); ++i) {
    out.push_back(scored[i].second);
  }
  return out;
}

}  // namespace codes
