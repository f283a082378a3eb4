#ifndef CODES_RETRIEVAL_DEMONSTRATION_RETRIEVER_H_
#define CODES_RETRIEVAL_DEMONSTRATION_RETRIEVER_H_

#include <string>
#include <vector>

#include "dataset/sample.h"
#include "embed/sentence_encoder.h"

namespace codes {

/// The question-pattern-aware demonstration retriever of Section 8.2.
///
/// For few-shot in-context learning, demonstrations are selected by
/// Eq. (4): max( sim(question, candidate question),
///               sim(question pattern, candidate pattern) ),
/// where a pattern is the question with entities stripped
/// (text/pattern.h). Patterns stop the retriever from over-matching on
/// entities shared between otherwise dissimilar questions.
class DemonstrationRetriever {
 public:
  struct Options {
    int embedding_dim = 192;
    /// Disable to ablate "-w/o pattern similarity" (Table 9).
    bool use_pattern_similarity = true;
  };

  DemonstrationRetriever(const std::vector<Text2SqlSample>& pool,
                         const Options& options);

  /// Indices (into the construction pool) of the top-k demonstrations.
  std::vector<int> TopK(const std::string& question, int k) const;

 private:
  Options options_;
  SentenceEncoder encoder_;
  std::vector<std::string> questions_;
  std::vector<std::vector<float>> question_embeddings_;
  std::vector<std::vector<float>> pattern_embeddings_;
};

}  // namespace codes

#endif  // CODES_RETRIEVAL_DEMONSTRATION_RETRIEVER_H_
