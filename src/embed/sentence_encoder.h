#ifndef CODES_EMBED_SENTENCE_ENCODER_H_
#define CODES_EMBED_SENTENCE_ENCODER_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace codes {

/// Dense sentence embedding built from hashed TF-IDF token features.
///
/// This is the repo's substitute for the SimCSE encoder the paper uses in
/// its demonstration retriever (Section 8.2): it maps a sentence to an
/// L2-normalized vector such that lexically/structurally similar sentences
/// have high cosine similarity. Unigram and bigram features are hashed
/// into `dim` buckets with a sign hash (feature hashing), which keeps the
/// encoder vocabulary-free and deterministic.
class SentenceEncoder {
 public:
  /// `dim` is the embedding width; larger dims reduce hash collisions.
  /// This is one of the capacity knobs of the model-size profiles.
  explicit SentenceEncoder(int dim = 256);

  /// Learns inverse-document-frequency weights from a corpus. Optional:
  /// without it all tokens weigh 1.
  void FitIdf(const std::vector<std::string>& corpus);

  /// Encodes `text` into an L2-normalized vector of size `dim()`.
  std::vector<float> Encode(std::string_view text) const;

  int dim() const { return dim_; }

 private:
  double IdfOf(const std::string& token) const;

  int dim_;
  size_t corpus_size_ = 0;
  std::unordered_map<std::string, int> doc_freq_;
};

/// Cosine similarity of two equal-length vectors; 0 for zero vectors.
double CosineSimilarity(const std::vector<float>& a,
                        const std::vector<float>& b);

/// Sum of squares of `v`, accumulated in double in index order: exactly the
/// norm term CosineSimilarity accumulates.
double SquaredNorm(const std::vector<float>& v);

/// CosineSimilarity with both squared norms supplied (from SquaredNorm), for
/// callers that compare one vector against many. Equal to
/// CosineSimilarity(a, b) bit for bit when na == SquaredNorm(a) and
/// nb == SquaredNorm(b); pinned by tests/speed_equivalence_test.cc.
double CosineSimilarityWithNorms(const std::vector<float>& a,
                                 const std::vector<float>& b, double na,
                                 double nb);

}  // namespace codes

#endif  // CODES_EMBED_SENTENCE_ENCODER_H_
