#ifndef CODES_EMBED_SENTENCE_ENCODER_H_
#define CODES_EMBED_SENTENCE_ENCODER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace codes {

/// Sentence embedding built from hashed TF-IDF token features.
///
/// This is the repo's substitute for the SimCSE encoder the paper uses in
/// its demonstration retriever (Section 8.2): it maps a sentence to an
/// L2-normalized vector such that lexically/structurally similar sentences
/// have high cosine similarity. Unigram and bigram features are hashed
/// into `dim` buckets with a sign hash (feature hashing), which keeps the
/// encoder vocabulary-free and deterministic. Encode returns the dense
/// vector, but a sentence touches only a few dozen buckets: template
/// scoring stores anchors by their nonzero entries (AppendNonzeros) and
/// reads only those (SparseDenseCosine).
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

/// The nonzero entries of a vector, in ascending index order (one CSR
/// row), and the vector's squared norm.
struct SparseRow {
  const uint32_t* index = nullptr;
  const float* value = nullptr;
  size_t size = 0;
  double sq_norm = 0.0;
};

/// Appends the nonzero entries of `v` to `index` and `value` in ascending
/// index order (±0 entries are dropped) and returns their sum of squares,
/// which equals SquaredNorm(v) bit for bit.
double AppendNonzeros(const std::vector<float>& v,
                      std::vector<uint32_t>* index,
                      std::vector<float>* value);

/// Cosine similarity of the vector `row` was built from against `dense`,
/// reading only the row's nonzeros; `dense_sq_norm` is SquaredNorm(dense).
/// Equal to CosineSimilarity bit for bit on finite inputs: each product of
/// two floats is exact in double, each skipped term is ±0 (adding ±0.0 to
/// a double sum that starts at +0.0 changes nothing), and the kept terms
/// are still added in index order. Pinned by
/// tests/speed_equivalence_test.cc.
double SparseDenseCosine(const SparseRow& row, const std::vector<float>& dense,
                         double dense_sq_norm);

}  // namespace codes

#endif  // CODES_EMBED_SENTENCE_ENCODER_H_
