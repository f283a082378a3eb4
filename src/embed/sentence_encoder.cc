#include "embed/sentence_encoder.h"

#include <cmath>
#include <unordered_set>

#include "common/flat_hash.h"
#include "common/status.h"
#include "text/tokenize.h"

namespace codes {

SentenceEncoder::SentenceEncoder(int dim) : dim_(dim) {
  CODES_CHECK(dim > 0);
}

void SentenceEncoder::FitIdf(const std::vector<std::string>& corpus) {
  corpus_size_ = corpus.size();
  doc_freq_.clear();
  for (const auto& doc : corpus) {
    std::unordered_set<std::string> seen;
    for (auto& token : WordTokens(doc)) {
      seen.insert(StemToken(token));
    }
    for (const auto& token : seen) doc_freq_[token] += 1;
  }
}

double SentenceEncoder::IdfOf(const std::string& token) const {
  if (corpus_size_ == 0) return 1.0;
  auto it = doc_freq_.find(token);
  double df = (it == doc_freq_.end()) ? 0.0 : static_cast<double>(it->second);
  return std::log((static_cast<double>(corpus_size_) + 1.0) / (df + 1.0)) +
         1.0;
}

std::vector<float> SentenceEncoder::Encode(std::string_view text) const {
  std::vector<float> vec(static_cast<size_t>(dim_), 0.0f);
  std::vector<std::string> tokens = WordTokens(text);
  std::vector<std::string> stems;
  stems.reserve(tokens.size());
  for (const auto& t : tokens) stems.push_back(StemToken(t));

  auto add_feature = [this, &vec](uint64_t h, double weight) {
    size_t bucket = static_cast<size_t>(h % static_cast<uint64_t>(dim_));
    double sign = ((h >> 63) & 1) ? -1.0 : 1.0;
    vec[bucket] += static_cast<float>(sign * weight);
  };

  for (const auto& stem : stems) {
    if (stem == "_") continue;  // mask/slot markers only matter for order
                                // (bigrams below); alone they carry no
                                // content and would swamp the vector
    double weight = IdfOf(stem);
    if (IsStopWord(stem)) weight *= 0.25;  // downweight, don't drop: keeps
                                           // question *shape* information
    add_feature(Fnv1a64(stem), weight);
  }
  // Bigrams capture local order ("order by" vs "by order").
  // Hashed as the stream stem "__" stem, so no string is built per bigram.
  for (size_t i = 0; i + 1 < stems.size(); ++i) {
    Fnv1aDigest bigram;
    bigram.Add(stems[i]);
    bigram.Add("__");
    bigram.Add(stems[i + 1]);
    add_feature(bigram.value, 0.5);
  }

  double norm = 0;
  for (float v : vec) norm += static_cast<double>(v) * v;
  if (norm > 0) {
    double inv = 1.0 / std::sqrt(norm);
    for (float& v : vec) v = static_cast<float>(v * inv);
  }
  return vec;
}

double CosineSimilarity(const std::vector<float>& a,
                        const std::vector<float>& b) {
  CODES_CHECK(a.size() == b.size());
  double dot = 0, na = 0, nb = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na == 0 || nb == 0) return 0.0;
  return dot / std::sqrt(na * nb);
}

double SquaredNorm(const std::vector<float>& v) {
  double n = 0;
  for (size_t i = 0; i < v.size(); ++i) n += static_cast<double>(v[i]) * v[i];
  return n;
}

double AppendNonzeros(const std::vector<float>& v,
                      std::vector<uint32_t>* index,
                      std::vector<float>* value) {
  double n = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i] == 0.0f) continue;
    index->push_back(static_cast<uint32_t>(i));
    value->push_back(v[i]);
    n += static_cast<double>(v[i]) * v[i];
  }
  return n;
}

double SparseDenseCosine(const SparseRow& row, const std::vector<float>& dense,
                         double dense_sq_norm) {
  // The indexes ascend, so bounding the last bounds them all.
  CODES_CHECK(row.size == 0 || row.index[row.size - 1] < dense.size());
  double dot = 0;
  for (size_t k = 0; k < row.size; ++k) {
    dot += static_cast<double>(dense[row.index[k]]) * row.value[k];
  }
  if (dense_sq_norm == 0 || row.sq_norm == 0) return 0.0;
  return dot / std::sqrt(dense_sq_norm * row.sq_norm);
}

}  // namespace codes
