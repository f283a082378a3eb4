#ifndef CODES_INDEX_BM25_REFERENCE_H_
#define CODES_INDEX_BM25_REFERENCE_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "index/bm25_index.h"

namespace codes {

/// The pre-speed-campaign BM25 implementation, pinned: string-keyed
/// unordered_map postings and IDF tables, a map-accumulated score pass,
/// and a full sort-then-truncate. It exists for two callers only:
///
///  * tests/speed_equivalence_test.cc proves Bm25Index returns
///    byte-identical hits (ids and score doubles) on randomized corpora;
///  * bench_latency's hot-path section reports the before/after speedup
///    that BENCH_latency.json commits as the perf trajectory.
///
/// Analysis is not pinned here: it calls Bm25AnalyzeText, the term list of
/// the production index's own analyzer, so any scoring difference is
/// attributable to the data-structure rewrite. The analyzer is pinned
/// against its string-building original by AnalyzerEquivalenceTest.
/// Not for serving use: every query pays string hashing per term and a
/// full candidate sort.
class ReferenceBm25Index {
 public:
  explicit ReferenceBm25Index(double k1 = 1.2, double b = 0.75)
      : k1_(k1), b_(b) {}

  /// Adds a document and returns its id (dense, starting at 0).
  int AddDocument(std::string_view text);

  /// Computes IDF statistics. Required before Query, like the production
  /// index's eager contract.
  void Finalize();

  /// Top-`top_k` documents for `query`, sorted by descending score with
  /// doc id tie-breaks — the order Bm25Index must reproduce exactly.
  std::vector<Bm25Hit> Query(std::string_view query, int top_k) const;

  int NumDocuments() const { return static_cast<int>(doc_lengths_.size()); }
  const std::string& DocumentText(int doc_id) const {
    return doc_texts_[static_cast<size_t>(doc_id)];
  }

 private:
  struct Posting {
    int doc_id;
    int term_freq;
  };

  double k1_;
  double b_;
  bool finalized_ = false;
  double avg_doc_length_ = 0;
  std::vector<int> doc_lengths_;
  std::vector<std::string> doc_texts_;
  std::unordered_map<std::string, std::vector<Posting>> postings_;
  std::unordered_map<std::string, double> idf_;
};

}  // namespace codes

#endif  // CODES_INDEX_BM25_REFERENCE_H_
