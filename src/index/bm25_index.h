#ifndef CODES_INDEX_BM25_INDEX_H_
#define CODES_INDEX_BM25_INDEX_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/flat_hash.h"
#include "common/status.h"

namespace codes {

/// A document hit returned by a BM25 query.
struct Bm25Hit {
  int doc_id = -1;
  double score = 0.0;
};

/// The BM25 analysis as a term list: the stem of every word piece, then
/// "#" plus every 3-character-gram without a space (so partial matches
/// like "Jesenik" in "Jesenik branch" still score). bm25_index.cc owns
/// the one analyzer, which streams the terms of a lowercased text from the
/// word splitter and stemmer of text/tokenize.h. Bm25Index::AddDocument
/// interns its views without building strings; this function collects
/// them for Bm25Index::Query and the pinned ReferenceBm25Index, so the two
/// indexes agree on analysis by construction.
std::vector<std::string> Bm25AnalyzeText(std::string_view text);

/// In-memory inverted index with Okapi BM25 ranking.
///
/// This replaces the Lucene/pyserini index the paper uses for the coarse
/// stage of its value retriever (Section 6.2): documents are database cell
/// values; queries are user questions; the index returns the top-k
/// candidate values for fine-grained LCS re-ranking.
///
/// Hot-path layout (the speed-campaign rewrite; DESIGN.md section 13):
/// terms are interned into dense IDs (arena-backed dictionary, no
/// per-term string nodes), postings live in flat CSR-style arrays built
/// at Finalize, per-document length normalization is precomputed, and
/// scoring accumulates into a dense per-thread scratch with a bounded
/// top-k heap instead of a string-keyed map plus full sort. Results are
/// byte-identical to the map-based ReferenceBm25Index (pinned by
/// tests/speed_equivalence_test.cc).
///
/// Usage contract: AddDocument() for every value, then Finalize(), then
/// Query(). Finalize is eager and mandatory — Query CHECK-fails on an
/// unfinalized index. Incremental adds are supported by finalizing again
/// after the batch; a batch-end finalize is exactly as fresh as a
/// from-scratch build (IDF depends on the total document count, so every
/// mutation invalidates every term's IDF — a stale table silently
/// mis-ranks, and the old lazily-re-finalizing contract paid an atomic
/// load plus double-checked mutex on every query to paper over it).
///
/// Thread-safety: concurrent Query calls on a finalized index are safe
/// (scoring scratch is thread-local). AddDocument/Finalize must not race
/// with Query — the same setup-then-serve contract as the rest of the
/// library.
class Bm25Index {
 public:
  /// Standard Okapi parameters.
  explicit Bm25Index(double k1 = 1.2, double b = 0.75) : k1_(k1), b_(b) {}

  /// Adds a document and returns its id (dense, starting at 0). Marks the
  /// index unfinalized until the next Finalize().
  int AddDocument(std::string_view text);

  /// Number of indexed documents.
  int NumDocuments() const { return static_cast<int>(doc_lengths_.size()); }

  /// Computes IDF statistics and flattens postings over the current
  /// document set. Must be called after the last AddDocument of a batch
  /// and before the first Query. Idempotent.
  void Finalize();

  /// True once Finalize() has run against the current document set.
  bool finalized() const { return finalized_; }

  /// Returns the `top_k` highest-scoring documents for `query`, sorted by
  /// descending score (doc id breaks ties). Only documents sharing at
  /// least one token appear. CHECK-fails when the index is not finalized.
  std::vector<Bm25Hit> Query(std::string_view query, int top_k) const;

  /// Original text of a document.
  const std::string& DocumentText(int doc_id) const {
    return doc_texts_[static_cast<size_t>(doc_id)];
  }

  /// Resident cost in bytes (documents, dictionary, postings, derived
  /// arrays) — what a fleet manager charges against its memory budget.
  size_t ApproxBytes() const;

  /// Appends a snapshot of the index to `out`. The analyzed token stream
  /// (interned dictionary + per-term postings) is persisted, so LoadFrom
  /// skips re-tokenizing every document — the expensive half of a build —
  /// and only re-runs the cheap Finalize flattening. The index must be
  /// finalized first.
  void SaveTo(std::string* out) const;

  /// Restores an index from SaveTo bytes, consuming exactly one snapshot
  /// from `reader`. Returns kDataLoss (with the index left empty) on any
  /// malformation; on success the index is finalized and query results
  /// are byte-identical to the index that was saved.
  Status LoadFrom(serial::Reader* reader);

 private:
  struct Posting {
    int32_t doc_id;
    int32_t term_freq;
  };

  double k1_;
  double b_;
  bool finalized_ = false;
  double avg_doc_length_ = 0;
  std::vector<int> doc_lengths_;
  std::vector<std::string> doc_texts_;

  /// Build-time state: term dictionary plus per-term posting vectors.
  /// Kept after Finalize so an incremental batch can re-finalize.
  StringInterner terms_;
  std::vector<std::vector<Posting>> build_postings_;

  /// Finalized flat layout, rebuilt by Finalize: CSR postings
  /// (posting_begin_[t]..posting_begin_[t+1] index posting_doc_/
  /// posting_tf_), per-term IDF, and the precomputed per-document length
  /// normalization k1*(1-b+b*dl/avgdl).
  std::vector<uint32_t> posting_begin_;
  std::vector<int32_t> posting_doc_;
  std::vector<int32_t> posting_tf_;
  std::vector<double> idf_;
  std::vector<double> doc_norm_;
};

}  // namespace codes

#endif  // CODES_INDEX_BM25_INDEX_H_
