#include "index/bm25_index.h"

#include <algorithm>
#include <cmath>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "common/status.h"
#include "common/trace.h"
#include "text/tokenize.h"

namespace codes {

namespace {

/// Per-thread scoring scratch: a dense accumulator over doc ids plus the
/// list of touched docs (so only visited entries are reset afterwards).
/// The accumulator is all-zero between queries — that invariant is what
/// lets one buffer serve every index on the thread.
struct QueryScratch {
  std::vector<double> scores;
  std::vector<int32_t> touched;
};

QueryScratch& GetQueryScratch() {
  thread_local QueryScratch scratch;
  return scratch;
}

/// The BM25 analysis, streamed: calls `emit(term)` for every term of the
/// lowercased text `lower`, in order — the stem of each word piece, then
/// "#" plus each character trigram that contains no space (trigrams make
/// substring-ish matches like "Jesenik" in "Jesenik branch" retrievable).
/// Terms are views valid only during the call; `stem_scratch` holds the
/// one kind of stem that is not a prefix of its piece ("-ies" -> "-y").
template <typename Emit>
void ForEachBm25Term(std::string_view lower, std::string* stem_scratch,
                     Emit&& emit) {
  ForEachWordPiece(lower, [stem_scratch, &emit](std::string_view piece) {
    const StemEdit edit = StemEditOf(piece);
    if (edit.append.empty()) {
      emit(piece.substr(0, edit.keep));
      return;
    }
    stem_scratch->assign(piece.data(), edit.keep);
    stem_scratch->append(edit.append);
    emit(std::string_view(*stem_scratch));
  });
  char gram[4] = {'#', 0, 0, 0};
  for (size_t i = 0; i + 3 <= lower.size(); ++i) {
    if (lower[i] == ' ' || lower[i + 1] == ' ' || lower[i + 2] == ' ') continue;
    gram[1] = lower[i];
    gram[2] = lower[i + 1];
    gram[3] = lower[i + 2];
    emit(std::string_view(gram, sizeof(gram)));
  }
}

/// Per-thread AddDocument scratch, reused so a build allocates nothing per
/// document beyond what the index keeps. Thread-local, so indexes built
/// on different threads at once never share it.
struct BuildScratch {
  std::string lower;
  std::string stem;
  std::vector<uint32_t> term_ids;
};

BuildScratch& GetBuildScratch() {
  thread_local BuildScratch scratch;
  return scratch;
}

/// The ranking order: score descending, doc id ascending on ties. A strict
/// total order (doc ids are unique), so bounded top-k selection and a full
/// sort agree exactly.
inline bool BetterHit(const Bm25Hit& a, const Bm25Hit& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.doc_id < b.doc_id;
}

}  // namespace

std::vector<std::string> Bm25AnalyzeText(std::string_view text) {
  std::vector<std::string> terms;
  std::string stem_scratch;
  ForEachBm25Term(ToLower(text), &stem_scratch,
                  [&terms](std::string_view term) { terms.emplace_back(term); });
  return terms;
}

int Bm25Index::AddDocument(std::string_view text) {
  int doc_id = static_cast<int>(doc_lengths_.size());
  BuildScratch& scratch = GetBuildScratch();
  scratch.lower.assign(text);
  for (char& c : scratch.lower) c = AsciiLower(c);
  // Term frequencies via interned ids, in analysis order (the order fixes
  // the ids): sort the small id vector and run-length encode (no
  // per-document hash map).
  std::vector<uint32_t>& ids = scratch.term_ids;
  ids.clear();
  ForEachBm25Term(scratch.lower, &scratch.stem,
                  [this, &ids](std::string_view term) {
                    uint32_t id = terms_.Intern(term);
                    if (id == build_postings_.size()) {
                      build_postings_.emplace_back();
                    }
                    ids.push_back(id);
                  });
  const size_t num_terms = ids.size();
  std::sort(ids.begin(), ids.end());
  for (size_t i = 0; i < ids.size();) {
    size_t j = i;
    while (j < ids.size() && ids[j] == ids[i]) ++j;
    build_postings_[ids[i]].push_back(
        Posting{doc_id, static_cast<int32_t>(j - i)});
    i = j;
  }
  doc_lengths_.push_back(static_cast<int>(num_terms));
  doc_texts_.emplace_back(text);
  // Every mutation stales the whole derived layout (idf depends on the
  // total document count, not just the new document's terms): the caller
  // must Finalize() at the end of the batch before querying again.
  finalized_ = false;
  return doc_id;
}

void Bm25Index::Finalize() {
  const double n = static_cast<double>(doc_lengths_.size());
  double total_length = 0;
  for (int len : doc_lengths_) total_length += len;
  avg_doc_length_ = n > 0 ? total_length / n : 0.0;

  // Flatten per-term posting vectors into one CSR layout.
  size_t total_postings = 0;
  for (const auto& postings : build_postings_) {
    total_postings += postings.size();
  }
  posting_begin_.assign(build_postings_.size() + 1, 0);
  posting_doc_.clear();
  posting_doc_.reserve(total_postings);
  posting_tf_.clear();
  posting_tf_.reserve(total_postings);
  idf_.assign(build_postings_.size(), 0.0);
  for (size_t term = 0; term < build_postings_.size(); ++term) {
    posting_begin_[term] = static_cast<uint32_t>(posting_doc_.size());
    for (const Posting& posting : build_postings_[term]) {
      posting_doc_.push_back(posting.doc_id);
      posting_tf_.push_back(posting.term_freq);
    }
    double df = static_cast<double>(build_postings_[term].size());
    idf_[term] = std::log(1.0 + (n - df + 0.5) / (df + 0.5));
  }
  posting_begin_[build_postings_.size()] =
      static_cast<uint32_t>(posting_doc_.size());

  // Precompute the per-document length normalization: the old hot loop
  // recomputed k1*(1-b+b*dl/avgdl) for every posting visited.
  doc_norm_.resize(doc_lengths_.size());
  for (size_t doc = 0; doc < doc_lengths_.size(); ++doc) {
    double dl = static_cast<double>(doc_lengths_[doc]);
    doc_norm_[doc] =
        k1_ * (1.0 - b_ + b_ * dl / std::max(avg_doc_length_, 1e-9));
  }
  finalized_ = true;
}

size_t Bm25Index::ApproxBytes() const {
  size_t bytes = sizeof(*this);
  bytes += doc_lengths_.size() * sizeof(int);
  for (const std::string& text : doc_texts_) {
    bytes += sizeof(std::string) + text.size();
  }
  bytes += terms_.ApproxBytes();
  for (const auto& postings : build_postings_) {
    bytes += sizeof(postings) + postings.size() * sizeof(Posting);
  }
  bytes += posting_begin_.size() * sizeof(uint32_t);
  bytes += posting_doc_.size() * sizeof(int32_t);
  bytes += posting_tf_.size() * sizeof(int32_t);
  bytes += idf_.size() * sizeof(double);
  bytes += doc_norm_.size() * sizeof(double);
  return bytes;
}

namespace {
constexpr uint32_t kBm25Magic = 0x424D3235;  // "BM25"
constexpr uint32_t kBm25Version = 1;
}  // namespace

void Bm25Index::SaveTo(std::string* out) const {
  CODES_CHECK(finalized_ && "Bm25Index::SaveTo before Finalize()");
  serial::PutMagic(out, kBm25Magic, kBm25Version);
  serial::PutDouble(out, k1_);
  serial::PutDouble(out, b_);
  serial::PutU64(out, doc_lengths_.size());
  for (int len : doc_lengths_) serial::PutI32(out, len);
  for (const std::string& text : doc_texts_) serial::PutString(out, text);
  terms_.SaveTo(out);
  // Per-term postings (the analyzed documents). The derived CSR layout,
  // IDF table, and norms are recomputed by Finalize on load — exact
  // doubles, since Finalize is deterministic in its inputs.
  serial::PutU64(out, build_postings_.size());
  for (const auto& postings : build_postings_) {
    serial::PutU64(out, postings.size());
    for (const Posting& posting : postings) {
      serial::PutI32(out, posting.doc_id);
      serial::PutI32(out, posting.term_freq);
    }
  }
}

Status Bm25Index::LoadFrom(serial::Reader* reader) {
  *this = Bm25Index();
  auto corrupt = [this](const char* what) {
    *this = Bm25Index();
    return Status::DataLoss(std::string("bm25 snapshot: ") + what);
  };
  if (!serial::ReadMagic(reader, kBm25Magic, kBm25Version)) {
    return corrupt("bad magic");
  }
  if (!reader->ReadDouble(&k1_) || !reader->ReadDouble(&b_)) {
    return corrupt("truncated params");
  }
  uint64_t n_docs = 0;
  if (!reader->ReadU64(&n_docs) || n_docs > reader->remaining()) {
    return corrupt("bad document count");
  }
  doc_lengths_.reserve(n_docs);
  for (uint64_t i = 0; i < n_docs; ++i) {
    int32_t len = 0;
    if (!reader->ReadI32(&len) || len < 0) return corrupt("bad doc length");
    doc_lengths_.push_back(len);
  }
  doc_texts_.resize(n_docs);
  for (uint64_t i = 0; i < n_docs; ++i) {
    if (!reader->ReadString(&doc_texts_[i])) return corrupt("truncated text");
  }
  if (!terms_.LoadFrom(reader)) return corrupt("bad term dictionary");
  uint64_t n_terms = 0;
  if (!reader->ReadU64(&n_terms) || n_terms != terms_.size()) {
    return corrupt("term/postings count mismatch");
  }
  build_postings_.resize(n_terms);
  for (uint64_t term = 0; term < n_terms; ++term) {
    uint64_t n_postings = 0;
    if (!reader->ReadU64(&n_postings) ||
        n_postings > reader->remaining() / (2 * sizeof(int32_t))) {
      return corrupt("bad posting count");
    }
    auto& postings = build_postings_[term];
    postings.reserve(n_postings);
    for (uint64_t p = 0; p < n_postings; ++p) {
      Posting posting{0, 0};
      if (!reader->ReadI32(&posting.doc_id) ||
          !reader->ReadI32(&posting.term_freq) || posting.doc_id < 0 ||
          posting.doc_id >= static_cast<int32_t>(n_docs) ||
          posting.term_freq < 1) {
        return corrupt("bad posting");
      }
      postings.push_back(posting);
    }
  }
  Finalize();
  return Status::Ok();
}

std::vector<Bm25Hit> Bm25Index::Query(std::string_view query,
                                      int top_k) const {
  CODES_TRACE_SPAN(span, "bm25.lookup");
  // Eager-finalize contract: scoring an unfinalized index would use stale
  // IDF statistics and silently mis-rank, so it is a programmer error.
  CODES_CHECK(finalized_ && "Bm25Index::Query before Finalize()");
  // An injected lookup failure degrades to "no coarse candidates": the
  // value retriever then matches nothing and the prompt carries no values,
  // which is exactly the production behaviour when a search backend is out.
  if (Failpoints::ShouldFail(FailpointSite::kBm25Lookup)) return {};

  auto term_strings = Bm25AnalyzeText(query);
  // Deduplicate query terms; repeated terms in short queries add noise.
  // Sorted order also fixes the accumulation order per document, which is
  // what keeps scores byte-identical to the reference index.
  std::sort(term_strings.begin(), term_strings.end());
  term_strings.erase(std::unique(term_strings.begin(), term_strings.end()),
                     term_strings.end());

  QueryScratch& scratch = GetQueryScratch();
  if (scratch.scores.size() < doc_lengths_.size()) {
    scratch.scores.resize(doc_lengths_.size(), 0.0);
  }
  scratch.touched.clear();
  const double k1_plus_1 = k1_ + 1.0;
  for (const auto& term : term_strings) {
    uint32_t term_id = terms_.Find(term);
    if (term_id == StringInterner::kNpos) continue;
    double idf = idf_[term_id];
    for (uint32_t p = posting_begin_[term_id]; p < posting_begin_[term_id + 1];
         ++p) {
      int32_t doc = posting_doc_[p];
      double tf = static_cast<double>(posting_tf_[p]);
      double denom = tf + doc_norm_[doc];
      double& slot = scratch.scores[doc];
      // Contributions are strictly positive (idf > 0 for df <= n, tf >= 1),
      // so zero reliably means "not yet touched".
      if (slot == 0.0) scratch.touched.push_back(doc);
      slot += idf * tf * k1_plus_1 / denom;
    }
  }

  std::vector<Bm25Hit> hits;
  if (top_k < 0 || scratch.touched.size() <= static_cast<size_t>(top_k)) {
    hits.reserve(scratch.touched.size());
    for (int32_t doc : scratch.touched) {
      hits.push_back(Bm25Hit{doc, scratch.scores[doc]});
      scratch.scores[doc] = 0.0;
    }
    std::sort(hits.begin(), hits.end(), BetterHit);
    return hits;
  }

  // Bounded top-k: a heap of the k best seen so far, worst on top. Same
  // total order as the full sort, so the selected set and its final order
  // match sort-then-truncate exactly.
  auto worse_on_top = [](const Bm25Hit& a, const Bm25Hit& b) {
    return BetterHit(a, b);
  };
  hits.reserve(static_cast<size_t>(top_k) + 1);
  for (int32_t doc : scratch.touched) {
    Bm25Hit hit{doc, scratch.scores[doc]};
    scratch.scores[doc] = 0.0;
    if (hits.size() < static_cast<size_t>(top_k)) {
      hits.push_back(hit);
      std::push_heap(hits.begin(), hits.end(), worse_on_top);
    } else if (BetterHit(hit, hits.front())) {
      std::pop_heap(hits.begin(), hits.end(), worse_on_top);
      hits.back() = hit;
      std::push_heap(hits.begin(), hits.end(), worse_on_top);
    }
  }
  std::sort(hits.begin(), hits.end(), BetterHit);
  return hits;
}

}  // namespace codes
