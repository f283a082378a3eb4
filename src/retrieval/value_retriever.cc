#include "retrieval/value_retriever.h"

#include <algorithm>
#include <optional>

#include "common/failpoint.h"
#include "common/flat_hash.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "text/similarity.h"
#include "text/tokenize.h"

namespace codes {

namespace {

/// Very short values ('F', 'no', 'AB') match almost any question by
/// substring; they only count when the question, given as its WordTokens,
/// contains them as a whole word.
bool ShortValueMatches(const std::string& value,
                       const std::vector<std::string>& question_words) {
  std::string needle = ToLower(Trim(value));
  for (const auto& token : question_words) {
    if (token == needle) return true;
  }
  return false;
}

/// Dedup key of one cell: (table, column) and the FNV-1a of the
/// ASCII-case-folded text, without building the folded string. 63 bits,
/// so neither a key nor the successors a collision probes is FlatHash64's
/// reserved empty key.
uint64_t FoldedCellKey(int table, int column, std::string_view text) {
  uint64_t h = HashMix64((static_cast<uint64_t>(static_cast<uint32_t>(table))
                          << 32) |
                         static_cast<uint32_t>(column));
  for (char c : text) {
    const char lower = AsciiLower(c);
    h = Fnv1a64(std::string_view(&lower, 1), h);
  }
  return h >> 1;
}

}  // namespace

void ValueRetriever::BuildIndex(const sql::Database& db) {
  // Unguarded construction cannot fail; the status is guard/failpoint-only.
  (void)TryBuildIndex(db, nullptr, /*check_failpoint=*/false);
}

Status ValueRetriever::TryBuildIndex(const sql::Database& db, ExecGuard* guard,
                                     bool check_failpoint) {
  CODES_TRACE_SPAN(span, "value_retriever.build_index");
  Clear();
  if (check_failpoint &&
      Failpoints::ShouldFail(FailpointSite::kValueRetrieverBuildIndex)) {
    return Failpoints::FailStatus(FailpointSite::kValueRetrieverBuildIndex);
  }
  // Deduplicate (table, column, case-folded text): repeated categorical
  // values would otherwise bloat the index. The first spelling wins. A key
  // match is confirmed against that entry, case-blind; on a 64-bit hash
  // collision the cell probes the next key.
  FlatHash64<uint32_t> seen;
  Status scan_status;
  size_t scanned = 0;
  db.ForEachTextValue([this, &seen, &scan_status, &scanned, guard](
                          int t, int c, int /*row*/, const std::string& text) {
    if (!scan_status.ok()) return;
    // Poll the guard every 256 values: a blown deadline or a cancel aborts
    // the build, and the pipeline degrades to a prompt without values.
    if (guard != nullptr && (++scanned & 0xFF) == 0) {
      scan_status = guard->Check();
      if (!scan_status.ok()) return;
    }
    if (text.empty()) return;
    const uint32_t next_entry = static_cast<uint32_t>(entries_.size());
    for (uint64_t key = FoldedCellKey(t, c, text);; ++key) {
      bool inserted = false;
      const uint32_t first = seen.FindOrInsert(key, next_entry, &inserted);
      if (inserted) break;
      const Entry& entry = entries_[first];
      if (entry.table == t && entry.column == c &&
          EqualsIgnoreCase(entry.text, text)) {
        return;
      }
    }
    entries_.push_back(Entry{text, t, c});
    index_.AddDocument(text);
  });
  if (!scan_status.ok()) {
    Clear();
    return scan_status;
  }
  index_.Finalize();
  return Status::Ok();
}

void ValueRetriever::Clear() {
  entries_.clear();
  index_ = Bm25Index();
  index_.Finalize();  // empty but queryable: Retrieve returns no values
}

size_t ValueRetriever::ApproxBytes() const {
  size_t bytes = sizeof(*this);
  for (const Entry& entry : entries_) {
    bytes += sizeof(Entry) + entry.text.size();
  }
  bytes += index_.ApproxBytes();
  return bytes;
}

namespace {
constexpr uint32_t kRetrieverMagic = 0x56524554;  // "VRET"
constexpr uint32_t kRetrieverVersion = 1;
}  // namespace

void ValueRetriever::SaveTo(std::string* out) const {
  serial::PutMagic(out, kRetrieverMagic, kRetrieverVersion);
  serial::PutU64(out, entries_.size());
  for (const Entry& entry : entries_) {
    serial::PutI32(out, entry.table);
    serial::PutI32(out, entry.column);
  }
  index_.SaveTo(out);
}

Status ValueRetriever::LoadFrom(serial::Reader* reader) {
  Clear();
  auto corrupt = [this](const char* what) {
    Clear();
    return Status::DataLoss(std::string("value retriever snapshot: ") + what);
  };
  if (!serial::ReadMagic(reader, kRetrieverMagic, kRetrieverVersion)) {
    return corrupt("bad magic");
  }
  uint64_t n = 0;
  if (!reader->ReadU64(&n) || n > reader->remaining() / (2 * sizeof(int32_t))) {
    return corrupt("bad entry count");
  }
  entries_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Entry entry;
    if (!reader->ReadI32(&entry.table) || !reader->ReadI32(&entry.column)) {
      return corrupt("truncated entry");
    }
    entries_.push_back(std::move(entry));
  }
  Status status = index_.LoadFrom(reader);
  if (!status.ok()) return corrupt(status.message().c_str());
  if (static_cast<uint64_t>(index_.NumDocuments()) != n) {
    return corrupt("entry/document count mismatch");
  }
  // Entry texts are the index's document texts (BuildIndex adds them in
  // lockstep); restore the parallel copy from the index.
  for (uint64_t i = 0; i < n; ++i) {
    entries_[i].text = index_.DocumentText(static_cast<int>(i));
  }
  return Status::Ok();
}

std::vector<RetrievedValue> ValueRetriever::FineRank(
    const std::string& question, const std::vector<int>& candidates,
    int fine_k) const {
  CODES_TRACE_SPAN(span, "value_retriever.fine_rank");
  std::vector<RetrievedValue> ranked;
  ranked.reserve(candidates.size());
  // The question side of both matchers is built on first use.
  std::optional<std::vector<std::string>> question_words;
  std::optional<LcsPattern> question_lcs;
  for (int idx : candidates) {
    const Entry& entry = entries_[static_cast<size_t>(idx)];
    double degree;
    if (Trim(entry.text).size() < 6) {
      if (!question_words) question_words = WordTokens(question);
      degree = ShortValueMatches(entry.text, *question_words) ? 1.0 : 0.0;
    } else {
      if (!question_lcs) question_lcs.emplace(question);
      degree = question_lcs->MatchDegree(entry.text);
    }
    if (degree <= 0.0) continue;
    ranked.push_back(RetrievedValue{entry.text, entry.table, entry.column,
                                    degree});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RetrievedValue& a, const RetrievedValue& b) {
              if (a.score != b.score) return a.score > b.score;
              // Tie-break toward longer matches: 'Ember Dawn' must beat
              // the spurious substring match 'Dawn'.
              if (a.text.size() != b.text.size()) {
                return a.text.size() > b.text.size();
              }
              if (a.table != b.table) return a.table < b.table;
              if (a.column != b.column) return a.column < b.column;
              return a.text < b.text;
            });
  if (ranked.size() > static_cast<size_t>(fine_k)) {
    ranked.resize(static_cast<size_t>(fine_k));
  }
  return ranked;
}

std::vector<RetrievedValue> ValueRetriever::Retrieve(
    const std::string& question, int coarse_k, int fine_k) const {
  auto hits = index_.Query(question, coarse_k);
  std::vector<int> candidates;
  candidates.reserve(hits.size());
  for (const auto& hit : hits) candidates.push_back(hit.doc_id);
  return FineRank(question, candidates, fine_k);
}

std::vector<RetrievedValue> ValueRetriever::RetrieveBruteForce(
    const std::string& question, int fine_k) const {
  std::vector<int> all(entries_.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  return FineRank(question, all, fine_k);
}

}  // namespace codes
