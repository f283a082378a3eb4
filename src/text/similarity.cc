#include "text/similarity.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>

#include "common/string_util.h"
#include "text/tokenize.h"

namespace codes {

namespace {

/// ASCII-only case fold, matching ToLower's locale-independent semantics
/// byte for byte (UTF-8 continuation bytes pass through untouched).
inline unsigned char FoldByte(unsigned char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<unsigned char>(c + 32) : c;
}

/// 64-bit character-class signature: bit (folded byte mod 64) per byte.
/// Two strings with disjoint signatures share no byte, so their LCS is 0 —
/// the prefilter that lets the re-rank loop skip most candidates without
/// touching the match machinery at all.
inline uint64_t CharClassSignature(std::string_view s) {
  uint64_t sig = 0;
  for (unsigned char c : s) sig |= 1ULL << (FoldByte(c) & 63);
  return sig;
}

/// Reusable per-thread buffers for the bit-parallel sweep: the packed row
/// set and its active rows. Thread-local so concurrent re-ranks (the
/// 8-thread eval driver) never share state.
struct LcsScratch {
  std::vector<uint64_t> rows;        // |a| * words
  std::vector<int> active;           // surviving row indices, descending
  std::vector<int> next_active;
};

/// True when CODES_PERF_INJECT contains "lcs2x": the CI perf gate's
/// negative test, which must make the LCS stage measurably (>2x) slower
/// without changing any result.
bool LcsSlowdownInjected() {
  static const bool injected = [] {
    const char* env = std::getenv("CODES_PERF_INJECT");
    return env != nullptr &&
           std::string_view(env).find("lcs2x") != std::string_view::npos;
  }();
  return injected;
}

/// Word-packed level sweep. Rows follow `a`; the other string is packed
/// into `words` words, and `slot`/`masks` hold the match mask of each
/// folded byte in it (slot 0: the byte never occurs there). Level t keeps,
/// per row i, the bitset B_t(i) = { j : a[i-t+1..i] == b[j-t+1..j] } via
/// B_{t+1}(i) = B_t(i) & (B_t(i-1) << 1); the answer is the last level
/// with any surviving row. Rows die monotonically (a zero row stays zero),
/// so each sweep only touches the shrinking active set — total work is
/// proportional to the sum of per-row match-run lengths, not |a|*|b|.
int LevelSweep(std::string_view a, size_t words,
               const std::array<uint8_t, 256>& slot,
               const std::vector<uint64_t>& masks) {
  thread_local LcsScratch scratch;
  const size_t n = a.size();
  // Level 1: every row starts as its character's match mask; rows whose
  // character never occurs in b are dead on arrival.
  scratch.rows.assign(n * words, 0);
  scratch.active.clear();
  for (size_t i = n; i-- > 0;) {  // descending, the sweep order
    const size_t c = slot[FoldByte(static_cast<unsigned char>(a[i]))];
    if (c == 0) continue;
    const uint64_t* mask = &masks[(c - 1) * words];
    std::copy(mask, mask + words, &scratch.rows[i * words]);
    scratch.active.push_back(static_cast<int>(i));
  }
  if (scratch.active.empty()) return 0;

  int best = 1;
  while (best < static_cast<int>(n)) {
    scratch.next_active.clear();
    // Descending row order: row i consumes row i-1 while the latter still
    // holds the previous level.
    for (int i : scratch.active) {
      uint64_t* row = &scratch.rows[static_cast<size_t>(i) * words];
      uint64_t any = 0;
      if (i == 0) {
        // No predecessor: a longer-than-best run cannot end in row 0.
        std::fill(row, row + words, 0);
      } else {
        const uint64_t* prev = &scratch.rows[static_cast<size_t>(i - 1) * words];
        uint64_t carry = 0;  // (prev << 1) leaves bit 0 clear: no run starts here
        for (size_t w = 0; w < words; ++w) {
          uint64_t p = prev[w];
          row[w] &= (p << 1) | carry;
          carry = p >> 63;
          any |= row[w];
        }
      }
      if (any != 0) {
        scratch.next_active.push_back(i);
      } else if (i != 0) {
        // Dead rows must read as zero for their successor's next sweep.
        std::fill(row, row + words, 0);
      }
    }
    if (scratch.next_active.empty()) break;
    std::swap(scratch.active, scratch.next_active);
    ++best;
  }
  return best;
}

/// Inputs past this size take the reference DP rather than sizing packed
/// masks for a megabyte string (not reachable from the hot paths).
constexpr size_t kMaxBitParallelSize = 4096;

/// The injected "regression": answer via the reference DP, twice, so the
/// stage slows by far more than the 15% gate without changing results.
int InjectedSlowLcs(std::string_view a, std::string_view b) {
  (void)LongestCommonSubstringLengthReferenceDp(a, b);
  return LongestCommonSubstringLengthReferenceDp(a, b);
}

}  // namespace

int LongestCommonSubstringLengthReferenceDp(std::string_view a_raw,
                                            std::string_view b_raw) {
  if (a_raw.empty() || b_raw.empty()) return 0;
  std::string a = ToLower(a_raw);
  std::string b = ToLower(b_raw);
  // Rolling single-row DP keeps memory at O(|b|).
  std::vector<int> prev(b.size() + 1, 0);
  std::vector<int> cur(b.size() + 1, 0);
  int best = 0;
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      if (a[i - 1] == b[j - 1]) {
        cur[j] = prev[j - 1] + 1;
        best = std::max(best, cur[j]);
      } else {
        cur[j] = 0;
      }
    }
    std::swap(prev, cur);
  }
  return best;
}

int LongestCommonSubstringLength(std::string_view a, std::string_view b) {
  // Compile the longer string so the rows follow the shorter: the level
  // count is bounded by the answer (<= |short|) and the longer string
  // packs 64 positions per word.
  if (a.size() < b.size()) std::swap(a, b);
  return LcsPattern(a).Length(b);
}

LcsPattern::LcsPattern(std::string_view text)
    : text_(text), signature_(CharClassSignature(text)) {
  if (text_.size() > kMaxBitParallelSize) return;  // Length takes the DP
  words_ = (text_.size() + 63) / 64;
  size_t present = 0;
  for (unsigned char c : text_) {
    uint8_t& slot = slot_[FoldByte(c)];
    if (slot == 0) slot = static_cast<uint8_t>(++present);
  }
  masks_.assign(present * words_, 0);
  for (size_t j = 0; j < text_.size(); ++j) {
    const size_t mask =
        slot_[FoldByte(static_cast<unsigned char>(text_[j]))] - 1u;
    masks_[mask * words_ + j / 64] |= 1ULL << (j % 64);
  }
}

int LcsPattern::Length(std::string_view other) const {
  if (text_.empty() || other.empty()) return 0;
  if (LcsSlowdownInjected()) return InjectedSlowLcs(text_, other);
  if ((signature_ & CharClassSignature(other)) == 0) return 0;
  if (text_.size() > kMaxBitParallelSize ||
      other.size() > kMaxBitParallelSize) {
    return LongestCommonSubstringLengthReferenceDp(text_, other);
  }
  // Rows follow `other`; the answer does not depend on which string the
  // rows follow, so the pattern's masks serve every candidate.
  return LevelSweep(other, words_, slot_, masks_);
}

double LcsPattern::MatchDegree(std::string_view other) const {
  if (text_.empty() || other.empty()) return 0.0;
  const size_t shorter = std::min(text_.size(), other.size());
  return static_cast<double>(Length(other)) / static_cast<double>(shorter);
}

bool InitialsMatch(const std::string& identifier,
                   const std::vector<std::string>& tokens) {
  std::string id = ToLower(identifier);
  if (id.size() < 2 || id.size() > 6) return false;
  size_t window = id.size();
  if (tokens.size() < window) return false;
  for (size_t start = 0; start + window <= tokens.size(); ++start) {
    bool match = true;
    for (size_t i = 0; i < window; ++i) {
      const std::string& token = tokens[start + i];
      if (token.empty() || token[0] != id[i]) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

StemSet::StemSet(const std::vector<std::string>& tokens) {
  for (const auto& t : tokens) stems_.insert(StemToken(t));
}

double TokenCoverage(const std::vector<std::string>& needle,
                     const StemSet& haystack_stems) {
  if (needle.empty()) return 0.0;
  int hits = 0;
  for (const auto& t : needle) {
    if (haystack_stems.Contains(StemToken(t))) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(needle.size());
}

}  // namespace codes
