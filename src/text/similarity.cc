#include "text/similarity.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <unordered_set>

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

/// Reusable per-thread buffers for the bit-parallel sweep: 256 lazily
/// generation-stamped match masks plus the packed row set. Thread-local so
/// concurrent re-ranks (the 8-thread eval driver) never share state.
struct LcsScratch {
  std::vector<uint64_t> masks;       // 256 * words
  std::array<uint32_t, 256> stamp{}; // generation per character
  uint32_t generation = 0;
  std::vector<uint64_t> rows;        // |short| * words
  std::vector<int> active;           // surviving row indices, descending
  std::vector<int> next_active;
};

LcsScratch& GetLcsScratch() {
  thread_local LcsScratch scratch;
  return scratch;
}

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

/// Word-packed level sweep. Rows follow the shorter string `a`; the longer
/// string `b` is packed into ceil(|b|/64) words. Level t keeps, per row i,
/// the bitset B_t(i) = { j : a[i-t+1..i] == b[j-t+1..j] } via
/// B_{t+1}(i) = B_t(i) & (B_t(i-1) << 1); the answer is the last level
/// with any surviving row. Rows die monotonically (a zero row stays zero),
/// so each sweep only touches the shrinking active set — total work is
/// proportional to the sum of per-row match-run lengths, not |a|*|b|.
int LcsBitParallel(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t words = (b.size() + 63) / 64;
  LcsScratch& scratch = GetLcsScratch();

  // Match masks for every distinct character of b, built in one pass with
  // generation stamps (no 256-entry clear per call).
  scratch.masks.resize(256 * words);
  ++scratch.generation;
  if (scratch.generation == 0) {  // stamp wrap: invalidate everything
    scratch.stamp.fill(0);
    scratch.generation = 1;
  }
  for (size_t j = 0; j < b.size(); ++j) {
    unsigned char c = FoldByte(static_cast<unsigned char>(b[j]));
    uint64_t* mask = &scratch.masks[static_cast<size_t>(c) * words];
    if (scratch.stamp[c] != scratch.generation) {
      scratch.stamp[c] = scratch.generation;
      std::fill(mask, mask + words, 0);
    }
    mask[j / 64] |= 1ULL << (j % 64);
  }

  // Level 1: every row starts as its character's match mask; rows whose
  // character never occurs in b are dead on arrival.
  scratch.rows.assign(n * words, 0);
  scratch.active.clear();
  for (size_t i = n; i-- > 0;) {  // descending, the sweep order
    unsigned char c = FoldByte(static_cast<unsigned char>(a[i]));
    if (scratch.stamp[c] != scratch.generation) continue;
    const uint64_t* mask = &scratch.masks[static_cast<size_t>(c) * words];
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

int LongestCommonSubstringLength(std::string_view a_raw, std::string_view b_raw) {
  if (a_raw.empty() || b_raw.empty()) return 0;
  if (LcsSlowdownInjected()) {
    // The injected "regression": answer via the reference DP, twice, so the
    // stage slows by far more than the 15% gate without changing results.
    (void)LongestCommonSubstringLengthReferenceDp(a_raw, b_raw);
    return LongestCommonSubstringLengthReferenceDp(a_raw, b_raw);
  }
  // Prefilter: disjoint character classes -> no common byte -> LCS 0.
  if ((CharClassSignature(a_raw) & CharClassSignature(b_raw)) == 0) return 0;
  // Degenerate sizes (not reachable from the value re-rank) fall back to
  // the DP rather than sizing 256 packed masks for a megabyte string.
  if (a_raw.size() > 4096 || b_raw.size() > 4096) {
    return LongestCommonSubstringLengthReferenceDp(a_raw, b_raw);
  }
  // Rows follow the shorter string: the level count is bounded by the
  // answer (<= |short|) and the longer string packs 64 positions per word.
  if (a_raw.size() <= b_raw.size()) return LcsBitParallel(a_raw, b_raw);
  return LcsBitParallel(b_raw, a_raw);
}

double LcsMatchDegree(std::string_view a, std::string_view b) {
  if (a.empty() || b.empty()) return 0.0;
  int lcs = LongestCommonSubstringLength(a, b);
  size_t shorter = std::min(a.size(), b.size());
  return static_cast<double>(lcs) / static_cast<double>(shorter);
}

int LongestCommonSubsequenceLength(std::string_view a_raw,
                                   std::string_view b_raw) {
  std::string a = ToLower(a_raw);
  std::string b = ToLower(b_raw);
  std::vector<int> prev(b.size() + 1, 0);
  std::vector<int> cur(b.size() + 1, 0);
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      if (a[i - 1] == b[j - 1]) {
        cur[j] = prev[j - 1] + 1;
      } else {
        cur[j] = std::max(prev[j], cur[j - 1]);
      }
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

int EditDistance(std::string_view a, std::string_view b) {
  std::vector<int> prev(b.size() + 1);
  std::vector<int> cur(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= b.size(); ++j) {
      int cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  std::unordered_set<std::string> sa(a.begin(), a.end());
  std::unordered_set<std::string> sb(b.begin(), b.end());
  size_t inter = 0;
  for (const auto& t : sa) {
    if (sb.count(t)) ++inter;
  }
  size_t uni = sa.size() + sb.size() - inter;
  if (uni == 0) return 0.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
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

double TokenCoverage(const std::vector<std::string>& needle,
                     const std::vector<std::string>& haystack) {
  if (needle.empty()) return 0.0;
  return TokenCoverage(needle, StemSet(haystack));
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
