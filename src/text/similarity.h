#ifndef CODES_TEXT_SIMILARITY_H_
#define CODES_TEXT_SIMILARITY_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace codes {

/// Length of the longest common substring of `a` and `b` (case-insensitive).
/// This is the fine-grained matcher of the paper's coarse-to-fine value
/// retriever (Section 6.2).
///
/// A one-shot LcsPattern: the longer string is compiled and the shorter
/// swept against it. Callers that match one text against many candidates
/// keep the LcsPattern instead, so its masks are built once.
int LongestCommonSubstringLength(std::string_view a, std::string_view b);

/// The classic O(|a|*|b|) rolling-row DP. Pinned reference for
/// LcsPattern: equivalence tests compare against it, the
/// bench_latency hot-path section reports the before/after speedup, and
/// the CI perf gate's injected-slowdown leg routes the hot path through it
/// (CODES_PERF_INJECT=lcs2x) to prove the regression gate fires.
int LongestCommonSubstringLengthReferenceDp(std::string_view a,
                                            std::string_view b);

/// One text compiled for many LCS calls against it: its folded match masks
/// and character-class signature are built once, and each candidate is
/// swept against them. A word-packed bit-parallel level sweep (Myers-style
/// match masks) behind a character-class prefilter costs
/// O(|other| * ceil(|text|/64) * (answer+1)) word ops instead of the
/// classic O(|a|*|b|) cell DP. Length(s) equals
/// LongestCommonSubstringLengthReferenceDp(text, s) in either argument
/// order, on every input (pinned by tests/speed_equivalence_test.cc,
/// including UTF-8/accented/CJK bytes); CODES_PERF_INJECT=lcs2x routes it
/// through the reference DP. Immutable after construction, so one pattern
/// may be shared across threads.
class LcsPattern {
 public:
  explicit LcsPattern(std::string_view text);

  int Length(std::string_view other) const;
  /// The match degree of the value retriever's re-rank: Length(other)
  /// normalized by the shorter of the two lengths, in [0,1]; 0 when
  /// either string is empty.
  double MatchDegree(std::string_view other) const;

 private:
  std::string text_;
  uint64_t signature_ = 0;
  size_t words_ = 0;
  /// 1 + the mask index of each folded byte present in text_, 0 when
  /// absent (at most 230 distinct folded bytes, so a byte suffices).
  std::array<uint8_t, 256> slot_{};
  std::vector<uint64_t> masks_;  // words_ per present byte
};

/// The stems (StemToken) of a token list, built once to match many needles
/// against one haystack.
class StemSet {
 public:
  explicit StemSet(const std::vector<std::string>& tokens);

  bool Contains(const std::string& stem) const {
    return stems_.count(stem) > 0;
  }

 private:
  std::unordered_set<std::string> stems_;
};

/// Fraction of tokens in `needle` whose stem is in `haystack_stems`.
double TokenCoverage(const std::vector<std::string>& needle,
                     const StemSet& haystack_stems);

/// True when `identifier` (e.g. "npgr") is the initials of some window of
/// consecutive content tokens ("net profit growth rate"). How humans — and
/// code LLMs — guess abbreviated column names.
bool InitialsMatch(const std::string& identifier,
                   const std::vector<std::string>& tokens);

}  // namespace codes

#endif  // CODES_TEXT_SIMILARITY_H_
