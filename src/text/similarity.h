#ifndef CODES_TEXT_SIMILARITY_H_
#define CODES_TEXT_SIMILARITY_H_

#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace codes {

/// Length of the longest common substring of `a` and `b` (case-insensitive).
/// This is the fine-grained matcher of the paper's coarse-to-fine value
/// retriever (Section 6.2).
///
/// Implementation: a word-packed bit-parallel level sweep (Myers-style
/// match masks) behind a character-class prefilter, so the per-query LCS
/// re-rank costs O(|short| * ceil(|long|/64) * (answer+1)) word ops
/// instead of the classic O(|a|*|b|) cell DP. Byte-identical to
/// LongestCommonSubstringLengthReferenceDp on every input (pinned by
/// tests/speed_equivalence_test.cc, including UTF-8/accented/CJK bytes).
int LongestCommonSubstringLength(std::string_view a, std::string_view b);

/// The classic O(|a|*|b|) rolling-row DP. Pinned reference for the
/// bit-parallel implementation: equivalence tests compare against it, the
/// bench_latency hot-path section reports the before/after speedup, and
/// the CI perf gate's injected-slowdown leg routes the hot path through it
/// (CODES_PERF_INJECT=lcs2x) to prove the regression gate fires.
int LongestCommonSubstringLengthReferenceDp(std::string_view a,
                                            std::string_view b);

/// Longest common substring normalized by the length of the shorter string,
/// in [0,1]. Returns 0 when either string is empty.
double LcsMatchDegree(std::string_view a, std::string_view b);

/// Length of the longest common subsequence (order-preserving, with gaps).
int LongestCommonSubsequenceLength(std::string_view a, std::string_view b);

/// Levenshtein edit distance between `a` and `b` (case-sensitive).
int EditDistance(std::string_view a, std::string_view b);

/// Jaccard similarity of the two token sets.
double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b);

/// Fraction of tokens in `needle` that occur in `haystack` (stemmed match).
double TokenCoverage(const std::vector<std::string>& needle,
                     const std::vector<std::string>& haystack);

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

/// TokenCoverage against a prebuilt haystack: equal to
/// TokenCoverage(needle, haystack) when `haystack_stems` is
/// StemSet(haystack).
double TokenCoverage(const std::vector<std::string>& needle,
                     const StemSet& haystack_stems);

/// True when `identifier` (e.g. "npgr") is the initials of some window of
/// consecutive content tokens ("net profit growth rate"). How humans — and
/// code LLMs — guess abbreviated column names.
bool InitialsMatch(const std::string& identifier,
                   const std::vector<std::string>& tokens);

}  // namespace codes

#endif  // CODES_TEXT_SIMILARITY_H_
