#include <gtest/gtest.h>

#include "text/pattern.h"
#include "text/similarity.h"
#include "text/tokenize.h"

namespace codes {
namespace {

TEST(TokenizeTest, WordTokensLowercaseAndSplit) {
  auto tokens = WordTokens("List the singer's Name, age!");
  std::vector<std::string> expected{"list", "the", "singer", "s",
                                    "name", "age"};
  EXPECT_EQ(tokens, expected);
}

TEST(TokenizeTest, WordTokensSplitUnderscores) {
  auto tokens = WordTokens("stu_id equals loan_amount");
  std::vector<std::string> expected{"stu", "id", "equals", "loan", "amount"};
  EXPECT_EQ(tokens, expected);
}

TEST(TokenizeTest, CodeTokensKeepOperators) {
  auto tokens = CodeTokens("SELECT a.b, x <= 3");
  std::vector<std::string> expected{"select", "a", ".", "b", ",",
                                    "x",      "<=", "3"};
  EXPECT_EQ(tokens, expected);
}

TEST(TokenizeTest, IsNumberToken) {
  EXPECT_TRUE(IsNumberToken("1948"));
  EXPECT_TRUE(IsNumberToken("3.5"));
  EXPECT_TRUE(IsNumberToken("-12"));
  EXPECT_FALSE(IsNumberToken("12a"));
  EXPECT_FALSE(IsNumberToken("."));
  EXPECT_FALSE(IsNumberToken(""));
}

TEST(TokenizeTest, StopWords) {
  EXPECT_TRUE(IsStopWord("the"));
  EXPECT_TRUE(IsStopWord("show"));
  EXPECT_FALSE(IsStopWord("singer"));
}

TEST(TokenizeTest, Stemming) {
  EXPECT_EQ(StemToken("singers"), "singer");
  EXPECT_EQ(StemToken("cities"), "city");
  EXPECT_EQ(StemToken("opened"), "open");
  EXPECT_EQ(StemToken("opening"), "open");
  EXPECT_EQ(StemToken("class"), "class");
  EXPECT_EQ(StemToken("status"), "status");
}

TEST(SimilarityTest, LongestCommonSubstring) {
  EXPECT_EQ(LongestCommonSubstringLength("Jesenik", "the Jesenik branch"), 7);
  EXPECT_EQ(LongestCommonSubstringLength("abc", "xyz"), 0);
  EXPECT_EQ(LongestCommonSubstringLength("", "abc"), 0);
  // Case-insensitive.
  EXPECT_EQ(LongestCommonSubstringLength("SARAH", "sarah martinez"), 5);
}

TEST(SimilarityTest, LcsMatchDegreeNormalized) {
  EXPECT_DOUBLE_EQ(LcsMatchDegree("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LcsMatchDegree("ab", "abcd"), 1.0);
  EXPECT_NEAR(LcsMatchDegree("abcd", "abxy"), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(LcsMatchDegree("", "x"), 0.0);
}

TEST(SimilarityTest, Utf8ValuesMatchByteExact) {
  // Case folding inside the matchers is ASCII-only, so multi-byte UTF-8
  // sequences compare byte-exact regardless of locale — an accented value
  // in a question must fully match the same indexed value.
  EXPECT_DOUBLE_EQ(LcsMatchDegree("Caf\xC3\xA9 Mayor", "caf\xC3\xA9 mayor"),
                   1.0);
  const std::string cjk = "\xE5\x8C\x97\xE4\xBA\xAC";  // 北京
  EXPECT_DOUBLE_EQ(LcsMatchDegree(cjk, "the city of " + cjk), 1.0);
  EXPECT_EQ(LongestCommonSubstringLength(cjk, "near " + cjk + " station"),
            static_cast<int>(cjk.size()));
  // Different accented characters share the lead byte 0xC3 but must not
  // fully match: é (0xC3 0xA9) vs è (0xC3 0xA8).
  EXPECT_LT(LcsMatchDegree("caf\xC3\xA9", "caf\xC3\xA8"), 1.0);
}

TEST(SimilarityTest, TokenCoverageUsesStems) {
  // "singers" in the question should match "singer" in the haystack.
  double cov =
      TokenCoverage({"singers", "name"}, StemSet({"singer", "name", "age"}));
  EXPECT_DOUBLE_EQ(cov, 1.0);
}

TEST(PatternTest, StripsNumbers) {
  EXPECT_EQ(ExtractQuestionPattern("singers born in 1948 or 1949"),
            "singers born in _ or _");
}

TEST(PatternTest, StripsQuotedStrings) {
  EXPECT_EQ(
      ExtractQuestionPattern("How many clients opened accounts in 'Jesenik'?"),
      "how many clients opened accounts in _");
}

TEST(PatternTest, StripsMedialCapitalizedWords) {
  std::string p = ExtractQuestionPattern(
      "Show the names of members from either United States or Canada");
  EXPECT_EQ(p, "show the names of members from either _ or _");
}

TEST(PatternTest, KeepsSentenceInitialCapital) {
  // Sentence-initial capitalized words are not entities.
  EXPECT_EQ(ExtractQuestionPattern("What is the average age?"),
            "what is the average age");
}

TEST(PatternTest, CollapsesAdjacentEntities) {
  EXPECT_EQ(ExtractQuestionPattern("Who is Sarah Martinez exactly"),
            "who is _ exactly");
}

}  // namespace
}  // namespace codes
