#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/flat_hash.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace codes {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToUpper("SeLeCt"), "SELECT");
}

TEST(StringUtilTest, CaseConversionLeavesUtf8BytesUntouched) {
  // Folding is ASCII-only by construction: bytes >= 0x80 (UTF-8
  // continuation and lead bytes) pass through byte-exact. A locale-aware
  // tolower would corrupt them — the regression this test pins is the LCS
  // re-ranker mangling accented and CJK values.
  EXPECT_EQ(ToLower("Caf\xC3\xA9 MAYOR"), "caf\xC3\xA9 mayor");
  EXPECT_EQ(ToUpper("caf\xC3\xA9 mayor"), "CAF\xC3\xA9 MAYOR");
  // Accented capitals are NOT folded (ASCII-only contract), just preserved:
  // É is 0xC3 0x89 and both bytes stay put while ASCII letters fold.
  EXPECT_EQ(ToLower("\xC3\x89" "COLE"), "\xC3\x89" "cole");
  // CJK text round-trips byte-exact.
  const std::string cjk = "\xE5\x8C\x97\xE4\xBA\xAC";  // 北京
  EXPECT_EQ(ToLower("City " + cjk), "city " + cjk);
  EXPECT_EQ(ToUpper("city " + cjk), "CITY " + cjk);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi \n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, SplitAndJoin) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join({"a", "b", "c"}, "-"), "a-b-c");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  auto parts = SplitWhitespace("  one\t two\nthree ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "one");
  EXPECT_EQ(parts[2], "three");
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(ReplaceAll("x{c}y{c}", "{c}", "name"), "xnameyname");
  EXPECT_EQ(ReplaceAll("abc", "", "z"), "abc");
}

TEST(StringUtilTest, StartsEndsContains) {
  EXPECT_TRUE(StartsWith("SELECT *", "SELECT"));
  EXPECT_FALSE(StartsWith("SEL", "SELECT"));
  EXPECT_TRUE(EndsWith("query.sql", ".sql"));
  EXPECT_TRUE(ContainsIgnoreCase("the Bank of Tests", "bank"));
  EXPECT_FALSE(ContainsIgnoreCase("abc", "abcd"));
}

TEST(StringUtilTest, IdentifierToPhrase) {
  EXPECT_EQ(IdentifierToPhrase("stu_id"), "stu id");
  EXPECT_EQ(IdentifierToPhrase("StudentName"), "student name");
  EXPECT_EQ(IdentifierToPhrase("avg_salary_usd"), "avg salary usd");
}

TEST(StringUtilTest, IsValidUtf8AcceptsWellFormedSequences) {
  EXPECT_TRUE(IsValidUtf8(""));
  EXPECT_TRUE(IsValidUtf8("plain ascii question?"));
  EXPECT_TRUE(IsValidUtf8("caf\xC3\xA9"));                  // U+00E9
  EXPECT_TRUE(IsValidUtf8("\xE6\xAD\x8C\xE6\x89\x8B"));     // CJK, 3-byte
  EXPECT_TRUE(IsValidUtf8("\xF0\x9F\x8E\xB5"));             // U+1F3B5, 4-byte
  EXPECT_TRUE(IsValidUtf8("\xEF\xBF\xBD"));                 // U+FFFD itself
}

TEST(StringUtilTest, IsValidUtf8RejectsIllFormedSequences) {
  EXPECT_FALSE(IsValidUtf8("\x80")) << "stray continuation byte";
  EXPECT_FALSE(IsValidUtf8("abc\xBFxyz")) << "stray continuation byte";
  EXPECT_FALSE(IsValidUtf8("\xC3")) << "truncated 2-byte sequence";
  EXPECT_FALSE(IsValidUtf8("\xE6\xAD")) << "truncated 3-byte sequence";
  EXPECT_FALSE(IsValidUtf8("\xF0\x9F\x8E")) << "truncated 4-byte sequence";
  EXPECT_FALSE(IsValidUtf8("\xC0\xAF")) << "overlong 2-byte encoding of /";
  EXPECT_FALSE(IsValidUtf8("\xC1\xBF")) << "0xC1 lead is always overlong";
  EXPECT_FALSE(IsValidUtf8("\xE0\x80\xAF")) << "overlong 3-byte encoding";
  EXPECT_FALSE(IsValidUtf8("\xF0\x80\x80\xAF")) << "overlong 4-byte";
  EXPECT_FALSE(IsValidUtf8("\xED\xA0\x80")) << "UTF-16 surrogate U+D800";
  EXPECT_FALSE(IsValidUtf8("\xF4\x90\x80\x80")) << "past U+10FFFF";
  EXPECT_FALSE(IsValidUtf8("\xF5\x80\x80\x80")) << "invalid lead 0xF5";
  EXPECT_FALSE(IsValidUtf8("\xC3\x28")) << "non-continuation second byte";
}

TEST(StringUtilTest, RepairUtf8IsIdentityOnValidInput) {
  EXPECT_EQ(RepairUtf8(""), "");
  EXPECT_EQ(RepairUtf8("plain"), "plain");
  EXPECT_EQ(RepairUtf8("caf\xC3\xA9"), "caf\xC3\xA9");
}

TEST(StringUtilTest, RepairUtf8ReplacesEachBadByteDeterministically) {
  // One U+FFFD per ill-formed byte, never a merged or dropped run: the
  // repaired length is a pure function of the input.
  const std::string r = "\xEF\xBF\xBD";
  EXPECT_EQ(RepairUtf8("\x80"), r);
  EXPECT_EQ(RepairUtf8("a\xC3z"), "a" + r + "z") << "truncated mid-string";
  EXPECT_EQ(RepairUtf8("\xC3"), r) << "truncated at end";
  EXPECT_EQ(RepairUtf8("\xC0\xAF"), r + r) << "overlong: both bytes bad";
  EXPECT_EQ(RepairUtf8("\xED\xA0\x80"), r + r + r) << "surrogate";
  EXPECT_EQ(RepairUtf8("ok \xF0\x9F\x8E"), "ok " + r + r + r)
      << "truncated 4-byte tail";
  // Valid sequences around the damage pass through byte-exact.
  EXPECT_EQ(RepairUtf8("\xE6\xAD\x8C\xFF\xE6\x89\x8B"),
            "\xE6\xAD\x8C" + r + "\xE6\x89\x8B");
  // Idempotent: repairing repaired text changes nothing.
  std::string once = RepairUtf8("q\xC1\xBF\xF5 end");
  EXPECT_EQ(RepairUtf8(once), once);
}

TEST(StringUtilTest, ParseFlagMatchesBareAndValuedFormsOnly) {
  std::string value = "untouched";
  EXPECT_TRUE(ParseFlag("--seed=42", "--seed", &value));
  EXPECT_EQ(value, "42");
  EXPECT_TRUE(ParseFlag("--seed", "--seed", &value));
  EXPECT_EQ(value, "");
  EXPECT_TRUE(ParseFlag("--seed=", "--seed", &value));
  EXPECT_EQ(value, "");
  EXPECT_TRUE(ParseFlag("--spec=a=b", "--spec", &value));
  EXPECT_EQ(value, "a=b") << "only the first '=' separates";

  value = "untouched";
  EXPECT_FALSE(ParseFlag("--seeds=4", "--seed", &value))
      << "a longer flag is not a match";
  EXPECT_FALSE(ParseFlag("--see", "--seed", &value));
  EXPECT_FALSE(ParseFlag("-seed=4", "--seed", &value));
  EXPECT_FALSE(ParseFlag("", "--seed", &value));
  EXPECT_EQ(value, "untouched");
}

/// Parses `args` (argv[0] is supplied) with `flags`; returns the exit code
/// and stores what Parse printed to stderr in `*err`.
int ParseArgs(FlagSet* flags, std::initializer_list<const char*> args,
              std::string* err) {
  std::vector<std::string> storage = {"prog"};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());
  testing::internal::CaptureStderr();
  int rc = flags->Parse(static_cast<int>(argv.size()), argv.data());
  *err = testing::internal::GetCapturedStderr();
  return rc;
}

/// The flag table of a typical campaign tool.
struct ToolFlags {
  int threads = 8;
  uint64_t seed = 1;
  size_t queue = 64;
  double rate = 0.01;
  double qps = 400.0;
  std::string metrics_out;
  bool smoke = false;
  FlagSet set{"prog"};

  ToolFlags() {
    set.Int("--threads", &threads, "N").AtLeast(1);
    set.Uint64("--seed", &seed, "S");
    set.Size("--queue", &queue, "N").AtLeast(1);
    set.Double("--rate", &rate, "P").Within(0.0, 1.0);
    set.Double("--qps", &qps, "Q").Above(0.0);
    set.Path("--metrics-out", &metrics_out);
    set.Bool("--smoke", &smoke);
  }
};

TEST(FlagSetTest, ParsesEveryTypeAndAbsentFlagsKeepTheirDefaults) {
  ToolFlags f;
  std::string err;
  EXPECT_EQ(ParseArgs(&f.set,
                      {"--threads=2", "--seed=18446744073709551615",
                       "--rate=0.5", "--smoke", "--threads=3"},
                      &err),
            0)
      << err;
  EXPECT_EQ(f.threads, 3) << "the last repeat wins";
  EXPECT_EQ(f.seed, 18446744073709551615ULL);
  EXPECT_EQ(f.rate, 0.5);
  EXPECT_TRUE(f.smoke);
  EXPECT_EQ(f.queue, 64u);
  EXPECT_EQ(f.qps, 400.0);
  EXPECT_EQ(f.metrics_out, "");
  EXPECT_TRUE(f.set.Given("--seed"));
  EXPECT_FALSE(f.set.Given("--queue"));
  EXPECT_EQ(err, "");
}

TEST(FlagSetTest, UnknownFlagIsAUsageErrorNamingIt) {
  ToolFlags f;
  std::string err;
  EXPECT_EQ(ParseArgs(&f.set, {"--threads=2", "--thread=4"}, &err), 2);
  EXPECT_NE(err.find("unknown flag: --thread=4"), std::string::npos) << err;
  EXPECT_NE(err.find("usage: prog"), std::string::npos) << err;
}

TEST(FlagSetTest, BoolFlagGivenAValueIsRejected) {
  for (const char* arg : {"--smoke=0", "--smoke=1", "--smoke="}) {
    ToolFlags f;
    std::string err;
    EXPECT_EQ(ParseArgs(&f.set, {arg}, &err), 2) << arg;
    EXPECT_NE(err.find(std::string("bad value in flag: ") + arg),
              std::string::npos)
        << err;
    EXPECT_FALSE(f.smoke) << arg;
  }
}

TEST(FlagSetTest, EmptyStringValueIsRejected) {
  for (const char* arg : {"--metrics-out", "--metrics-out="}) {
    ToolFlags f;
    std::string err;
    EXPECT_EQ(ParseArgs(&f.set, {arg}, &err), 2) << arg;
    EXPECT_NE(err.find("--metrics-out"), std::string::npos) << err;
    EXPECT_NE(err.find("expected PATH"), std::string::npos) << err;
  }
}

TEST(FlagSetTest, OutOfRangeValueIsRejectedWithTheBound) {
  struct Case {
    const char* arg;
    const char* diagnostic;
  };
  for (const Case& c : {Case{"--threads=0", "--threads must be >= 1"},
                        Case{"--queue=0", "--queue must be >= 1"},
                        Case{"--rate=1.5", "--rate must be in [0, 1]"},
                        Case{"--rate=-0.1", "--rate must be in [0, 1]"},
                        Case{"--qps=0", "--qps must be > 0"}}) {
    ToolFlags f;
    std::string err;
    EXPECT_EQ(ParseArgs(&f.set, {c.arg}, &err), 2) << c.arg;
    EXPECT_NE(err.find(c.diagnostic), std::string::npos) << err;
    EXPECT_EQ(f.threads, 8);
    EXPECT_EQ(f.rate, 0.01);
  }
}

TEST(FlagSetTest, GarbageNumberIsRejected) {
  for (const char* arg : {"--rate=abc", "--rate=nan", "--rate=inf", "--rate",
                          "--threads=4x", "--seed=-1", "--queue="}) {
    ToolFlags f;
    std::string err;
    EXPECT_EQ(ParseArgs(&f.set, {arg}, &err), 2) << arg;
    EXPECT_NE(err.find(std::string("bad value in flag: ") + arg),
              std::string::npos)
        << err;
  }
}

TEST(FlagSetTest, PresetFillsOnlyFlagsTheCommandLineDidNotGive) {
  constexpr FlagSet::Setting kSmoke[] = {{"--threads", "2"},
                                         {"--seed", "7"},
                                         {"--rate", "0.05"},
                                         {"--smoke", ""}};
  ToolFlags f;
  std::string err;
  ASSERT_EQ(ParseArgs(&f.set, {"--seed=99", "--threads=5"}, &err), 0) << err;
  f.set.Preset(kSmoke);
  EXPECT_EQ(f.threads, 5) << "an explicit flag beats the preset";
  EXPECT_EQ(f.seed, 99u);
  EXPECT_EQ(f.rate, 0.05);
  EXPECT_TRUE(f.smoke);
  EXPECT_EQ(f.queue, 64u) << "flags outside the preset keep their default";
  EXPECT_FALSE(f.set.Given("--rate")) << "a preset value is not 'given'";
}

TEST(FlagSetTest, RejectNamesAGivenFlagTheModeCannotHonour) {
  ToolFlags f;
  std::string err;
  ASSERT_EQ(ParseArgs(&f.set, {"--smoke", "--qps=100"}, &err), 0) << err;
  EXPECT_EQ(f.set.Reject({"--queue"}, "--smoke"), 0);

  testing::internal::CaptureStderr();
  int rc = f.set.Reject({"--queue", "--qps"}, "--smoke");
  err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("--qps cannot be used with --smoke"), std::string::npos)
      << err;
  EXPECT_NE(err.find("usage: prog"), std::string::npos) << err;
}

TEST(FlagSetTest, UsageListsEveryDeclaredFlag) {
  ToolFlags f;
  std::string usage = f.set.Usage();
  for (const char* item :
       {"[--threads=N]", "[--seed=S]", "[--queue=N]", "[--rate=P]",
        "[--qps=Q]", "[--metrics-out=PATH]", "[--smoke]"}) {
    EXPECT_NE(usage.find(item), std::string::npos) << item << "\n" << usage;
  }
  EXPECT_EQ(usage.rfind("usage: prog ", 0), 0u) << usage;
  std::istringstream lines(usage);
  for (std::string line; std::getline(lines, line);) {
    EXPECT_LE(line.size(), 72u) << line;
  }

  FlagSet with_operands("diff", "<a.json> <b.json>");
  EXPECT_EQ(with_operands.Usage(), "usage: diff <a.json> <b.json>\n");
}

TEST(WriteSnapshotTest, WritesRequestedPathsAndReportsFailure) {
  testing::internal::CaptureStderr();
  EXPECT_TRUE(WriteSnapshot("", "ignored", "metrics snapshot"))
      << "an empty path means the output was not requested";
  std::string path = testing::TempDir() + "/write_snapshot_test.json";
  EXPECT_TRUE(WriteSnapshot(path, "{}\n", "metrics snapshot"));
  EXPECT_FALSE(WriteSnapshot("/nonexistent-dir/m.json", "{}\n",
                             "metrics snapshot"));
  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("metrics snapshot written to " + path),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("cannot write /nonexistent-dir/m.json"),
            std::string::npos)
      << err;
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), "{}\n");
  std::remove(path.c_str());
}

TEST(HashTest, Fnv1aKeepsItsStartValueAndStreams) {
  // The repo's start value, not the published offset basis: the golden
  // beam digest, campaign digests and per-question seeds all fold from it.
  EXPECT_EQ(Fnv1a64(""), 1469598103934665603ULL);
  EXPECT_EQ(Fnv1a64("foobar"), 9870438755804841970ULL);
  Fnv1aDigest digest;
  digest.Add("foo");
  digest.Add("");
  digest.Add("bar");
  EXPECT_EQ(digest.value, Fnv1a64("foobar"));
  EXPECT_EQ(HashBytes("foobar"), HashMix64(Fnv1a64("foobar")));
}

TEST(RngTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformIntWithinBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, WeightedIndexRespectsZeroWeights) {
  Rng rng(4);
  std::vector<double> w{0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.WeightedIndex(w), 1u);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(9);
  Rng child = a.Fork();
  // Child stream differs from parent continuation.
  EXPECT_NE(child.Next(), a.Next());
}

TEST(RngTest, GaussianRoughlyCentered) {
  Rng rng(11);
  double sum = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian();
  EXPECT_NEAR(sum / n, 0.0, 0.1);
}

}  // namespace
}  // namespace codes
