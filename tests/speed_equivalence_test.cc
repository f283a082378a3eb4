// Equivalence suite for the hot-path speed campaign: every rewritten
// component (bit-parallel LCS, interned-term BM25, flat-hash n-gram LM,
// the per-request column profile, norm-cached cosines, the sparse
// anchor-row cosine, the streamed bigram hash, prebuilt stem sets and
// one-pass schema scoring, the reference-based SQL executor, schema items
// as (table, column) indices) must be *behaviorally invisible* —
// byte-identical outputs, including the exact double values, against the
// pinned reference implementations it replaced or, where the original is
// gone, against a digest recorded before the rewrite. These tests are the
// contract that lets the benchmarks' before/after numbers claim a pure
// speed win.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <thread>
#include <vector>

#include "common/exec_guard.h"
#include "common/flat_hash.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "dataset/benchmark_builder.h"
#include "dataset/column_profile.h"
#include "dataset/db_generator.h"
#include "dataset/domains.h"
#include "dataset/perturb.h"
#include "embed/sentence_encoder.h"
#include "fuzz/fuzz_harness.h"
#include "fuzz/query_gen.h"
#include "index/bm25_index.h"
#include "index/bm25_reference.h"
#include "linker/schema_classifier.h"
#include "lm/ngram_lm.h"
#include "lm/ngram_reference.h"
#include "sqlengine/executor.h"
#include "storage/storage_db.h"
#include "text/similarity.h"
#include "text/tokenize.h"

namespace codes {
namespace {

// ---------------------------------------------------------------------------
// Longest common substring: bit-parallel vs reference DP.
// ---------------------------------------------------------------------------

std::string RandomString(std::mt19937& rng, size_t max_len,
                         std::string_view alphabet) {
  std::uniform_int_distribution<size_t> len_dist(0, max_len);
  std::uniform_int_distribution<size_t> chr_dist(0, alphabet.size() - 1);
  std::string s;
  const size_t len = len_dist(rng);
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) s.push_back(alphabet[chr_dist(rng)]);
  return s;
}

TEST(LcsEquivalenceTest, HandPickedPairs) {
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"", ""},
      {"", "abc"},
      {"abc", ""},
      {"a", "a"},
      {"a", "b"},
      {"abcdef", "zabcy"},
      {"Sarah Martinez", "sarah martinez"},  // case folding
      {"the quick brown fox", "a quick brown dog"},
      {"aaaaaaaa", "aaaa"},
      {"abab", "baba"},
      {"Jesenik branch office", "clients of the Jesenik branch"},
      // Identical strings of every interesting length re word size.
      {std::string(63, 'x'), std::string(63, 'x')},
      {std::string(64, 'x'), std::string(64, 'x')},
      {std::string(65, 'x'), std::string(65, 'x')},
      {std::string(200, 'q') + "needle" + std::string(200, 'w'),
       std::string(150, 'e') + "needle" + std::string(10, 'r')},
  };
  for (const auto& [a, b] : pairs) {
    EXPECT_EQ(LongestCommonSubstringLength(a, b),
              LongestCommonSubstringLengthReferenceDp(a, b))
        << "a=" << a << " b=" << b;
  }
}

TEST(LcsEquivalenceTest, Utf8AndNonAsciiBytes) {
  // The PR-4 tolower corpus: folding is ASCII-only, so multi-byte UTF-8
  // sequences must match byte-for-byte in both implementations.
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"Caf\xC3\xA9 Mayor", "caf\xC3\xA9 mayor"},
      {"Caf\xC3\xA9", "Caf\xC3\xA8"},  // é vs è share the lead byte 0xC3
      {"\xE5\x8C\x97\xE4\xBA\xAC restaurants",
       "restaurants in \xE5\x8C\x97\xE4\xBA\xAC"},            // 北京
      {"\xE5\x8C\x97\xE4\xBA\xAC", "\xE4\xBA\xAC\xE5\x8C\x97"},  // 北京 vs 京北
      {"stra\xC3\x9F" "e", "STRA\xC3\x9F" "E"},                  // straße
      {"\xFF\xFE\x00\x01", "\x00\x01\xFF"},  // arbitrary non-UTF-8 bytes
  };
  for (const auto& [a, b] : pairs) {
    EXPECT_EQ(LongestCommonSubstringLength(a, b),
              LongestCommonSubstringLengthReferenceDp(a, b));
  }
}

TEST(LcsEquivalenceTest, RandomizedSmallAlphabet) {
  // A small alphabet forces long common runs and dense match masks.
  std::mt19937 rng(20260808);
  for (int iter = 0; iter < 400; ++iter) {
    const std::string a = RandomString(rng, 150, "abcAB ");
    const std::string b = RandomString(rng, 150, "abcAB ");
    ASSERT_EQ(LongestCommonSubstringLength(a, b),
              LongestCommonSubstringLengthReferenceDp(a, b))
        << "a=" << a << " b=" << b;
  }
}

TEST(LcsEquivalenceTest, RandomizedWideAlphabet) {
  std::mt19937 rng(7);
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-'.";
  for (int iter = 0; iter < 300; ++iter) {
    const std::string a = RandomString(rng, 300, alphabet);
    const std::string b = RandomString(rng, 300, alphabet);
    ASSERT_EQ(LongestCommonSubstringLength(a, b),
              LongestCommonSubstringLengthReferenceDp(a, b));
  }
}

TEST(LcsEquivalenceTest, LongInputsUseFallbackConsistently) {
  // Inputs past the bit-parallel size cap take the reference-DP fallback;
  // the seam must be invisible.
  std::mt19937 rng(99);
  const std::string a = RandomString(rng, 5000, "abcd");
  const std::string b = RandomString(rng, 120, "abcd");
  EXPECT_EQ(LongestCommonSubstringLength(a, b),
            LongestCommonSubstringLengthReferenceDp(a, b));
}

TEST(LcsEquivalenceTest, EightThreadsMatchSerial) {
  std::mt19937 rng(4242);
  std::vector<std::pair<std::string, std::string>> pairs;
  std::vector<int> expected;
  for (int i = 0; i < 200; ++i) {
    pairs.emplace_back(RandomString(rng, 200, "abcdefg "),
                       RandomString(rng, 200, "abcdefg "));
    expected.push_back(LongestCommonSubstringLengthReferenceDp(
        pairs.back().first, pairs.back().second));
  }
  std::vector<std::thread> threads;
  std::vector<int> failures(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      // Every thread scores every pair: the thread_local scratch (masks,
      // generation stamps) must never leak state across calls or threads.
      for (size_t i = 0; i < pairs.size(); ++i) {
        if (LongestCommonSubstringLength(pairs[i].first, pairs[i].second) !=
            expected[i]) {
          ++failures[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
}

// ---------------------------------------------------------------------------
// BM25: interned flat-postings index vs pinned map-based reference.
// ---------------------------------------------------------------------------

std::vector<std::string> RandomCorpus(std::mt19937& rng, int num_docs) {
  // A vocabulary small enough that terms collide across documents (so idf
  // and tf vary) with some multi-word cell values like real DB content.
  static const std::vector<std::string> kWords = {
      "Jesenik",  "Prague",   "branch", "office",  "Sarah",   "Martinez",
      "road",     "losses",   "castle", "district","client",  "account",
      "2019",     "total",    "north",  "station", "premium", "Ostrava",
      "wine",     "exporter", "blue",   "red",     "green",   "velvet"};
  std::uniform_int_distribution<int> words_per_doc(1, 6);
  std::uniform_int_distribution<size_t> word_dist(0, kWords.size() - 1);
  std::vector<std::string> docs;
  docs.reserve(static_cast<size_t>(num_docs));
  for (int d = 0; d < num_docs; ++d) {
    std::string doc;
    const int n = words_per_doc(rng);
    for (int w = 0; w < n; ++w) {
      if (!doc.empty()) doc += ' ';
      doc += kWords[word_dist(rng)];
    }
    docs.push_back(std::move(doc));
  }
  return docs;
}

std::vector<std::string> RandomQueries(std::mt19937& rng, int num) {
  static const std::vector<std::string> kQueries = {
      "clients of the Jesenik branch office",
      "total road losses in 2019",
      "Sarah Martinez premium account",
      "wine exporter near Prague castle district",
      "north station Ostrava",
      "red velvet",
      "nonexistent zebra token",
      "office office office",
  };
  std::uniform_int_distribution<size_t> q(0, kQueries.size() - 1);
  std::vector<std::string> out;
  for (int i = 0; i < num; ++i) out.push_back(kQueries[q(rng)]);
  return out;
}

void ExpectSameHits(const std::vector<Bm25Hit>& got,
                    const std::vector<Bm25Hit>& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].doc_id, want[i].doc_id) << label << " rank " << i;
    // Byte-identical doubles, not just approximately equal: the rewrite
    // preserves the accumulation order, so == must hold.
    EXPECT_EQ(got[i].score, want[i].score) << label << " rank " << i;
  }
}

TEST(Bm25EquivalenceTest, RandomCorporaMatchReferenceExactly) {
  std::mt19937 rng(123);
  for (int round = 0; round < 10; ++round) {
    const auto docs = RandomCorpus(rng, 40 + round * 17);
    Bm25Index fast;
    ReferenceBm25Index ref;
    for (const auto& d : docs) {
      fast.AddDocument(d);
      ref.AddDocument(d);
    }
    fast.Finalize();
    ref.Finalize();
    for (const auto& q : RandomQueries(rng, 12)) {
      for (int top_k : {1, 3, 10, 1000, -1}) {
        ExpectSameHits(fast.Query(q, top_k), ref.Query(q, top_k),
                       "round " + std::to_string(round) + " q=" + q +
                           " k=" + std::to_string(top_k));
      }
    }
  }
}

TEST(Bm25EquivalenceTest, IncrementalBatchesMatchReference) {
  std::mt19937 rng(55);
  const auto first = RandomCorpus(rng, 30);
  const auto second = RandomCorpus(rng, 25);
  Bm25Index fast;
  ReferenceBm25Index ref;
  for (const auto& d : first) {
    fast.AddDocument(d);
    ref.AddDocument(d);
  }
  fast.Finalize();
  ref.Finalize();
  (void)fast.Query("Prague", 5);
  for (const auto& d : second) {
    fast.AddDocument(d);
    ref.AddDocument(d);
  }
  fast.Finalize();
  ref.Finalize();
  for (const auto& q : RandomQueries(rng, 10)) {
    ExpectSameHits(fast.Query(q, 8), ref.Query(q, 8), "q=" + q);
  }
}

TEST(Bm25EquivalenceTest, TopKHeapMatchesFullSortTruncation) {
  // The bounded-heap path (large candidate set, small k) must return
  // exactly the prefix of the full sorted ranking.
  std::mt19937 rng(77);
  const auto docs = RandomCorpus(rng, 300);
  Bm25Index index;
  for (const auto& d : docs) index.AddDocument(d);
  index.Finalize();
  const std::string q = "Jesenik branch office Prague castle";
  const auto full = index.Query(q, -1);
  for (int k : {1, 2, 5, 17, 100}) {
    const auto top = index.Query(q, k);
    ASSERT_EQ(top.size(),
              std::min(full.size(), static_cast<size_t>(k)));
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].doc_id, full[i].doc_id) << i;
      EXPECT_EQ(top[i].score, full[i].score) << i;
    }
  }
}

TEST(Bm25EquivalenceTest, EightThreadsMatchSerial) {
  std::mt19937 rng(31);
  const auto docs = RandomCorpus(rng, 120);
  Bm25Index index;
  for (const auto& d : docs) index.AddDocument(d);
  index.Finalize();
  const auto queries = RandomQueries(rng, 40);
  std::vector<std::vector<Bm25Hit>> serial;
  serial.reserve(queries.size());
  for (const auto& q : queries) serial.push_back(index.Query(q, 10));

  std::vector<std::thread> threads;
  std::vector<int> failures(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < queries.size(); ++i) {
        const auto hits = index.Query(queries[i], 10);
        if (hits.size() != serial[i].size()) {
          ++failures[t];
          continue;
        }
        for (size_t j = 0; j < hits.size(); ++j) {
          if (hits[j].doc_id != serial[i][j].doc_id ||
              hits[j].score != serial[i][j].score) {
            ++failures[t];
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
}

// ---------------------------------------------------------------------------
// Text analysis: one view-based word splitter and stemmer vs the pinned
// string-building compositions they replaced.
// ---------------------------------------------------------------------------

bool ReferenceIsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::vector<std::string> ReferenceWordTokens(std::string_view text) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && !ReferenceIsWordChar(text[i])) ++i;
    size_t start = i;
    while (i < text.size() && ReferenceIsWordChar(text[i])) ++i;
    if (i > start) {
      std::string token = ToLower(text.substr(start, i - start));
      if (token.find_first_not_of('_') == std::string::npos) {
        out.emplace_back("_");
        continue;
      }
      size_t pos = 0;
      while (pos < token.size()) {
        size_t us = token.find('_', pos);
        if (us == std::string::npos) {
          if (pos < token.size()) out.push_back(token.substr(pos));
          break;
        }
        if (us > pos) out.push_back(token.substr(pos, us - pos));
        pos = us + 1;
      }
    }
  }
  return out;
}

std::string ReferenceStemToken(std::string_view token) {
  std::string t(token);
  auto strip = [&t](std::string_view suffix) {
    if (t.size() > suffix.size() + 2 && EndsWith(t, suffix)) {
      t.resize(t.size() - suffix.size());
      return true;
    }
    return false;
  };
  if (strip("ies")) {
    t += 'y';
    return t;
  }
  if (strip("sses")) {
    t += "ss";
    return t;
  }
  if (strip("ing")) return t;
  if (strip("ed")) return t;
  if (t.size() > 3 && EndsWith(t, "s") && !EndsWith(t, "ss") &&
      !EndsWith(t, "us")) {
    t.pop_back();
  }
  return t;
}

std::vector<std::string> ReferenceBm25AnalyzeText(std::string_view text) {
  std::vector<std::string> tokens;
  for (auto& word : ReferenceWordTokens(text)) {
    tokens.push_back(ReferenceStemToken(word));
  }
  const std::string lower = ToLower(text);
  for (size_t i = 0; i + 3 <= lower.size(); ++i) {
    std::string gram = lower.substr(i, 3);
    if (gram.find(' ') == std::string::npos) tokens.push_back("#" + gram);
  }
  return tokens;
}

void ExpectAnalyzerMatchesReference(std::string_view text) {
  const std::string label = "text=\"" + std::string(text) + "\"";
  EXPECT_EQ(WordTokens(text), ReferenceWordTokens(text)) << label;
  EXPECT_EQ(StemToken(text), ReferenceStemToken(text)) << label;
  EXPECT_EQ(Bm25AnalyzeText(text), ReferenceBm25AnalyzeText(text)) << label;
  for (const std::string& word : ReferenceWordTokens(text)) {
    EXPECT_EQ(StemToken(word), ReferenceStemToken(word)) << label;
  }
}

std::vector<std::string> AnalyzerEdgeInputs() {
  std::vector<std::string> inputs = {
      "", "a", "ab", "AB", "_", "__", "___", "_a", "a_", "a__b", "__a__",
      "_stu_id_", "stu__id", "a_b_c", "x _ y", "ABC_DEF", "Stu_ID",
      "1", "12", "123", "2019-05-01", "v2 x86_64 3rd", "a\tb  c",
      "\t\t", "   ", " x ", "tab\tseparated\tvalues", "end.", "O'Brien's",
      "Caf\xC3\xA9 Mayor", "\xE5\x8C\x97\xE4\xBA\xAC\xE5\xB8\x82",
      "na\xC3\xAFve_caf\xC3\xA9s", "\x80\xFF\xC3", "abc\xFF" "def",
      "\xC3\xA9s", "SINGERS", "Classes", "CITIES", "Running",
  };
  // Every suffix rule at every length around its threshold: the stem
  // rules only fire on tokens longer than suffix + 2.
  for (std::string_view suffix :
       {"ies", "sses", "ing", "ed", "s", "ss", "us", "es"}) {
    for (size_t len = 1; len <= 8; ++len) {
      if (len < suffix.size()) continue;
      std::string word(len - suffix.size(), 'b');
      word += suffix;
      inputs.push_back(word);
      inputs.push_back(ToUpper(word));
      inputs.push_back("x_" + word + " " + word + "_y");
    }
  }
  // Random strings over an alphabet dense in separators, suffix letters,
  // case variants and high bytes.
  static const char kAlphabet[] = "aAbBeEdDgGiInNsSuU09_ \t.'-\xC3\xA9\xFF";
  std::mt19937 rng(2024);
  std::uniform_int_distribution<size_t> pick(0, sizeof(kAlphabet) - 2);
  std::uniform_int_distribution<int> length(0, 24);
  for (int i = 0; i < 2000; ++i) {
    std::string text;
    for (int n = length(rng); n > 0; --n) text += kAlphabet[pick(rng)];
    inputs.push_back(std::move(text));
  }
  return inputs;
}

TEST(AnalyzerEquivalenceTest, EdgeInputsMatchReference) {
  for (const std::string& text : AnalyzerEdgeInputs()) {
    ExpectAnalyzerMatchesReference(text);
  }
}

TEST(AnalyzerEquivalenceTest, PresetCellsAndQuestionsMatchReference) {
  for (const Text2SqlBenchmark& bench : {BuildSpiderLike(), BuildBirdLike()}) {
    size_t checked = 0;
    for (const sql::Database& db : bench.databases) {
      db.ForEachTextValue([&checked](int, int, int, const std::string& text) {
        ExpectAnalyzerMatchesReference(text);
        ++checked;
      });
    }
    for (const auto* split : {&bench.train, &bench.dev}) {
      for (const Text2SqlSample& sample : *split) {
        ExpectAnalyzerMatchesReference(sample.question);
        ExpectAnalyzerMatchesReference(sample.external_knowledge);
        ++checked;
      }
    }
    EXPECT_GT(checked, 1000u) << bench.name;
  }
}

// ---------------------------------------------------------------------------
// Case-blind string matching: byte-at-a-time folds vs the lowercase-copy
// compositions they replaced.
// ---------------------------------------------------------------------------

bool ReferenceContainsIgnoreCase(std::string_view haystack,
                                 std::string_view needle) {
  return ToLower(haystack).find(ToLower(needle)) != std::string::npos;
}

std::optional<int> ReferenceFindColumn(const sql::TableDef& table,
                                       const std::string& name) {
  for (size_t i = 0; i < table.columns.size(); ++i) {
    if (ToLower(table.columns[i].name) == ToLower(name)) {
      return static_cast<int>(i);
    }
  }
  return std::nullopt;
}

std::optional<int> ReferenceFindTable(const sql::DatabaseSchema& schema,
                                      const std::string& name) {
  for (size_t i = 0; i < schema.tables.size(); ++i) {
    if (ToLower(schema.tables[i].name) == ToLower(name)) {
      return static_cast<int>(i);
    }
  }
  return std::nullopt;
}

/// The executor's LIKE before it folded bytes in place: both sides
/// lowercased into copies, then matched.
bool ReferenceLikeMatch(const std::string& text_raw,
                        const std::string& pattern_raw) {
  std::string text = ToLower(text_raw);
  std::string pattern = ToLower(pattern_raw);
  size_t ti = 0, pi = 0, star_ti = std::string::npos, star_pi = 0;
  while (ti < text.size()) {
    if (pi < pattern.size() &&
        (pattern[pi] == '_' || pattern[pi] == text[ti])) {
      ++ti;
      ++pi;
    } else if (pi < pattern.size() && pattern[pi] == '%') {
      star_pi = pi++;
      star_ti = ti;
    } else if (star_ti != std::string::npos) {
      pi = star_pi + 1;
      ti = ++star_ti;
    } else {
      return false;
    }
  }
  while (pi < pattern.size() && pattern[pi] == '%') ++pi;
  return pi == pattern.size();
}

/// Names and questions of both presets, the edge inputs, and random
/// strings over an alphabet dense in case pairs, wildcards and high bytes.
std::vector<std::string> CaseFoldInputs() {
  std::vector<std::string> inputs = {
      "", "a", "A", "_", "%", "%%", "a%", "%a", "a_c", "_A_", "\x80",
      "\xC3\xA9", "\xC3\x89", "caf\xC3\xA9", "CAF\xC3\xA9", "\xFF\xFE",
      "Singer_ID", "singer_id", "SINGER_ID", "singer id", "[", "@", "`",
      "{", "Z", "z", std::string(70, 'q'), std::string(70, 'Q') + "x",
  };
  for (const Text2SqlBenchmark& bench : {BuildSpiderLike(), BuildBirdLike()}) {
    for (const sql::Database& db : bench.databases) {
      for (const sql::TableDef& table : db.schema().tables) {
        inputs.push_back(table.name);
        for (const sql::ColumnDef& col : table.columns) {
          inputs.push_back(col.name);
        }
      }
    }
    for (const Text2SqlSample& sample : bench.dev) {
      inputs.push_back(sample.question);
    }
  }
  static const char kAlphabet[] = "aAbBzZ_%@[`{ \xC3\xA9\x80\xFF";
  std::mt19937 rng(30);
  std::uniform_int_distribution<size_t> pick(0, sizeof(kAlphabet) - 2);
  std::uniform_int_distribution<int> length(0, 12);
  for (int i = 0; i < 600; ++i) {
    std::string text;
    for (int n = length(rng); n > 0; --n) text += kAlphabet[pick(rng)];
    inputs.push_back(std::move(text));
  }
  return inputs;
}

TEST(CaseFoldEquivalenceTest, ContainsAndEqualsMatchLowercaseCopies) {
  const std::vector<std::string> inputs = CaseFoldInputs();
  // Every input against a window of its neighbours (names against names,
  // questions against names, random against random), in both roles and
  // against case-flipped copies of itself.
  size_t checked = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const std::string& a = inputs[i];
    std::vector<std::string> others = {a, ToUpper(a), ToLower(a),
                                       a.substr(a.size() / 3)};
    for (size_t d = 1; d <= 24 && i + d < inputs.size(); ++d) {
      others.push_back(inputs[i + d]);
    }
    for (const std::string& b : others) {
      EXPECT_EQ(ContainsIgnoreCase(a, b), ReferenceContainsIgnoreCase(a, b))
          << "[" << a << "] [" << b << "]";
      EXPECT_EQ(ContainsIgnoreCase(b, a), ReferenceContainsIgnoreCase(b, a))
          << "[" << b << "] [" << a << "]";
      EXPECT_EQ(EqualsIgnoreCase(a, b), ToLower(a) == ToLower(b))
          << "[" << a << "] [" << b << "]";
      ++checked;
    }
  }
  EXPECT_GT(checked, 20000u);
}

TEST(CaseFoldEquivalenceTest, FindTableAndFindColumnMatchLowercaseCopies) {
  const std::vector<std::string> probes = CaseFoldInputs();
  for (const Text2SqlBenchmark& bench : {BuildSpiderLike(), BuildBirdLike()}) {
    for (const sql::Database& db : bench.databases) {
      const sql::DatabaseSchema& schema = db.schema();
      std::vector<std::string> names;
      for (const sql::TableDef& table : schema.tables) {
        names.push_back(table.name);
        for (const sql::ColumnDef& col : table.columns) {
          names.push_back(col.name);
        }
      }
      for (const std::string& name : names) {
        for (const std::string& probe :
             {name, ToUpper(name), ToLower(name), name + "_", name.substr(1)}) {
          EXPECT_EQ(schema.FindTable(probe), ReferenceFindTable(schema, probe))
              << probe;
          for (const sql::TableDef& table : schema.tables) {
            EXPECT_EQ(table.FindColumn(probe),
                      ReferenceFindColumn(table, probe))
                << table.name << "." << probe;
          }
        }
      }
      for (size_t i = 0; i < probes.size(); i += 97) {
        EXPECT_EQ(schema.FindTable(probes[i]),
                  ReferenceFindTable(schema, probes[i]));
        EXPECT_EQ(schema.tables[0].FindColumn(probes[i]),
                  ReferenceFindColumn(schema.tables[0], probes[i]));
      }
    }
  }
}

/// The prompt builder's key-column rule before it moved into the catalog:
/// a primary key, or an FK endpoint on the side(s) asked for, every name
/// compared through lowercase copies.
bool ReferenceIsKeyColumn(const sql::DatabaseSchema& schema, int table,
                          int column, bool child_side_only) {
  const sql::ColumnDef& col = schema.tables[table].columns[column];
  if (!child_side_only && col.is_primary_key) return true;
  const std::string& table_name = schema.tables[table].name;
  for (const sql::ForeignKey& fk : schema.foreign_keys) {
    if (ToLower(fk.table) == ToLower(table_name) &&
        ToLower(fk.column) == ToLower(col.name)) {
      return true;
    }
    if (!child_side_only && ToLower(fk.ref_table) == ToLower(table_name) &&
        ToLower(fk.ref_column) == ToLower(col.name)) {
      return true;
    }
  }
  return false;
}

TEST(CaseFoldEquivalenceTest, KeyColumnRuleMatchesLowercaseCopies) {
  // Every (table, column) of every preset database, as generated and with
  // its foreign keys respelled in upper case, through the catalog rule and
  // through the column profile that marks keys with it.
  size_t keys = 0, children = 0, columns = 0;
  for (const Text2SqlBenchmark& bench :
       {BuildTinySpiderLike(), BuildSpiderLike(), BuildBirdLike()}) {
    for (const sql::Database& generated : bench.databases) {
      sql::DatabaseSchema respelled = generated.schema();
      for (sql::ForeignKey& fk : respelled.foreign_keys) {
        fk.table = ToUpper(fk.table);
        fk.column = ToUpper(fk.column);
        fk.ref_table = ToUpper(fk.ref_table);
        fk.ref_column = ToUpper(fk.ref_column);
      }
      for (const sql::Database& db :
           {generated, sql::Database(std::move(respelled))}) {
        const sql::DatabaseSchema& schema = db.schema();
        const ColumnProfile profile(db);
        for (int t = 0; t < static_cast<int>(schema.tables.size()); ++t) {
          const int width = static_cast<int>(schema.tables[t].columns.size());
          for (int c = 0; c < width; ++c) {
            const bool key = ReferenceIsKeyColumn(schema, t, c, false);
            const bool child = ReferenceIsKeyColumn(schema, t, c, true);
            EXPECT_EQ(schema.IsKeyColumn(t, c), key) << t << "." << c;
            EXPECT_EQ(profile.is_key(t, c), key) << t << "." << c;
            EXPECT_EQ(schema.IsForeignKeyChild(t, c), child) << t << "." << c;
            keys += key;
            children += child;
            ++columns;
          }
        }
      }
    }
  }
  EXPECT_GT(children, 0u);
  EXPECT_GT(keys, children);
  EXPECT_LT(keys, columns);
}

TEST(CaseFoldEquivalenceTest, SqlLikeMatchesLowercaseCopies) {
  // LIKE lives inside the executor, so it is pinned through SQL: one row
  // per (subject, pattern) pair, `SELECT subject LIKE pattern` against
  // the reference matcher.
  const std::vector<std::string> inputs = CaseFoldInputs();
  std::vector<std::pair<std::string, std::string>> pairs;
  std::mt19937 rng(31);
  for (size_t i = 0; i < inputs.size(); ++i) {
    const std::string& text = inputs[i];
    std::string mid = text.substr(text.size() / 4, text.size() / 2);
    std::string blanked = ToUpper(text);
    for (size_t k = 0; k < blanked.size(); k += 3) blanked[k] = '_';
    for (const std::string& pattern :
         {text, ToUpper(text), "%" + mid + "%", mid + "%", "%" + ToUpper(mid),
          blanked, "%" + blanked.substr(blanked.size() / 2),
          inputs[(i + 1 + rng() % 40) % inputs.size()]}) {
      pairs.emplace_back(text, pattern);
    }
  }
  sql::DatabaseSchema schema;
  schema.name = "like_pairs";
  sql::TableDef table;
  table.name = "pairs";
  table.columns = {{"id", sql::DataType::kInteger, "", true},
                   {"subject", sql::DataType::kText, "", false},
                   {"pattern", sql::DataType::kText, "", false}};
  schema.tables.push_back(table);
  sql::Database db(schema);
  for (size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(db.Insert("pairs", {sql::Value(static_cast<int64_t>(i)),
                                    sql::Value(pairs[i].first),
                                    sql::Value(pairs[i].second)})
                    .ok());
  }
  auto result = sql::ExecuteSql(
      db,
      "SELECT id, subject LIKE pattern, subject NOT LIKE pattern FROM pairs");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), pairs.size());
  size_t matches = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const bool expected = ReferenceLikeMatch(pairs[i].first, pairs[i].second);
    EXPECT_EQ(result->rows[i][1].AsInteger(), expected ? 1 : 0)
        << "[" << pairs[i].first << "] LIKE [" << pairs[i].second << "]";
    EXPECT_EQ(result->rows[i][2].AsInteger(), expected ? 0 : 1);
    matches += expected ? 1 : 0;
  }
  EXPECT_GT(matches, pairs.size() / 4);
  EXPECT_LT(matches, pairs.size());
}

// ---------------------------------------------------------------------------
// N-gram LM: flat-hash trie vs pinned nested-map reference.
// ---------------------------------------------------------------------------

std::vector<std::string> SqlCorpus() {
  return {
      "SELECT name FROM singer WHERE age > 20",
      "SELECT count(*) FROM concert WHERE year = 2014",
      "SELECT T1.name FROM singer AS T1 JOIN concert AS T2 ON T1.id = "
      "T2.singer_id",
      "SELECT avg(age), min(age), max(age) FROM singer",
      "SELECT name, country FROM singer ORDER BY age DESC",
      "SELECT DISTINCT country FROM singer WHERE age > 20",
      "INSERT INTO stadium VALUES (1, 'Stark Arena', 20000)",
      "SELECT stadium_id, count(*) FROM concert GROUP BY stadium_id",
  };
}

std::vector<std::string> HeldOut() {
  return {
      "SELECT name FROM stadium WHERE capacity > 5000",
      "SELECT count(*) FROM singer",
      "totally out of domain text with unseen tokens xyzzy plugh",
      "",
  };
}

TEST(NgramEquivalenceTest, TrainedModelsScoreIdentically) {
  for (int order : {1, 2, 3, 5}) {
    NgramLm fast(order);
    ReferenceNgramLm ref(order);
    fast.Train(SqlCorpus());
    ref.Train(SqlCorpus());
    EXPECT_EQ(fast.VocabSize(), ref.VocabSize()) << "order " << order;
    EXPECT_EQ(fast.TokensTrained(), ref.TokensTrained()) << "order " << order;
    for (const auto& text : HeldOut()) {
      EXPECT_EQ(fast.AvgLogProb(text), ref.AvgLogProb(text))
          << "order " << order << " text=" << text;
    }
    for (const auto& text : SqlCorpus()) {
      EXPECT_EQ(fast.AvgLogProb(text), ref.AvgLogProb(text))
          << "order " << order << " text=" << text;
    }
    EXPECT_EQ(fast.Perplexity(HeldOut()), ref.Perplexity(HeldOut()))
        << "order " << order;
  }
}

TEST(NgramEquivalenceTest, ContinuedPretrainingMatches) {
  // Incremental pre-training (the Section 5 mechanism) accumulates counts
  // across Train calls and epochs; both implementations must drift the
  // same way, bit for bit.
  const std::vector<std::string> extra = {
      "SELECT product FROM sales WHERE region = 'north'",
      "SELECT region, sum(amount) FROM sales GROUP BY region",
  };
  NgramLm fast(3);
  ReferenceNgramLm ref(3);
  fast.Train(SqlCorpus());
  ref.Train(SqlCorpus());
  fast.Train(extra, /*epochs=*/3);
  ref.Train(extra, /*epochs=*/3);
  EXPECT_EQ(fast.VocabSize(), ref.VocabSize());
  EXPECT_EQ(fast.TokensTrained(), ref.TokensTrained());
  for (const auto& text : HeldOut()) {
    EXPECT_EQ(fast.AvgLogProb(text), ref.AvgLogProb(text)) << text;
  }
  EXPECT_EQ(fast.Perplexity(SqlCorpus()), ref.Perplexity(SqlCorpus()));
}

TEST(NgramEquivalenceTest, EightThreadsMatchSerial) {
  NgramLm lm(3);
  lm.Train(SqlCorpus());
  std::vector<std::string> texts = SqlCorpus();
  for (const auto& t : HeldOut()) texts.push_back(t);
  std::vector<double> serial;
  serial.reserve(texts.size());
  for (const auto& t : texts) serial.push_back(lm.AvgLogProb(t));

  std::vector<std::thread> threads;
  std::vector<int> failures(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      // Scoring is lookup-only (unseen tokens are never interned), so
      // concurrent AvgLogProb must be race-free and exact.
      for (size_t i = 0; i < texts.size(); ++i) {
        if (lm.AvgLogProb(texts[i]) != serial[i]) ++failures[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
}

// ---------------------------------------------------------------------------
// TokenCoverage against a prebuilt stem set vs the set-per-call original.
// ---------------------------------------------------------------------------

double ReferenceTokenCoverage(const std::vector<std::string>& needle,
                              const std::vector<std::string>& haystack) {
  if (needle.empty()) return 0.0;
  std::unordered_set<std::string> hs;
  for (const auto& t : haystack) hs.insert(StemToken(t));
  int hits = 0;
  for (const auto& t : needle) {
    if (hs.count(StemToken(t))) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(needle.size());
}

TEST(TokenCoverageEquivalenceTest, RandomTokenListsMatchReference) {
  // Inflected forms that stem together, stop words and the empty token.
  const std::vector<std::string> vocab = {
      "singer", "singers", "name", "names", "age", "the", "of", "city",
      "cities", "running", "runs", "run", "", "a", "npgr", "rate", "rates"};
  std::mt19937 rng(1801);
  std::uniform_int_distribution<size_t> len_dist(0, 9);
  std::uniform_int_distribution<size_t> word_dist(0, vocab.size() - 1);
  auto random_list = [&]() {
    std::vector<std::string> out(len_dist(rng));
    for (auto& w : out) w = vocab[word_dist(rng)];
    return out;
  };
  for (int i = 0; i < 2000; ++i) {
    const auto needle = random_list();
    const auto haystack = random_list();
    EXPECT_EQ(TokenCoverage(needle, StemSet(haystack)),
              ReferenceTokenCoverage(needle, haystack));
  }
}

// ---------------------------------------------------------------------------
// Cosine with cached squared norms vs the norm-per-call original.
// ---------------------------------------------------------------------------

// Template scoring's dense kernel before the sparse anchor pool: the dot
// product over every index, with both squared norms supplied.
double ReferenceCosineSimilarityWithNorms(const std::vector<float>& a,
                                          const std::vector<float>& b,
                                          double na, double nb) {
  double dot = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
  }
  if (na == 0 || nb == 0) return 0.0;
  return dot / std::sqrt(na * nb);
}

TEST(CosineEquivalenceTest, CachedNormsMatchCosineSimilarity) {
  std::mt19937 rng(1802);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<std::vector<float>> vectors;
  for (size_t dim : {1u, 7u, 64u, 192u, 256u}) {
    for (int i = 0; i < 40; ++i) {
      std::vector<float> v(dim);
      for (auto& x : v) x = dist(rng);
      vectors.push_back(std::move(v));
    }
    vectors.emplace_back(dim, 0.0f);  // zero vector
    std::vector<float> sparse(dim, 0.0f);
    sparse[dim / 2] = 1e-20f;  // squares underflow in float, not in double
    vectors.push_back(std::move(sparse));
  }
  SentenceEncoder encoder(192);
  for (const char* text : {"how many singers are there", "_ of _ whose _ is",
                           "", "show the name of every city"}) {
    vectors.push_back(encoder.Encode(text));
  }
  for (const auto& a : vectors) {
    for (const auto& b : vectors) {
      if (a.size() != b.size()) continue;
      EXPECT_EQ(ReferenceCosineSimilarityWithNorms(a, b, SquaredNorm(a),
                                                   SquaredNorm(b)),
                CosineSimilarity(a, b));
    }
  }
}

// ---------------------------------------------------------------------------
// Sparse anchor rows against a dense query vs the dense dot product.
// Embeddings are always finite, so NaN and Inf are out of scope: 0 * Inf
// is NaN in the dense sum and simply absent from the sparse one.
// ---------------------------------------------------------------------------

uint64_t DoubleBits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// Vectors of width `dim` that stress the ±0 argument: random rows with 0 to
// 40 nonzeros, fully dense rows, buckets that cancel to exactly 0, -0.0f
// and 1e-20f entries, the zero vector, real encoder outputs and averaged
// FineTune-style centroids.
std::vector<std::vector<float>> SparseCosineCases(size_t dim,
                                                  std::mt19937& rng) {
  std::normal_distribution<float> value(0.0f, 0.3f);
  std::uniform_int_distribution<size_t> bucket(0, dim - 1);
  std::vector<std::vector<float>> cases;
  for (size_t nnz = 0; nnz <= 40; nnz += 2) {
    std::vector<float> v(dim, 0.0f);
    for (size_t k = 0; k < nnz; ++k) v[bucket(rng)] = value(rng);
    cases.push_back(std::move(v));
  }
  for (int i = 0; i < 4; ++i) {
    std::vector<float> v(dim);
    for (auto& x : v) x = value(rng);
    cases.push_back(std::move(v));
  }
  {
    // Feature hashing adds +w and -w into one bucket: exactly +0.0f.
    std::vector<float> v(dim, 0.0f);
    for (size_t k = 0; k < 12; ++k) {
      const size_t b = bucket(rng);
      const float w = value(rng);
      v[b] += w;
      v[b] += -w;
      v[bucket(rng)] += value(rng);
    }
    cases.push_back(std::move(v));
  }
  {
    std::vector<float> v(dim, -0.0f);
    for (size_t k = 0; k < 10; ++k) v[bucket(rng)] = value(rng);
    cases.push_back(std::move(v));
  }
  {
    std::vector<float> v(dim, 0.0f);
    for (size_t k = 0; k < 6; ++k) v[bucket(rng)] = 1e-20f;
    v[bucket(rng)] = -1e-20f;
    cases.push_back(std::move(v));
    std::vector<float> mixed(dim, 0.0f);
    for (size_t k = 0; k < 6; ++k) mixed[bucket(rng)] = 1e-20f;
    for (size_t k = 0; k < 6; ++k) mixed[bucket(rng)] = value(rng);
    cases.push_back(std::move(mixed));
  }
  cases.emplace_back(dim, 0.0f);
  cases.emplace_back(dim, -0.0f);

  SentenceEncoder encoder(static_cast<int>(dim));
  const std::vector<std::string> texts = {
      "how many singers are there", "_ of _ whose _ is", "",
      "show the name of every city", "what is the average _ of _",
      "list _ ordered by _ in descending order",
      "which _ has the most _ ?", "count the _ with _ greater than 5"};
  for (const auto& text : texts) cases.push_back(encoder.Encode(text));
  // Centroids: float(double sum / count), as FineTune averages exemplars.
  for (size_t count : {2u, 3u, 8u}) {
    std::vector<double> sum(dim, 0.0);
    for (size_t k = 0; k < count; ++k) {
      const auto e = encoder.Encode(texts[(k * 3 + count) % texts.size()]);
      for (size_t d = 0; d < dim; ++d) sum[d] += e[d];
    }
    std::vector<float> centroid(dim);
    for (size_t d = 0; d < dim; ++d) {
      centroid[d] = static_cast<float>(sum[d] / static_cast<double>(count));
    }
    cases.push_back(std::move(centroid));
  }
  return cases;
}

TEST(SparseCosineEquivalenceTest, SparseRowsMatchDenseReference) {
  std::mt19937 rng(1804);
  for (size_t dim : {64u, 128u, 256u, 384u}) {
    const auto cases = SparseCosineCases(dim, rng);
    for (const auto& anchor : cases) {
      std::vector<uint32_t> index;
      std::vector<float> value;
      const double anchor_norm = AppendNonzeros(anchor, &index, &value);
      ASSERT_EQ(DoubleBits(anchor_norm), DoubleBits(SquaredNorm(anchor)));
      for (size_t k = 0; k < index.size(); ++k) {
        ASSERT_NE(value[k], 0.0f);
        if (k > 0) {
          ASSERT_LT(index[k - 1], index[k]);
        }
      }
      const SparseRow row{index.data(), value.data(), index.size(),
                          anchor_norm};
      for (const auto& query : cases) {
        const double query_norm = SquaredNorm(query);
        const double sparse = SparseDenseCosine(row, query, query_norm);
        EXPECT_EQ(DoubleBits(sparse),
                  DoubleBits(ReferenceCosineSimilarityWithNorms(
                      query, anchor, query_norm, SquaredNorm(anchor))))
            << "dim " << dim << " nnz " << index.size();
        EXPECT_EQ(DoubleBits(sparse),
                  DoubleBits(CosineSimilarity(query, anchor)));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SentenceEncoder's streamed bigram hash vs the string-per-bigram original.
// ---------------------------------------------------------------------------

// The encoder before bigrams were hashed as a stream: identical IDF, and a
// std::string built for every bigram.
class ReferenceSentenceEncoder {
 public:
  explicit ReferenceSentenceEncoder(int dim) : dim_(dim) {}

  void FitIdf(const std::vector<std::string>& corpus) {
    corpus_size_ = corpus.size();
    doc_freq_.clear();
    for (const auto& doc : corpus) {
      std::unordered_set<std::string> seen;
      for (auto& token : WordTokens(doc)) seen.insert(StemToken(token));
      for (const auto& token : seen) doc_freq_[token] += 1;
    }
  }

  std::vector<float> Encode(std::string_view text) const {
    std::vector<float> vec(static_cast<size_t>(dim_), 0.0f);
    std::vector<std::string> tokens = WordTokens(text);
    std::vector<std::string> stems;
    stems.reserve(tokens.size());
    for (const auto& t : tokens) stems.push_back(StemToken(t));
    auto add_feature = [this, &vec](std::string_view feature, double weight) {
      uint64_t h = Fnv1a64(feature);
      size_t bucket = static_cast<size_t>(h % static_cast<uint64_t>(dim_));
      double sign = ((h >> 63) & 1) ? -1.0 : 1.0;
      vec[bucket] += static_cast<float>(sign * weight);
    };
    for (const auto& stem : stems) {
      if (stem == "_") continue;
      double weight = IdfOf(stem);
      if (IsStopWord(stem)) weight *= 0.25;
      add_feature(stem, weight);
    }
    for (size_t i = 0; i + 1 < stems.size(); ++i) {
      add_feature(stems[i] + "__" + stems[i + 1], 0.5);
    }
    double norm = 0;
    for (float v : vec) norm += static_cast<double>(v) * v;
    if (norm > 0) {
      double inv = 1.0 / std::sqrt(norm);
      for (float& v : vec) v = static_cast<float>(v * inv);
    }
    return vec;
  }

 private:
  double IdfOf(const std::string& token) const {
    if (corpus_size_ == 0) return 1.0;
    auto it = doc_freq_.find(token);
    double df = (it == doc_freq_.end()) ? 0.0 : static_cast<double>(it->second);
    return std::log((static_cast<double>(corpus_size_) + 1.0) / (df + 1.0)) +
           1.0;
  }

  int dim_;
  size_t corpus_size_ = 0;
  std::unordered_map<std::string, int> doc_freq_;
};

void ExpectEncoderMatchesReference(const Text2SqlBenchmark& bench) {
  std::vector<std::string> questions;
  for (const auto* split : {&bench.train, &bench.dev}) {
    for (const auto& s : *split) questions.push_back(s.question);
  }
  for (int dim : {64, 128, 256, 384}) {
    SentenceEncoder encoder(dim);
    ReferenceSentenceEncoder reference(dim);
    for (bool fitted : {false, true}) {
      if (fitted) {
        encoder.FitIdf(questions);
        reference.FitIdf(questions);
      }
      for (const auto& q : questions) {
        ASSERT_EQ(encoder.Encode(q), reference.Encode(q))
            << bench.name << " dim " << dim << " idf " << fitted << ": " << q;
      }
    }
  }
}

TEST(EncoderEquivalenceTest, SpiderLikeQuestionsMatchReference) {
  ExpectEncoderMatchesReference(BuildSpiderLike());
}

TEST(EncoderEquivalenceTest, BirdLikeQuestionsMatchReference) {
  ExpectEncoderMatchesReference(BuildBirdLike());
}

// ---------------------------------------------------------------------------
// ColumnProfile vs the per-call slot-type scans it replaced.
// ---------------------------------------------------------------------------

bool ReferenceIsForeignKeyColumn(const sql::DatabaseSchema& schema, int t,
                                 int c) {
  const std::string& table = schema.tables[t].name;
  const std::string& column = schema.tables[t].columns[c].name;
  for (const auto& fk : schema.foreign_keys) {
    if (ToLower(fk.table) == ToLower(table) &&
        ToLower(fk.column) == ToLower(column)) {
      return true;
    }
  }
  return false;
}

bool ReferenceIsIdLike(const sql::DatabaseSchema& schema, int t, int c) {
  const auto& col = schema.tables[t].columns[c];
  if (col.is_primary_key) return true;
  if (EndsWith(ToLower(col.name), "_id")) return true;
  return ReferenceIsForeignKeyColumn(schema, t, c);
}

std::vector<int> ReferenceTextColumns(const sql::Database& db, int t) {
  std::vector<int> out;
  const auto& table = db.schema().tables[t];
  for (size_t c = 0; c < table.columns.size(); ++c) {
    if (table.columns[c].type == sql::DataType::kText &&
        !ReferenceIsIdLike(db.schema(), t, static_cast<int>(c))) {
      out.push_back(static_cast<int>(c));
    }
  }
  return out;
}

std::vector<int> ReferenceNumericColumns(const sql::Database& db, int t) {
  std::vector<int> out;
  const auto& table = db.schema().tables[t];
  for (size_t c = 0; c < table.columns.size(); ++c) {
    sql::DataType type = table.columns[c].type;
    if ((type == sql::DataType::kInteger || type == sql::DataType::kReal) &&
        !ReferenceIsIdLike(db.schema(), t, static_cast<int>(c))) {
      out.push_back(static_cast<int>(c));
    }
  }
  return out;
}

std::vector<int> ReferenceCategoryColumns(const sql::Database& db, int t) {
  std::vector<int> out;
  const auto& rows = db.TableAt(t).rows;
  if (rows.empty()) return out;
  for (int c : ReferenceTextColumns(db, t)) {
    std::vector<std::string> seen;
    int non_null = 0;
    for (const auto& row : rows) {
      if (row[c].is_null()) continue;
      ++non_null;
      const std::string& s = row[c].AsText();
      if (std::find(seen.begin(), seen.end(), s) == seen.end()) {
        seen.push_back(s);
      }
    }
    if (non_null >= 4 && seen.size() * 2 <= static_cast<size_t>(non_null)) {
      out.push_back(c);
    }
  }
  return out;
}

std::vector<int> ReferenceDateColumns(const sql::Database& db, int t) {
  std::vector<int> out;
  const auto& rows = db.TableAt(t).rows;
  for (int c : ReferenceTextColumns(db, t)) {
    for (const auto& row : rows) {
      if (row[c].is_null()) continue;
      const std::string& s = row[c].AsText();
      bool is_date = s.size() == 10 && s[4] == '-' && s[7] == '-';
      if (is_date) out.push_back(c);
      break;  // judge by first non-null value
    }
  }
  return out;
}

std::vector<JoinEdge> ReferenceJoinEdges(const sql::Database& db) {
  std::vector<JoinEdge> out;
  const auto& schema = db.schema();
  for (const auto& fk : schema.foreign_keys) {
    auto ct = schema.FindTable(fk.table);
    auto pt = schema.FindTable(fk.ref_table);
    if (!ct || !pt) continue;
    auto cc = schema.tables[*ct].FindColumn(fk.column);
    auto pc = schema.tables[*pt].FindColumn(fk.ref_column);
    if (!cc || !pc) continue;
    out.push_back(JoinEdge{*ct, *cc, *pt, *pc});
  }
  return out;
}

// The key test of the generator's link re-rank: a primary key, or either
// side of an FK.
bool ReferenceIsKey(const sql::Database& db, int t, int c) {
  const auto& table = db.schema().tables[t];
  const auto& col = table.columns[c];
  bool is_key = col.is_primary_key;
  for (const auto& fk : db.schema().foreign_keys) {
    if ((ToLower(fk.table) == ToLower(table.name) &&
         ToLower(fk.column) == ToLower(col.name)) ||
        (ToLower(fk.ref_table) == ToLower(table.name) &&
         ToLower(fk.ref_column) == ToLower(col.name))) {
      is_key = true;
    }
  }
  return is_key;
}

void ExpectProfileMatchesReference(const sql::Database& db,
                                   const std::string& label) {
  SCOPED_TRACE(label + " / " + db.schema().name);
  const ColumnProfile profile(db);
  const int tables = static_cast<int>(db.schema().tables.size());
  ASSERT_EQ(profile.table_count(), tables);
  int slots = 0;
  for (int t = 0; t < tables; ++t) {
    EXPECT_EQ(profile.text(t), ReferenceTextColumns(db, t)) << "table " << t;
    EXPECT_EQ(profile.numeric(t), ReferenceNumericColumns(db, t))
        << "table " << t;
    EXPECT_EQ(profile.category(t), ReferenceCategoryColumns(db, t))
        << "table " << t;
    EXPECT_EQ(profile.date(t), ReferenceDateColumns(db, t)) << "table " << t;
    const int cols = static_cast<int>(db.schema().tables[t].columns.size());
    for (int c = 0; c < cols; ++c) {
      EXPECT_EQ(profile.Slot(t, c), slots++);
      EXPECT_EQ(profile.is_key(t, c), ReferenceIsKey(db, t, c))
          << "table " << t << " column " << c;
    }
  }
  EXPECT_EQ(profile.column_count(), slots);
  const auto expected = ReferenceJoinEdges(db);
  ASSERT_EQ(profile.join_edges().size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const JoinEdge& a = profile.join_edges()[i];
    const JoinEdge& b = expected[i];
    EXPECT_EQ(a.child_t, b.child_t);
    EXPECT_EQ(a.child_c, b.child_c);
    EXPECT_EQ(a.parent_t, b.parent_t);
    EXPECT_EQ(a.parent_c, b.parent_c);
  }
}

// NULLs most cells (every column of the first table entirely), so columns
// drop under the 4-non-NULL category floor and dates are judged by a later
// row.
sql::Database NullHeavyCopy(const sql::Database& db, uint64_t seed) {
  sql::Database copy = db;
  std::mt19937 rng(static_cast<uint32_t>(seed));
  std::bernoulli_distribution null_cell(0.7);
  for (size_t t = 0; t < copy.schema().tables.size(); ++t) {
    for (auto& row : copy.MutableTableAt(static_cast<int>(t)).rows) {
      for (auto& cell : row) {
        if (t == 0 || null_cell(rng)) cell = sql::Value::Null();
      }
    }
  }
  return copy;
}

// Dirty text: case and whitespace mangling (new distinct values), copies of
// other rows' values (fewer distinct values), date-shaped and
// almost-date-shaped strings, an emptied table, mixed-case and dangling FK
// names, and an "_ID"-suffixed column.
sql::Database DirtyCopy(const sql::Database& db, uint64_t seed) {
  sql::Database copy = db;
  std::mt19937 rng(static_cast<uint32_t>(seed));
  std::uniform_int_distribution<int> action(0, 5);
  auto& schema = copy.mutable_schema();
  for (size_t t = 0; t < schema.tables.size(); ++t) {
    auto& rows = copy.MutableTableAt(static_cast<int>(t)).rows;
    const auto& columns = schema.tables[t].columns;
    for (size_t c = 0; c < columns.size(); ++c) {
      if (columns[c].type != sql::DataType::kText) continue;
      for (size_t r = 0; r < rows.size(); ++r) {
        sql::Value& cell = rows[r][c];
        switch (action(rng)) {
          case 0:
            if (cell.is_text()) cell = sql::Value(" " + ToUpper(cell.AsText()));
            break;
          case 1:
            if (r > 0) cell = rows[r - 1][c];
            break;
          case 2:
            cell = sql::Value(r % 2 ? "2021-03-04" : "2021/03/04");
            break;
          case 3:
            cell = sql::Value::Null();
            break;
          default:
            break;
        }
      }
    }
  }
  if (schema.tables.size() > 1) copy.MutableTableAt(1).rows.clear();
  for (size_t i = 0; i < schema.foreign_keys.size(); ++i) {
    auto& fk = schema.foreign_keys[i];
    fk.table = i % 2 ? ToUpper(fk.table) : fk.table;
    fk.column = ToUpper(fk.column);
    fk.ref_table = i % 2 ? fk.ref_table : ToUpper(fk.ref_table);
  }
  if (!schema.tables.empty()) {
    sql::ForeignKey dangling;
    dangling.table = schema.tables[0].name;
    dangling.column = "no_such_column";
    dangling.ref_table = "no_such_table";
    dangling.ref_column = "id";
    schema.foreign_keys.push_back(dangling);
    auto& first = schema.tables[0].columns;
    if (first.size() > 1) first[1].name = "Owner_ID";
  }
  return copy;
}

// Walks the category boundaries: text column c of a table keeps only
// (c + t) % 7 non-NULL cells, cycling over 1-3 distinct (sometimes
// date-shaped) values, so the "at least 4 non-NULL" and "at most half
// distinct" thresholds are each hit from both sides. Also adds an FK whose
// both ends are ordinary, non-key columns.
sql::Database SparseCopy(const sql::Database& db) {
  sql::Database copy = db;
  auto& schema = copy.mutable_schema();
  for (size_t t = 0; t < schema.tables.size(); ++t) {
    auto& rows = copy.MutableTableAt(static_cast<int>(t)).rows;
    const auto& columns = schema.tables[t].columns;
    for (size_t c = 0; c < columns.size(); ++c) {
      const size_t keep = (c + t) % 7;
      const size_t distinct = (c + t) % 3 + 1;
      for (size_t r = 0; r < rows.size(); ++r) {
        if (r >= keep) {
          rows[r][c] = sql::Value::Null();
        } else if (columns[c].type == sql::DataType::kText) {
          const std::string v = std::to_string(r % distinct);
          rows[r][c] = sql::Value((c % 2 ? "2020-01-0" : "v") + v);
        }
      }
    }
  }
  if (schema.tables.size() > 1) {
    sql::ForeignKey fk;
    fk.table = ToUpper(schema.tables[1].name);
    fk.column = schema.tables[1].columns.back().name;
    fk.ref_table = schema.tables[0].name;
    fk.ref_column = ToUpper(schema.tables[0].columns.back().name);
    schema.foreign_keys.push_back(fk);
  }
  return copy;
}

void ExpectBenchmarkProfilesMatch(const Text2SqlBenchmark& bench) {
  for (size_t d = 0; d < bench.databases.size(); ++d) {
    const sql::Database& db = bench.databases[d];
    ExpectProfileMatchesReference(db, bench.name);
    ExpectProfileMatchesReference(NullHeavyCopy(db, d), bench.name + "+null");
    ExpectProfileMatchesReference(DirtyCopy(db, d), bench.name + "+dirty");
    ExpectProfileMatchesReference(SparseCopy(db), bench.name + "+sparse");
  }
}

TEST(ColumnProfileEquivalenceTest, TinySpiderLikeMatchesReference) {
  ExpectBenchmarkProfilesMatch(BuildTinySpiderLike());
}

TEST(ColumnProfileEquivalenceTest, SpiderLikeMatchesReference) {
  ExpectBenchmarkProfilesMatch(BuildSpiderLike());
}

TEST(ColumnProfileEquivalenceTest, BirdLikeMatchesReference) {
  ExpectBenchmarkProfilesMatch(BuildBirdLike());
}

TEST(ColumnProfileEquivalenceTest, ThreeHundredRowSpiderProfileMatches) {
  DbProfile profile = DbProfile::Spider();
  profile.min_rows = 300;
  profile.max_rows = 300;
  Rng rng(1803);
  for (const auto& domain : AllDomains()) {
    Rng db_rng = rng.Fork();
    const sql::Database db = GenerateDatabase(domain, profile, db_rng);
    ExpectProfileMatchesReference(db, "rows300");
    ExpectProfileMatchesReference(DirtyCopy(db, 7), "rows300+dirty");
  }
}

// ---------------------------------------------------------------------------
// One-pass schema scoring vs item-at-a-time scoring.
// ---------------------------------------------------------------------------

void ExpectScoreSchemaMatches(const SchemaItemClassifier& classifier,
                              const Text2SqlBenchmark& bench) {
  for (size_t i = 0; i < bench.dev.size(); i += 3) {
    const Text2SqlSample& sample = bench.dev[i];
    const sql::Database& db = bench.DbOf(sample);
    std::string question = sample.question;
    if (!sample.external_knowledge.empty()) {
      question += " ; " + sample.external_knowledge;
    }
    const SchemaScores scores = classifier.ScoreSchema(question, db);
    const auto& tables = db.schema().tables;
    ASSERT_EQ(scores.tables.size(), tables.size());
    ASSERT_EQ(scores.columns.size(), tables.size());
    for (size_t t = 0; t < tables.size(); ++t) {
      const int ti = static_cast<int>(t);
      EXPECT_EQ(scores.tables[t], classifier.ScoreTable(question, db, ti));
      ASSERT_EQ(scores.columns[t].size(), tables[t].columns.size());
      for (size_t c = 0; c < tables[t].columns.size(); ++c) {
        EXPECT_EQ(scores.columns[t][c],
                  classifier.ScoreColumn(question, db, ti,
                                         static_cast<int>(c)));
      }
    }
  }
}

TEST(ScoreSchemaEquivalenceTest, MatchesItemAtATimeScoring) {
  const Text2SqlBenchmark spider = BuildTinySpiderLike();
  BenchmarkConfig config;
  config.name = "tiny_bird_like";
  config.profile = DbProfile::Bird();
  config.train_domains = 3;
  config.dev_domains = 2;
  config.train_samples_per_db = 20;
  config.dev_samples_per_db = 12;
  config.with_external_knowledge = true;
  config.seed = 1804;
  const Text2SqlBenchmark bird = BuildBenchmark(config);

  SchemaItemClassifier prior;  // untrained: prior weights
  ExpectScoreSchemaMatches(prior, spider);
  SchemaItemClassifier trained;
  trained.Train(bird, SchemaItemClassifier::TrainOptions{});
  ExpectScoreSchemaMatches(trained, bird);
  ExpectScoreSchemaMatches(trained, spider);
}

// ---------------------------------------------------------------------------
// SQL executor: every result, error and guard charge of a fixed query set,
// over both backends, pinned by a digest recorded before the executor
// stopped copying source rows.
// ---------------------------------------------------------------------------

/// One query of the pinned set: SQL text and the database it runs on.
struct ExecCase {
  size_t db = 0;
  std::string sql;
};

/// The databases a query set runs on, each with its disk-backed twin (the
/// cursor seed path).
struct ExecFixture {
  std::vector<sql::Database> dbs;
  std::vector<std::unique_ptr<storage::StorageDb>> twins;
  std::vector<ExecCase> cases;

  void AddTwins() {
    for (const sql::Database& db : dbs) {
      auto twin = storage::StorageDb::CreateInMemoryFrom(db);
      ASSERT_TRUE(twin.ok()) << twin.status().ToString();
      twins.push_back(std::move(*twin));
    }
  }
};

class Fnv64 {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

/// Hashes one guarded execution: status code and message, column names,
/// every cell (kind plus exact bits or bytes), and the rows and bytes the
/// guard was charged. Returns the guard's row count.
size_t HashExecution(const sql::ExecSource& source, const std::string& sql,
                   const ExecLimits& limits, Fnv64* h) {
  ExecGuard guard(limits);
  Result<sql::ResultTable> result = sql::ExecuteSql(source, sql, &guard);
  h->U64(static_cast<uint64_t>(result.status().code()));
  h->Str(result.status().message());
  if (result.ok()) {
    h->U64(result->column_names.size());
    for (const std::string& name : result->column_names) h->Str(name);
    h->U64(result->rows.size());
    for (const sql::Row& row : result->rows) {
      h->U64(row.size());
      for (const sql::Value& v : row) {
        if (v.is_null()) {
          h->U64(0);
        } else if (v.is_integer()) {
          h->U64(1);
          h->U64(static_cast<uint64_t>(v.AsInteger()));
        } else if (v.is_real()) {
          h->U64(2);
          double d = v.AsReal();
          uint64_t bits;
          std::memcpy(&bits, &d, sizeof(bits));
          h->U64(bits);
        } else {
          h->U64(3);
          h->Str(v.AsText());
        }
      }
    }
  }
  h->U64(guard.rows_charged());
  h->U64(guard.bytes_charged());
  return guard.rows_charged();
}

/// Digest of every case on both backends under two guards: one that
/// tracks bytes and never trips, and one whose row budget is three
/// quarters of the rows the first run charged, so it trips part-way
/// through whichever phase (scan, join, projection) charges those rows.
/// Cases are hashed into per-case slots, so the digest is the same for
/// any thread count. `*tripped` counts the cases the row budget stopped.
uint64_t ExecDigest(const ExecFixture& fx, int threads, size_t* tripped) {
  ExecLimits bytes_only;
  bytes_only.max_bytes = size_t{1} << 40;
  std::vector<uint64_t> slots(fx.cases.size());
  std::vector<char> trips(fx.cases.size(), 0);
  auto run = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const ExecCase& c = fx.cases[i];
      Fnv64 h;
      for (const sql::ExecSource* source :
           {static_cast<const sql::ExecSource*>(&fx.dbs[c.db]),
            static_cast<const sql::ExecSource*>(fx.twins[c.db].get())}) {
        const size_t rows = HashExecution(*source, c.sql, bytes_only, &h);
        if (rows < 2) continue;
        ExecLimits tight_rows = bytes_only;
        tight_rows.max_rows = rows - rows / 4;
        if (HashExecution(*source, c.sql, tight_rows, &h) >
            tight_rows.max_rows) {
          trips[i] = 1;
        }
      }
      slots[i] = h.value();
    }
  };
  if (threads <= 1) {
    run(0, slots.size());
  } else {
    ThreadPool pool(threads);
    pool.ParallelFor(slots.size(), run);
  }
  *tripped = static_cast<size_t>(std::count(trips.begin(), trips.end(), 1));
  Fnv64 total;
  for (uint64_t s : slots) total.U64(s);
  return total.value();
}

void ExpectExecDigestAtOneAndEightThreads(const ExecFixture& fx,
                                          uint64_t golden) {
  size_t tripped = 0;
  const uint64_t serial = ExecDigest(fx, 1, &tripped);
  EXPECT_EQ(serial, golden) << "digest 0x" << std::hex << serial;
  EXPECT_GT(tripped, 0u);
  size_t tripped_threaded = 0;
  EXPECT_EQ(ExecDigest(fx, 8, &tripped_threaded), serial);
  EXPECT_EQ(tripped_threaded, tripped);
}

void ExpectGoldSqlDigest(const Text2SqlBenchmark& bench, uint64_t golden) {
  SCOPED_TRACE(bench.name);
  ExecFixture fx;
  fx.dbs = bench.databases;
  fx.AddTwins();
  for (const auto* split : {&bench.train, &bench.dev}) {
    for (const Text2SqlSample& sample : *split) {
      fx.cases.push_back({static_cast<size_t>(sample.db_index), sample.sql});
    }
  }
  ASSERT_FALSE(fx.cases.empty());
  ExpectExecDigestAtOneAndEightThreads(fx, golden);
}

TEST(ExecutorEquivalenceTest, PresetGoldSqlMatchesPinnedDigest) {
  ExpectGoldSqlDigest(BuildTinySpiderLike(), 0x2c03117e9d0b8d03ULL);
  ExpectGoldSqlDigest(BuildSpiderLike(), 0xc51b8d318c77c565ULL);
  ExpectGoldSqlDigest(BuildBirdLike(), 0x1f5608d524637ea7ULL);
}

TEST(ExecutorEquivalenceTest, FuzzStreamAndEngineBugCorpusMatchPinnedDigest) {
  constexpr uint64_t kGolden = 0x378a578eb62585e3ULL;
  constexpr int kDatabases = 8;
  constexpr uint64_t kBaseSeed = 30030;
  constexpr size_t kQueries = 600;
  ExecFixture fx;
  fx.dbs = fuzz::BuildFuzzDatabases(kDatabases);
  fx.AddTwins();
  std::vector<fuzz::QueryGenerator> gens;
  for (const sql::Database& db : fx.dbs) gens.emplace_back(db);
  for (size_t i = 0; i < kQueries; ++i) {
    Rng rng(kBaseSeed + i);
    size_t db = rng.Index(fx.dbs.size());
    fx.cases.push_back({db, gens[db].Generate(rng)->ToSql()});
  }
  auto corpus = fuzz::LoadCorpusFile(std::string(CODES_FUZZ_CORPUS_DIR) +
                                     "/engine_bugs.corpus");
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  ASSERT_FALSE(corpus->empty());
  for (const fuzz::CorpusEntry& entry : *corpus) {
    ASSERT_LT(entry.db_index, kDatabases) << "line " << entry.line;
    fx.cases.push_back({static_cast<size_t>(entry.db_index), entry.sql});
  }
  ExpectExecDigestAtOneAndEightThreads(fx, kGolden);
}


// ---------------------------------------------------------------------------
// Schema items as (table, column) indices: the samples every dataset builder
// and perturbation produces, the classifier AUC over their labels, and the
// precondition the index form rests on (every schema name looks up to its
// own index), pinned against digests recorded while items carried names.
// ---------------------------------------------------------------------------

/// `table` or `table.column`, spelled as the sample's database spells it.
std::string RenderUsedItem(const sql::Database& db,
                           const UsedSchemaItem& item) {
  const sql::TableDef& table = db.schema().tables[item.table];
  if (item.column < 0) return table.name;
  return table.name + "." + table.columns[item.column].name;
}

void HashSamples(const Text2SqlBenchmark& bench, Fnv64* h) {
  h->Str(bench.name);
  for (const auto* split : {&bench.train, &bench.dev}) {
    h->U64(split->size());
    for (const Text2SqlSample& s : *split) {
      h->U64(static_cast<uint64_t>(s.db_index));
      h->Str(s.question);
      h->Str(s.sql);
      h->U64(static_cast<uint64_t>(s.template_id));
      h->Str(s.external_knowledge);
      h->U64(s.used_items.size());
      for (const UsedSchemaItem& item : s.used_items) {
        h->Str(RenderUsedItem(bench.DbOf(s), item));
      }
    }
  }
}

/// Schema names that do not look up to their own index, across every
/// table and column of `bench`'s databases.
size_t NameIndexMismatches(const Text2SqlBenchmark& bench) {
  size_t mismatches = 0;
  for (const sql::Database& db : bench.databases) {
    const sql::DatabaseSchema& schema = db.schema();
    for (size_t t = 0; t < schema.tables.size(); ++t) {
      const sql::TableDef& table = schema.tables[t];
      if (schema.FindTable(table.name) != static_cast<int>(t)) ++mismatches;
      for (size_t c = 0; c < table.columns.size(); ++c) {
        if (table.FindColumn(table.columns[c].name) != static_cast<int>(c)) {
          ++mismatches;
        }
      }
    }
  }
  return mismatches;
}

/// Dev-only builds shaped like the benchmark harness's served databases:
/// every domain once per build, Spider-like, BIRD-like with evidence, and
/// Spider-like tenants at 300 rows per table.
std::vector<BenchmarkConfig> ServedShapedConfigs() {
  DbProfile tenants = DbProfile::Spider();
  tenants.min_rows = 300;
  tenants.max_rows = 300;
  struct Shape {
    DbProfile profile;
    bool evidence;
    int samples_per_db;
    int builds;
  };
  const Shape shapes[] = {{DbProfile::Spider(), false, 20, 2},
                          {DbProfile::Bird(), true, 20, 3},
                          {tenants, false, 30, 2}};
  std::vector<BenchmarkConfig> configs;
  for (uint64_t seed : {301, 302}) {
    for (const Shape& shape : shapes) {
      for (int b = 0; b < shape.builds; ++b) {
        BenchmarkConfig config;
        config.name = "served";
        config.profile = shape.profile;
        config.train_domains = 0;
        config.dev_domains = 20;
        config.dev_samples_per_db = shape.samples_per_db;
        config.with_external_knowledge = shape.evidence;
        config.seed = seed * 1000003ULL + static_cast<uint64_t>(b);
        configs.push_back(config);
      }
    }
  }
  return configs;
}

/// One job per source of samples; each builds its benchmarks and hands
/// every one of them to `visit`. Jobs are independent, so they may run on
/// any thread.
using BenchmarkVisitor = std::function<void(const Text2SqlBenchmark&)>;
std::vector<std::function<void(const BenchmarkVisitor&)>> SchemaItemJobs() {
  std::vector<std::function<void(const BenchmarkVisitor&)>> jobs;
  for (uint64_t seed : {7, 19, 23, 101, 2024}) {
    jobs.push_back([seed](const BenchmarkVisitor& visit) {
      visit(BuildTinySpiderLike(seed));
    });
  }
  jobs.push_back([](const BenchmarkVisitor& visit) {
    const Text2SqlBenchmark spider = BuildSpiderLike();
    visit(spider);
    visit(BuildSpiderSyn(spider, 11));
    visit(BuildSpiderRealistic(spider, 11));
    visit(BuildSpiderDk(spider, 11));
    for (const PerturbedTestSet& set : BuildDrSpiderSuite(spider, 21)) {
      visit(set.bench);
    }
  });
  jobs.push_back(
      [](const BenchmarkVisitor& visit) { visit(BuildBirdLike()); });
  for (const BenchmarkConfig& config : ServedShapedConfigs()) {
    jobs.push_back([config](const BenchmarkVisitor& visit) {
      visit(BuildBenchmark(config));
    });
  }
  return jobs;
}

/// Runs every job on `threads` workers; `per_job(i, bench)` sees each of
/// job i's benchmarks in order.
void RunSchemaItemJobs(
    int threads,
    const std::function<void(size_t, const Text2SqlBenchmark&)>& per_job) {
  const auto jobs = SchemaItemJobs();
  auto run = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      jobs[i]([&](const Text2SqlBenchmark& bench) { per_job(i, bench); });
    }
  };
  if (threads <= 1) {
    run(0, jobs.size());
  } else {
    ThreadPool pool(threads);
    pool.ParallelFor(jobs.size(), run);
  }
}

uint64_t SchemaItemDigest(int threads) {
  std::vector<Fnv64> slots(SchemaItemJobs().size());
  RunSchemaItemJobs(threads, [&](size_t job, const Text2SqlBenchmark& bench) {
    HashSamples(bench, &slots[job]);
  });
  Fnv64 total;
  for (const Fnv64& slot : slots) total.U64(slot.value());
  return total.value();
}

TEST(SchemaItemEquivalenceTest, SamplesMatchPinnedDigestAtOneAndEightThreads) {
  constexpr uint64_t kGolden = 0x187a59f6a8a04f6eULL;
  const uint64_t serial = SchemaItemDigest(1);
  EXPECT_EQ(serial, kGolden) << "digest 0x" << std::hex << serial;
  EXPECT_EQ(SchemaItemDigest(8), serial);
}

TEST(SchemaItemEquivalenceTest, EveryNameLooksUpToItsOwnIndex) {
  std::vector<size_t> mismatches(SchemaItemJobs().size(), 0);
  std::vector<size_t> databases(mismatches.size(), 0);
  RunSchemaItemJobs(8, [&](size_t job, const Text2SqlBenchmark& bench) {
    mismatches[job] += NameIndexMismatches(bench);
    databases[job] += bench.databases.size();
  });
  for (size_t job = 0; job < mismatches.size(); ++job) {
    EXPECT_EQ(mismatches[job], 0u) << "job " << job;
    EXPECT_GT(databases[job], 0u) << "job " << job;
  }
}

TEST(SchemaItemEquivalenceTest, TinyPresetClassifierAucMatchesPinnedBits) {
  const Text2SqlBenchmark bench = BuildTinySpiderLike();
  SchemaItemClassifier classifier;
  classifier.Train(bench, SchemaItemClassifier::TrainOptions());
  for (bool evidence : {false, true}) {
    const auto [table_auc, column_auc] =
        EvaluateClassifierAuc(classifier, bench, evidence);
    EXPECT_EQ(DoubleBits(table_auc), 0x3ff0000000000000ULL) << evidence;
    EXPECT_EQ(DoubleBits(column_auc), 0x3fef9b6ce2a7d898ULL) << evidence;
  }
}

}  // namespace
}  // namespace codes
