#include "corpus/pretrain_corpus.h"

#include "common/rng.h"
#include "common/string_util.h"
#include "dataset/db_generator.h"
#include "dataset/domains.h"
#include "dataset/templates.h"

namespace codes {

namespace {

constexpr const char* kIdentifiers[] = {
    "total",  "index",  "buffer", "result", "count",  "value", "items",
    "record", "cursor", "offset", "length", "weight", "score", "cache"};
constexpr const char* kVerbs[] = {"compute", "update", "fetch", "merge",
                                  "filter",  "reduce", "scan",  "parse"};

std::string RandomIdent(Rng& rng) {
  return kIdentifiers[rng.Index(std::size(kIdentifiers))];
}

/// A pseudo-Python snippet.
std::string PythonDoc(Rng& rng) {
  std::string a = RandomIdent(rng);
  std::string b = RandomIdent(rng);
  std::string fn = std::string(kVerbs[rng.Index(std::size(kVerbs))]) + "_" + a;
  std::string out = "def " + fn + "(" + a + ", " + b + "):\n";
  out += "    if " + a + " > " + std::to_string(rng.UniformInt(0, 99)) + ":\n";
  out += "        return " + a + " + " + b + "\n";
  out += "    return [" + b + " for " + b + " in range(" +
         std::to_string(rng.UniformInt(1, 20)) + ")]\n";
  return out;
}

/// A pseudo-C snippet.
std::string CDoc(Rng& rng) {
  std::string a = RandomIdent(rng);
  std::string b = RandomIdent(rng);
  std::string out = "int " + std::string(kVerbs[rng.Index(std::size(kVerbs))]) +
                    "(int " + a + ", int " + b + ") {\n";
  out += "  int " + a + "_out = " + a + " * " +
         std::to_string(rng.UniformInt(2, 9)) + ";\n";
  out += "  for (int i = 0; i < " + b + "; i++) { " + a + "_out += i; }\n";
  out += "  return " + a + "_out;\n}\n";
  return out;
}

/// A pseudo-Java snippet.
std::string JavaDoc(Rng& rng) {
  std::string a = RandomIdent(rng);
  std::string out = "public class " + ToUpper(a.substr(0, 1)) + a.substr(1) +
                    " {\n";
  out += "  private int " + a + ";\n";
  out += "  public int get" + ToUpper(a.substr(0, 1)) + a.substr(1) +
         "() { return " + a + "; }\n}\n";
  return out;
}

/// Instruction-following dialog sentence (Alpaca/UltraChat stand-in).
std::string DialogDoc(Rng& rng) {
  static constexpr const char* kPrompts[] = {
      "Explain why the sky appears blue during the day.",
      "Summarize the main idea of the passage in one sentence.",
      "Give three tips for writing readable code.",
      "Translate the following sentence into French.",
      "What are the advantages of regular exercise?",
      "Describe the water cycle in simple terms.",
      "How do vaccines help the immune system?",
      "List the steps to bake a loaf of bread.",
  };
  static constexpr const char* kAnswers[] = {
      "Sure. The key points are clarity, consistency, and brevity.",
      "Of course, here is a short explanation that covers the question.",
      "There are three main steps you should follow carefully.",
      "In summary, the process repeats in a continuous cycle.",
  };
  std::string out = "User: ";
  out += kPrompts[rng.Index(std::size(kPrompts))];
  out += "\nAssistant: ";
  out += kAnswers[rng.Index(std::size(kAnswers))];
  return out;
}

/// One SQL query over a random domain database.
class SqlSampler {
 public:
  explicit SqlSampler(uint64_t seed) : rng_(seed) {
    DbProfile profile = DbProfile::Spider();
    profile.min_rows = 20;
    profile.max_rows = 40;
    for (const auto& domain : AllDomains()) {
      Rng db_rng = rng_.Fork();
      dbs_.push_back(GenerateDatabase(domain, profile, db_rng));
    }
    for (const auto& db : dbs_) columns_.emplace_back(db);
  }

  std::string NextSql() {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const size_t d = rng_.Index(dbs_.size());
      auto inst =
          GlobalTemplates().InstantiateRandom(dbs_[d], columns_[d], rng_);
      if (inst.has_value()) return inst->sql_text + ";";
    }
    return "SELECT 1;";
  }

  std::string NextNlSqlPair() {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const size_t d = rng_.Index(dbs_.size());
      auto inst =
          GlobalTemplates().InstantiateRandom(dbs_[d], columns_[d], rng_);
      if (inst.has_value()) {
        return "-- " + inst->question + "\n" + inst->sql_text + ";";
      }
    }
    return "-- count rows\nSELECT COUNT(*) FROM t;";
  }

 private:
  Rng rng_;
  std::vector<sql::Database> dbs_;
  std::vector<ColumnProfile> columns_;  // parallel to dbs_
};

}  // namespace

CorpusSlices BuildPretrainCorpus(int scale, uint64_t seed) {
  CorpusSlices slices;
  Rng rng(seed);
  SqlSampler sql_sampler(rng.Next());

  // 11 : 4.5 : 6 ratio at 2150 docs per unit scale.
  int sql_docs = 1100 * scale;
  int nl_docs = 450 * scale;
  int code_docs = 600 * scale;

  slices.sql_related.reserve(sql_docs);
  for (int i = 0; i < sql_docs; ++i) {
    slices.sql_related.push_back(sql_sampler.NextSql());
  }
  slices.nl_related.reserve(nl_docs);
  for (int i = 0; i < nl_docs; ++i) {
    slices.nl_related.push_back(DialogDoc(rng));
  }
  slices.nl_to_code.reserve(code_docs);
  for (int i = 0; i < code_docs; ++i) {
    // Half NL-SQL pairs (the paper's NL-SQL-458K), half NL-to-Python-ish
    // (CoNaLa / CodeAlpaca stand-ins).
    if (i % 2 == 0) {
      slices.nl_to_code.push_back(sql_sampler.NextNlSqlPair());
    } else {
      slices.nl_to_code.push_back("# " + std::string("helper function") +
                                  "\n" + PythonDoc(rng));
    }
  }
  return slices;
}

std::vector<std::string> BuildBaseCodeCorpus(int num_documents,
                                             uint64_t seed) {
  std::vector<std::string> docs;
  docs.reserve(num_documents);
  Rng rng(seed);
  SqlSampler sql_sampler(rng.Next());
  for (int i = 0; i < num_documents; ++i) {
    // "80+ languages" mixture: SQL is ~8% of the base corpus, matching the
    // bias the paper describes for general code models.
    double roll = rng.UniformDouble();
    if (roll < 0.08) {
      docs.push_back(sql_sampler.NextSql());
    } else if (roll < 0.40) {
      docs.push_back(PythonDoc(rng));
    } else if (roll < 0.70) {
      docs.push_back(CDoc(rng));
    } else if (roll < 0.92) {
      docs.push_back(JavaDoc(rng));
    } else {
      docs.push_back(DialogDoc(rng));
    }
  }
  return docs;
}

std::vector<std::string> BuildSqlEvalSet(int num_queries, uint64_t seed) {
  std::vector<std::string> out;
  out.reserve(num_queries);
  SqlSampler sampler(seed);
  for (int i = 0; i < num_queries; ++i) out.push_back(sampler.NextSql());
  return out;
}

}  // namespace codes
