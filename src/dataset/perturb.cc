#include "dataset/perturb.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "dataset/db_generator.h"
#include "sqlengine/fingerprint.h"
#include "sqlengine/parser.h"
#include "text/tokenize.h"

namespace codes {

namespace {

using sql::Database;
using sql::Expr;
using sql::ExprKind;
using sql::SelectStatement;

// ------------------------------------------------------------- dictionaries

const std::vector<std::pair<std::string, std::string>>& KeywordSynonyms() {
  return KeywordSynonymTable();
}



/// Domain-knowledge paraphrases (Spider-DK style): understanding them
/// requires knowledge beyond lexical overlap with the schema.
const std::vector<std::pair<std::string, std::string>>& KnowledgeParaphrases() {
  static const auto* const kMap =
      new std::vector<std::pair<std::string, std::string>>{
          {"age", "years since birth"},
          {"salary", "annual compensation"},
          {"country", "homeland"},
          {"city", "place of residence"},
          {"attendance", "crowd size"},
          {"price", "amount charged"},
          {"budget", "allocated funds"},
          {"capacity", "maximum load"},
          {"rating", "review score"},
          {"genre", "style of music"},
          {"population", "resident headcount"},
          {"votes", "ballots received"},
          {"goals", "times scored"},
          {"credits", "credit hours"},
          {"premium", "recurring payment"},
          {"nights", "length of stay"},
          {"distance", "length of the route"},
          {"sales", "units sold"},
      };
  return *kMap;
}

std::string ApplyFirstCharLower(std::string s) {
  if (!s.empty()) s[0] = static_cast<char>(std::tolower(s[0]));
  return s;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& SynonymTable() {
  static const auto* const kMap =
      new std::vector<std::pair<std::string, std::string>>{
          {"singer", "vocalist"},   {"concert", "show"},
          {"student", "pupil"},     {"course", "class"},
          {"city", "town"},         {"country", "nation"},
          {"name", "designation"},  {"title", "heading"},
          {"employee", "worker"},   {"department", "division"},
          {"team", "club"},         {"player", "athlete"},
          {"book", "publication"},  {"author", "writer"},
          {"movie", "film"},        {"director", "filmmaker"},
          {"hotel", "lodge"},       {"customer", "client"},
          {"salary", "pay"},        {"price", "cost"},
          {"year", "calendar year"},{"age", "age in years"},
          {"doctor", "physician"},  {"patient", "case subject"},
          {"shop", "store"},        {"product", "item"},
          {"sale", "transaction"},  {"airport", "airfield"},
          {"airline", "carrier"},   {"flight", "trip"},
          {"member", "participant"},{"gym", "fitness studio"},
          {"farm", "homestead"},    {"crop", "harvest plant"},
          {"warehouse", "depot"},   {"shipment", "delivery"},
          {"policy", "coverage plan"}, {"claim", "reimbursement request"},
          {"candidate", "nominee"}, {"district", "precinct"},
          {"artist", "performer"},  {"album", "record"},
          {"track", "song"},        {"museum", "gallery"},
          {"exhibit", "display piece"}, {"restaurant", "eatery"},
          {"dish", "menu item"},    {"professor", "faculty member"},
          {"university", "college"},{"booking", "reservation"},
          {"branch", "office"},     {"loan", "credit line"},
          {"venue", "publication outlet"}, {"paper", "article"},
          {"researcher", "scholar"},{"affiliation", "institution"},
      };
  return *kMap;
}

const std::vector<std::pair<std::string, std::string>>& KeywordSynonymTable() {
  static const auto* const kMap =
      new std::vector<std::pair<std::string, std::string>>{
          {"how many", "count of"},
          {"show", "display"},
          {"list", "give"},
          {"what is", "tell me"},
          {"what are", "tell me"},
          {"average", "mean"},
          {"highest", "largest"},
          {"lowest", "smallest"},
          {"greater than", "more than"},
          {"less than", "under"},
          {"at least", "no fewer than"},
          {"number of", "amount of"},
          {"find", "retrieve"},
          {"return", "fetch"},
      };
  return *kMap;
}

std::string ReplaceWordOutsideQuotes(const std::string& text,
                                     const std::string& word,
                                     const std::string& replacement) {
  std::string lower_text = ToLower(text);
  std::string lower_word = ToLower(word);
  std::string out;
  size_t i = 0;
  bool in_quote = false;
  while (i < text.size()) {
    char c = text[i];
    if (c == '\'') {
      in_quote = !in_quote;
      out += c;
      ++i;
      continue;
    }
    if (!in_quote && lower_text.compare(i, lower_word.size(), lower_word) == 0) {
      bool left_ok = (i == 0) || !IsWordChar(text[i - 1]);
      size_t end = i + lower_word.size();
      bool right_ok = (end >= text.size()) || !IsWordChar(text[end]);
      if (left_ok && right_ok) {
        out += replacement;
        i = end;
        continue;
      }
    }
    out += c;
    ++i;
  }
  return out;
}

std::vector<std::string> ExpandWithSynonyms(
    const std::vector<std::string>& tokens) {
  // Bidirectional word-level map, built once.
  static const auto* const kWordMap = [] {
    auto* map = new std::unordered_map<std::string, std::vector<std::string>>();
    auto link = [map](const std::string& a, const std::string& b) {
      (*map)[a].push_back(b);
    };
    for (const auto& [from, to] : SynonymTable()) {
      for (const auto& w : SplitWhitespace(to)) {
        link(w, from);
        link(from, w);
      }
    }
    return map;
  }();
  std::vector<std::string> out = tokens;
  for (const auto& token : tokens) {
    auto it = kWordMap->find(token);
    if (it == kWordMap->end()) continue;
    for (const auto& alt : it->second) out.push_back(alt);
  }
  return out;
}

std::string VowelStripAbbreviate(const std::string& word) {
  if (word.size() <= 3) return word;
  std::string out;
  out += word[0];
  for (size_t i = 1; i < word.size() && out.size() < 4; ++i) {
    char c = word[i];
    if (c == 'a' || c == 'e' || c == 'i' || c == 'o' || c == 'u') continue;
    out += c;
  }
  if (out.size() < 2) out = word.substr(0, 3);
  return out;
}

const char* QuestionMutationName(QuestionMutation kind) {
  switch (kind) {
    case QuestionMutation::kSynonym:
      return "synonym";
    case QuestionMutation::kTypo:
      return "typo";
    case QuestionMutation::kParaphrase:
      return "paraphrase";
    case QuestionMutation::kValueSwap:
      return "value-swap";
    case QuestionMutation::kSchemaNoise:
      return "schema-noise";
    case QuestionMutation::kNumMutations:
      break;
  }
  return "unknown";
}

namespace {

/// Byte positions of ASCII letters outside single-quoted spans —
/// the only characters the typo mutation is allowed to touch (quoted
/// values carry exact-match semantics).
std::vector<size_t> LetterPositionsOutsideQuotes(const std::string& s) {
  std::vector<size_t> positions;
  bool in_quote = false;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '\'') {
      in_quote = !in_quote;
    } else if (!in_quote && std::isalpha(static_cast<unsigned char>(c))) {
      positions.push_back(i);
    }
  }
  return positions;
}

/// Dictionary-driven mutation: every pair flips a coin; heads replaces
/// forward (from -> to), tails backward — so a question already phrased
/// with the "to" side still mutates.
std::string ApplyDictionaryMutation(
    const std::string& question,
    const std::vector<std::pair<std::string, std::string>>& table,
    double forward_p, Rng* rng) {
  std::string out = question;
  for (const auto& [from, to] : table) {
    if (rng->Bernoulli(forward_p)) {
      out = ReplaceWordOutsideQuotes(out, from, to);
    } else {
      out = ReplaceWordOutsideQuotes(out, to, from);
    }
  }
  return out;
}

}  // namespace

std::string MutateQuestion(const std::string& question, QuestionMutation kind,
                           uint64_t seed) {
  Rng rng(seed);
  switch (kind) {
    case QuestionMutation::kSynonym:
      return ApplyDictionaryMutation(question, SynonymTable(), 0.75, &rng);
    case QuestionMutation::kParaphrase:
      return ApplyDictionaryMutation(question, KeywordSynonymTable(), 0.85,
                                     &rng);
    case QuestionMutation::kTypo: {
      std::string out = question;
      size_t edits = 1 + question.size() / 24;
      for (size_t e = 0; e < edits; ++e) {
        std::vector<size_t> positions = LetterPositionsOutsideQuotes(out);
        if (positions.empty()) break;
        size_t pos = positions[rng.Index(positions.size())];
        switch (rng.UniformInt(0, 2)) {
          case 0:  // swap with the next character when it is also a letter
            if (pos + 1 < out.size() &&
                std::isalpha(static_cast<unsigned char>(out[pos + 1]))) {
              std::swap(out[pos], out[pos + 1]);
            }
            break;
          case 1:  // drop
            out.erase(pos, 1);
            break;
          default:  // double
            out.insert(pos, 1, out[pos]);
            break;
        }
      }
      return out;
    }
    case QuestionMutation::kValueSwap: {
      // Case-flip inside quoted values: the database keeps the original
      // casing, so exact value match breaks while fuzzy match survives.
      std::string out = question;
      bool in_quote = false;
      for (char& c : out) {
        if (c == '\'') {
          in_quote = !in_quote;
        } else if (in_quote &&
                   std::isalpha(static_cast<unsigned char>(c)) &&
                   rng.Bernoulli(0.5)) {
          c = std::isupper(static_cast<unsigned char>(c))
                  ? static_cast<char>(std::tolower(c))
                  : static_cast<char>(std::toupper(c));
        }
      }
      return out;
    }
    case QuestionMutation::kSchemaNoise: {
      // Unicode smuggling: NBSP for spaces, fullwidth homoglyphs for
      // letters, zero-width insertions. Serve-side canonicalization folds
      // every one of these back to the original ASCII.
      static const char* const kZeroWidth[] = {
          "\xE2\x80\x8B",  // ZWSP
          "\xE2\x80\x8C",  // ZWNJ
          "\xE2\x80\x8D",  // ZWJ
          "\xEF\xBB\xBF",  // BOM-as-ZWNBSP
      };
      std::string out;
      out.reserve(question.size() + 8);
      for (char c : question) {
        if (c == ' ' && rng.Bernoulli(0.4)) {
          out += "\xC2\xA0";  // NBSP
        } else if (std::isalpha(static_cast<unsigned char>(c)) &&
                   rng.Bernoulli(0.08)) {
          // Fullwidth form: U+FF01..U+FF5E = ASCII 0x21..0x7E + 0xFEE0.
          uint32_t cp = static_cast<uint32_t>(
                            static_cast<unsigned char>(c)) +
                        0xFEE0;
          out += static_cast<char>(0xE0 | (cp >> 12));
          out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
          out += c;
        }
        if (rng.Bernoulli(0.06)) {
          out += kZeroWidth[rng.Index(4)];
        }
      }
      return out;
    }
    case QuestionMutation::kNumMutations:
      break;
  }
  return question;
}

namespace {

// ----------------------------------------------------- schema rename tools

using RenameFn = std::string (*)(const std::string&);

std::string SynonymRename(const std::string& identifier) {
  auto words = Split(identifier, '_');
  for (auto& w : words) {
    for (const auto& [from, to] : SynonymTable()) {
      if (w == from) {
        w = ReplaceAll(to, " ", "_");
        break;
      }
    }
  }
  return Join(words, "_");
}

std::string AbbrevRename(const std::string& identifier) {
  auto words = Split(identifier, '_');
  for (auto& w : words) {
    if (w == "id") continue;  // keep the id suffix recognizable
    w = VowelStripAbbreviate(w);
  }
  return Join(words, "_");
}

/// Applies `rename` to every table and column name of `db` (keeping
/// uniqueness), producing a renamed database plus the rename maps needed
/// to rewrite gold SQL. Comments are dropped: Dr.Spider's perturbed
/// databases give the model no side-channel help.
struct RenamedDatabase {
  Database db;
  std::unordered_map<std::string, std::string> table_map;  // lower(old)->new
  // lower(old_table) -> (lower(old_col) -> new_col)
  std::unordered_map<std::string, std::unordered_map<std::string, std::string>>
      column_maps;
};

RenamedDatabase RenameSchema(const Database& source, RenameFn rename) {
  RenamedDatabase out;
  sql::DatabaseSchema schema = source.schema();
  std::unordered_set<std::string> used_tables;
  for (auto& table : schema.tables) {
    std::string old_table = ToLower(table.name);
    std::string new_name = rename(table.name);
    while (used_tables.count(ToLower(new_name))) new_name += "x";
    used_tables.insert(ToLower(new_name));
    out.table_map[old_table] = new_name;
    auto& col_map = out.column_maps[old_table];
    std::unordered_set<std::string> used_cols;
    for (auto& col : table.columns) {
      std::string new_col = rename(col.name);
      while (used_cols.count(ToLower(new_col))) new_col += "x";
      used_cols.insert(ToLower(new_col));
      col_map[ToLower(col.name)] = new_col;
      col.name = new_col;
      col.comment.clear();
    }
    table.name = new_name;
    table.comment.clear();
  }
  for (auto& fk : schema.foreign_keys) {
    std::string t = ToLower(fk.table);
    std::string rt = ToLower(fk.ref_table);
    fk.column = out.column_maps[t][ToLower(fk.column)];
    fk.ref_column = out.column_maps[rt][ToLower(fk.ref_column)];
    fk.table = out.table_map[t];
    fk.ref_table = out.table_map[rt];
  }
  Database renamed(std::move(schema));
  for (size_t t = 0; t < source.schema().tables.size(); ++t) {
    for (const auto& row : source.TableAt(static_cast<int>(t)).rows) {
      CODES_CHECK(renamed
                      .Insert(renamed.schema().tables[t].name,
                              std::vector<sql::Value>(row))
                      .ok());
    }
  }
  out.db = std::move(renamed);
  return out;
}

/// Rewrites identifiers in a statement per the rename maps. Unqualified
/// column refs are resolved against the statement's own FROM tables.
void RenameInStatement(SelectStatement& stmt, const Database& old_db,
                       const RenamedDatabase& renamed);

void RenameInExpr(Expr& e, const std::vector<std::string>& scope_tables,
                  const Database& old_db, const RenamedDatabase& renamed) {
  if (e.kind == ExprKind::kColumnRef) {
    std::string owner = ToLower(e.table);
    if (owner.empty()) {
      for (const auto& table : scope_tables) {
        auto t = old_db.schema().FindTable(table);
        if (t && old_db.schema().tables[*t].FindColumn(e.column)) {
          owner = ToLower(table);
          break;
        }
      }
    } else {
      e.table = renamed.table_map.at(owner);
    }
    if (!owner.empty()) {
      auto map_it = renamed.column_maps.find(owner);
      if (map_it != renamed.column_maps.end()) {
        auto col_it = map_it->second.find(ToLower(e.column));
        if (col_it != map_it->second.end()) e.column = col_it->second;
      }
    }
    return;
  }
  for (auto& child : e.children) {
    RenameInExpr(*child, scope_tables, old_db, renamed);
  }
  if (e.subquery) RenameInStatement(*e.subquery, old_db, renamed);
}

void RenameInStatement(SelectStatement& stmt, const Database& old_db,
                       const RenamedDatabase& renamed) {
  std::vector<std::string> scope_tables;
  scope_tables.push_back(stmt.from.table);
  for (const auto& join : stmt.joins) scope_tables.push_back(join.table.table);

  auto visit = [&](std::unique_ptr<Expr>& e) {
    if (e) RenameInExpr(*e, scope_tables, old_db, renamed);
  };
  for (auto& item : stmt.select_list) visit(item.expr);
  for (auto& join : stmt.joins) visit(join.condition);
  visit(stmt.where);
  for (auto& gexpr : stmt.group_by) visit(gexpr);
  visit(stmt.having);
  for (auto& o : stmt.order_by) visit(o.expr);

  stmt.from.table = renamed.table_map.at(ToLower(stmt.from.table));
  for (auto& join : stmt.joins) {
    join.table.table = renamed.table_map.at(ToLower(join.table.table));
  }
  if (stmt.set_rhs) RenameInStatement(*stmt.set_rhs, old_db, renamed);
}

std::string RewriteSql(const std::string& sql_text, const Database& old_db,
                       const RenamedDatabase& renamed) {
  auto stmt = sql::ParseSql(sql_text);
  CODES_CHECK(stmt.ok());
  RenameInStatement(**stmt, old_db, renamed);
  return (*stmt)->ToSql();
}

/// Builds a DB-perturbed test set: renames every dev database and rewrites
/// every dev sample's gold SQL. Renaming keeps every schema index, so
/// used_items carry over as they are.
PerturbedTestSet MakeDbPerturbation(const Text2SqlBenchmark& spider,
                                    const std::string& name, RenameFn rename) {
  PerturbedTestSet set;
  set.name = name;
  set.category = "DB";
  set.bench.name = spider.name + "/" + name;

  std::unordered_map<int, int> db_remap;
  std::vector<RenamedDatabase> renamed_dbs;
  for (const auto& sample : spider.dev) {
    if (db_remap.count(sample.db_index)) continue;
    RenamedDatabase renamed =
        RenameSchema(spider.databases[sample.db_index], rename);
    db_remap[sample.db_index] = static_cast<int>(set.bench.databases.size());
    set.bench.databases.push_back(renamed.db);
    renamed_dbs.push_back(std::move(renamed));
  }
  for (const auto& sample : spider.dev) {
    const Database& old_db = spider.databases[sample.db_index];
    int new_index = db_remap[sample.db_index];
    const RenamedDatabase& renamed = renamed_dbs[new_index];
    Text2SqlSample out = sample;
    out.db_index = new_index;
    out.sql = RewriteSql(sample.sql, old_db, renamed);
    set.bench.dev.push_back(std::move(out));
  }
  return set;
}

/// DBcontent-equivalence: text values change representation (uppercased)
/// while questions keep the original form; gold SQL literals follow the
/// database.
PerturbedTestSet MakeContentPerturbation(const Text2SqlBenchmark& spider) {
  PerturbedTestSet set;
  set.name = "DBcontent-equivalence";
  set.category = "DB";
  set.bench.name = spider.name + "/DBcontent-equivalence";

  std::unordered_map<int, int> db_remap;
  for (const auto& sample : spider.dev) {
    if (db_remap.count(sample.db_index)) continue;
    const Database& old_db = spider.databases[sample.db_index];
    Database mangled(old_db.schema());
    for (size_t t = 0; t < old_db.schema().tables.size(); ++t) {
      for (const auto& row : old_db.TableAt(static_cast<int>(t)).rows) {
        std::vector<sql::Value> new_row;
        new_row.reserve(row.size());
        for (const auto& v : row) {
          new_row.push_back(v.is_text() ? sql::Value(ToUpper(v.AsText())) : v);
        }
        CODES_CHECK(mangled
                        .Insert(old_db.schema().tables[t].name,
                                std::move(new_row))
                        .ok());
      }
    }
    db_remap[sample.db_index] = static_cast<int>(set.bench.databases.size());
    set.bench.databases.push_back(std::move(mangled));
  }

  for (const auto& sample : spider.dev) {
    Text2SqlSample out = sample;
    out.db_index = db_remap[sample.db_index];
    // Uppercase text literals in the gold SQL to follow the database.
    auto stmt = sql::ParseSql(sample.sql);
    CODES_CHECK(stmt.ok());
    std::function<void(Expr&)> mangle = [&mangle](Expr& e) {
      if (e.kind == ExprKind::kLiteral && e.literal.is_text()) {
        e.literal = sql::Value(ToUpper(e.literal.AsText()));
      }
      for (auto& v : e.in_list) {
        if (v.is_text()) v = sql::Value(ToUpper(v.AsText()));
      }
      for (auto& child : e.children) mangle(*child);
    };
    std::function<void(SelectStatement&)> walk =
        [&mangle, &walk](SelectStatement& s) {
          for (auto& item : s.select_list) mangle(*item.expr);
          if (s.where) mangle(*s.where);
          if (s.having) mangle(*s.having);
          for (auto& join : s.joins) {
            if (join.condition) mangle(*join.condition);
          }
          if (s.set_rhs) walk(*s.set_rhs);
          for (auto& item : s.select_list) {
            if (item.expr->subquery) walk(*item.expr->subquery);
          }
          std::function<void(Expr&)> sub = [&walk, &sub](Expr& e) {
            if (e.subquery) walk(*e.subquery);
            for (auto& c : e.children) sub(*c);
          };
          for (auto& item : s.select_list) sub(*item.expr);
          if (s.where) sub(*s.where);
          if (s.having) sub(*s.having);
        };
    walk(**stmt);
    out.sql = (*stmt)->ToSql();
    set.bench.dev.push_back(std::move(out));
  }
  return set;
}

// -------------------------------------------------------- NLQ perturbation

/// Copies the benchmark's dev-referenced databases and applies `fn` to
/// each dev question.
template <typename Fn>
Text2SqlBenchmark MapQuestions(const Text2SqlBenchmark& spider, Fn&& fn,
                               const std::string& name) {
  Text2SqlBenchmark out;
  out.name = name;
  out.databases = spider.databases;
  out.domain_names = spider.domain_names;
  for (const auto& sample : spider.dev) {
    Text2SqlSample copy = sample;
    copy.question = fn(sample);
    out.dev.push_back(std::move(copy));
  }
  return out;
}

/// Column phrases used by a sample (from its used_items), longest first so
/// multi-word phrases are replaced before their sub-words.
std::vector<std::string> UsedColumnPhrases(const Text2SqlBenchmark& bench,
                                           const Text2SqlSample& sample) {
  std::vector<std::string> phrases;
  const Database& db = bench.DbOf(sample);
  for (const auto& [t, c] : sample.used_items) {
    if (c < 0) continue;
    phrases.push_back(ColumnPhrase(db.schema().tables[t].columns[c]));
  }
  std::sort(phrases.begin(), phrases.end(),
            [](const std::string& a, const std::string& b) {
              return a.size() > b.size();
            });
  return phrases;
}

std::string ApplySynonyms(
    const std::string& question,
    const std::vector<std::pair<std::string, std::string>>& table) {
  std::string out = question;
  for (const auto& [from, to] : table) {
    out = ReplaceWordOutsideQuotes(out, from, to);
  }
  return out;
}

}  // namespace

Text2SqlBenchmark BuildSpiderSyn(const Text2SqlBenchmark& spider,
                                 uint64_t seed) {
  (void)seed;
  return MapQuestions(
      spider,
      [](const Text2SqlSample& sample) {
        return ApplySynonyms(sample.question, SynonymTable());
      },
      spider.name + "/syn");
}

Text2SqlBenchmark BuildSpiderRealistic(const Text2SqlBenchmark& spider,
                                       uint64_t seed) {
  (void)seed;
  // Remove explicit column mentions where a value keeps intent clear:
  // "whose country is 'USA'" -> "with 'USA'".
  Text2SqlBenchmark out;
  out.name = spider.name + "/realistic";
  out.databases = spider.databases;
  out.domain_names = spider.domain_names;
  for (const auto& sample : spider.dev) {
    Text2SqlSample copy = sample;
    for (const auto& phrase : UsedColumnPhrases(spider, sample)) {
      copy.question = ReplaceWordOutsideQuotes(
          copy.question, "whose " + phrase + " is", "with");
      copy.question = ReplaceWordOutsideQuotes(
          copy.question, "with " + phrase + " ", "with ");
      copy.question = ReplaceWordOutsideQuotes(
          copy.question, phrase + " is ", "");
    }
    out.dev.push_back(std::move(copy));
  }
  return out;
}

Text2SqlBenchmark BuildSpiderDk(const Text2SqlBenchmark& spider,
                                uint64_t seed) {
  (void)seed;
  return MapQuestions(
      spider,
      [](const Text2SqlSample& sample) {
        return ApplySynonyms(sample.question, KnowledgeParaphrases());
      },
      spider.name + "/dk");
}

std::vector<PerturbedTestSet> BuildDrSpiderSuite(
    const Text2SqlBenchmark& spider, uint64_t seed) {
  std::vector<PerturbedTestSet> suite;
  Rng rng(seed);

  // ---- DB perturbations (3)
  suite.push_back(MakeDbPerturbation(spider, "schema-synonym", SynonymRename));
  suite.push_back(
      MakeDbPerturbation(spider, "schema-abbreviation", AbbrevRename));
  suite.push_back(MakeContentPerturbation(spider));

  auto add_nlq = [&suite, &spider](const std::string& name,
                                   Text2SqlBenchmark bench) {
    PerturbedTestSet set;
    set.name = name;
    set.category = "NLQ";
    set.bench = std::move(bench);
    set.bench.name = spider.name + "/" + name;
    suite.push_back(std::move(set));
  };

  // ---- NLQ perturbations (9)
  add_nlq("keyword-synonym",
          MapQuestions(
              spider,
              [](const Text2SqlSample& s) {
                return ApplySynonyms(s.question, KeywordSynonyms());
              },
              "keyword-synonym"));
  add_nlq("keyword-carrier",
          MapQuestions(
              spider,
              [](const Text2SqlSample& s) {
                return "Could you tell me " + ApplyFirstCharLower(s.question);
              },
              "keyword-carrier"));
  add_nlq("column-synonym",
          MapQuestions(
              spider,
              [&spider](const Text2SqlSample& s) {
                std::string q = s.question;
                for (const auto& phrase : UsedColumnPhrases(spider, s)) {
                  q = ReplaceWordOutsideQuotes(
                      q, phrase, ApplySynonyms(phrase, SynonymTable()));
                }
                return q;
              },
              "column-synonym"));
  add_nlq("column-carrier",
          MapQuestions(
              spider,
              [&spider](const Text2SqlSample& s) {
                std::string q = s.question;
                for (const auto& phrase : UsedColumnPhrases(spider, s)) {
                  q = ReplaceWordOutsideQuotes(q, phrase, phrase + " value");
                }
                return q;
              },
              "column-carrier"));
  add_nlq("column-attribute",
          MapQuestions(
              spider,
              [&spider](const Text2SqlSample& s) {
                std::string q = s.question;
                for (const auto& phrase : UsedColumnPhrases(spider, s)) {
                  q = ReplaceWordOutsideQuotes(
                      q, phrase, ApplySynonyms(phrase, KnowledgeParaphrases()));
                }
                return q;
              },
              "column-attribute"));
  add_nlq("column-value",
          MapQuestions(
              spider,
              [&spider](const Text2SqlSample& s) {
                std::string q = s.question;
                for (const auto& phrase : UsedColumnPhrases(spider, s)) {
                  q = ReplaceWordOutsideQuotes(q, "whose " + phrase + " is",
                                               "with");
                }
                return q;
              },
              "column-value"));
  add_nlq("value-synonym",
          MapQuestions(
              spider,
              [](const Text2SqlSample& s) {
                // Lowercase quoted values: the database keeps the original
                // casing, so exact value match fails but fuzzy match works.
                std::string q = s.question;
                bool in_quote = false;
                for (char& c : q) {
                  if (c == '\'') in_quote = !in_quote;
                  else if (in_quote) {
                    c = static_cast<char>(
                        std::tolower(static_cast<unsigned char>(c)));
                  }
                }
                return q;
              },
              "value-synonym"));
  add_nlq("multitype",
          MapQuestions(
              spider,
              [&spider](const Text2SqlSample& s) {
                std::string q =
                    ApplySynonyms(s.question, KeywordSynonyms());
                for (const auto& phrase : UsedColumnPhrases(spider, s)) {
                  q = ReplaceWordOutsideQuotes(
                      q, phrase, ApplySynonyms(phrase, SynonymTable()));
                }
                return q;
              },
              "multitype"));
  add_nlq("others",
          MapQuestions(
              spider,
              [](const Text2SqlSample& s) {
                return "Please " + ApplyFirstCharLower(s.question) +
                       " Thanks!";
              },
              "others"));

  // ---- SQL-side test sets (5): bucket dev samples by gold SQL shape and
  // apply a mild paraphrase, mirroring Dr.Spider's SQL perturbations.
  struct SqlBucket {
    const char* name;
    bool (*pred)(const sql::SqlFingerprint&);
  };
  static const SqlBucket kBuckets[] = {
      {"comparison",
       [](const sql::SqlFingerprint& fp) {
         return fp.where_ops.find("gt") != std::string::npos ||
                fp.where_ops.find("lt") != std::string::npos ||
                fp.where_ops.find("ge") != std::string::npos ||
                fp.where_ops.find("le") != std::string::npos ||
                !fp.having_aggregate.empty();
       }},
      {"sort-order",
       [](const sql::SqlFingerprint& fp) { return !fp.order.empty(); }},
      {"nonDB-number",
       [](const sql::SqlFingerprint& fp) { return fp.limit_kind != 0; }},
      {"DB-text",
       [](const sql::SqlFingerprint& fp) {
         return fp.where_ops.find(":t") != std::string::npos;
       }},
      {"DB-number",
       [](const sql::SqlFingerprint& fp) {
         return fp.where_ops.find(":n") != std::string::npos;
       }},
  };
  for (const auto& bucket : kBuckets) {
    PerturbedTestSet set;
    set.name = bucket.name;
    set.category = "SQL";
    set.bench.name = spider.name + "/" + bucket.name;
    set.bench.databases = spider.databases;
    set.bench.domain_names = spider.domain_names;
    for (const auto& sample : spider.dev) {
      auto stmt = sql::ParseSql(sample.sql);
      if (!stmt.ok()) continue;
      if (!bucket.pred(sql::FingerprintOf(**stmt))) continue;
      Text2SqlSample copy = sample;
      copy.question = ApplySynonyms(copy.question, KeywordSynonyms());
      set.bench.dev.push_back(std::move(copy));
    }
    suite.push_back(std::move(set));
  }
  return suite;
}

}  // namespace codes
