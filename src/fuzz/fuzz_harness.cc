#include "fuzz/fuzz_harness.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <utility>

#include "common/rng.h"
#include "dataset/db_generator.h"
#include "dataset/domains.h"
#include "sqlengine/parser.h"
#include "storage/storage_db.h"

namespace codes::fuzz {

using sql::SelectStatement;

std::string FuzzFailure::ReproLine() const {
  const std::string& text = shrunk_sql.empty() ? sql : shrunk_sql;
  return "db=" + std::to_string(db_index) + " seed=" + std::to_string(seed) +
         " oracle=" + OracleName(oracle) + " sql=" + text;
}

std::string FuzzReport::Summary() const {
  std::string out = "fuzz campaign: " + std::to_string(queries) +
                    " queries, " + std::to_string(failures.size()) +
                    " violation(s)\n";
  std::map<std::string, int> by_oracle;
  for (const auto& f : failures) ++by_oracle[OracleName(f.oracle)];
  for (const auto& [name, count] : by_oracle) {
    out += "  " + name + ": " + std::to_string(count) + "\n";
  }
  return out;
}

std::vector<sql::Database> BuildFuzzDatabases(int count) {
  const auto& domains = AllDomains();
  std::vector<sql::Database> dbs;
  dbs.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const DomainSpec& domain = domains[static_cast<size_t>(i) %
                                       domains.size()];
    DbProfile profile = (i % 2 == 0) ? DbProfile::Spider() : DbProfile::Bird();
    // A NULL-heavy pool keeps three-valued-logic paths hot in every
    // campaign; the oracles (TLP especially) exist to check exactly those.
    profile.null_probability = 0.12;
    Rng rng(0xF0DD5EEDULL + static_cast<uint64_t>(i) * 0x9E3779B9ULL);
    dbs.push_back(
        GenerateDatabase(domain, profile, rng, "fz" + std::to_string(i)));
  }
  return dbs;
}

namespace {

/// Max oracle re-evaluations spent minimizing one failure.
constexpr int kShrinkBudget = 200;

/// True when `stmt` still trips the same oracle with the same seed.
bool StillFails(const sql::Database& db, const QueryGenerator& gen,
                const SelectStatement& stmt, uint64_t oracle_seed,
                OracleId oracle, const sql::ExecSource* storage) {
  for (const auto& v : RunOracles(db, gen, stmt, oracle_seed, storage)) {
    if (v.oracle == oracle) return true;
  }
  return false;
}

/// Disk-backed twins of the campaign's database pool, built once before
/// the parallel phase (read-only afterwards, so sharing across query
/// shards is safe). A build failure leaves a null slot, which simply
/// disables the storagediff oracle for that database.
std::vector<std::unique_ptr<storage::StorageDb>> BuildStorageTwins(
    const std::vector<sql::Database>& dbs) {
  std::vector<std::unique_ptr<storage::StorageDb>> twins;
  twins.reserve(dbs.size());
  for (const auto& db : dbs) {
    auto built = storage::StorageDb::CreateInMemoryFrom(db);
    twins.push_back(built.ok() ? std::move(*built) : nullptr);
  }
  return twins;
}

/// One-step simplifications of `stmt`, roughly largest-deletion first.
/// Candidates that break the query (e.g. dropping a join another clause
/// references) simply fail to reproduce and are skipped by the caller.
std::vector<std::unique_ptr<SelectStatement>> ShrinkCandidates(
    const SelectStatement& stmt) {
  std::vector<std::unique_ptr<SelectStatement>> out;
  auto variant = [&](auto mutate) {
    auto clone = stmt.Clone();
    mutate(*clone);
    out.push_back(std::move(clone));
  };

  if (stmt.set_op != sql::SetOp::kNone) {
    variant([](SelectStatement& s) {
      s.set_op = sql::SetOp::kNone;
      s.set_rhs.reset();
    });
  }
  for (size_t j = stmt.joins.size(); j > 0; --j) {
    variant([j](SelectStatement& s) {
      s.joins.erase(s.joins.begin() + static_cast<long>(j - 1));
    });
  }
  if (stmt.where) {
    variant([](SelectStatement& s) { s.where.reset(); });
    // Descend into the predicate: try each operand of a top-level
    // AND/OR/NOT as the whole WHERE clause. Iterating the shrink loop
    // walks this one level at a time down to a minimal subtree.
    const sql::Expr& w = *stmt.where;
    if (w.kind == sql::ExprKind::kBinary &&
        (w.binary_op == sql::BinaryOp::kAnd ||
         w.binary_op == sql::BinaryOp::kOr)) {
      for (size_t c = 0; c < w.children.size(); ++c) {
        variant([&w, c](SelectStatement& s) {
          s.where = w.children[c]->Clone();
        });
      }
    } else if (w.kind == sql::ExprKind::kUnary &&
               w.unary_op == sql::UnaryOp::kNot) {
      variant([&w](SelectStatement& s) { s.where = w.children[0]->Clone(); });
    }
  }
  if (!stmt.group_by.empty()) {
    variant([](SelectStatement& s) {
      s.group_by.clear();
      s.having.reset();
    });
  }
  if (stmt.having) {
    variant([](SelectStatement& s) { s.having.reset(); });
  }
  if (!stmt.order_by.empty()) {
    variant([](SelectStatement& s) { s.order_by.clear(); });
  }
  if (stmt.limit.has_value()) {
    variant([](SelectStatement& s) { s.limit.reset(); });
  }
  if (stmt.distinct) {
    variant([](SelectStatement& s) { s.distinct = false; });
  }
  if (stmt.select_list.size() > 1) {
    for (size_t i = 0; i < stmt.select_list.size(); ++i) {
      variant([i](SelectStatement& s) {
        auto keep = std::move(s.select_list[i]);
        s.select_list.clear();
        s.select_list.push_back(std::move(keep));
      });
    }
  }
  return out;
}

}  // namespace

std::unique_ptr<SelectStatement> ShrinkFailure(const sql::Database& db,
                                               const QueryGenerator& gen,
                                               const SelectStatement& stmt,
                                               uint64_t oracle_seed,
                                               OracleId oracle, int budget,
                                               const sql::ExecSource* storage) {
  auto current = stmt.Clone();
  bool improved = true;
  while (improved && budget > 0) {
    improved = false;
    for (auto& candidate : ShrinkCandidates(*current)) {
      if (--budget < 0) break;
      if (StillFails(db, gen, *candidate, oracle_seed, oracle, storage)) {
        current = std::move(candidate);
        improved = true;
        break;  // restart from the smaller statement
      }
    }
  }
  return current;
}

FuzzReport RunFuzzCampaign(const FuzzConfig& config, ThreadPool* pool) {
  FuzzReport report;
  const size_t n = static_cast<size_t>(std::max(config.num_queries, 0));
  report.queries = n;

  std::vector<sql::Database> dbs =
      BuildFuzzDatabases(std::max(config.num_databases, 1));
  std::vector<QueryGenerator> gens;
  gens.reserve(dbs.size());
  for (const auto& db : dbs) gens.emplace_back(db);
  const std::vector<std::unique_ptr<storage::StorageDb>> twins =
      BuildStorageTwins(dbs);
  auto twin_of = [&twins](int db_index) -> const sql::ExecSource* {
    return twins[static_cast<size_t>(db_index)].get();
  };

  // Each query derives everything from base_seed + i and writes into its
  // own slot, so the merged report is independent of sharding.
  std::vector<std::unique_ptr<FuzzFailure>> slots(n);
  auto run_one = [&](size_t i) {
    uint64_t seed = config.base_seed + i;
    Rng rng(seed);
    int db_index = static_cast<int>(rng.Index(dbs.size()));
    auto stmt = gens[static_cast<size_t>(db_index)].Generate(rng);
    uint64_t oracle_seed = rng.Next();
    auto violations =
        RunOracles(dbs[static_cast<size_t>(db_index)],
                   gens[static_cast<size_t>(db_index)], *stmt, oracle_seed,
                   twin_of(db_index));
    if (violations.empty()) return;
    auto failure = std::make_unique<FuzzFailure>();
    failure->query_index = i;
    failure->seed = seed;
    failure->db_index = db_index;
    failure->oracle = violations[0].oracle;
    failure->detail = violations[0].detail;
    failure->sql = stmt->ToSql();
    slots[i] = std::move(failure);
  };

  if (pool != nullptr) {
    pool->ParallelFor(n, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) run_one(i);
    });
  } else {
    for (size_t i = 0; i < n; ++i) run_one(i);
  }

  // Serial post-pass: collect failures in index order and shrink each by
  // regenerating its statement from the recorded seed.
  for (auto& slot : slots) {
    if (slot == nullptr) continue;
    if (config.shrink) {
      Rng rng(slot->seed);
      int db_index = static_cast<int>(rng.Index(dbs.size()));
      auto stmt = gens[static_cast<size_t>(db_index)].Generate(rng);
      uint64_t oracle_seed = rng.Next();
      auto shrunk = ShrinkFailure(dbs[static_cast<size_t>(db_index)],
                                  gens[static_cast<size_t>(db_index)], *stmt,
                                  oracle_seed, slot->oracle,
                                  kShrinkBudget, twin_of(db_index));
      std::string shrunk_sql = shrunk->ToSql();
      if (shrunk_sql != slot->sql) slot->shrunk_sql = std::move(shrunk_sql);
    }
    report.failures.push_back(std::move(*slot));
  }
  return report;
}

Result<std::vector<CorpusEntry>> LoadCorpusFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open corpus file " + path);
  }
  std::vector<CorpusEntry> entries;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    CorpusEntry entry;
    entry.line = line_number;
    size_t sql_pos = line.find("sql=");
    if (sql_pos == std::string::npos) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_number) +
                                     ": missing sql= field");
    }
    entry.sql = line.substr(sql_pos + 4);
    std::string head = line.substr(0, sql_pos);
    auto field = [&head](const std::string& key) -> std::string {
      size_t at = head.find(key + "=");
      if (at == std::string::npos) return "";
      size_t start = at + key.size() + 1;
      size_t end = head.find(' ', start);
      return head.substr(start, end == std::string::npos ? end : end - start);
    };
    std::string db_text = field("db");
    std::string seed_text = field("seed");
    entry.oracle = field("oracle");
    if (db_text.empty() || seed_text.empty()) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_number) +
                                     ": missing db= or seed= field");
    }
    entry.db_index = std::atoi(db_text.c_str());
    entry.seed = std::strtoull(seed_text.c_str(), nullptr, 10);
    entries.push_back(std::move(entry));
  }
  return entries;
}

Result<std::vector<OracleViolation>> ReplayCorpusEntry(
    const std::vector<sql::Database>& dbs, const CorpusEntry& entry) {
  if (entry.db_index < 0 ||
      entry.db_index >= static_cast<int>(dbs.size())) {
    return Status::InvalidArgument("corpus entry db index " +
                                   std::to_string(entry.db_index) +
                                   " out of range");
  }
  auto parsed = sql::ParseSql(entry.sql);
  if (!parsed.ok()) {
    return Status::ParseError("corpus SQL no longer parses: " +
                              parsed.status().message() +
                              " sql=" + entry.sql);
  }
  const sql::Database& db = dbs[static_cast<size_t>(entry.db_index)];
  QueryGenerator gen(db);
  std::unique_ptr<storage::StorageDb> twin;
  auto built = storage::StorageDb::CreateInMemoryFrom(db);
  if (built.ok()) twin = std::move(*built);
  return RunOracles(db, gen, **parsed, entry.seed, twin.get());
}

}  // namespace codes::fuzz
