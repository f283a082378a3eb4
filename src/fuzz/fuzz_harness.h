#ifndef CODES_FUZZ_FUZZ_HARNESS_H_
#define CODES_FUZZ_FUZZ_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "fuzz/oracle.h"
#include "fuzz/query_gen.h"
#include "sqlengine/database.h"

namespace codes::fuzz {

/// Campaign configuration. Query `i` of a campaign is fully determined by
/// `base_seed + i` (database choice, query shape, and the TLP partition
/// predicate all derive from that one seed), so any failure replays from
/// its reproducer line alone — the thread count never affects results.
/// Every query also runs against a disk-backed StorageDb copy of its
/// database and the two executions are diffed (the storagediff oracle);
/// the copies are built once per campaign, before the parallel phase.
struct FuzzConfig {
  uint64_t base_seed = 1;
  int num_queries = 1000;
  int num_databases = 8;
  bool shrink = true;        ///< minimize failing queries by AST deletion
};

/// One oracle violation found by a campaign, with enough context to
/// replay it (`codes_fuzz --seed=<seed> --schema=<db>`).
struct FuzzFailure {
  size_t query_index = 0;
  uint64_t seed = 0;     ///< per-query seed (base_seed + index)
  int db_index = 0;
  OracleId oracle = OracleId::kExec;
  std::string detail;
  std::string sql;         ///< query as generated
  std::string shrunk_sql;  ///< minimized query (empty when not shrunk)

  /// One-line reproducer: "db=<i> seed=<s> oracle=<name> sql=<sql>".
  std::string ReproLine() const;
};

/// Campaign outcome. `Summary()` is deterministic text (no timing, no
/// thread counts), suitable for golden comparison across runs.
struct FuzzReport {
  size_t queries = 0;
  std::vector<FuzzFailure> failures;  ///< sorted by query_index

  bool Clean() const { return failures.empty(); }
  std::string Summary() const;
};

/// Builds the deterministic database pool fuzz campaigns run against:
/// `count` databases cycling through the domain catalog, alternating
/// Spider/Bird profiles, with an elevated NULL rate so three-valued logic
/// paths are exercised constantly.
std::vector<sql::Database> BuildFuzzDatabases(int count);

/// Runs a fuzz campaign. When `pool` is non-null the per-query work is
/// sharded over it; results are written to pre-assigned slots so output
/// is byte-identical for any thread count. Shrinking runs serially after
/// the parallel phase.
FuzzReport RunFuzzCampaign(const FuzzConfig& config, ThreadPool* pool);

/// Minimizes `stmt` by clause/subtree deletion while it still trips
/// `oracle` (with the same oracle seed). Returns the smallest failing
/// statement found within `budget` oracle evaluations.
/// `storage` (may be null) is the disk-backed twin of `db`, forwarded to
/// RunOracles so storagediff failures keep reproducing while shrinking.
std::unique_ptr<sql::SelectStatement> ShrinkFailure(
    const sql::Database& db, const QueryGenerator& gen,
    const sql::SelectStatement& stmt, uint64_t oracle_seed, OracleId oracle,
    int budget, const sql::ExecSource* storage = nullptr);

/// One line of a seed-corpus file. Format (one entry per line, '#' or
/// blank lines skipped):
///   db=<index> seed=<oracle-seed> oracle=<name> sql=<SELECT ...>
/// `oracle` records which oracle originally caught the bug (informational
/// — replay always runs every oracle).
struct CorpusEntry {
  int db_index = 0;
  uint64_t seed = 0;
  std::string oracle;
  std::string sql;
  int line = 0;  ///< 1-based source line, for error messages
};

Result<std::vector<CorpusEntry>> LoadCorpusFile(const std::string& path);

/// Replays one corpus entry: parses its SQL and runs every oracle against
/// the given database — including the storagediff oracle, against a
/// freshly built disk-backed copy. Returns the violations (empty = clean)
/// or an error when the SQL no longer parses / the database index is out
/// of range.
Result<std::vector<OracleViolation>> ReplayCorpusEntry(
    const std::vector<sql::Database>& dbs, const CorpusEntry& entry);

}  // namespace codes::fuzz

#endif  // CODES_FUZZ_FUZZ_HARNESS_H_
