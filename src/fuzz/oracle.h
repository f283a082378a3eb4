#ifndef CODES_FUZZ_ORACLE_H_
#define CODES_FUZZ_ORACLE_H_

#include <string>
#include <vector>

#include "fuzz/query_gen.h"
#include "sqlengine/ast.h"
#include "sqlengine/database.h"

namespace codes::fuzz {

/// The metamorphic oracles the harness checks each generated query
/// against. Each one derives a second query (or execution) whose result
/// is *provably related* to the original's, so a mismatch is an engine
/// bug without needing a reference implementation:
///
///  * kExec       — the generated query itself must execute (the
///                  generator only emits supported SQL).
///  * kRoundTrip  — ToSql() -> parse -> ToSql() must be a fixpoint, the
///                  structural fingerprints must match, and the reparsed
///                  statement must produce the same result.
///  * kRerun      — executing the same bound statement twice must be
///                  byte-identical (catches state one run leaves behind).
///  * kTlp        — ternary logic partitioning: for a row-local predicate
///                  p, Q == Q+p UNION-ALL Q+(NOT p) UNION-ALL
///                  Q+(p IS NULL) as multisets (SQL three-valued logic
///                  makes the three branches an exact partition).
///  * kNoRec      — predicate hoisting: |SELECT ... WHERE p| must equal
///                  the number of rows for which p evaluates truthy when
///                  moved into the select list of the unfiltered query.
///  * kOrderLimit — ORDER BY output must be sorted on its keys and a
///                  LIMIT k result must be the exact k-prefix of the
///                  unlimited result.
///  * kStorageDiff — differential backend check: the same statement run
///                  against a disk-backed storage::StorageDb copy of the
///                  database must be byte-identical to the in-memory
///                  execution (same result cells, same column names, or
///                  the same error status). Exercises the index-scan
///                  access path the in-memory backend never takes.
enum class OracleId {
  kExec,
  kRoundTrip,
  kRerun,
  kTlp,
  kNoRec,
  kOrderLimit,
  kStorageDiff,
};

/// Stable lowercase name ("exec", "roundtrip", "rerun", "tlp", "norec",
/// "orderlimit", "storagediff") used in reproducer lines and corpus files.
const char* OracleName(OracleId id);

/// One oracle violation for one query.
struct OracleViolation {
  OracleId oracle = OracleId::kExec;
  std::string detail;  ///< human-readable mismatch description
};

/// Runs every applicable oracle against `stmt` on `db`. `oracle_seed`
/// drives the TLP partition predicate via `gen`, so a (query, seed) pair
/// fully determines the outcome. Returns all violations (empty = clean).
/// The oracles run on a bound copy; `stmt` itself is left unchanged.
///
/// When `storage` is non-null it must be a second backend holding the same
/// logical content as `db` (typically a storage::StorageDb built from it);
/// the kStorageDiff oracle then compares the two executions. Null skips
/// that oracle.
std::vector<OracleViolation> RunOracles(const sql::Database& db,
                                        const QueryGenerator& gen,
                                        const sql::SelectStatement& stmt,
                                        uint64_t oracle_seed,
                                        const sql::ExecSource* storage =
                                            nullptr);

}  // namespace codes::fuzz

#endif  // CODES_FUZZ_ORACLE_H_
