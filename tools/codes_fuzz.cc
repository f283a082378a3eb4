// codes_fuzz: metamorphic fuzzing CLI for the SQL engine.
//
// Modes:
//   campaign (default)   codes_fuzz --queries=10000 --threads=8 --seed=1
//   single query         codes_fuzz --seed=42 --schema=3
//   corpus replay        codes_fuzz --replay=tests/fuzz_corpus/engine_bugs.corpus
//   smoke                codes_fuzz --smoke       (small fixed-seed campaign;
//                                                 explicit flags win)
//
// Campaign stdout is byte-identical for any --threads value (timing goes
// to stderr), so a CI diff between thread counts doubles as a determinism
// check. Exit status: 0 clean, 1 oracle violations, 2 usage/IO error.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/flags.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "fuzz/fuzz_harness.h"
#include "fuzz/oracle.h"
#include "fuzz/query_gen.h"

namespace {

struct Flags {
  int queries = 1000;
  int threads = 8;
  uint64_t seed = 1;
  int databases = 8;
  int schema = -1;       ///< single-query mode when >= 0
  bool smoke = false;
  bool no_shrink = false;
  std::string replay;    ///< corpus file to replay
  std::string out;       ///< write reproducer lines here
  std::string metrics_out;  ///< JSON metrics snapshot path (optional)
};

int RunSingle(const Flags& flags) {
  auto dbs = codes::fuzz::BuildFuzzDatabases(flags.databases);
  if (flags.schema >= static_cast<int>(dbs.size())) {
    std::fprintf(stderr, "--schema=%d out of range (have %zu databases)\n",
                 flags.schema, dbs.size());
    return 2;
  }
  // Mirror the campaign's per-query derivation exactly: the db draw is
  // consumed from the stream even though --schema overrides the choice.
  codes::Rng rng(flags.seed);
  int drawn = static_cast<int>(rng.Index(dbs.size()));
  int db_index = flags.schema >= 0 ? flags.schema : drawn;
  codes::fuzz::QueryGenerator gen(dbs[static_cast<size_t>(db_index)]);
  auto stmt = gen.Generate(rng);
  uint64_t oracle_seed = rng.Next();

  std::printf("db=%d seed=%llu\n", db_index,
              static_cast<unsigned long long>(flags.seed));
  std::printf("sql=%s\n", stmt->ToSql().c_str());
  auto violations = codes::fuzz::RunOracles(
      dbs[static_cast<size_t>(db_index)], gen, *stmt, oracle_seed);
  if (violations.empty()) {
    std::printf("all oracles clean\n");
    return 0;
  }
  for (const auto& v : violations) {
    std::printf("VIOLATION %s: %s\n", codes::fuzz::OracleName(v.oracle),
                v.detail.c_str());
  }
  return 1;
}

int RunReplay(const Flags& flags) {
  auto entries = codes::fuzz::LoadCorpusFile(flags.replay);
  if (!entries.ok()) {
    std::fprintf(stderr, "%s\n", entries.status().ToString().c_str());
    return 2;
  }
  int max_db = flags.databases;
  for (const auto& entry : *entries) max_db = std::max(max_db, entry.db_index + 1);
  auto dbs = codes::fuzz::BuildFuzzDatabases(max_db);

  int failures = 0;
  for (const auto& entry : *entries) {
    auto violations = codes::fuzz::ReplayCorpusEntry(dbs, entry);
    if (!violations.ok()) {
      std::printf("ERROR line %d: %s\n", entry.line,
                  violations.status().ToString().c_str());
      ++failures;
      continue;
    }
    if (violations->empty()) {
      std::printf("PASS line %d (%s)\n", entry.line, entry.oracle.c_str());
    } else {
      ++failures;
      for (const auto& v : *violations) {
        std::printf("FAIL line %d %s: %s\n", entry.line,
                    codes::fuzz::OracleName(v.oracle), v.detail.c_str());
      }
    }
  }
  std::printf("replayed %zu corpus entries, %d failing\n", entries->size(),
              failures);
  return failures == 0 ? 0 : 1;
}

int RunCampaign(const Flags& flags) {
  codes::fuzz::FuzzConfig config;
  config.base_seed = flags.seed;
  config.num_queries = flags.queries;
  config.num_databases = flags.databases;
  config.shrink = !flags.no_shrink;

  auto start = std::chrono::steady_clock::now();
  codes::fuzz::FuzzReport report;
  if (flags.threads > 1) {
    codes::ThreadPool pool(flags.threads);
    report = codes::fuzz::RunFuzzCampaign(config, &pool);
  } else {
    report = codes::fuzz::RunFuzzCampaign(config, nullptr);
  }
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();

  std::fputs(report.Summary().c_str(), stdout);
  for (const auto& f : report.failures) {
    std::printf("%s\n", f.ReproLine().c_str());
    std::printf("  detail: %s\n", f.detail.c_str());
  }
  // Timing is diagnostics only: stdout must stay byte-identical across
  // thread counts.
  std::fprintf(stderr, "elapsed: %lld ms (%d threads)\n",
               static_cast<long long>(elapsed), flags.threads);

  std::string reproducers = "# codes_fuzz reproducers (seed=" +
                            std::to_string(flags.seed) +
                            " queries=" + std::to_string(flags.queries) +
                            ")\n";
  for (const auto& f : report.failures) reproducers += f.ReproLine() + "\n";
  if (!codes::WriteSnapshot(flags.out, reproducers, "reproducers")) return 2;
  return report.Clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  codes::FlagSet flag_set("codes_fuzz");
  flag_set.Int("--queries", &flags.queries, "N").AtLeast(0);
  flag_set.Int("--threads", &flags.threads, "N").AtLeast(1);
  flag_set.Uint64("--seed", &flags.seed, "S");
  flag_set.Int("--databases", &flags.databases, "N").AtLeast(1);
  flag_set.Int("--schema", &flags.schema, "M");
  flag_set.Bool("--smoke", &flags.smoke);
  flag_set.String("--replay", &flags.replay, "FILE");
  flag_set.String("--out", &flags.out, "FILE");
  flag_set.Bool("--no-shrink", &flags.no_shrink);
  flag_set.Path("--metrics-out", &flags.metrics_out);
  if (int rc = flag_set.Parse(argc, argv)) return rc;

  if (flags.smoke) {
    // Fixed, fast configuration for ctest / CI gating.
    constexpr codes::FlagSet::Setting kSmoke[] = {
        {"--queries", "400"}, {"--threads", "2"}, {"--seed", "20240805"}};
    flag_set.Preset(kSmoke);
  }

  int exit_code;
  if (!flags.replay.empty()) {
    exit_code = RunReplay(flags);
  } else if (flags.schema >= 0) {
    exit_code = RunSingle(flags);
  } else {
    exit_code = RunCampaign(flags);
  }

  // Machine-readable per-stage/guard/pool breakdown of the run (executor
  // guard consumption, thread-pool wait times, BM25 activity).
  if (!codes::WriteSnapshot(flags.metrics_out,
                            codes::MetricsRegistry::Global().SnapshotJson(),
                            "metrics snapshot")) {
    return 2;
  }
  return exit_code;
}
