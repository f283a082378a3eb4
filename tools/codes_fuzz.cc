// codes_fuzz: metamorphic fuzzing CLI for the SQL engine.
//
// Modes:
//   campaign (default)   codes_fuzz --queries=10000 --threads=8 --seed=1
//   single query         codes_fuzz --seed=42 --schema=3
//   corpus replay        codes_fuzz --replay=tests/fuzz_corpus/engine_bugs.corpus
//   smoke                codes_fuzz --smoke       (small fixed-seed campaign)
//
// Campaign stdout is byte-identical for any --threads value (timing goes
// to stderr), so a CI diff between thread counts doubles as a determinism
// check. Exit status: 0 clean, 1 oracle violations, 2 usage/IO error.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/string_util.h"
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
  bool shrink = true;
  std::string replay;    ///< corpus file to replay
  std::string out;       ///< write reproducer lines here
  std::string metrics_out;  ///< JSON metrics snapshot path (optional)
};

void Usage() {
  std::fprintf(stderr,
               "usage: codes_fuzz [--queries=N] [--threads=N] [--seed=S]\n"
               "                  [--databases=N] [--schema=M] [--smoke]\n"
               "                  [--replay=FILE] [--out=FILE] [--no-shrink]\n"
               "                  [--metrics-out=PATH]\n");
}

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
  config.shrink = flags.shrink;

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

  if (!flags.out.empty()) {
    std::ofstream out(flags.out);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot write %s\n", flags.out.c_str());
      return 2;
    }
    out << "# codes_fuzz reproducers (seed=" << flags.seed
        << " queries=" << flags.queries << ")\n";
    for (const auto& f : report.failures) out << f.ReproLine() << "\n";
  }
  return report.Clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  bool seed_given = false;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    bool ok = true;
    if (codes::ParseFlag(argv[i], "--queries", &value)) {
      ok = codes::ParseInt(value, &flags.queries);
    } else if (codes::ParseFlag(argv[i], "--threads", &value)) {
      ok = codes::ParseInt(value, &flags.threads);
    } else if (codes::ParseFlag(argv[i], "--seed", &value)) {
      ok = codes::ParseUint64(value, &flags.seed);
      seed_given = true;
    } else if (codes::ParseFlag(argv[i], "--databases", &value)) {
      ok = codes::ParseInt(value, &flags.databases);
    } else if (codes::ParseFlag(argv[i], "--schema", &value)) {
      ok = codes::ParseInt(value, &flags.schema);
    } else if (codes::ParseFlag(argv[i], "--replay", &value)) {
      flags.replay = value;
    } else if (codes::ParseFlag(argv[i], "--out", &value)) {
      flags.out = value;
    } else if (codes::ParseFlag(argv[i], "--metrics-out", &value)) {
      flags.metrics_out = value;
    } else if (codes::ParseFlag(argv[i], "--smoke", &value)) {
      flags.smoke = true;
    } else if (codes::ParseFlag(argv[i], "--no-shrink", &value)) {
      flags.shrink = false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      Usage();
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value in flag: %s\n", argv[i]);
      Usage();
      return 2;
    }
  }

  if (flags.smoke) {
    // Fixed, fast configuration for ctest / CI gating.
    flags.queries = 400;
    flags.threads = 2;
    if (!seed_given) flags.seed = 20240805;
  }
  if (flags.queries < 0 || flags.threads < 1 || flags.databases < 1) {
    Usage();
    return 2;
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
  if (!flags.metrics_out.empty()) {
    std::ofstream metrics(flags.metrics_out);
    if (!metrics.is_open()) {
      std::fprintf(stderr, "cannot write %s\n", flags.metrics_out.c_str());
      return 2;
    }
    metrics << codes::MetricsRegistry::Global().SnapshotJson();
    std::fprintf(stderr, "metrics snapshot written to %s\n",
                 flags.metrics_out.c_str());
  }
  return exit_code;
}
