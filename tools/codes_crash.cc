// codes_crash: deterministic crash-recovery campaign runner.
//
// Runs the DESIGN.md section 15 campaign: a WAL-enabled StorageDb executes
// a deterministic mixed insert/index workload inside the simulated-crash
// environment, then the harness crashes it at EVERY write/sync/truncate
// boundary (times three crash variants: lost buffers, eagerly flushed
// buffers, torn writes), reboots, recovers, and differentially checks the
// recovered state against a pure-function oracle. The per-case outcomes
// fold into one FNV digest that is independent of --threads, which
// --selfcheck pins with a 1-thread replay.
//
// Modes:
//   campaign (default)  codes_crash --batches=200 --threads=8 --seed=1
//   smoke               codes_crash --smoke   (small fixed-seed campaign
//                                              with the determinism check)
//
// Campaign stdout is byte-identical across thread counts (timing goes to
// stderr). Exit status: 0 clean, 1 invariant violation, 2 usage error.

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/metrics.h"
#include "common/string_util.h"
#include "storage/crash_harness.h"

namespace {

struct Flags {
  int batches = 200;
  int rows_per_batch = 3;
  int initial_rows = 8;
  int checkpoint_every = 9;
  int threads = 8;
  uint64_t seed = 1;
  size_t pool_frames = 16;
  uint64_t max_cases = 0;
  bool torn = true;
  std::string metrics_out;  ///< JSON metrics snapshot path (optional)
  bool smoke = false;
  bool selfcheck = false;
};

void Usage() {
  std::fprintf(stderr,
               "usage: codes_crash [--batches=N] [--rows-per-batch=N]\n"
               "                   [--initial-rows=N] [--checkpoint-every=N]\n"
               "                   [--threads=N] [--seed=S] [--pool-frames=N]\n"
               "                   [--max-cases=N] [--no-torn]\n"
               "                   [--metrics-out=PATH] [--selfcheck]\n"
               "                   [--smoke]\n");
}

codes::storage::CrashCampaignConfig MakeConfig(const Flags& flags,
                                               int threads) {
  codes::storage::CrashCampaignConfig config;
  config.seed = flags.seed;
  config.batches = flags.batches;
  config.rows_per_batch = flags.rows_per_batch;
  config.initial_rows = flags.initial_rows;
  config.checkpoint_every = flags.checkpoint_every;
  config.pool_frames = flags.pool_frames;
  config.threads = threads;
  config.torn_variants = flags.torn;
  config.max_cases = flags.max_cases;
  return config;
}

void PrintResult(const codes::storage::CrashCampaignResult& r,
                 const Flags& flags) {
  std::printf("crash campaign: batches=%d rows_per_batch=%d seed=%" PRIu64
              " checkpoint_every=%d pool_frames=%zu\n",
              flags.batches, flags.rows_per_batch, flags.seed,
              flags.checkpoint_every, flags.pool_frames);
  std::printf("boundaries=%" PRIu64 " cases_run=%" PRIu64
              " cases_dropped=%" PRIu64 " failures=%" PRIu64 "\n",
              r.boundaries, r.cases_run, r.cases_dropped, r.failures);
  for (const codes::storage::CrashCaseOutcome& f : r.failed) {
    std::printf("FAILED case op=%" PRIu64 " variant=%s: %s\n", f.crash_op,
                codes::storage::CrashVariantName(f.variant), f.error.c_str());
  }
  std::printf("recovery: runs=%" PRIu64 " wal_records_seen=%" PRIu64
              " replayed=%" PRIu64 " discarded=%" PRIu64 "\n",
              r.recovery_runs, r.wal_records_seen, r.wal_records_replayed,
              r.wal_records_discarded);
  std::printf("digest=%016" PRIx64 "\n", r.digest);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    bool ok = true;
    if (codes::ParseFlag(argv[i], "--batches", &value)) {
      ok = codes::ParseInt(value, &flags.batches);
    } else if (codes::ParseFlag(argv[i], "--rows-per-batch", &value)) {
      ok = codes::ParseInt(value, &flags.rows_per_batch);
    } else if (codes::ParseFlag(argv[i], "--initial-rows", &value)) {
      ok = codes::ParseInt(value, &flags.initial_rows);
    } else if (codes::ParseFlag(argv[i], "--checkpoint-every", &value)) {
      ok = codes::ParseInt(value, &flags.checkpoint_every);
    } else if (codes::ParseFlag(argv[i], "--threads", &value)) {
      ok = codes::ParseInt(value, &flags.threads);
    } else if (codes::ParseFlag(argv[i], "--seed", &value)) {
      ok = codes::ParseUint64(value, &flags.seed);
    } else if (codes::ParseFlag(argv[i], "--pool-frames", &value)) {
      ok = codes::ParseSize(value, &flags.pool_frames);
    } else if (codes::ParseFlag(argv[i], "--max-cases", &value)) {
      ok = codes::ParseUint64(value, &flags.max_cases);
    } else if (codes::ParseFlag(argv[i], "--no-torn", &value)) {
      flags.torn = false;
    } else if (codes::ParseFlag(argv[i], "--metrics-out", &value)) {
      flags.metrics_out = value;
    } else if (codes::ParseFlag(argv[i], "--selfcheck", &value)) {
      flags.selfcheck = true;
    } else if (codes::ParseFlag(argv[i], "--smoke", &value)) {
      flags.smoke = true;
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
    flags.batches = 24;
    flags.rows_per_batch = 3;
    flags.checkpoint_every = 5;
    flags.threads = 2;
    flags.seed = 20240807;
    flags.selfcheck = true;
  }
  if (flags.batches < 1 || flags.rows_per_batch < 1 || flags.initial_rows < 0 ||
      flags.checkpoint_every < 0 || flags.threads < 1 ||
      flags.pool_frames < 2) {
    Usage();
    return 2;
  }

  auto start = std::chrono::steady_clock::now();
  // Zero the registry so the exported snapshot covers exactly this
  // campaign's storage traffic.
  codes::MetricsRegistry::Global().Reset();

  codes::Result<codes::storage::CrashCampaignResult> run =
      codes::storage::RunCrashCampaign(MakeConfig(flags, flags.threads));
  if (!run.ok()) {
    std::fprintf(stderr, "campaign failed to run: %s\n",
                 run.status().ToString().c_str());
    return 2;
  }
  const codes::storage::CrashCampaignResult& result = *run;
  // Snapshot immediately after the campaign, before the selfcheck replay
  // adds its own recoveries.
  codes::MetricsSnapshot snapshot = codes::MetricsRegistry::Global().Snapshot();
  PrintResult(result, flags);

  int exit_code = 0;
  if (result.failures > 0) {
    std::printf("INVARIANT VIOLATION: %" PRIu64
                " crash cases failed recovery or the differential check\n",
                result.failures);
    exit_code = 1;
  }
  // Metrics invariant: recovery classifies every scanned WAL record as
  // either replayed or discarded — no third bucket, no double counting.
  if (result.wal_records_replayed + result.wal_records_discarded !=
      result.wal_records_seen) {
    std::printf("INVARIANT VIOLATION: replayed %" PRIu64 " + discarded %" PRIu64
                " != wal_records_seen %" PRIu64 "\n",
                result.wal_records_replayed, result.wal_records_discarded,
                result.wal_records_seen);
    exit_code = 1;
  } else {
    std::printf("metrics: storage.recovery.replayed + discarded == "
                "wal_records_seen (%" PRIu64 ")\n",
                result.wal_records_seen);
  }
  if (result.recovery_runs < result.cases_run) {
    std::printf("INVARIANT VIOLATION: %" PRIu64 " recovery runs for %" PRIu64
                " cases\n",
                result.recovery_runs, result.cases_run);
    exit_code = 1;
  }

  if (!flags.metrics_out.empty()) {
    std::FILE* out = std::fopen(flags.metrics_out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", flags.metrics_out.c_str());
      return 2;
    }
    std::string json = snapshot.ToJson() + "\n";
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::fprintf(stderr, "metrics snapshot written to %s\n",
                 flags.metrics_out.c_str());
  }

  if (flags.selfcheck) {
    // The whole campaign must replay byte-identically single-threaded:
    // every crash case owns its own SimEnv and outcome slot, so the
    // digest depends only on (config, seed), never on scheduling.
    codes::Result<codes::storage::CrashCampaignResult> serial =
        codes::storage::RunCrashCampaign(MakeConfig(flags, 1));
    if (!serial.ok()) {
      std::fprintf(stderr, "selfcheck replay failed to run: %s\n",
                   serial.status().ToString().c_str());
      return 2;
    }
    if (serial->digest == result.digest) {
      std::printf("selfcheck: 1-thread replay digest matches\n");
    } else {
      std::printf("selfcheck FAILED: %d-thread digest %016" PRIx64
                  " != 1-thread digest %016" PRIx64 "\n",
                  flags.threads, result.digest, serial->digest);
      exit_code = 1;
    }
  }

  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  std::fprintf(stderr, "elapsed: %lld ms (%d threads)\n",
               static_cast<long long>(elapsed), flags.threads);
  return exit_code;
}
