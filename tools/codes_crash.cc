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
//                                              with the determinism check;
//                                              explicit flags override it)
//
// Campaign stdout is byte-identical across thread counts (timing goes to
// stderr). Exit status: 0 clean, 1 invariant violation, 2 usage error.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "storage/crash_harness.h"
#include "tools/campaign.h"

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
  bool no_torn = false;
  std::string metrics_out;  ///< JSON metrics snapshot path (optional)
  bool smoke = false;
  bool selfcheck = false;
};

// Fixed, fast configuration for ctest / CI gating.
constexpr codes::FlagSet::Setting kSmoke[] = {
    {"--batches", "24"}, {"--rows-per-batch", "3"},
    {"--checkpoint-every", "5"}, {"--threads", "2"},
    {"--seed", "20240807"}, {"--selfcheck", ""}};

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
  config.torn_variants = !flags.no_torn;
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
  codes::FlagSet flag_set("codes_crash");
  flag_set.Int("--batches", &flags.batches, "N").AtLeast(1);
  flag_set.Int("--rows-per-batch", &flags.rows_per_batch, "N").AtLeast(1);
  flag_set.Int("--initial-rows", &flags.initial_rows, "N").AtLeast(0);
  flag_set.Int("--checkpoint-every", &flags.checkpoint_every, "N")
      .AtLeast(0);
  flag_set.Int("--threads", &flags.threads, "N").AtLeast(1);
  flag_set.Uint64("--seed", &flags.seed, "S");
  flag_set.Size("--pool-frames", &flags.pool_frames, "N").AtLeast(2);
  flag_set.Uint64("--max-cases", &flags.max_cases, "N");
  flag_set.Bool("--no-torn", &flags.no_torn);
  flag_set.Path("--metrics-out", &flags.metrics_out);
  flag_set.Bool("--selfcheck", &flags.selfcheck);
  flag_set.Bool("--smoke", &flags.smoke);
  if (int rc = flag_set.Parse(argc, argv)) return rc;
  if (flags.smoke) flag_set.Preset(kSmoke);

  codes::Timer timer;
  // Start from a zeroed registry so the exported snapshot covers exactly
  // this campaign's storage traffic.
  codes::campaign::ResetToCold();
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

  using codes::campaign::Expect;
  int exit_code = Expect(result.failures == 0,
                         "%" PRIu64 " crash cases failed recovery or the "
                         "differential check",
                         result.failures);
  // Metrics invariant: recovery classifies every scanned WAL record as
  // either replayed or discarded — no third bucket, no double counting.
  if (Expect(result.wal_records_replayed + result.wal_records_discarded ==
                 result.wal_records_seen,
             "replayed %" PRIu64 " + discarded %" PRIu64
             " != wal_records_seen %" PRIu64,
             result.wal_records_replayed, result.wal_records_discarded,
             result.wal_records_seen) == 0) {
    std::printf("metrics: storage.recovery.replayed + discarded == "
                "wal_records_seen (%" PRIu64 ")\n",
                result.wal_records_seen);
  } else {
    exit_code = 1;
  }
  exit_code |= Expect(result.recovery_runs >= result.cases_run,
                      "%" PRIu64 " recovery runs for %" PRIu64 " cases",
                      result.recovery_runs, result.cases_run);

  if (!codes::WriteSnapshot(flags.metrics_out, snapshot.ToJson() + "\n",
                            "metrics snapshot")) {
    return 2;
  }

  if (flags.selfcheck) {
    // The whole campaign must replay byte-identically single-threaded:
    // every crash case owns its own SimEnv and outcome slot, so the
    // digest depends only on (config, seed), never on scheduling.
    codes::campaign::ResetToCold();
    codes::Result<codes::storage::CrashCampaignResult> serial =
        codes::storage::RunCrashCampaign(MakeConfig(flags, 1));
    if (!serial.ok()) {
      std::fprintf(stderr, "selfcheck replay failed to run: %s\n",
                   serial.status().ToString().c_str());
      return 2;
    }
    exit_code |= codes::campaign::CheckReplay(
        flags.threads, {result.digest, {}}, {serial->digest, {}});
  }
  codes::campaign::PrintElapsed(timer, flags.threads);
  return exit_code;
}
