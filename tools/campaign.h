#ifndef CODES_TOOLS_CAMPAIGN_H_
#define CODES_TOOLS_CAMPAIGN_H_

// The pieces the campaign tools (codes_chaos, codes_crash, codes_load)
// share: the trained serving fixture, the cold reset every run and its
// replay start from, the 1-thread replay selfcheck line and the stderr
// "elapsed:" line. Also codes_load's flag table, presets and serving
// options, so bench_latency's goodput section runs exactly the
// `codes_load --adv --smoke` campaign.

#include <cstdint>
#include <optional>
#include <string>

#include "common/metrics.h"
#include "common/timer.h"
#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "serve/load_gen.h"

namespace codes {
namespace fleet {
class FleetManager;
}  // namespace fleet

namespace campaign {

/// The serving campaigns' fixture: the 7B pipeline with its schema
/// classifier trained and fine-tuned on `bench` (the paper's §8.1 SFT
/// setting), over the small LM zoo.
struct TrainedPipeline {
  explicit TrainedPipeline(const Text2SqlBenchmark& bench);

  LmZoo zoo{1, 31};
  CodesPipeline pipeline;
};

/// Puts the process back where a campaign run starts: the fleet's bundles
/// evicted, the pipeline's retriever cache emptied and the metrics
/// registry zeroed, so a run and its replay see the same cold caches and
/// the snapshot covers exactly one run. Null arguments are skipped.
void ResetToCold(const CodesPipeline* pipeline = nullptr,
                 fleet::FleetManager* fleet = nullptr);

/// The part of a metrics snapshot a replay must reproduce: every counter
/// and gauge (all driven by virtual-time decisions or per-request counts),
/// plus the serve.* histograms (observed in virtual µs). Wall-clock
/// histograms (span.*, pool.task_wait_us) are real timings and excluded.
MetricsSnapshot DeterministicView(const MetricsSnapshot& snapshot);

/// Prints "INVARIANT VIOLATION: <message>" unless `holds`; returns 0 when
/// it holds, 1 otherwise.
[[gnu::format(printf, 2, 3)]] int Expect(bool holds, const char* format,
                                         ...);

/// What the selfcheck compares between a run and its 1-thread replay: the
/// campaign digest, plus the DeterministicView JSON for campaigns whose
/// metrics are deterministic too.
struct Fingerprint {
  uint64_t digest = 0;
  std::optional<std::string> metrics;
};

/// Prints the selfcheck line for a `threads`-thread run and its 1-thread
/// replay; returns 0 when they match, 1 otherwise.
int CheckReplay(int threads, const Fingerprint& run,
                const Fingerprint& replay);

/// Prints "elapsed: N ms (T threads)" to stderr, keeping stdout free of
/// wall-clock numbers.
void PrintElapsed(const Timer& timer, int threads);

/// codes_load's flags, one field each.
struct LoadFlags {
  int requests = 2000;
  double qps = 400.0;
  int workers = 4;
  uint64_t service_us = 20'000;
  uint64_t deadline_us = 200'000;
  int threads = 2;
  uint64_t seed = 1;
  double rate = 0.0;        ///< failpoint probability at every site
  std::string spec;         ///< overrides the --rate-derived spec
  size_t queue = 64;
  double rate_limit = 0.0;  ///< token-bucket qps; <= 0 disables
  std::string metrics_out;  ///< JSON metrics snapshot path (optional)
  bool adv = false;         ///< adversarial traffic + hardening front door
  double adv_rate = 0.3;    ///< fraction of questions mutated when --adv
  bool smoke = false;
  bool mt_smoke = false;
  bool selfcheck = false;
};

/// Parses codes_load's command line, then applies the preset its mode
/// selects (--smoke, --adv --smoke or --mt-smoke) to the flags the command
/// line did not give. A given flag the mode cannot honour is a usage
/// error. Returns 0, or the exit code.
int ParseLoadFlags(int argc, char** argv, LoadFlags* flags);

/// The serving options `flags` describe. --mt-smoke's tenant mix and fleet
/// come on top, from codes_load.
serve::LoadGenOptions LoadOptions(const LoadFlags& flags);

/// The options of the campaign `codes_load --adv --smoke` runs.
serve::LoadGenOptions AdvSmokeOptions();

}  // namespace campaign
}  // namespace codes

#endif  // CODES_TOOLS_CAMPAIGN_H_
