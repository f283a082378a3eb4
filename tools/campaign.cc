#include "tools/campaign.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "common/flags.h"
#include "common/status.h"
#include "fleet/fleet_manager.h"

namespace codes {
namespace campaign {

namespace {

PipelineConfig SftConfig() {
  PipelineConfig config;
  config.size = ModelSize::k7B;
  return config;
}

// The presets, as command-line values. The two serving smokes run at 2x
// saturation: capacity 4 workers / 20 ms = 200 qps, offered 400 qps.
constexpr FlagSet::Setting kSaturation[] = {
    {"--requests", "600"}, {"--qps", "400"},
    {"--workers", "4"}, {"--service-us", "20000"},
    {"--deadline-us", "200000"}, {"--threads", "8"},
    {"--selfcheck", ""}};
constexpr FlagSet::Setting kSmoke[] = {{"--seed", "20240806"},
                                       {"--rate", "0.02"}};
constexpr FlagSet::Setting kAdvSmoke[] = {{"--seed", "20240809"}};
// The offered rate of --mt-smoke is the sum of its tenants' shares.
constexpr FlagSet::Setting kMtSmoke[] = {
    {"--requests", "900"}, {"--workers", "4"},
    {"--service-us", "20000"}, {"--deadline-us", "200000"},
    {"--threads", "8"}, {"--seed", "20240808"},
    {"--selfcheck", ""}};

}  // namespace

TrainedPipeline::TrainedPipeline(const Text2SqlBenchmark& bench)
    : pipeline(SftConfig(), zoo.CodesFor(ModelSize::k7B)) {
  pipeline.TrainClassifier(bench);
  pipeline.FineTune(bench);
}

void ResetToCold(const CodesPipeline* pipeline, fleet::FleetManager* fleet) {
  if (fleet != nullptr) fleet->EvictAll();
  if (pipeline != nullptr) pipeline->ClearRetrieverCache();
  MetricsRegistry::Global().Reset();
}

MetricsSnapshot DeterministicView(const MetricsSnapshot& snapshot) {
  MetricsSnapshot out;
  out.counters = snapshot.counters;
  out.gauges = snapshot.gauges;
  for (const auto& [name, data] : snapshot.histograms) {
    if (name.rfind("serve.", 0) == 0) out.histograms[name] = data;
  }
  return out;
}

int Expect(bool holds, const char* format, ...) {
  if (holds) return 0;
  std::fputs("INVARIANT VIOLATION: ", stdout);
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::fputc('\n', stdout);
  return 1;
}

int CheckReplay(int threads, const Fingerprint& run,
                const Fingerprint& replay) {
  const bool with_metrics = run.metrics.has_value();
  const bool metrics_match = run.metrics == replay.metrics;
  if (run.digest == replay.digest && metrics_match) {
    std::printf("selfcheck: 1-thread replay digest %s\n",
                with_metrics ? "and metrics match" : "matches");
    return 0;
  }
  std::printf("selfcheck FAILED: %d-thread digest %016" PRIx64
              " != 1-thread digest %016" PRIx64 "%s\n",
              threads, run.digest, replay.digest,
              !with_metrics    ? ""
              : metrics_match ? " (metrics match)"
                              : " (metrics differ)");
  return 1;
}

void PrintElapsed(const Timer& timer, int threads) {
  std::fprintf(stderr, "elapsed: %lld ms (%d threads)\n",
               static_cast<long long>(timer.ElapsedSeconds() * 1000.0),
               threads);
}

int ParseLoadFlags(int argc, char** argv, LoadFlags* flags) {
  FlagSet set("codes_load");
  set.Int("--requests", &flags->requests, "N").AtLeast(1);
  set.Double("--qps", &flags->qps, "Q").Above(0.0);
  set.Int("--workers", &flags->workers, "N").AtLeast(1);
  set.Uint64("--service-us", &flags->service_us, "N").AtLeast(1);
  set.Uint64("--deadline-us", &flags->deadline_us, "N");
  set.Int("--threads", &flags->threads, "N").AtLeast(1);
  set.Uint64("--seed", &flags->seed, "S");
  set.Double("--rate", &flags->rate, "P").Within(0.0, 1.0);
  set.String("--spec", &flags->spec, "SPEC");
  set.Size("--queue", &flags->queue, "N").AtLeast(1);
  set.Double("--rate-limit", &flags->rate_limit, "Q").AtLeast(0.0);
  set.Path("--metrics-out", &flags->metrics_out);
  set.Bool("--adv", &flags->adv);
  set.Double("--adv-rate", &flags->adv_rate, "P").Within(0.0, 1.0);
  set.Bool("--selfcheck", &flags->selfcheck);
  set.Bool("--smoke", &flags->smoke);
  set.Bool("--mt-smoke", &flags->mt_smoke);
  if (int rc = set.Parse(argc, argv)) return rc;

  if (flags->mt_smoke) {
    // The tenant shares set the offered rate, and the campaign's one
    // reference run is the fair-share baseline, not a clean twin.
    if (int rc = set.Reject({"--smoke", "--qps", "--adv", "--adv-rate"},
                            "--mt-smoke")) {
      return rc;
    }
    set.Preset(kMtSmoke);
  } else if (flags->smoke) {
    if (flags->adv) {
      set.Preset(kAdvSmoke);
    } else {
      set.Preset(kSmoke);
    }
    set.Preset(kSaturation);
  }
  return 0;
}

serve::LoadGenOptions LoadOptions(const LoadFlags& flags) {
  serve::LoadGenOptions options;
  options.seed = flags.seed;
  options.num_requests = flags.requests;
  options.offered_qps = flags.qps;
  options.virtual_workers = flags.workers;
  options.service_base_us = flags.service_us;
  options.deadline_us = flags.deadline_us;
  options.threads = flags.threads;
  options.front_end.admission.queue_capacity = flags.queue;
  options.front_end.admission.rate_per_sec = flags.rate_limit;
  if (flags.adv) {
    options.adv_rate = flags.adv_rate;
    options.harden = true;
  }
  if (!flags.spec.empty()) {
    options.failpoint_spec = flags.spec;
  } else if (flags.rate > 0.0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "*=prob:%g", flags.rate);
    options.failpoint_spec = buf;
  }
  return options;
}

serve::LoadGenOptions AdvSmokeOptions() {
  char program[] = "codes_load", adv[] = "--adv", smoke[] = "--smoke";
  char* argv[] = {program, adv, smoke};
  LoadFlags flags;
  CODES_CHECK(ParseLoadFlags(3, argv, &flags) == 0);
  return LoadOptions(flags);
}

}  // namespace campaign
}  // namespace codes
