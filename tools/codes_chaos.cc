// codes_chaos: fault-injection campaign runner for the serving path.
//
// Runs dev-set prediction through CodesPipeline::PredictGuarded while the
// failpoint registry injects faults at every serving site, and asserts the
// degradation-ladder invariants: no crash, every request answered with
// non-empty SQL, and — because fault decisions are slot-based — the whole
// campaign byte-identical for any --threads value.
//
// Modes:
//   campaign (default)  codes_chaos --queries=10000 --threads=8 --seed=1
//   smoke               codes_chaos --smoke   (small fixed-seed campaign
//                                              with a built-in 1-vs-N
//                                              thread determinism check;
//                                              explicit flags override it)
//
// Faults default to every site at --rate; --spec overrides with the full
// failpoint grammar (e.g. "lm.decode=prob:0.2;executor.step=nth:7").
// Campaign stdout is byte-identical across thread counts (timing goes to
// stderr). Exit status: 0 clean, 1 invariant violation, 2 usage error.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/flags.h"
#include "common/flat_hash.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"
#include "tools/campaign.h"

namespace {

struct Flags {
  int queries = 10000;
  int threads = 8;
  uint64_t seed = 1;
  double rate = 0.01;
  size_t max_rows = 20000;
  std::string spec;  ///< overrides the --rate-derived spec when non-empty
  std::string metrics_out;  ///< JSON metrics snapshot path (optional)
  bool smoke = false;
  bool selfcheck = false;
};

// Fixed, fast configuration for ctest / CI gating.
constexpr codes::FlagSet::Setting kSmoke[] = {{"--queries", "400"},
                                              {"--threads", "2"},
                                              {"--seed", "20240806"},
                                              {"--rate", "0.05"},
                                              {"--selfcheck", ""}};

struct CampaignResult {
  uint64_t digest = 0;
  uint64_t queries = 0;
  uint64_t verified = 0;
  uint64_t unverified = 0;
  uint64_t empty_sql = 0;
  uint64_t rung_counts[4] = {0, 0, 0, 0};
  uint64_t site_fired[codes::kNumFailpointSites] = {0, 0, 0, 0, 0};
};

/// Runs `flags.queries` predictions in rounds over the dev set. Each round
/// reconfigures the registry with seed + round so consecutive visits of
/// the same sample draw different faults (within one round the per-sample
/// slot pins every decision, independent of scheduling).
CampaignResult RunCampaign(const codes::CodesPipeline& pipeline,
                           const codes::Text2SqlBenchmark& bench,
                           const Flags& flags, const std::string& spec,
                           int threads) {
  const auto& dev = bench.dev;
  codes::ServeOptions options;
  options.limits.max_rows = flags.max_rows;

  CampaignResult result;
  // FNV-1a over the campaign's (sql, report) lines in sample order: the
  // single number CI compares across thread counts and reruns.
  codes::Fnv1aDigest digest;
  codes::ThreadPool pool(threads);
  int done = 0;
  for (uint64_t round = 0; done < flags.queries; ++round) {
    codes::Status configured =
        codes::Failpoints::Configure(spec, flags.seed + round);
    CODES_CHECK(configured.ok());
    size_t batch = std::min(dev.size(),
                            static_cast<size_t>(flags.queries - done));
    std::vector<std::pair<std::string, codes::ServeReport>> slots(batch);
    pool.ParallelFor(batch, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        codes::ServeReport report;
        std::string sql =
            pipeline.PredictGuarded(bench, dev[i], options, &report);
        slots[i] = {std::move(sql), std::move(report)};
      }
    });
    for (const auto& [sql, report] : slots) {
      digest.Add(sql);
      digest.Add(" | ");
      digest.Add(report.ToString());
      digest.Add("\n");
      ++result.queries;
      if (sql.empty()) ++result.empty_sql;
      if (report.execution_verified) {
        ++result.verified;
      } else {
        ++result.unverified;
      }
      for (codes::ServeRung rung : report.rungs) {
        ++result.rung_counts[static_cast<int>(rung)];
      }
    }
    // Fired counters reset on the next Configure: harvest per round.
    for (int s = 0; s < codes::kNumFailpointSites; ++s) {
      result.site_fired[s] += codes::Failpoints::FiredCount(
          static_cast<codes::FailpointSite>(s));
    }
    done += static_cast<int>(batch);
  }
  codes::Failpoints::Clear();
  result.digest = digest.value;
  return result;
}

void PrintResult(const CampaignResult& r, const std::string& spec,
                 uint64_t seed) {
  std::printf("chaos campaign: queries=%" PRIu64 " seed=%" PRIu64
              " spec=\"%s\"\n",
              r.queries, seed, spec.c_str());
  std::printf("served: verified=%" PRIu64 " unverified=%" PRIu64
              " empty_sql=%" PRIu64 "\n",
              r.verified, r.unverified, r.empty_sql);
  std::printf("rungs fired:");
  for (int i = 0; i < 4; ++i) {
    std::printf(" %s=%" PRIu64,
                codes::ServeRungName(static_cast<codes::ServeRung>(i)),
                r.rung_counts[i]);
  }
  std::printf("\n");
  std::printf("faults injected:");
  for (int s = 0; s < codes::kNumFailpointSites; ++s) {
    std::printf(" %s=%" PRIu64,
                codes::FailpointSiteName(static_cast<codes::FailpointSite>(s)),
                r.site_fired[s]);
  }
  std::printf("\n");
  std::printf("digest=%016" PRIx64 "\n", r.digest);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  codes::FlagSet flag_set("codes_chaos");
  flag_set.Int("--queries", &flags.queries, "N").AtLeast(1);
  flag_set.Int("--threads", &flags.threads, "N").AtLeast(1);
  flag_set.Uint64("--seed", &flags.seed, "S");
  flag_set.Double("--rate", &flags.rate, "P").Within(0.0, 1.0);
  flag_set.String("--spec", &flags.spec, "SPEC");
  flag_set.Size("--max-rows", &flags.max_rows, "N");
  flag_set.Path("--metrics-out", &flags.metrics_out);
  flag_set.Bool("--selfcheck", &flags.selfcheck);
  flag_set.Bool("--smoke", &flags.smoke);
  if (int rc = flag_set.Parse(argc, argv)) return rc;
  if (flags.smoke) flag_set.Preset(kSmoke);

  std::string spec = flags.spec;
  if (spec.empty()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "*=prob:%g", flags.rate);
    spec = buf;
  }

  codes::Timer timer;
  // Fixture: the tiny Spider-like benchmark with a fully set-up pipeline,
  // the same serving configuration the evaluation harness exercises.
  auto bench = codes::BuildTinySpiderLike(2024);
  codes::campaign::TrainedPipeline fixture(bench);
  const codes::CodesPipeline& pipeline = fixture.pipeline;
  codes::campaign::ResetToCold(&pipeline);

  CampaignResult result =
      RunCampaign(pipeline, bench, flags, spec, flags.threads);
  // Snapshot immediately after the campaign, before the selfcheck replay
  // adds its own requests.
  codes::MetricsSnapshot snapshot = codes::MetricsRegistry::Global().Snapshot();
  PrintResult(result, spec, flags.seed);

  using codes::campaign::Expect;
  int exit_code = Expect(result.empty_sql == 0, "%" PRIu64 " empty predictions",
                         result.empty_sql);
  // Metrics invariant: every request lands in exactly one serve.outcome.*
  // counter, so the family sums to the number of queries served.
  uint64_t outcome_sum = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind("serve.outcome.", 0) == 0) outcome_sum += value;
  }
  uint64_t requests = snapshot.counters.count("serve.requests")
                          ? snapshot.counters.at("serve.requests")
                          : 0;
  if (Expect(outcome_sum == result.queries && requests == result.queries,
             "outcome counters sum to %" PRIu64 ", serve.requests=%" PRIu64
             ", but %" PRIu64 " queries were served",
             outcome_sum, requests, result.queries) == 0) {
    std::printf("metrics: serve.outcome.* sums to %" PRIu64
                " == queries served\n",
                outcome_sum);
  } else {
    exit_code = 1;
  }
  if (!codes::WriteSnapshot(flags.metrics_out, snapshot.ToJson() + "\n",
                            "metrics snapshot")) {
    return 2;
  }

  if (flags.selfcheck) {
    // The whole campaign must replay byte-identically single-threaded:
    // fault decisions and ladder outcomes depend on (seed, sample), never
    // on scheduling.
    codes::campaign::ResetToCold(&pipeline);
    CampaignResult serial = RunCampaign(pipeline, bench, flags, spec, 1);
    exit_code |= codes::campaign::CheckReplay(
        flags.threads, {result.digest, {}}, {serial.digest, {}});
  }
  codes::campaign::PrintElapsed(timer, flags.threads);
  return exit_code;
}
