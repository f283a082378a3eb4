// codes_load: deterministic open-loop overload campaign driver.
//
// Replays a seeded arrival schedule against the overload-protection front
// end (admission control, deadline queue, circuit breakers, adaptive
// brownout) wrapped around CodesPipeline::PredictGuarded, entirely in
// virtual time: a single discrete-event driver makes every control
// decision, so the campaign report, its digest, and the serve.* metrics
// snapshot are byte-identical at any --threads value.
//
// Modes:
//   campaign (default)  codes_load --requests=5000 --qps=400 --threads=8
//   smoke               codes_load --smoke   (fixed-seed 2x-saturation
//                                             campaign with a built-in
//                                             1-vs-8-thread determinism
//                                             check and the metric sum
//                                             invariant asserted)
//   mt-smoke            codes_load --mt-smoke (fixed-seed multi-tenant
//                                             fleet campaign: hot tenant
//                                             at 5x its fair share, cold
//                                             and bursty-adversarial
//                                             tenants, LRU fleet eviction
//                                             under a memory budget,
//                                             per-tenant isolation and
//                                             metric invariants asserted,
//                                             1-vs-8-thread determinism
//                                             check)
//   adv-smoke           codes_load --adv --smoke (fixed-seed adversarial
//                                             campaign: 30% of questions
//                                             mutated online, hardening
//                                             front door on, goodput-
//                                             under-perturbation >= 80%
//                                             of clean asserted, the
//                                             serve.adv.* partition
//                                             invariant checked, 1-vs-8-
//                                             thread determinism check)
//
// --adv on a plain campaign mixes mutated questions at --adv-rate and
// turns the hardening front door on.
//
// --qps is the offered (arrival) rate; virtual capacity is
// --workers * 1e6 / --service-us, so --qps=2x capacity is a saturation
// campaign. Campaign stdout is byte-identical across thread counts
// (timing goes to stderr). Exit status: 0 clean, 1 invariant violation,
// 2 usage error.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/metrics.h"
#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"
#include "fleet/fleet_manager.h"
#include "serve/load_gen.h"

namespace {

struct Flags {
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

/// The registry snapshot compared across thread counts: every counter and
/// gauge (all driven by virtual-time decisions or per-request counts),
/// plus the serve.* histograms (observed in virtual µs). Wall-clock
/// histograms (span.*, pool.task_wait_us) are real timings and excluded.
codes::MetricsSnapshot DeterministicView(const codes::MetricsSnapshot& s) {
  codes::MetricsSnapshot out;
  out.counters = s.counters;
  out.gauges = s.gauges;
  for (const auto& [name, data] : s.histograms) {
    if (name.rfind("serve.", 0) == 0) out.histograms[name] = data;
  }
  return out;
}

uint64_t CounterOr0(const codes::MetricsSnapshot& s, const char* name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

/// Asserts the admission accounting contract from the emitted metrics
/// (not from the report — the point is that the exported numbers add up).
int CheckSumInvariant(const codes::MetricsSnapshot& snapshot,
                      const codes::serve::LoadReport& report) {
  uint64_t offered = CounterOr0(snapshot, "serve.offered");
  uint64_t admitted = CounterOr0(snapshot, "serve.admitted");
  uint64_t rejected = CounterOr0(snapshot, "serve.rejected");
  uint64_t shed = CounterOr0(snapshot, "serve.shed");
  int bad = 0;
  if (admitted + rejected + shed != offered) {
    std::printf("INVARIANT VIOLATION: admitted=%" PRIu64 " + rejected=%" PRIu64
                " + shed=%" PRIu64 " != offered=%" PRIu64 "\n",
                admitted, rejected, shed, offered);
    bad = 1;
  }
  if (CounterOr0(snapshot, "serve.rejected.rate") +
          CounterOr0(snapshot, "serve.rejected.queue_full") +
          CounterOr0(snapshot, "serve.rejected.tenant_rate") !=
      rejected) {
    std::printf("INVARIANT VIOLATION: serve.rejected.* do not sum to "
                "serve.rejected=%" PRIu64 "\n",
                rejected);
    bad = 1;
  }
  if (CounterOr0(snapshot, "serve.shed.deadline") +
          CounterOr0(snapshot, "serve.shed.drain") !=
      shed) {
    std::printf("INVARIANT VIOLATION: serve.shed.* do not sum to "
                "serve.shed=%" PRIu64 "\n",
                shed);
    bad = 1;
  }
  if (offered != report.offered) {
    std::printf("INVARIANT VIOLATION: serve.offered=%" PRIu64
                " != campaign offered=%" PRIu64 "\n",
                offered, report.offered);
    bad = 1;
  }
  if (bad == 0) {
    std::printf("metrics: serve.admitted + serve.rejected + serve.shed == "
                "serve.offered == %" PRIu64 "\n",
                offered);
  }
  return bad;
}

/// The adversarial partition contract: every PredictGuarded call lands in
/// exactly one of serve.adv.clean / serve.adv.suspect, so the pair sums
/// to serve.requests. CI asserts the same identity from the JSON snapshot.
int CheckAdvInvariant(const codes::MetricsSnapshot& snapshot) {
  uint64_t clean = CounterOr0(snapshot, "serve.adv.clean");
  uint64_t suspect = CounterOr0(snapshot, "serve.adv.suspect");
  uint64_t requests = CounterOr0(snapshot, "serve.requests");
  if (clean + suspect != requests) {
    std::printf("INVARIANT VIOLATION: serve.adv.clean=%" PRIu64
                " + serve.adv.suspect=%" PRIu64 " != serve.requests=%" PRIu64
                "\n",
                clean, suspect, requests);
    return 1;
  }
  std::printf("metrics: serve.adv.clean + serve.adv.suspect == "
              "serve.requests == %" PRIu64 "\n",
              requests);
  return 0;
}

/// Per-tenant admission accounting: for every tenant family the exported
/// counters must satisfy admitted + rejected + shed == offered, agree
/// with the campaign's per-tenant rows, and sum to the global counters.
int CheckTenantInvariants(const codes::MetricsSnapshot& snapshot,
                          const codes::serve::LoadReport& report) {
  int bad = 0;
  uint64_t offered_sum = 0;
  for (const auto& row : report.tenants) {
    std::string prefix = "serve.tenant." + row.name + ".";
    uint64_t offered = CounterOr0(snapshot, (prefix + "offered").c_str());
    uint64_t admitted = CounterOr0(snapshot, (prefix + "admitted").c_str());
    uint64_t rejected = CounterOr0(snapshot, (prefix + "rejected").c_str());
    uint64_t shed = CounterOr0(snapshot, (prefix + "shed").c_str());
    offered_sum += offered;
    if (admitted + rejected + shed != offered) {
      std::printf("INVARIANT VIOLATION: tenant %s: admitted=%" PRIu64
                  " + rejected=%" PRIu64 " + shed=%" PRIu64
                  " != offered=%" PRIu64 "\n",
                  row.name.c_str(), admitted, rejected, shed, offered);
      bad = 1;
    }
    if (offered != row.offered || admitted != row.admitted ||
        rejected != row.rejected || shed != row.shed) {
      std::printf("INVARIANT VIOLATION: tenant %s: metric family disagrees "
                  "with campaign accounting\n",
                  row.name.c_str());
      bad = 1;
    }
  }
  if (offered_sum != CounterOr0(snapshot, "serve.offered")) {
    std::printf("INVARIANT VIOLATION: tenant offered counters sum to %" PRIu64
                " != serve.offered=%" PRIu64 "\n",
                offered_sum, CounterOr0(snapshot, "serve.offered"));
    bad = 1;
  }
  if (bad == 0) {
    std::printf("metrics: per-tenant admitted + rejected + shed == offered "
                "for all %zu tenants\n",
                report.tenants.size());
  }
  return bad;
}

/// The multi-tenant fleet campaign. Six tenants over six dev databases:
/// one hot tenant offered 5x its fair share, two normal tenants, two
/// near-idle cold tenants (whose rare requests force fleet attach under
/// the memory budget), and one bursty adversarial tenant. Asserts:
///   - per-tenant and global metric sum invariants,
///   - isolation: with the hot tenant at 5x fair share, every other
///     tenant keeps >= 80% of the goodput it gets when the hot tenant
///     behaves (same traffic with hot at exactly its fair share),
///   - the fleet ends under its memory budget with evictions observed,
///   - 1-vs-8-thread byte-identical digest and metrics (selfcheck).
int RunMtSmoke(const Flags& flags) {
  auto start = std::chrono::steady_clock::now();

  codes::BenchmarkConfig bench_config;
  bench_config.name = "mt_fleet";
  bench_config.profile = codes::DbProfile::Spider();
  bench_config.train_domains = 4;
  bench_config.dev_domains = 6;
  bench_config.train_samples_per_db = 15;
  bench_config.dev_samples_per_db = 8;
  bench_config.seed = 20240808;
  auto bench = codes::BuildBenchmark(bench_config);

  codes::LmZoo zoo(1, 31);
  codes::PipelineConfig config;
  config.size = codes::ModelSize::k7B;
  codes::CodesPipeline pipeline(config, zoo.CodesFor(config.size));
  pipeline.TrainClassifier(bench);
  pipeline.FineTune(bench);

  // One tenant per dev database, in order of first appearance.
  std::vector<int> dev_dbs;
  for (const auto& sample : bench.dev) {
    if (std::find(dev_dbs.begin(), dev_dbs.end(), sample.db_index) ==
        dev_dbs.end()) {
      dev_dbs.push_back(sample.db_index);
    }
  }
  if (dev_dbs.size() < 6) {
    std::fprintf(stderr, "mt-smoke: expected 6 dev databases, got %zu\n",
                 dev_dbs.size());
    return 2;
  }
  static const char* kNames[6] = {"hot",   "norm1", "norm2",
                                  "cold1", "cold2", "adv"};

  std::filesystem::path snapshot_dir =
      std::filesystem::temp_directory_path() / "codes_load_mt_fleet";
  std::error_code ec;
  std::filesystem::remove_all(snapshot_dir, ec);

  auto make_fleet = [&](size_t budget) {
    codes::fleet::FleetManager::Options fleet_options;
    fleet_options.memory_budget_bytes = budget;
    fleet_options.snapshot_dir = snapshot_dir.string();
    auto fleet =
        std::make_unique<codes::fleet::FleetManager>(fleet_options);
    for (int t = 0; t < 6; ++t) {
      codes::fleet::FleetManager::TenantDesc desc;
      desc.name = kNames[t];
      desc.db = &bench.databases[static_cast<size_t>(dev_dbs[t])];
      fleet->AddTenant(std::move(desc));
    }
    return fleet;
  };

  // Probe pass: build + persist every bundle once with no budget, to
  // price the fleet. The real fleet's budget is 55% of the total, so a
  // full working set cannot stay resident and evictions must happen.
  size_t total_bytes = 0;
  {
    auto probe = make_fleet(0);
    probe->WarmAll();
    total_bytes = probe->PeakResidentBytes();
  }
  size_t budget = total_bytes * 55 / 100;
  auto fleet = make_fleet(budget);

  // Virtual capacity: 4 workers / 20 ms = 200 qps, fair share ~33 qps
  // per tenant at equal weights.
  const double capacity_qps = 4.0 * 1e6 / 20'000.0;
  const double fair = capacity_qps / 6.0;

  codes::serve::LoadGenOptions mt;
  mt.seed = 20240808;
  mt.num_requests = 900;
  mt.virtual_workers = 4;
  mt.service_base_us = 20'000;
  mt.deadline_us = 200'000;
  mt.threads = 8;
  mt.front_end.admission.queue_capacity = 64;
  mt.front_end.admission.tenant_capacity_qps = capacity_qps;
  mt.front_end.admission.tenants = fleet->AdmissionSpecs();
  mt.front_end.tenant_names = fleet->TenantNames();
  mt.burst_period_us = 500'000;
  mt.burst_duty = 0.2;
  mt.tenant_attach =
      [&fleet](int tenant) -> std::shared_ptr<const codes::ValueRetriever> {
    auto artifacts = fleet->Attach(tenant);
    return artifacts == nullptr ? nullptr : artifacts->retriever;
  };

  // Shares are offered qps per tenant; offered_qps is their (burst-
  // averaged) sum, so each tenant's absolute arrival rate is its share
  // in both the baseline and the adversarial mix.
  auto set_shares = [&](codes::serve::LoadGenOptions* o, double hot_qps) {
    const double shares[6] = {hot_qps,      0.7 * fair,  0.7 * fair,
                              0.15 * fair,  0.15 * fair, 0.2 * fair};
    const double burst_shares[6] = {-1.0, -1.0, -1.0, -1.0, -1.0,
                                    2.0 * fair};
    o->tenants.clear();
    double sum = 0.0;
    for (int t = 0; t < 6; ++t) {
      codes::serve::TenantTraffic traffic;
      traffic.name = kNames[t];
      traffic.share = shares[t];
      traffic.burst_share = burst_shares[t];
      traffic.db_index = dev_dbs[t];
      o->tenants.push_back(traffic);
      sum += shares[t];
    }
    // The adversarial tenant's burst surplus, averaged over the duty
    // cycle, raises the offered rate above the base sum.
    sum += o->burst_duty * (burst_shares[5] - shares[5]);
    o->offered_qps = sum;
  };

  // Baseline: the same mix with the hot tenant at exactly its fair
  // share — the "no bully" reference for the isolation assertion.
  codes::serve::LoadGenOptions baseline = mt;
  set_shares(&baseline, fair);
  baseline.num_requests = 420;
  set_shares(&mt, 5.0 * fair);

  fleet->EvictAll();
  pipeline.ClearRetrieverCache();
  codes::MetricsRegistry::Global().Reset();
  codes::serve::LoadReport base_report =
      codes::serve::RunLoadCampaign(pipeline, bench, baseline);

  fleet->EvictAll();
  pipeline.ClearRetrieverCache();
  codes::MetricsRegistry::Global().Reset();
  codes::serve::LoadReport report =
      codes::serve::RunLoadCampaign(pipeline, bench, mt);
  codes::MetricsSnapshot snapshot =
      codes::MetricsRegistry::Global().Snapshot();

  std::printf("mt campaign: requests=%d qps=%.1f capacity=%.0f tenants=6 "
              "budget=%zu/%zu bytes seed=%" PRIu64 "\n",
              mt.num_requests, mt.offered_qps, capacity_qps, budget,
              total_bytes, mt.seed);
  std::fputs(report.Summary().c_str(), stdout);

  int exit_code = 0;
  if (CheckSumInvariant(snapshot, report) != 0) exit_code = 1;
  if (CheckTenantInvariants(snapshot, report) != 0) exit_code = 1;

  // Isolation: the hot tenant's 5x overload must be clipped by the
  // weighted-fair limiter, not paid for by everyone else. Compared on
  // the served-within-deadline fraction of each tenant's own arrivals —
  // goodput normalized by offered rate — so the low-rate cold tenants'
  // arrival-count noise does not masquerade as admission harm.
  auto served_fraction = [](const codes::serve::LoadReport::TenantRow& row) {
    return row.offered == 0
               ? 1.0
               : static_cast<double>(row.served_within_deadline) /
                     static_cast<double>(row.offered);
  };
  for (size_t t = 1; t < report.tenants.size(); ++t) {
    double isolated = served_fraction(base_report.tenants[t]);
    double contended = served_fraction(report.tenants[t]);
    bool ok = contended >= 0.8 * isolated;
    std::printf("isolation: tenant %s served %.0f%% of its arrivals vs "
                "%.0f%% with the hot tenant at fair share (%.1f vs %.1f "
                "qps goodput) %s\n",
                report.tenants[t].name.c_str(), 100.0 * contended,
                100.0 * isolated, report.TenantGoodputQps(t),
                base_report.TenantGoodputQps(t), ok ? "ok" : "VIOLATION");
    if (!ok) exit_code = 1;
  }

  // The fleet must end under budget and must have had to evict to get
  // there (the working set is priced at ~1.8x the budget).
  uint64_t evictions = CounterOr0(snapshot, "fleet.evict");
  size_t resident = fleet->ResidentBytes();
  std::printf("fleet: resident=%zu budget=%zu evictions=%" PRIu64
              " attaches=%" PRIu64 " (build=%" PRIu64 " snapshot=%" PRIu64
              ")\n",
              resident, budget, evictions,
              CounterOr0(snapshot, "fleet.attach"),
              CounterOr0(snapshot, "fleet.attach.build"),
              CounterOr0(snapshot, "fleet.attach.snapshot"));
  if (resident > budget) {
    std::printf("INVARIANT VIOLATION: fleet resident bytes exceed budget\n");
    exit_code = 1;
  }
  if (evictions == 0) {
    std::printf("INVARIANT VIOLATION: no fleet evictions observed\n");
    exit_code = 1;
  }

  if (!codes::WriteSnapshot(flags.metrics_out, snapshot.ToJson() + "\n",
                            "metrics snapshot")) {
    return 2;
  }

  // Determinism selfcheck: the identical campaign replayed on 1 real
  // thread, from the same fleet state (all evicted, snapshots on disk),
  // must produce the same digest and the same deterministic metrics.
  std::string view = DeterministicView(snapshot).ToJson();
  fleet->EvictAll();
  pipeline.ClearRetrieverCache();
  codes::MetricsRegistry::Global().Reset();
  codes::serve::LoadGenOptions serial = mt;
  serial.threads = 1;
  codes::serve::LoadReport replay =
      codes::serve::RunLoadCampaign(pipeline, bench, serial);
  std::string serial_view =
      DeterministicView(codes::MetricsRegistry::Global().Snapshot())
          .ToJson();
  if (replay.digest == report.digest && serial_view == view) {
    std::printf("selfcheck: 1-thread replay digest and metrics match\n");
  } else {
    std::printf("selfcheck FAILED: 8-thread digest %016" PRIx64
                " != 1-thread digest %016" PRIx64 " (metrics %s)\n",
                report.digest, replay.digest,
                serial_view == view ? "match" : "differ");
    exit_code = 1;
  }

  std::filesystem::remove_all(snapshot_dir, ec);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  std::fprintf(stderr, "elapsed: %lld ms (mt-smoke)\n",
               static_cast<long long>(elapsed));
  return exit_code;
}

/// The adversarial serving smoke: one clean reference campaign and one
/// --adv-rate-perturbed campaign over the same arrival schedule, with the
/// hardening front door on in both. Asserts:
///   - the global admission sum invariant and the adversarial partition
///     serve.adv.clean + serve.adv.suspect == serve.requests,
///   - mutations flowed (adv_offered > 0) and the hardening detector
///     actually fired on them (suspect > 0),
///   - verified goodput under perturbation keeps >= 80% of the clean
///     campaign's verified goodput,
///   - 1-vs-8-thread byte-identical digest and deterministic metrics.
int RunAdvSmoke(const Flags& flags) {
  auto start = std::chrono::steady_clock::now();

  auto bench = codes::BuildTinySpiderLike(2024);
  codes::LmZoo zoo(1, 31);
  codes::PipelineConfig config;
  config.size = codes::ModelSize::k7B;
  codes::CodesPipeline pipeline(config, zoo.CodesFor(config.size));
  pipeline.TrainClassifier(bench);
  pipeline.FineTune(bench);

  // 2x saturation like --smoke: capacity 4 workers / 20 ms = 200 qps,
  // offered 400 qps, so the brownout ladder is live in both campaigns.
  codes::serve::LoadGenOptions adv;
  adv.seed = 20240809;
  adv.num_requests = 600;
  adv.offered_qps = 400.0;
  adv.virtual_workers = 4;
  adv.service_base_us = 20'000;
  adv.deadline_us = 200'000;
  adv.threads = 8;
  adv.front_end.admission.queue_capacity = 64;
  adv.harden = true;
  adv.adv_rate = flags.adv_rate;

  // Clean reference: the identical schedule with zero mutations prices
  // what verified goodput costs on this fixture.
  codes::serve::LoadGenOptions clean = adv;
  clean.adv_rate = 0.0;

  pipeline.ClearRetrieverCache();
  codes::MetricsRegistry::Global().Reset();
  codes::serve::LoadReport clean_report =
      codes::serve::RunLoadCampaign(pipeline, bench, clean);

  pipeline.ClearRetrieverCache();
  codes::MetricsRegistry::Global().Reset();
  codes::serve::LoadReport report =
      codes::serve::RunLoadCampaign(pipeline, bench, adv);
  codes::MetricsSnapshot snapshot =
      codes::MetricsRegistry::Global().Snapshot();

  std::printf("adv campaign: requests=%d qps=%.1f adv_rate=%.2f seed=%"
              PRIu64 "\n",
              adv.num_requests, adv.offered_qps, adv.adv_rate, adv.seed);
  std::fputs(report.Summary().c_str(), stdout);

  int exit_code = 0;
  if (CheckSumInvariant(snapshot, report) != 0) exit_code = 1;
  if (CheckAdvInvariant(snapshot) != 0) exit_code = 1;
  if (report.adv_offered == 0) {
    std::printf("INVARIANT VIOLATION: no requests were mutated at "
                "adv_rate=%.2f\n",
                adv.adv_rate);
    exit_code = 1;
  }
  if (report.suspect == 0) {
    std::printf("INVARIANT VIOLATION: hardening flagged no request suspect "
                "under adversarial traffic\n");
    exit_code = 1;
  }

  double clean_goodput = clean_report.VerifiedGoodputQps();
  double adv_goodput = report.VerifiedGoodputQps();
  double retention = clean_goodput > 0.0 ? adv_goodput / clean_goodput : 1.0;
  std::printf("goodput under perturbation: %.1f qps vs %.1f qps clean "
              "(retention %.0f%%) %s\n",
              adv_goodput, clean_goodput, 100.0 * retention,
              retention >= 0.8 ? "ok" : "VIOLATION");
  if (retention < 0.8) exit_code = 1;

  if (!codes::WriteSnapshot(flags.metrics_out, snapshot.ToJson() + "\n",
                            "metrics snapshot")) {
    return 2;
  }

  // Determinism selfcheck: mutation choice, hardening verdicts, and the
  // canonical retries all happen on the DES thread at virtual timestamps,
  // so the 1-thread replay must match byte-for-byte.
  std::string view = DeterministicView(snapshot).ToJson();
  pipeline.ClearRetrieverCache();
  codes::MetricsRegistry::Global().Reset();
  codes::serve::LoadGenOptions serial = adv;
  serial.threads = 1;
  codes::serve::LoadReport replay =
      codes::serve::RunLoadCampaign(pipeline, bench, serial);
  std::string serial_view =
      DeterministicView(codes::MetricsRegistry::Global().Snapshot())
          .ToJson();
  if (replay.digest == report.digest && serial_view == view) {
    std::printf("selfcheck: 1-thread replay digest and metrics match\n");
  } else {
    std::printf("selfcheck FAILED: 8-thread digest %016" PRIx64
                " != 1-thread digest %016" PRIx64 " (metrics %s)\n",
                report.digest, replay.digest,
                serial_view == view ? "match" : "differ");
    exit_code = 1;
  }

  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  std::fprintf(stderr, "elapsed: %lld ms (adv-smoke)\n",
               static_cast<long long>(elapsed));
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  codes::FlagSet flag_set("codes_load");
  flag_set.Int("--requests", &flags.requests, "N").AtLeast(1);
  flag_set.Double("--qps", &flags.qps, "Q").Above(0.0);
  flag_set.Int("--workers", &flags.workers, "N").AtLeast(1);
  flag_set.Uint64("--service-us", &flags.service_us, "N").AtLeast(1);
  flag_set.Uint64("--deadline-us", &flags.deadline_us, "N");
  flag_set.Int("--threads", &flags.threads, "N").AtLeast(1);
  flag_set.Uint64("--seed", &flags.seed, "S");
  flag_set.Double("--rate", &flags.rate, "P").Within(0.0, 1.0);
  flag_set.String("--spec", &flags.spec, "SPEC");
  flag_set.Size("--queue", &flags.queue, "N").AtLeast(1);
  flag_set.Double("--rate-limit", &flags.rate_limit, "Q").AtLeast(0.0);
  flag_set.Path("--metrics-out", &flags.metrics_out);
  flag_set.Bool("--adv", &flags.adv);
  flag_set.Double("--adv-rate", &flags.adv_rate, "P").Within(0.0, 1.0);
  flag_set.Bool("--selfcheck", &flags.selfcheck);
  flag_set.Bool("--smoke", &flags.smoke);
  flag_set.Bool("--mt-smoke", &flags.mt_smoke);
  if (int rc = flag_set.Parse(argc, argv)) return rc;

  if (flags.mt_smoke) return RunMtSmoke(flags);
  if (flags.adv && flags.smoke) return RunAdvSmoke(flags);
  if (flags.smoke) {
    // Fixed 2x-saturation configuration for ctest / CI gating: capacity is
    // 4 workers / 20 ms = 200 qps, offered 400 qps.
    flags.requests = 600;
    flags.qps = 400.0;
    flags.workers = 4;
    flags.service_us = 20'000;
    flags.deadline_us = 200'000;
    flags.threads = 8;
    flags.seed = 20240806;
    flags.rate = 0.02;
    flags.selfcheck = true;
  }
  codes::serve::LoadGenOptions options;
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

  auto start = std::chrono::steady_clock::now();
  // Fixture: the tiny Spider-like benchmark with a fully set-up pipeline,
  // the same serving configuration codes_chaos campaigns exercise.
  auto bench = codes::BuildTinySpiderLike(2024);
  codes::LmZoo zoo(1, 31);
  codes::PipelineConfig config;
  config.size = codes::ModelSize::k7B;
  codes::CodesPipeline pipeline(config, zoo.CodesFor(config.size));
  pipeline.TrainClassifier(bench);
  pipeline.FineTune(bench);

  // Setup is done: zero the registry so the exported snapshot covers
  // exactly the campaign.
  codes::MetricsRegistry::Global().Reset();
  codes::serve::LoadReport report =
      codes::serve::RunLoadCampaign(pipeline, bench, options);
  codes::MetricsSnapshot snapshot =
      codes::MetricsRegistry::Global().Snapshot();

  std::printf("load campaign: requests=%d qps=%g workers=%d service_us=%"
              PRIu64 " seed=%" PRIu64 " spec=\"%s\"\n",
              flags.requests, flags.qps, flags.workers, flags.service_us,
              flags.seed, options.failpoint_spec.c_str());
  std::fputs(report.Summary().c_str(), stdout);

  int exit_code = 0;
  if (CheckSumInvariant(snapshot, report) != 0) exit_code = 1;
  if (flags.adv && CheckAdvInvariant(snapshot) != 0) exit_code = 1;
  if (report.admitted + report.rejected_rate + report.rejected_queue_full +
          report.rejected_tenant_rate + report.shed_deadline +
          report.shed_drain !=
      report.offered) {
    std::printf("INVARIANT VIOLATION: per-request outcomes do not sum to "
                "offered=%" PRIu64 "\n",
                report.offered);
    exit_code = 1;
  }

  if (!codes::WriteSnapshot(flags.metrics_out, snapshot.ToJson() + "\n",
                            "metrics snapshot")) {
    return 2;
  }

  if (flags.selfcheck) {
    // The whole campaign must replay byte-identically single-threaded:
    // every control decision happens at virtual timestamps derived from
    // the seed, never from real scheduling. Both the per-request digest
    // and the deterministic view of the metrics snapshot are compared.
    // The replay starts from a cold retriever cache like the first run
    // did, so the cache hit/miss counters are comparable.
    std::string view = DeterministicView(snapshot).ToJson();
    pipeline.ClearRetrieverCache();
    codes::MetricsRegistry::Global().Reset();
    codes::serve::LoadGenOptions serial = options;
    serial.threads = 1;
    codes::serve::LoadReport replay =
        codes::serve::RunLoadCampaign(pipeline, bench, serial);
    std::string serial_view =
        DeterministicView(codes::MetricsRegistry::Global().Snapshot())
            .ToJson();
    if (replay.digest == report.digest && serial_view == view) {
      std::printf("selfcheck: 1-thread replay digest and metrics match\n");
    } else {
      std::printf("selfcheck FAILED: %d-thread digest %016" PRIx64
                  " != 1-thread digest %016" PRIx64 " (metrics %s)\n",
                  flags.threads, report.digest, replay.digest,
                  serial_view == view ? "match" : "differ");
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
