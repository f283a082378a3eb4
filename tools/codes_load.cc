// codes_load: deterministic open-loop overload campaign driver.
//
// Replays a seeded arrival schedule against the overload-protection front
// end (admission control, deadline queue, circuit breakers, adaptive
// brownout) wrapped around CodesPipeline::PredictGuarded, entirely in
// virtual time: a single discrete-event driver makes every control
// decision, so the campaign report, its digest, and the serve.* metrics
// snapshot are byte-identical at any --threads value.
//
// Every mode runs one flow: an optional reference campaign, the campaign,
// its checks, the metrics snapshot and (with --selfcheck) a 1-thread
// replay that must reproduce the digest and the deterministic metrics.
//   campaign (default)  codes_load --requests=5000 --qps=400 --threads=8
//   smoke               codes_load --smoke (2x saturation, failpoints on)
//   adv-smoke           codes_load --adv --smoke (2x saturation, 30% of
//                       questions mutated, the clean twin as reference)
//   mt-smoke            codes_load --mt-smoke (six tenants, one hot at 5x
//                       its fair share, LRU fleet eviction under a budget;
//                       the hot tenant at fair share as reference)
// The smoke modes are fixed-seed presets: they fill only the flags the
// command line did not give, and a flag a mode cannot honour is a usage
// error. --adv on any campaign mixes mutated questions at --adv-rate,
// turns the hardening front door on and asserts the serve.adv.*
// partition and verified goodput >= 80% of the clean twin's.
//
// --qps is the offered (arrival) rate; virtual capacity is
// --workers * 1e6 / --service-us, so --qps=2x capacity is a saturation
// campaign. Campaign stdout is byte-identical across thread counts
// (timing goes to stderr). Exit status: 0 clean, 1 invariant violation,
// 2 usage error.

#include <stdlib.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/timer.h"
#include "dataset/benchmark_builder.h"
#include "fleet/fleet_manager.h"
#include "serve/load_gen.h"
#include "tools/campaign.h"

namespace {

using codes::serve::LoadGenOptions;
using codes::serve::LoadReport;
using codes::campaign::Expect;

uint64_t CounterOr0(const codes::MetricsSnapshot& s, const char* name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

/// Asserts the admission accounting contract from the emitted metrics
/// (not from the report — the point is that the exported numbers add up).
int CheckSumInvariant(const codes::MetricsSnapshot& snapshot,
                      const LoadReport& report) {
  uint64_t offered = CounterOr0(snapshot, "serve.offered");
  uint64_t admitted = CounterOr0(snapshot, "serve.admitted");
  uint64_t rejected = CounterOr0(snapshot, "serve.rejected");
  uint64_t shed = CounterOr0(snapshot, "serve.shed");
  int bad = Expect(admitted + rejected + shed == offered,
                   "admitted=%" PRIu64 " + rejected=%" PRIu64
                   " + shed=%" PRIu64 " != offered=%" PRIu64,
                   admitted, rejected, shed, offered);
  bad |= Expect(CounterOr0(snapshot, "serve.rejected.rate") +
                        CounterOr0(snapshot, "serve.rejected.queue_full") +
                        CounterOr0(snapshot, "serve.rejected.tenant_rate") ==
                    rejected,
                "serve.rejected.* do not sum to serve.rejected=%" PRIu64,
                rejected);
  bad |= Expect(CounterOr0(snapshot, "serve.shed.deadline") +
                        CounterOr0(snapshot, "serve.shed.drain") ==
                    shed,
                "serve.shed.* do not sum to serve.shed=%" PRIu64, shed);
  bad |= Expect(offered == report.offered,
                "serve.offered=%" PRIu64 " != campaign offered=%" PRIu64,
                offered, report.offered);
  bad |= Expect(report.admitted + report.rejected_rate +
                        report.rejected_queue_full +
                        report.rejected_tenant_rate + report.shed_deadline +
                        report.shed_drain ==
                    report.offered,
                "per-request outcomes do not sum to offered=%" PRIu64,
                report.offered);
  if (bad == 0) {
    std::printf("metrics: serve.admitted + serve.rejected + serve.shed == "
                "serve.offered == %" PRIu64 "\n",
                offered);
  }
  return bad;
}

/// Per-tenant admission accounting: for every tenant family the exported
/// counters must satisfy admitted + rejected + shed == offered, agree
/// with the campaign's per-tenant rows, and sum to the global counters.
int CheckTenantInvariants(const codes::MetricsSnapshot& snapshot,
                          const LoadReport& report) {
  int bad = 0;
  uint64_t offered_sum = 0;
  for (const auto& row : report.tenants) {
    std::string prefix = "serve.tenant." + row.name + ".";
    uint64_t offered = CounterOr0(snapshot, (prefix + "offered").c_str());
    uint64_t admitted = CounterOr0(snapshot, (prefix + "admitted").c_str());
    uint64_t rejected = CounterOr0(snapshot, (prefix + "rejected").c_str());
    uint64_t shed = CounterOr0(snapshot, (prefix + "shed").c_str());
    offered_sum += offered;
    bad |= Expect(admitted + rejected + shed == offered,
                  "tenant %s: admitted=%" PRIu64 " + rejected=%" PRIu64
                  " + shed=%" PRIu64 " != offered=%" PRIu64,
                  row.name.c_str(), admitted, rejected, shed, offered);
    bad |= Expect(offered == row.offered && admitted == row.admitted &&
                      rejected == row.rejected && shed == row.shed,
                  "tenant %s: metric family disagrees with campaign "
                  "accounting",
                  row.name.c_str());
  }
  bad |= Expect(offered_sum == CounterOr0(snapshot, "serve.offered"),
                "tenant offered counters sum to %" PRIu64
                " != serve.offered=%" PRIu64,
                offered_sum, CounterOr0(snapshot, "serve.offered"));
  if (bad == 0) {
    std::printf("metrics: per-tenant admitted + rejected + shed == offered "
                "for all %zu tenants\n",
                report.tenants.size());
  }
  return bad;
}

/// The --adv checks: every PredictGuarded call lands in exactly one of
/// serve.adv.clean / serve.adv.suspect (CI asserts the same identity from
/// the JSON snapshot), mutations flowed, the hardening detector fired on
/// them, and verified goodput under perturbation keeps >= 80% of the
/// clean twin's.
int CheckAdversarial(const codes::MetricsSnapshot& snapshot,
                     const LoadReport& report, const LoadReport& clean,
                     double adv_rate) {
  uint64_t clean_requests = CounterOr0(snapshot, "serve.adv.clean");
  uint64_t suspect = CounterOr0(snapshot, "serve.adv.suspect");
  uint64_t requests = CounterOr0(snapshot, "serve.requests");
  int bad = Expect(clean_requests + suspect == requests,
                   "serve.adv.clean=%" PRIu64 " + serve.adv.suspect=%" PRIu64
                   " != serve.requests=%" PRIu64,
                   clean_requests, suspect, requests);
  if (bad == 0) {
    std::printf("metrics: serve.adv.clean + serve.adv.suspect == "
                "serve.requests == %" PRIu64 "\n",
                requests);
  }
  bad |= Expect(report.adv_offered > 0,
                "no requests were mutated at adv_rate=%.2f", adv_rate);
  bad |= Expect(report.suspect > 0,
                "hardening flagged no request suspect under adversarial "
                "traffic");
  double clean_goodput = clean.VerifiedGoodputQps();
  double adv_goodput = report.VerifiedGoodputQps();
  double retention = clean_goodput > 0.0 ? adv_goodput / clean_goodput : 1.0;
  std::printf("goodput under perturbation: %.1f qps vs %.1f qps clean "
              "(retention %.0f%%) %s\n",
              adv_goodput, clean_goodput, 100.0 * retention,
              retention >= 0.8 ? "ok" : "VIOLATION");
  return retention < 0.8 ? 1 : bad;
}

constexpr int kTenants = 6;
const char* const kTenantNames[kTenants] = {"hot",   "norm1", "norm2",
                                            "cold1", "cold2", "adv"};

/// --mt-smoke's benchmark: six dev databases, one per tenant.
codes::Text2SqlBenchmark TenancyBenchmark() {
  codes::BenchmarkConfig config;
  config.name = "mt_fleet";
  config.profile = codes::DbProfile::Spider();
  config.train_domains = 4;
  config.dev_domains = kTenants;
  config.train_samples_per_db = 15;
  config.dev_samples_per_db = 8;
  config.seed = 20240808;
  return codes::BuildBenchmark(config);
}

/// --mt-smoke's fleet and tenant mix. Six tenants over six dev databases:
/// one hot tenant offered 5x its fair share, two normal tenants, two
/// near-idle cold tenants (whose rare requests force fleet attach under
/// the memory budget), and one bursty adversarial tenant. The fleet
/// persists its bundles to a private directory, removed with the Tenancy,
/// so concurrent campaigns never delete each other's snapshots.
class Tenancy {
 public:
  /// Builds the fleet and adds the tenant mix to `options`.
  Tenancy(const codes::Text2SqlBenchmark& bench, LoadGenOptions* options)
      : capacity_qps_(options->virtual_workers * 1e6 /
                      static_cast<double>(options->service_base_us)),
        fair_(capacity_qps_ / kTenants) {
    snapshot_dir_ = (std::filesystem::temp_directory_path() /
                     "codes_load_fleet.XXXXXX")
                        .string();
    CODES_CHECK(mkdtemp(snapshot_dir_.data()) != nullptr);
    // One tenant per dev database, in order of first appearance.
    for (const auto& sample : bench.dev) {
      if (std::find(dev_dbs_.begin(), dev_dbs_.end(), sample.db_index) ==
          dev_dbs_.end()) {
        dev_dbs_.push_back(sample.db_index);
      }
    }
    CODES_CHECK(dev_dbs_.size() >= kTenants);
    auto make_fleet = [&](size_t budget) {
      codes::fleet::FleetManager::Options fleet_options;
      fleet_options.memory_budget_bytes = budget;
      fleet_options.snapshot_dir = snapshot_dir_;
      auto fleet = std::make_unique<codes::fleet::FleetManager>(fleet_options);
      for (int t = 0; t < kTenants; ++t) {
        codes::fleet::FleetManager::TenantDesc desc;
        desc.name = kTenantNames[t];
        desc.db = &bench.databases[static_cast<size_t>(dev_dbs_[t])];
        fleet->AddTenant(std::move(desc));
      }
      return fleet;
    };
    // Probe pass: build + persist every bundle once with no budget, to
    // price the fleet. The real fleet's budget is 55% of the total, so a
    // full working set cannot stay resident and evictions must happen.
    auto probe = make_fleet(0);
    probe->WarmAll();
    total_bytes_ = probe->PeakResidentBytes();
    probe.reset();
    budget_ = total_bytes_ * 55 / 100;
    fleet_ = make_fleet(budget_);

    options->front_end.admission.tenant_capacity_qps = capacity_qps_;
    options->front_end.admission.tenants = fleet_->AdmissionSpecs();
    options->front_end.tenant_names = fleet_->TenantNames();
    options->burst_period_us = 500'000;
    options->burst_duty = 0.2;
    options->tenant_attach = [fleet = fleet_.get()](int tenant)
        -> std::shared_ptr<const codes::ValueRetriever> {
      auto artifacts = fleet->Attach(tenant);
      return artifacts == nullptr ? nullptr : artifacts->retriever;
    };
    SetShares(options, 5.0 * fair_);
  }

  ~Tenancy() {
    fleet_.reset();
    std::error_code ec;
    std::filesystem::remove_all(snapshot_dir_, ec);
  }

  codes::fleet::FleetManager* fleet() const { return fleet_.get(); }

  /// The same mix with the hot tenant at exactly its fair share: the
  /// "no bully" reference for the isolation check.
  LoadGenOptions FairShareBaseline(const LoadGenOptions& options) const {
    LoadGenOptions baseline = options;
    SetShares(&baseline, fair_);
    baseline.num_requests = 420;
    return baseline;
  }

  void PrintHeader(const LoadGenOptions& options) const {
    std::printf("mt campaign: requests=%d qps=%.1f capacity=%.0f tenants=%d "
                "budget=%zu/%zu bytes seed=%" PRIu64 "\n",
                options.num_requests, options.offered_qps, capacity_qps_,
                kTenants, budget_, total_bytes_, options.seed);
  }

  /// Isolation: the hot tenant's 5x overload must be clipped by the
  /// weighted-fair limiter, not paid for by everyone else. Compared on
  /// the served-within-deadline fraction of each tenant's own arrivals —
  /// goodput normalized by offered rate — so the low-rate cold tenants'
  /// arrival-count noise does not masquerade as admission harm. Then the
  /// fleet must end under budget and must have had to evict to get there
  /// (the working set is priced at ~1.8x the budget).
  int Check(const codes::MetricsSnapshot& snapshot, const LoadReport& report,
            const LoadReport& baseline) const {
    int bad = 0;
    auto served_fraction = [](const LoadReport::TenantRow& row) {
      return row.offered == 0
                 ? 1.0
                 : static_cast<double>(row.served_within_deadline) /
                       static_cast<double>(row.offered);
    };
    for (size_t t = 1; t < report.tenants.size(); ++t) {
      double isolated = served_fraction(baseline.tenants[t]);
      double contended = served_fraction(report.tenants[t]);
      bool ok = contended >= 0.8 * isolated;
      std::printf("isolation: tenant %s served %.0f%% of its arrivals vs "
                  "%.0f%% with the hot tenant at fair share (%.1f vs %.1f "
                  "qps goodput) %s\n",
                  report.tenants[t].name.c_str(), 100.0 * contended,
                  100.0 * isolated, report.TenantGoodputQps(t),
                  baseline.TenantGoodputQps(t), ok ? "ok" : "VIOLATION");
      if (!ok) bad = 1;
    }
    uint64_t evictions = CounterOr0(snapshot, "fleet.evict");
    size_t resident = fleet_->ResidentBytes();
    std::printf("fleet: resident=%zu budget=%zu evictions=%" PRIu64
                " attaches=%" PRIu64 " (build=%" PRIu64 " snapshot=%" PRIu64
                ")\n",
                resident, budget_, evictions,
                CounterOr0(snapshot, "fleet.attach"),
                CounterOr0(snapshot, "fleet.attach.build"),
                CounterOr0(snapshot, "fleet.attach.snapshot"));
    bad |= Expect(resident <= budget_, "fleet resident bytes exceed budget");
    bad |= Expect(evictions > 0, "no fleet evictions observed");
    return bad;
  }

 private:
  /// Shares are offered qps per tenant; offered_qps is their (burst-
  /// averaged) sum, so each tenant's absolute arrival rate is its share
  /// in both the baseline and the contended mix.
  void SetShares(LoadGenOptions* o, double hot_qps) const {
    const double shares[kTenants] = {hot_qps,      0.7 * fair_, 0.7 * fair_,
                                     0.15 * fair_, 0.15 * fair_, 0.2 * fair_};
    const double burst_shares[kTenants] = {-1.0, -1.0, -1.0,
                                           -1.0, -1.0, 2.0 * fair_};
    o->tenants.clear();
    double sum = 0.0;
    for (int t = 0; t < kTenants; ++t) {
      o->tenants.push_back({kTenantNames[t], shares[t], burst_shares[t],
                            dev_dbs_[t]});
      sum += shares[t];
    }
    // The adversarial tenant's burst surplus, averaged over the duty
    // cycle, raises the offered rate above the base sum.
    sum += o->burst_duty * (burst_shares[5] - shares[5]);
    o->offered_qps = sum;
  }

  std::string snapshot_dir_;
  const double capacity_qps_;
  const double fair_;  ///< capacity_qps_ / kTenants at equal weights
  std::vector<int> dev_dbs_;  ///< tenant t serves dev database dev_dbs_[t]
  size_t total_bytes_ = 0;
  size_t budget_ = 0;
  std::unique_ptr<codes::fleet::FleetManager> fleet_;
};

}  // namespace

int main(int argc, char** argv) {
  namespace campaign = codes::campaign;
  campaign::LoadFlags flags;
  if (int rc = campaign::ParseLoadFlags(argc, argv, &flags)) return rc;

  codes::Timer timer;
  // Fixture: the tiny Spider-like benchmark codes_chaos serves too, or
  // one dev database per tenant for --mt-smoke.
  const codes::Text2SqlBenchmark bench =
      flags.mt_smoke ? TenancyBenchmark() : codes::BuildTinySpiderLike(2024);
  campaign::TrainedPipeline fixture(bench);
  const codes::CodesPipeline& pipeline = fixture.pipeline;
  LoadGenOptions options = campaign::LoadOptions(flags);

  // The reference campaign the checks compare against: the hot tenant
  // at fair share for --mt-smoke, the clean twin for --adv.
  std::unique_ptr<Tenancy> tenancy;
  std::optional<LoadGenOptions> reference;
  if (flags.mt_smoke) {
    tenancy = std::make_unique<Tenancy>(bench, &options);
    reference = tenancy->FairShareBaseline(options);
  } else if (flags.adv) {
    reference = options;
    reference->adv_rate = 0.0;
  }
  codes::fleet::FleetManager* fleet = tenancy ? tenancy->fleet() : nullptr;
  LoadReport reference_report;
  if (reference) {
    campaign::ResetToCold(&pipeline, fleet);
    reference_report =
        codes::serve::RunLoadCampaign(pipeline, bench, *reference);
  }

  campaign::ResetToCold(&pipeline, fleet);
  LoadReport report = codes::serve::RunLoadCampaign(pipeline, bench, options);
  codes::MetricsSnapshot snapshot = codes::MetricsRegistry::Global().Snapshot();

  if (tenancy) {
    tenancy->PrintHeader(options);
  } else if (flags.adv) {
    std::printf("adv campaign: requests=%d qps=%.1f adv_rate=%.2f seed=%"
                PRIu64 "\n",
                options.num_requests, options.offered_qps, options.adv_rate,
                options.seed);
  } else {
    std::printf("load campaign: requests=%d qps=%g workers=%d service_us=%"
                PRIu64 " seed=%" PRIu64 " spec=\"%s\"\n",
                options.num_requests, options.offered_qps,
                options.virtual_workers, options.service_base_us,
                options.seed, options.failpoint_spec.c_str());
  }
  std::fputs(report.Summary().c_str(), stdout);

  int exit_code = CheckSumInvariant(snapshot, report);
  if (flags.adv) {
    exit_code |= CheckAdversarial(snapshot, report, reference_report,
                                  options.adv_rate);
  }
  if (tenancy) {
    exit_code |= CheckTenantInvariants(snapshot, report);
    exit_code |= tenancy->Check(snapshot, report, reference_report);
  }

  if (!codes::WriteSnapshot(flags.metrics_out, snapshot.ToJson() + "\n",
                            "metrics snapshot")) {
    return 2;
  }

  if (flags.selfcheck) {
    // Every control decision happens at virtual timestamps derived from
    // the seed, never from real scheduling, so the campaign replayed on 1
    // thread from the same cold state must reproduce the digest and the
    // deterministic metrics.
    campaign::Fingerprint run{report.digest,
                              campaign::DeterministicView(snapshot).ToJson()};
    campaign::ResetToCold(&pipeline, fleet);
    LoadGenOptions serial = options;
    serial.threads = 1;
    LoadReport replay = codes::serve::RunLoadCampaign(pipeline, bench, serial);
    exit_code |= campaign::CheckReplay(
        options.threads, run,
        {replay.digest, campaign::DeterministicView(
                            codes::MetricsRegistry::Global().Snapshot())
                            .ToJson()});
  }
  campaign::PrintElapsed(timer, options.threads);
  return exit_code;
}
