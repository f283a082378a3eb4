#ifndef CODES_SERVE_LOAD_GEN_H_
#define CODES_SERVE_LOAD_GEN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "retrieval/value_retriever.h"
#include "serve/front_end.h"

namespace codes {
namespace serve {

/// One tenant's slice of a multi-tenant campaign's offered traffic.
struct TenantTraffic {
  std::string name;
  /// Relative arrival share outside burst windows. A tenant whose share
  /// exceeds its admission weight is "hot": open-loop traffic above its
  /// fair rate that the weighted-fair limiter must clip.
  double share = 1.0;
  /// Relative share during burst windows (adversarial tenants spike
  /// here); negative = same as `share`.
  double burst_share = -1.0;
  /// Restrict this tenant's questions to dev samples with this db_index;
  /// -1 = draw from the whole dev set.
  int db_index = -1;
};

/// Configuration of one open-loop saturation campaign.
struct LoadGenOptions {
  uint64_t seed = 1;
  int num_requests = 1000;
  /// Open-loop offered rate: arrivals keep coming at this (virtual) rate
  /// no matter how far behind service falls — the scenario that collapses
  /// an unprotected server.
  double offered_qps = 200.0;
  /// Concurrent virtual service slots ("model replicas").
  int virtual_workers = 4;
  /// Virtual service time of a full-richness (level-0) request; higher
  /// brownout levels cost a fixed fraction of this (see
  /// VirtualServiceUs). Capacity ≈ virtual_workers * 1e6 / service_base_us.
  uint64_t service_base_us = 20'000;
  /// Per-request deadline, measured from arrival (0 = none).
  uint64_t deadline_us = 200'000;
  /// Real execution threads for the pipeline work (never affects the
  /// campaign's decisions or digest — that is the point).
  int threads = 1;
  FrontEndOptions front_end;
  /// Optional failpoint campaign spec, configured with `seed`.
  std::string failpoint_spec;

  /// Fraction of requests mutated by dataset/perturb's online question
  /// mutations (synonym / typo / paraphrase / value-swap / schema-noise)
  /// before dispatch — `codes_load --adv`. Every request draws its
  /// mutation coin, kind, and seed from an rng stream independent of the
  /// arrival clock, so changing the rate changes *which* requests mutate
  /// without moving a single arrival. 0 = legacy clean campaign,
  /// byte-identical digest.
  double adv_rate = 0.0;
  /// Run each dispatched question through the serve-side hardening pass
  /// (sanitize, suspect verdict, canonical-retry marking, brownout floor)
  /// on the DES thread, as a live front door would. Off by default so
  /// campaigns recorded before hardening keep their digests.
  bool harden = false;

  /// Multi-tenant traffic mix; empty = legacy single-tenant campaign
  /// whose report, Summary, and digest are byte-identical to builds that
  /// predate tenancy. Tenant ids are indexes into this vector and must
  /// line up with FrontEndOptions::tenant_names and the admission specs.
  std::vector<TenantTraffic> tenants;
  /// Burst windows for adversarial tenants: the first `burst_duty`
  /// fraction of every `burst_period_us` of virtual time uses each
  /// tenant's burst_share instead of share. 0 disables windows.
  uint64_t burst_period_us = 0;
  double burst_duty = 0.0;
  /// Called on the DES thread when a multi-tenant request is dispatched;
  /// returns the tenant's value-retriever lease, which the campaign pins
  /// until the request's virtual completion and injects as
  /// ServeOptions::value_retriever. This is how a FleetManager plugs in
  /// without the serving layer depending on the fleet layer. Null
  /// function (or null return) = use the pipeline's own retriever cache.
  std::function<std::shared_ptr<const ValueRetriever>(int tenant)>
      tenant_attach;
};

/// What one campaign did, accounted per request (independent of the
/// global metrics registry, which the campaign also feeds).
struct LoadReport {
  uint64_t offered = 0;
  uint64_t admitted = 0;
  uint64_t rejected_rate = 0;
  uint64_t rejected_queue_full = 0;
  /// Clipped by the per-tenant weighted-fair limiter before the global
  /// bucket was consulted. Always 0 in single-tenant campaigns.
  uint64_t rejected_tenant_rate = 0;
  uint64_t shed_deadline = 0;
  uint64_t shed_drain = 0;
  uint64_t served_within_deadline = 0;
  uint64_t served_late = 0;
  uint64_t verified = 0;
  /// Served within deadline AND execution-verified — the numerator of
  /// goodput-under-perturbation. Plain goodput cannot see quality loss:
  /// virtual service time never consults verification, so a perturbed
  /// campaign only moves this counter.
  uint64_t verified_within_deadline = 0;
  /// Adversarial traffic accounting; all zero in clean campaigns.
  uint64_t adv_offered = 0;        ///< requests mutated before dispatch
  uint64_t suspect = 0;            ///< flagged suspect by hardening at dispatch
  uint64_t canonical_retries = 0;  ///< canonical-question retries spent
  uint64_t canonical_served = 0;   ///< retries whose SQL verified
  uint64_t served_at_level[kNumBrownoutLevels] = {0, 0, 0, 0, 0};
  uint64_t brownout_degrades = 0;
  uint64_t brownout_recoveries = 0;
  uint64_t breaker_transitions[kNumServeStages] = {0, 0, 0};
  /// Virtual time of the last processed event.
  uint64_t end_us = 0;
  /// FNV-1a over one outcome line per request, folded in request-id order
  /// — the number CI compares across real thread counts. Multi-tenant
  /// campaigns fold the tenant name into each line; single-tenant
  /// campaigns produce the exact pre-tenancy byte stream.
  uint64_t digest = 0;

  /// Per-tenant slice of the same accounting; row i is tenant id i.
  /// Empty for single-tenant campaigns. The per-tenant invariant
  /// admitted + rejected + shed == offered holds for every row.
  struct TenantRow {
    std::string name;
    uint64_t offered = 0;
    uint64_t admitted = 0;
    uint64_t rejected = 0;  ///< rate + queue_full + tenant_rate
    uint64_t shed = 0;      ///< deadline + drain
    uint64_t served_within_deadline = 0;
  };
  std::vector<TenantRow> tenants;

  /// Requests served before their deadline per virtual second.
  double GoodputQps() const;
  /// Requests served before their deadline *and* execution-verified, per
  /// virtual second: the goodput-under-perturbation number codes_load
  /// reports and BENCH_latency.json tracks.
  double VerifiedGoodputQps() const;
  /// Same, for one tenant row.
  double TenantGoodputQps(size_t row) const;
  /// Deterministic multi-line rendering (campaign stdout).
  std::string Summary() const;
};

/// Virtual service cost of request `id` at brownout `level`: a pure
/// function of (seed, id, level) — NEVER of real execution time — which is
/// what lets the discrete-event simulation schedule completions without
/// waiting on real work. Brownout levels are cheaper by fixed multipliers
/// (that is the reward the controller is steering toward), with ±25%
/// per-request jitter.
uint64_t VirtualServiceUs(uint64_t seed, uint64_t id, int level,
                          uint64_t base_us);

/// Runs one open-loop campaign as a virtual-time discrete-event
/// simulation. A single driver thread makes every control decision
/// (admission, shedding, brownout, breaker transitions) at virtual
/// timestamps derived purely from the seed; the actual PredictGuarded
/// executions are farmed out to a `threads`-wide pool and their outcomes
/// consumed only when the corresponding virtual completion event is
/// processed, in virtual-time order. The report (and the serve.* metric
/// deltas) are therefore byte-identical at any `threads` value — the same
/// determinism contract as the failpoint framework.
///
/// The pipeline must be fully set up (classifier, FineTune) before the
/// call. When `options.failpoint_spec` is non-empty it is configured for
/// the campaign and cleared afterwards.
LoadReport RunLoadCampaign(const CodesPipeline& pipeline,
                           const Text2SqlBenchmark& bench,
                           const LoadGenOptions& options);

}  // namespace serve
}  // namespace codes

#endif  // CODES_SERVE_LOAD_GEN_H_
