#include "serve/load_gen.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/flat_hash.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "dataset/perturb.h"

namespace codes {
namespace serve {

namespace {

enum class Outcome {
  kPending = 0,
  kRejectedRate,
  kRejectedQueueFull,
  kRejectedTenantRate,
  kShedDeadline,
  kShedDrain,
  kServed,
};

/// Per-request campaign record. The future carries the real execution's
/// completion; sql/report are written by the pool task before the promise
/// is fulfilled, so the DES thread reads them only after wait().
struct Slot {
  Outcome outcome = Outcome::kPending;
  ServeOptions options;
  ServeReport report;
  std::string sql;
  /// Owns the request's sample when it differs from the dev set's copy
  /// (mutated and/or hardened questions); the pool task reads it until
  /// the promise is fulfilled, and slots never reallocate.
  Text2SqlSample sample_storage;
  uint64_t deadline_us = 0;
  uint64_t finish_us = 0;
  std::future<void> ready;
  /// Fleet value-retriever lease, pinned from dispatch until the virtual
  /// completion so eviction can never dangle an in-flight request.
  std::shared_ptr<const ValueRetriever> lease;
};

/// DES event: completions sort before arrivals at the same virtual
/// timestamp (a freed worker is visible to the admission decision made in
/// the same instant), ids break remaining ties. Total order = determinism.
struct Event {
  uint64_t time_us;
  int kind;  ///< 0 = completion, 1 = arrival
  uint64_t id;
  bool operator>(const Event& other) const {
    if (time_us != other.time_us) return time_us > other.time_us;
    if (kind != other.kind) return kind > other.kind;
    return id > other.id;
  }
};

}  // namespace

uint64_t VirtualServiceUs(uint64_t seed, uint64_t id, int level,
                          uint64_t base_us) {
  static constexpr double kLevelCost[kNumBrownoutLevels] = {1.0, 0.8, 0.6,
                                                           0.45, 0.08};
  int l = std::clamp(level, 0, kNumBrownoutLevels - 1);
  Rng rng(seed ^ (id * 0x9E3779B97F4A7C15ULL) ^ 0x5EBFULL);
  double jitter = rng.UniformDouble(0.75, 1.25);
  double us = static_cast<double>(base_us) * kLevelCost[l] * jitter;
  return std::max<uint64_t>(1, static_cast<uint64_t>(us));
}

double LoadReport::GoodputQps() const {
  if (end_us == 0) return 0.0;
  return static_cast<double>(served_within_deadline) /
         (static_cast<double>(end_us) * 1e-6);
}

double LoadReport::VerifiedGoodputQps() const {
  if (end_us == 0) return 0.0;
  return static_cast<double>(verified_within_deadline) /
         (static_cast<double>(end_us) * 1e-6);
}

double LoadReport::TenantGoodputQps(size_t row) const {
  if (end_us == 0 || row >= tenants.size()) return 0.0;
  return static_cast<double>(tenants[row].served_within_deadline) /
         (static_cast<double>(end_us) * 1e-6);
}

std::string LoadReport::Summary() const {
  char buf[512];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "admission: admitted=%" PRIu64 " rejected_rate=%" PRIu64
                " rejected_queue_full=%" PRIu64 " shed_deadline=%" PRIu64
                " shed_drain=%" PRIu64 " (offered=%" PRIu64 ")\n",
                admitted, rejected_rate, rejected_queue_full, shed_deadline,
                shed_drain, offered);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "served: within_deadline=%" PRIu64 " late=%" PRIu64
                " verified=%" PRIu64 "\n",
                served_within_deadline, served_late, verified);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "brownout: served l0=%" PRIu64 " l1=%" PRIu64 " l2=%" PRIu64
                " l3=%" PRIu64 " l4=%" PRIu64 " degrades=%" PRIu64
                " recoveries=%" PRIu64 "\n",
                served_at_level[0], served_at_level[1], served_at_level[2],
                served_at_level[3], served_at_level[4], brownout_degrades,
                brownout_recoveries);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "breakers: transitions classifier=%" PRIu64
                " value_retrieval=%" PRIu64 " generation=%" PRIu64 "\n",
                breaker_transitions[0], breaker_transitions[1],
                breaker_transitions[2]);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "goodput: %.1f qps over %.3f virtual seconds\n",
                GoodputQps(), static_cast<double>(end_us) * 1e-6);
  out += buf;
  // The adversarial block renders only when adversarial machinery fired,
  // so clean campaigns keep their pre-hardening stdout byte-for-byte.
  if (adv_offered > 0 || suspect > 0) {
    std::snprintf(buf, sizeof(buf),
                  "adversarial: offered=%" PRIu64 " suspect=%" PRIu64
                  " canonical_retries=%" PRIu64 " canonical_served=%" PRIu64
                  "\n",
                  adv_offered, suspect, canonical_retries, canonical_served);
    out += buf;
    std::snprintf(buf, sizeof(buf), "verified goodput: %.1f qps\n",
                  VerifiedGoodputQps());
    out += buf;
  }
  if (!tenants.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "admission: rejected_tenant_rate=%" PRIu64 "\n",
                  rejected_tenant_rate);
    out += buf;
    for (size_t i = 0; i < tenants.size(); ++i) {
      const TenantRow& row = tenants[i];
      std::snprintf(buf, sizeof(buf),
                    "tenant %s: offered=%" PRIu64 " admitted=%" PRIu64
                    " rejected=%" PRIu64 " shed=%" PRIu64
                    " within_deadline=%" PRIu64 " goodput=%.1f qps\n",
                    row.name.c_str(), row.offered, row.admitted,
                    row.rejected, row.shed, row.served_within_deadline,
                    TenantGoodputQps(i));
      out += buf;
    }
  }
  std::snprintf(buf, sizeof(buf), "digest=%016" PRIx64 "\n", digest);
  out += buf;
  return out;
}

LoadReport RunLoadCampaign(const CodesPipeline& pipeline,
                           const Text2SqlBenchmark& bench,
                           const LoadGenOptions& options) {
  LoadReport report;
  if (options.num_requests <= 0 || bench.dev.empty()) return report;

  if (!options.failpoint_spec.empty()) {
    Status configured =
        Failpoints::Configure(options.failpoint_spec, options.seed);
    CODES_CHECK(configured.ok());
  }

  ServeFrontEnd front_end(&pipeline, &bench, options.front_end);
  ThreadPool pool(std::max(options.threads, 1));
  int free_workers = std::max(options.virtual_workers, 1);

  // The arrival schedule is a pure function of the seed: exponential
  // interarrival gaps at the offered rate, materialized up front.
  size_t n = static_cast<size_t>(options.num_requests);
  std::vector<Slot> slots(n);
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  // Multi-tenant campaigns assign every request a tenant and a
  // tenant-local sample, from an rng stream independent of the arrival
  // clock: the arrival schedule of a mix is identical to the
  // single-tenant schedule at the same seed, only the labels differ.
  bool multi_tenant = !options.tenants.empty();
  std::vector<int> tenant_of(n, -1);
  std::vector<size_t> sample_of(n, 0);
  std::vector<std::vector<size_t>> tenant_samples;
  if (multi_tenant) {
    tenant_samples.resize(options.tenants.size());
    for (size_t t = 0; t < options.tenants.size(); ++t) {
      int want_db = options.tenants[t].db_index;
      for (size_t i = 0; i < bench.dev.size(); ++i) {
        if (want_db < 0 || bench.dev[i].db_index == want_db) {
          tenant_samples[t].push_back(i);
        }
      }
      // A tenant with no matching dev samples draws from the whole set
      // rather than crashing the campaign.
      if (tenant_samples[t].empty()) {
        for (size_t i = 0; i < bench.dev.size(); ++i) {
          tenant_samples[t].push_back(i);
        }
      }
    }
  }
  // Adversarial mix: which requests mutate, how, and into what — all
  // derived up front on this thread from an rng stream independent of the
  // arrival clock and the tenant mix. Each id draws coin, kind, and
  // mutation seed unconditionally, so two campaigns differing only in
  // adv_rate mutate nested subsets of the same requests.
  std::vector<uint8_t> is_adv(n, 0);
  std::vector<std::string> mutated(n);
  {
    Rng rng(options.seed ^ 0xA881ULL);
    Rng mix_rng(options.seed ^ 0x7E4A17ULL);
    Rng adv_rng(options.seed ^ 0xADF17ULL);
    double rate = std::max(options.offered_qps, 1e-6);
    double t = 0.0;
    std::vector<double> weights(options.tenants.size(), 0.0);
    for (size_t id = 0; id < n; ++id) {
      double u = rng.UniformDouble();
      t += -std::log(1.0 - u) / rate * 1e6;
      uint64_t at = static_cast<uint64_t>(t);
      events.push(Event{at, /*kind=*/1, id});
      if (multi_tenant) {
        bool in_burst =
            options.burst_period_us > 0 && options.burst_duty > 0.0 &&
            static_cast<double>(at % options.burst_period_us) <
                options.burst_duty *
                    static_cast<double>(options.burst_period_us);
        for (size_t w = 0; w < options.tenants.size(); ++w) {
          const TenantTraffic& tt = options.tenants[w];
          double share = (in_burst && tt.burst_share >= 0.0)
                             ? tt.burst_share
                             : tt.share;
          weights[w] = std::max(share, 0.0);
        }
        size_t tenant = mix_rng.WeightedIndex(weights);
        tenant_of[id] = static_cast<int>(tenant);
        sample_of[id] = tenant_samples[tenant][mix_rng.Index(
            tenant_samples[tenant].size())];
      } else {
        sample_of[id] = id % bench.dev.size();
      }
      if (options.adv_rate > 0.0) {
        double coin = adv_rng.UniformDouble();
        auto kind = static_cast<QuestionMutation>(
            adv_rng.Index(static_cast<size_t>(kNumQuestionMutations)));
        uint64_t mutation_seed = adv_rng.Next();
        if (coin < options.adv_rate) {
          is_adv[id] = 1;
          mutated[id] = MutateQuestion(bench.dev[sample_of[id]].question,
                                       kind, mutation_seed);
        }
      }
    }
  }

  // Dispatches queued requests onto free virtual workers. Control flow
  // runs entirely in virtual time on this thread; only the pipeline work
  // itself runs on the pool.
  auto dispatch = [&](uint64_t now_us) {
    QueuedRequest next;
    std::vector<QueuedRequest> expired;
    while (free_workers > 0 && front_end.Dequeue(now_us, &next, &expired)) {
      uint64_t id = next.id;
      Slot& slot = slots[id];
      // Mutation and hardening happen here, on the DES thread, before
      // the breakers are consulted and the virtual cost is priced: a
      // suspect's raised brownout floor decides which stages it runs and
      // makes it cheaper in virtual time exactly as in real serving.
      const Text2SqlSample* sample = &bench.dev[sample_of[id]];
      if (is_adv[id] != 0) {
        slot.sample_storage = *sample;
        slot.sample_storage.question = mutated[id];
        sample = &slot.sample_storage;
      }
      HardenVerdict verdict;
      sample = &front_end.HardenRequest(*sample, &slot.sample_storage,
                                        &verdict);
      slot.options = front_end.OptionsFor(now_us, std::move(verdict));
      if (multi_tenant && options.tenant_attach) {
        // Fleet attach happens here, on the DES thread at a virtual
        // timestamp — so the attach/evict sequence is a pure function of
        // the seed no matter how many real threads execute the work.
        slot.lease = options.tenant_attach(tenant_of[id]);
        slot.options.value_retriever = slot.lease.get();
      }
      uint64_t service = VirtualServiceUs(options.seed, id,
                                          slot.options.brownout_level,
                                          options.service_base_us);
      auto done = std::make_shared<std::promise<void>>();
      slot.ready = done->get_future();
      pool.Submit([&pipeline, &bench, sample, &slot,
                   done = std::move(done)]() {
        slot.sql = pipeline.PredictGuarded(bench, *sample, slot.options,
                                           &slot.report);
        done->set_value();
      });
      --free_workers;
      events.push(Event{now_us + service, /*kind=*/0, id});
    }
    for (const QueuedRequest& victim : expired) {
      slots[victim.id].outcome = Outcome::kShedDeadline;
    }
  };

  uint64_t now_us = 0;
  while (!events.empty()) {
    Event event = events.top();
    events.pop();
    now_us = event.time_us;
    if (event.kind == 1) {  // arrival
      uint64_t deadline =
          options.deadline_us > 0 ? now_us + options.deadline_us : 0;
      slots[event.id].deadline_us = deadline;
      Admission admission =
          front_end.Offer(event.id, deadline, now_us, tenant_of[event.id]);
      if (admission == Admission::kRejectedRate) {
        slots[event.id].outcome = Outcome::kRejectedRate;
      } else if (admission == Admission::kRejectedQueueFull) {
        slots[event.id].outcome = Outcome::kRejectedQueueFull;
      } else if (admission == Admission::kRejectedTenantRate) {
        slots[event.id].outcome = Outcome::kRejectedTenantRate;
      }
    } else {  // completion
      Slot& slot = slots[event.id];
      // The virtual completion instant is fixed; the real work just has
      // to have happened by the time we consume its outcome.
      slot.ready.wait();
      slot.outcome = Outcome::kServed;
      slot.finish_us = now_us;
      front_end.Complete(slot.options, slot.report, now_us);
      slot.lease.reset();  // release the fleet lease at completion
      ++free_workers;
    }
    front_end.ObserveQueue(now_us);
    dispatch(now_us);
  }

  // Anything still queued at campaign end (all-expired tails are shed at
  // dequeue above, so this is only reachable with exotic settings) is
  // drained as shed.
  std::vector<QueuedRequest> leftovers;
  front_end.Drain(now_us, &leftovers);
  for (const QueuedRequest& victim : leftovers) {
    slots[victim.id].outcome = Outcome::kShedDrain;
  }

  if (!options.failpoint_spec.empty()) Failpoints::Clear();

  // Accounting + digest, folded in request-id order (never in completion
  // order, which real scheduling could perturb... it cannot, but the id
  // fold makes that a non-question).
  Fnv1aDigest digest;
  report.offered = n;
  if (multi_tenant) {
    report.tenants.resize(options.tenants.size());
    for (size_t t = 0; t < options.tenants.size(); ++t) {
      report.tenants[t].name = options.tenants[t].name;
    }
  }
  char line[64];
  for (size_t id = 0; id < n; ++id) {
    const Slot& slot = slots[id];
    LoadReport::TenantRow* row =
        multi_tenant ? &report.tenants[static_cast<size_t>(tenant_of[id])]
                     : nullptr;
    std::snprintf(line, sizeof(line), "%zu ", id);
    digest.Add(line);
    if (is_adv[id] != 0) {
      // The mutation label is part of the determinism contract for
      // adversarial campaigns; clean requests (and clean campaigns) fold
      // the exact pre-adversarial byte stream.
      digest.Add("adv ");
      ++report.adv_offered;
    }
    if (row != nullptr) {
      // Tenant labels are part of the determinism contract in a mix:
      // a reassignment across thread counts must poison the digest.
      digest.Add("t=");
      digest.Add(row->name);
      digest.Add(" ");
      ++row->offered;
    }
    switch (slot.outcome) {
      case Outcome::kPending:
        digest.Add("pending\n");  // unreachable; poisons the digest if not
        break;
      case Outcome::kRejectedRate:
        ++report.rejected_rate;
        if (row != nullptr) ++row->rejected;
        digest.Add("rejected_rate\n");
        break;
      case Outcome::kRejectedQueueFull:
        ++report.rejected_queue_full;
        if (row != nullptr) ++row->rejected;
        digest.Add("rejected_queue_full\n");
        break;
      case Outcome::kRejectedTenantRate:
        ++report.rejected_tenant_rate;
        if (row != nullptr) ++row->rejected;
        digest.Add("rejected_tenant_rate\n");
        break;
      case Outcome::kShedDeadline:
        ++report.shed_deadline;
        if (row != nullptr) ++row->shed;
        digest.Add("shed_deadline\n");
        break;
      case Outcome::kShedDrain:
        ++report.shed_drain;
        if (row != nullptr) ++row->shed;
        digest.Add("shed_drain\n");
        break;
      case Outcome::kServed: {
        ++report.admitted;
        if (row != nullptr) ++row->admitted;
        int level = std::clamp(slot.options.brownout_level, 0,
                               kNumBrownoutLevels - 1);
        ++report.served_at_level[level];
        if (slot.deadline_us == 0 || slot.finish_us <= slot.deadline_us) {
          ++report.served_within_deadline;
          if (row != nullptr) ++row->served_within_deadline;
          if (slot.report.execution_verified) {
            ++report.verified_within_deadline;
          }
        } else {
          ++report.served_late;
        }
        if (slot.report.execution_verified) ++report.verified;
        if (slot.options.suspect) ++report.suspect;
        report.canonical_retries +=
            static_cast<uint64_t>(slot.report.canonical_retries);
        if (slot.report.canonical_served) ++report.canonical_served;
        std::snprintf(line, sizeof(line), "served t=%" PRIu64 " ",
                      slot.finish_us);
        digest.Add(line);
        digest.Add(slot.report.ToString());
        digest.Add(" | ");
        digest.Add(slot.sql);
        digest.Add("\n");
        break;
      }
    }
  }
  report.brownout_degrades = front_end.brownout().degrades();
  report.brownout_recoveries = front_end.brownout().recoveries();
  for (int s = 0; s < kNumServeStages; ++s) {
    report.breaker_transitions[s] =
        front_end.breaker_transitions(static_cast<ServeStage>(s));
  }
  report.end_us = now_us;
  report.digest = digest.value;
  return report;
}

}  // namespace serve
}  // namespace codes
