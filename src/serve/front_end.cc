#include "serve/front_end.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/metrics.h"
#include "serve/harden.h"

namespace codes {
namespace serve {

namespace {

/// The serve.* admission/shedding/brownout/breaker metric families. The
/// counters obey the sum invariant documented on ServeFrontEnd; gauges
/// mirror the controllers' current state; the wait histogram is observed
/// in the caller's clock domain (virtual µs under codes_load, wall µs in
/// live serving).
struct FrontEndMetrics {
  Counter& offered = MetricsRegistry::Global().GetCounter("serve.offered");
  Counter& admitted = MetricsRegistry::Global().GetCounter("serve.admitted");
  Counter& rejected = MetricsRegistry::Global().GetCounter("serve.rejected");
  /// Indexed by Admission; kEnqueued is not a rejection.
  Counter* rejected_by[4] = {
      nullptr, &MetricsRegistry::Global().GetCounter("serve.rejected.rate"),
      &MetricsRegistry::Global().GetCounter("serve.rejected.queue_full"),
      &MetricsRegistry::Global().GetCounter("serve.rejected.tenant_rate")};
  Counter& shed = MetricsRegistry::Global().GetCounter("serve.shed");
  Counter& shed_deadline =
      MetricsRegistry::Global().GetCounter("serve.shed.deadline");
  Counter& shed_drain =
      MetricsRegistry::Global().GetCounter("serve.shed.drain");
  Histogram& queue_wait_us =
      MetricsRegistry::Global().GetHistogram("serve.queue.wait_us");
  Gauge& queue_depth =
      MetricsRegistry::Global().GetGauge("serve.queue.depth");
  Gauge& brownout_level =
      MetricsRegistry::Global().GetGauge("serve.brownout.level");
  Counter& brownout_degrade =
      MetricsRegistry::Global().GetCounter("serve.brownout.degrade");
  Counter& brownout_recover =
      MetricsRegistry::Global().GetCounter("serve.brownout.recover");
  /// Requests whose hardening verdict raised their brownout floor before
  /// dispatch (the suspect side of the serve.adv.* partition; the
  /// clean/suspect split itself is recorded by the pipeline).
  Counter& adv_pre_degraded =
      MetricsRegistry::Global().GetCounter("serve.adv.pre_degraded");
  Counter* served_level[kNumBrownoutLevels] = {
      &MetricsRegistry::Global().GetCounter("serve.brownout.served.l0"),
      &MetricsRegistry::Global().GetCounter("serve.brownout.served.l1"),
      &MetricsRegistry::Global().GetCounter("serve.brownout.served.l2"),
      &MetricsRegistry::Global().GetCounter("serve.brownout.served.l3"),
      &MetricsRegistry::Global().GetCounter("serve.brownout.served.l4")};
  Counter* breaker_to_open[kNumServeStages] = {
      &MetricsRegistry::Global().GetCounter(
          "serve.breaker.classifier.to_open"),
      &MetricsRegistry::Global().GetCounter(
          "serve.breaker.value_retrieval.to_open"),
      &MetricsRegistry::Global().GetCounter(
          "serve.breaker.generation.to_open")};
  Counter* breaker_to_half_open[kNumServeStages] = {
      &MetricsRegistry::Global().GetCounter(
          "serve.breaker.classifier.to_half_open"),
      &MetricsRegistry::Global().GetCounter(
          "serve.breaker.value_retrieval.to_half_open"),
      &MetricsRegistry::Global().GetCounter(
          "serve.breaker.generation.to_half_open")};
  Counter* breaker_to_closed[kNumServeStages] = {
      &MetricsRegistry::Global().GetCounter(
          "serve.breaker.classifier.to_closed"),
      &MetricsRegistry::Global().GetCounter(
          "serve.breaker.value_retrieval.to_closed"),
      &MetricsRegistry::Global().GetCounter(
          "serve.breaker.generation.to_closed")};
};

FrontEndMetrics& Metrics() {
  static FrontEndMetrics* metrics = new FrontEndMetrics();  // never freed
  return *metrics;
}

}  // namespace

ServeFrontEnd::ServeFrontEnd(const CodesPipeline* pipeline,
                             const Text2SqlBenchmark* bench,
                             const FrontEndOptions& options)
    : pipeline_(pipeline),
      bench_(bench),
      limits_(options.limits),
      harden_(options.harden),
      admission_(options.admission, options.tenant_names.size()),
      breakers_{CircuitBreaker(options.breaker),
                CircuitBreaker(options.breaker),
                CircuitBreaker(options.breaker)},
      brownout_(options.brownout),
      epoch_(std::chrono::steady_clock::now()) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  tenant_metrics_.reserve(options.tenant_names.size());
  for (const std::string& name : options.tenant_names) {
    std::string prefix = "serve.tenant." + name + ".";
    tenant_metrics_.push_back(
        TenantCounters{&registry.GetCounter(prefix + "offered"),
                       &registry.GetCounter(prefix + "admitted"),
                       &registry.GetCounter(prefix + "rejected"),
                       &registry.GetCounter(prefix + "shed")});
  }
}

ServeFrontEnd::TenantCounters* ServeFrontEnd::TenantOf(int tenant) {
  if (tenant < 0 || static_cast<size_t>(tenant) >= tenant_metrics_.size()) {
    return nullptr;
  }
  return &tenant_metrics_[static_cast<size_t>(tenant)];
}

void ServeFrontEnd::CountRejection(Admission admission,
                                   TenantCounters* tenant) {
  FrontEndMetrics& m = Metrics();
  m.rejected.Increment();
  m.rejected_by[static_cast<int>(admission)]->Increment();
  if (tenant != nullptr) tenant->rejected->Increment();
}

void ServeFrontEnd::CountShed(const std::vector<QueuedRequest>& shed,
                              size_t first, Counter& reason) {
  size_t n_shed = shed.size() - first;
  if (n_shed == 0) return;
  Metrics().shed.Increment(n_shed);
  reason.Increment(n_shed);
  // Attribute each entry to the tenant that offered it — the per-tenant
  // sum invariant only holds when shed work lands on its owner, not on
  // whichever request's dequeue flushed it.
  for (size_t i = first; i < shed.size(); ++i) {
    TenantCounters* t = TenantOf(shed[i].tenant);
    if (t != nullptr) t->shed->Increment();
  }
}

uint64_t ServeFrontEnd::WallNowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void ServeFrontEnd::NoteBreakerTransition(ServeStage stage,
                                          BreakerState before) {
  int s = static_cast<int>(stage);
  BreakerState after = breakers_[s].state();
  if (after == before) return;
  FrontEndMetrics& m = Metrics();
  switch (after) {
    case BreakerState::kOpen:
      m.breaker_to_open[s]->Increment();
      break;
    case BreakerState::kHalfOpen:
      m.breaker_to_half_open[s]->Increment();
      break;
    case BreakerState::kClosed:
      m.breaker_to_closed[s]->Increment();
      break;
  }
}

Admission ServeFrontEnd::OfferLocked(uint64_t id, uint64_t deadline_us,
                                     uint64_t now_us, int tenant) {
  FrontEndMetrics& m = Metrics();
  m.offered.Increment();
  TenantCounters* t = TenantOf(tenant);
  if (t != nullptr) t->offered->Increment();
  QueuedRequest request;
  request.id = id;
  request.enqueue_us = now_us;
  request.deadline_us = deadline_us;
  request.tenant = tenant;
  Admission admission = admission_.Offer(request, now_us);
  // An enqueued request is counted as admitted or shed when it leaves the
  // queue.
  if (admission != Admission::kEnqueued) CountRejection(admission, t);
  return admission;
}

Admission ServeFrontEnd::Offer(uint64_t id, uint64_t deadline_us,
                               uint64_t now_us, int tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  return OfferLocked(id, deadline_us, now_us, tenant);
}

bool ServeFrontEnd::Dequeue(uint64_t now_us, QueuedRequest* out,
                            std::vector<QueuedRequest>* shed) {
  std::lock_guard<std::mutex> lock(mu_);
  FrontEndMetrics& m = Metrics();
  std::vector<QueuedRequest> local_shed;
  std::vector<QueuedRequest>& expired =
      shed != nullptr ? *shed : local_shed;
  size_t before = expired.size();
  bool got = admission_.Dequeue(now_us, out, &expired);
  CountShed(expired, before, m.shed_deadline);
  if (got) {
    m.admitted.Increment();
    TenantCounters* t = TenantOf(out->tenant);
    if (t != nullptr) t->admitted->Increment();
    m.queue_wait_us.Observe(
        static_cast<double>(now_us - out->enqueue_us));
  }
  return got;
}

ServeOptions ServeFrontEnd::OptionsForLocked(uint64_t now_us,
                                             HardenVerdict verdict) {
  ServeOptions options;
  options.limits = limits_;
  options.brownout_level = brownout_.level();
  if (verdict.suspect) {
    MarkSuspect(&options, std::move(verdict.canonical_question));
  }
  const BrownoutPolicy& policy = BrownoutPolicyAt(options.brownout_level);

  // Breaker consults are skipped for stages this request will not touch
  // anyway (its brownout level strips them) — consulting would burn
  // half-open probe slots on requests that can never report a verdict.
  if (!policy.emergency_sql) {
    auto consult = [&](ServeStage stage, bool* force) {
      int s = static_cast<int>(stage);
      BreakerState before = breakers_[s].state();
      *force = breakers_[s].ShouldForce(now_us);
      NoteBreakerTransition(stage, before);
    };
    consult(ServeStage::kClassifier, &options.force_classifier_fallback);
    if (!policy.skip_value_retrieval) {
      consult(ServeStage::kValueRetrieval, &options.force_value_fallback);
    }
    consult(ServeStage::kGeneration, &options.force_emergency_sql);
  }
  return options;
}

ServeOptions ServeFrontEnd::OptionsFor(uint64_t now_us,
                                       HardenVerdict verdict) {
  std::lock_guard<std::mutex> lock(mu_);
  return OptionsForLocked(now_us, std::move(verdict));
}

void ServeFrontEnd::CompleteLocked(const ServeOptions& options_used,
                                   const ServeReport& report,
                                   uint64_t now_us) {
  FrontEndMetrics& m = Metrics();
  int level = std::clamp(options_used.brownout_level, 0,
                         kNumBrownoutLevels - 1);
  m.served_level[level]->Increment();

  // Breaker feed. A stage the front end itself forced off (or the
  // brownout level stripped) reports a fallback rung, but that is
  // self-inflicted, not evidence the stage is failing — skip it. Emergency
  // SQL skips every stage: nothing ran.
  auto feed = [&](ServeStage stage, bool failed) {
    int s = static_cast<int>(stage);
    BreakerState before = breakers_[s].state();
    breakers_[s].RecordOutcome(failed, now_us);
    NoteBreakerTransition(stage, before);
  };
  const BrownoutPolicy& policy = kBrownoutLadder[level];
  if (options_used.force_emergency_sql || policy.emergency_sql) return;
  if (!options_used.force_classifier_fallback) {
    feed(ServeStage::kClassifier,
         report.Fired(ServeRung::kClassifierFallback));
  }
  if (!options_used.force_value_fallback && !policy.skip_value_retrieval) {
    feed(ServeStage::kValueRetrieval,
         report.Fired(ServeRung::kValueFallback));
  }
  feed(ServeStage::kGeneration, !report.execution_verified);
}

void ServeFrontEnd::Complete(const ServeOptions& options_used,
                             const ServeReport& report, uint64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  CompleteLocked(options_used, report, now_us);
}

size_t ServeFrontEnd::Drain(uint64_t now_us,
                            std::vector<QueuedRequest>* shed) {
  (void)now_us;
  std::lock_guard<std::mutex> lock(mu_);
  FrontEndMetrics& m = Metrics();
  std::vector<QueuedRequest> local_shed;
  std::vector<QueuedRequest>& victims =
      shed != nullptr ? *shed : local_shed;
  size_t before = victims.size();
  admission_.DrainTo(&victims);
  CountShed(victims, before, m.shed_drain);
  m.queue_depth.Set(0);
  return victims.size() - before;
}

void ServeFrontEnd::ObserveFullnessLocked(double fullness, uint64_t now_us) {
  FrontEndMetrics& m = Metrics();
  int before = brownout_.level();
  int after = brownout_.Update(fullness, now_us);
  if (after > before) m.brownout_degrade.Increment();
  if (after < before) m.brownout_recover.Increment();
  m.brownout_level.Set(after);
}

const Text2SqlSample& ServeFrontEnd::HardenRequest(
    const Text2SqlSample& sample, Text2SqlSample* storage,
    HardenVerdict* verdict) const {
  if (!harden_) return sample;
  HardenResult hardened = HardenQuestion(sample.question);
  const Text2SqlSample* request = &sample;
  if (hardened.sanitized != sample.question) {
    if (storage != &sample) *storage = sample;
    storage->question = std::move(hardened.sanitized);
    request = storage;
  }
  verdict->suspect = hardened.suspect;
  verdict->canonical_question = std::move(hardened.canonical);
  return *request;
}

void ServeFrontEnd::MarkSuspect(ServeOptions* options,
                                std::string canonical_question) const {
  options->suspect = true;
  options->canonical_question = std::move(canonical_question);
  // Suspect requests never run richer than the floor, but an overload
  // brownout that is already deeper stays in charge.
  options->brownout_level =
      std::max(options->brownout_level, kSuspectFloorLevel);
  Metrics().adv_pre_degraded.Increment();
}

void ServeFrontEnd::ObserveQueue(uint64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  FrontEndMetrics& m = Metrics();
  size_t depth = admission_.queue_depth();
  m.queue_depth.Set(static_cast<int64_t>(depth));
  double fullness = static_cast<double>(depth) /
                    static_cast<double>(admission_.queue_capacity());
  ObserveFullnessLocked(fullness, now_us);
}

Status ServeFrontEnd::Serve(const Text2SqlSample& sample, std::string* sql,
                            ServeReport* report) {
  FrontEndMetrics& m = Metrics();
  // Hardening is pure — it runs before the lock, so hostile input never
  // extends the critical section, and its verdict is known when the
  // breakers are consulted.
  Text2SqlSample sanitized;
  HardenVerdict verdict;
  const Text2SqlSample& request = HardenRequest(sample, &sanitized, &verdict);
  ServeOptions options;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Read the clock under the lock, so the controllers see this front
    // end's decisions in time order.
    uint64_t now = WallNowUs();
    m.offered.Increment();
    size_t capacity = admission_.queue_capacity();
    Admission admission = admission_.AcquireToken(now);
    if (admission == Admission::kEnqueued && in_flight_ >= capacity) {
      admission = Admission::kRejectedQueueFull;
    }
    if (admission != Admission::kEnqueued) {
      CountRejection(admission, nullptr);
      return Status::ResourceExhausted(
          admission == Admission::kRejectedQueueFull ? "serving at capacity"
                                                     : "rate limited");
    }
    // The calling thread is the queue slot: fullness = concurrent callers.
    ObserveFullnessLocked(
        static_cast<double>(in_flight_) / static_cast<double>(capacity),
        now);
    options = OptionsForLocked(now, std::move(verdict));
    m.admitted.Increment();
    ++in_flight_;
  }

  ServeReport scratch;
  ServeReport& rep = report != nullptr ? *report : scratch;
  std::string out = pipeline_->PredictGuarded(*bench_, request, options, &rep);

  {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
    CompleteLocked(options, rep, WallNowUs());
  }
  if (sql != nullptr) *sql = std::move(out);
  return Status::Ok();
}

}  // namespace serve
}  // namespace codes
