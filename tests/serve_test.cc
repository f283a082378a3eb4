// Tier-1 coverage for the overload-protection serving front end: the
// token bucket, the deadline-aware LIFO-under-saturation queue, per-stage
// circuit breakers (trip / half-open probing / recovery), the adaptive
// brownout controller, the ServeFrontEnd glue (explicit-time and
// wall-clock modes, serve.* accounting), and the virtual-time load
// generator's thread-count determinism contract.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"
#include "serve/admission.h"
#include "serve/brownout.h"
#include "serve/circuit_breaker.h"
#include "serve/front_end.h"
#include "serve/load_gen.h"

namespace codes {
namespace serve {
namespace {

// ------------------------------------------------------------ token bucket

TEST(TokenBucketTest, DisabledRateAlwaysAdmits) {
  TokenBucket bucket(0.0, 1.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.TryAcquire(0));
}

TEST(TokenBucketTest, BurstThenContinuousRefill) {
  TokenBucket bucket(10.0, 2.0);  // 10 tokens/s, burst of 2
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_FALSE(bucket.TryAcquire(0)) << "burst exhausted";
  EXPECT_FALSE(bucket.TryAcquire(50'000)) << "only half a token accrued";
  EXPECT_TRUE(bucket.TryAcquire(110'000)) << "one token per 100 ms at 10/s";
  EXPECT_FALSE(bucket.TryAcquire(110'000));
}

TEST(TokenBucketTest, RefillCapsAtBurst) {
  TokenBucket bucket(100.0, 2.0);
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_TRUE(bucket.TryAcquire(0));
  // A long idle period must not bank more than `burst` tokens.
  EXPECT_TRUE(bucket.TryAcquire(10'000'000));
  EXPECT_TRUE(bucket.TryAcquire(10'000'000));
  EXPECT_FALSE(bucket.TryAcquire(10'000'000));
}

TEST(TokenBucketTest, VirtualClockJumpSaturatesAtBurst) {
  // The idle-gap regression (ISSUE 9): a virtual clock that jumps by an
  // arbitrarily long gap — decades of idle microseconds — must refill to
  // exactly `burst`, never to a mega-burst that admits everything.
  TokenBucket bucket(1000.0, 4.0);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_FALSE(bucket.TryAcquire(0));

  const uint64_t kFarFuture = ~0ULL / 2;  // ~292k years of microseconds
  EXPECT_DOUBLE_EQ(bucket.tokens_at(kFarFuture), 4.0);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(bucket.TryAcquire(kFarFuture));
  EXPECT_FALSE(bucket.TryAcquire(kFarFuture))
      << "idle gap banked more than burst";

  // Even when the accrual arithmetic itself overflows to +inf, the
  // refill lands on burst instead of poisoning the token count.
  TokenBucket extreme(1e300, 2.0);
  EXPECT_TRUE(extreme.TryAcquire(0));
  EXPECT_TRUE(extreme.TryAcquire(0));
  EXPECT_FALSE(extreme.TryAcquire(0));
  EXPECT_DOUBLE_EQ(extreme.tokens_at(kFarFuture), 2.0);
  EXPECT_TRUE(extreme.TryAcquire(kFarFuture));
  EXPECT_TRUE(extreme.TryAcquire(kFarFuture));
  EXPECT_FALSE(extreme.TryAcquire(kFarFuture));
}

TEST(TokenBucketTest, NonFiniteParametersAreSanitized) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();

  // Non-finite rate = no meaningful refill: treated as unlimited, the
  // same contract as rate <= 0 — never as "reject everything" and never
  // as a NaN tokens_ that admits everything while claiming to limit.
  TokenBucket nan_rate(kNan, 4.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(nan_rate.TryAcquire(0));
  TokenBucket inf_rate(kInf, 4.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(inf_rate.TryAcquire(0));

  // A NaN burst would make every comparison false; it clamps to 1 so the
  // bucket still limits at the configured rate.
  TokenBucket nan_burst(10.0, kNan);
  EXPECT_TRUE(nan_burst.TryAcquire(0));
  EXPECT_FALSE(nan_burst.TryAcquire(0));
  EXPECT_FALSE(nan_burst.TryAcquire(50'000));
  EXPECT_TRUE(nan_burst.TryAcquire(110'000));
}

// ------------------------------------------------------ weighted-fair limiter

TEST(WeightedFairLimiterTest, PartitionsCapacityByWeight) {
  std::vector<WeightedFairLimiter::TenantSpec> tenants(3);
  tenants[0].weight = 2.0;
  tenants[1].weight = 1.0;
  tenants[2].weight = 1.0;
  WeightedFairLimiter limiter(100.0, tenants);
  ASSERT_EQ(limiter.NumTenants(), 3u);
  EXPECT_DOUBLE_EQ(limiter.RateOf(0), 50.0);
  EXPECT_DOUBLE_EQ(limiter.RateOf(1), 25.0);
  EXPECT_DOUBLE_EQ(limiter.RateOf(2), 25.0);
}

TEST(WeightedFairLimiterTest, HotTenantCannotDrainAnotherTenantsShare) {
  std::vector<WeightedFairLimiter::TenantSpec> tenants(2);
  tenants[0].burst = 2.0;
  tenants[1].burst = 2.0;
  WeightedFairLimiter limiter(20.0, tenants);  // 10 qps each

  // Tenant 0 floods at t=0: it gets its burst and nothing more.
  int admitted = 0;
  for (int i = 0; i < 100; ++i) admitted += limiter.TryAcquire(0, 0);
  EXPECT_EQ(admitted, 2);

  // Tenant 1 is untouched by the flood — its own bucket is full.
  EXPECT_TRUE(limiter.TryAcquire(1, 0));
  EXPECT_TRUE(limiter.TryAcquire(1, 0));
  EXPECT_FALSE(limiter.TryAcquire(1, 0));

  // Over one second, each tenant accrues at its own 10 qps rate no
  // matter how hard the other one hammers.
  int t0 = 0;
  int t1 = 0;
  for (uint64_t us = 100'000; us <= 1'000'000; us += 100'000) {
    for (int i = 0; i < 50; ++i) t0 += limiter.TryAcquire(0, us);
    t1 += limiter.TryAcquire(1, us);
  }
  EXPECT_GE(t1, 8) << "victim starved by the hot tenant";
  EXPECT_LE(t0, 12) << "hot tenant exceeded its fair share";
}

TEST(WeightedFairLimiterTest, DisabledAndOutOfRangeAlwaysAdmit) {
  std::vector<WeightedFairLimiter::TenantSpec> tenants(2);
  WeightedFairLimiter disabled(0.0, tenants);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(disabled.TryAcquire(0, 0));

  WeightedFairLimiter limiter(10.0, tenants);
  EXPECT_TRUE(limiter.TryAcquire(-1, 0));  // single-tenant traffic
  EXPECT_TRUE(limiter.TryAcquire(99, 0));  // out of range: not limited here
  EXPECT_DOUBLE_EQ(limiter.RateOf(-1), 0.0);
}

// ----------------------------------------------------------- deadline queue

QueuedRequest Req(uint64_t id, uint64_t enqueue_us, uint64_t deadline_us) {
  QueuedRequest r;
  r.id = id;
  r.enqueue_us = enqueue_us;
  r.deadline_us = deadline_us;
  return r;
}

TEST(DeadlineQueueTest, PushRefusesWhenFull) {
  DeadlineQueue queue(2, 10);
  EXPECT_TRUE(queue.Push(Req(0, 0, 0)));
  EXPECT_TRUE(queue.Push(Req(1, 0, 0)));
  EXPECT_FALSE(queue.Push(Req(2, 0, 0)));
  EXPECT_EQ(queue.depth(), 2u);
}

TEST(DeadlineQueueTest, PopShedsExpiredBeforeServing) {
  DeadlineQueue queue(8, 8);  // threshold above depth: pure FIFO
  ASSERT_TRUE(queue.Push(Req(0, 0, 50)));
  ASSERT_TRUE(queue.Push(Req(1, 0, 60)));
  ASSERT_TRUE(queue.Push(Req(2, 0, 500)));
  QueuedRequest out;
  std::vector<QueuedRequest> shed;
  ASSERT_TRUE(queue.Pop(100, &out, &shed));
  EXPECT_EQ(out.id, 2u) << "both expired entries shed first";
  ASSERT_EQ(shed.size(), 2u);
  EXPECT_EQ(shed[0].id, 0u);
  EXPECT_EQ(shed[1].id, 1u);
  EXPECT_FALSE(queue.Pop(100, &out, &shed));
}

TEST(DeadlineQueueTest, FifoWhenShallowLifoWhenSaturated) {
  DeadlineQueue queue(8, 2);
  for (uint64_t id = 0; id < 4; ++id) ASSERT_TRUE(queue.Push(Req(id, 0, 0)));
  QueuedRequest out;
  std::vector<QueuedRequest> shed;
  // Depth 4 > threshold 2: newest first (its deadline budget is intact).
  ASSERT_TRUE(queue.Pop(0, &out, &shed));
  EXPECT_EQ(out.id, 3u);
  ASSERT_TRUE(queue.Pop(0, &out, &shed));
  EXPECT_EQ(out.id, 2u);
  // Depth 2 <= threshold: back to FIFO fairness.
  ASSERT_TRUE(queue.Pop(0, &out, &shed));
  EXPECT_EQ(out.id, 0u);
  ASSERT_TRUE(queue.Pop(0, &out, &shed));
  EXPECT_EQ(out.id, 1u);
  EXPECT_TRUE(shed.empty());
}

TEST(DeadlineQueueTest, DrainRemovesEverything) {
  DeadlineQueue queue(4, 4);
  for (uint64_t id = 0; id < 3; ++id) ASSERT_TRUE(queue.Push(Req(id, 0, 0)));
  std::vector<QueuedRequest> shed;
  queue.DrainTo(&shed);
  EXPECT_EQ(shed.size(), 3u);
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(AdmissionControllerTest, ResolveDefaultsLifoThresholdToHalfCapacity) {
  AdmissionController::Options options;
  options.queue_capacity = 64;
  EXPECT_EQ(options.Resolve().lifo_threshold, 32u);
  options.lifo_threshold = 5;
  EXPECT_EQ(options.Resolve().lifo_threshold, 5u);
}

TEST(AdmissionControllerTest, RateLimitCheckedBeforeQueueSpace) {
  AdmissionController::Options options;
  options.rate_per_sec = 1.0;
  options.burst = 1.0;
  options.queue_capacity = 1;
  AdmissionController controller(options);
  EXPECT_EQ(controller.Offer(Req(0, 0, 0), 0), Admission::kEnqueued);
  // Queue is now full AND the bucket is empty; the rate verdict wins.
  EXPECT_EQ(controller.Offer(Req(1, 0, 0), 0), Admission::kRejectedRate);
  // A second later there is a token but still no queue space.
  EXPECT_EQ(controller.Offer(Req(2, 0, 0), 1'000'000),
            Admission::kRejectedQueueFull);
}

TEST(AdmissionControllerTest, NamesAreStable) {
  EXPECT_STREQ(AdmissionName(Admission::kEnqueued), "enqueued");
  EXPECT_STREQ(AdmissionName(Admission::kRejectedRate), "rejected_rate");
  EXPECT_STREQ(AdmissionName(Admission::kRejectedQueueFull),
               "rejected_queue_full");
  EXPECT_STREQ(AdmissionName(Admission::kRejectedTenantRate),
               "rejected_tenant_rate");
}

TEST(AdmissionControllerTest, TenantLimiterCheckedBeforeGlobalBucket) {
  AdmissionController::Options options;
  options.rate_per_sec = 100.0;  // generous global bucket
  options.burst = 100.0;
  options.queue_capacity = 64;
  options.tenant_capacity_qps = 20.0;
  options.tenants.resize(2);  // 10 qps each
  options.tenants[0].burst = 1.0;
  options.tenants[1].burst = 1.0;
  AdmissionController controller(options);

  auto offer = [&](uint64_t id, int tenant, uint64_t now_us) {
    QueuedRequest request = Req(id, now_us, 0);
    request.tenant = tenant;
    return controller.Offer(request, now_us);
  };

  // Tenant 0 spends its token; its next request is clipped by the
  // weighted-fair layer even though the global bucket has 99 tokens
  // left — the hot tenant's excess never drains the shared pool.
  EXPECT_EQ(offer(0, 0, 0), Admission::kEnqueued);
  EXPECT_EQ(offer(1, 0, 0), Admission::kRejectedTenantRate);
  // Tenant 1 and untagged single-tenant traffic are unaffected.
  EXPECT_EQ(offer(2, 1, 0), Admission::kEnqueued);
  EXPECT_EQ(offer(3, -1, 0), Admission::kEnqueued);
}

// ---------------------------------------------------------- circuit breaker

CircuitBreaker::Options SmallBreaker() {
  CircuitBreaker::Options options;
  options.window = 8;
  options.min_samples = 4;
  options.failure_threshold = 0.5;
  options.cooldown_us = 1'000;
  options.half_open_probes = 2;
  options.close_after = 2;
  return options;
}

TEST(CircuitBreakerTest, StaysClosedBelowMinSamples) {
  CircuitBreaker breaker(SmallBreaker());
  for (int i = 0; i < 3; ++i) breaker.RecordOutcome(true, 0);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed)
      << "3 outcomes < min_samples=4: ratio not yet meaningful";
  EXPECT_FALSE(breaker.ShouldForce(0));
}

TEST(CircuitBreakerTest, TripsAtFailureRatio) {
  CircuitBreaker breaker(SmallBreaker());
  breaker.RecordOutcome(false, 0);
  breaker.RecordOutcome(true, 0);
  breaker.RecordOutcome(false, 0);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.RecordOutcome(true, 0);  // 2/4 = threshold
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_TRUE(breaker.ShouldForce(500)) << "cooldown not elapsed";
  EXPECT_EQ(breaker.transitions(), 1u);
}

TEST(CircuitBreakerTest, HalfOpenProbesThenCloses) {
  CircuitBreaker breaker(SmallBreaker());
  for (int i = 0; i < 4; ++i) breaker.RecordOutcome(true, 0);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);

  // Cooldown elapsed: the next consult transitions to HalfOpen and lets
  // exactly `half_open_probes` requests through.
  EXPECT_FALSE(breaker.ShouldForce(1'000)) << "probe 1";
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.ShouldForce(1'001)) << "probe 2";
  EXPECT_TRUE(breaker.ShouldForce(1'002)) << "probe quota spent";

  breaker.RecordOutcome(false, 1'100);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.RecordOutcome(false, 1'200);  // close_after = 2 successes
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_FALSE(breaker.ShouldForce(1'300));

  // The failing era's window was cleared on close: it takes min_samples
  // fresh failures to trip again, not one.
  breaker.RecordOutcome(true, 1'400);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, ProbeFailureReopensAndRestartsCooldown) {
  CircuitBreaker breaker(SmallBreaker());
  for (int i = 0; i < 4; ++i) breaker.RecordOutcome(true, 0);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.ShouldForce(1'000));  // probe
  breaker.RecordOutcome(true, 1'100);        // probe failed
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_TRUE(breaker.ShouldForce(1'500)) << "new cooldown from 1100";
  EXPECT_FALSE(breaker.ShouldForce(2'100)) << "cooldown elapsed again";
}

TEST(CircuitBreakerTest, OpenDropsStragglerOutcomes) {
  CircuitBreaker breaker(SmallBreaker());
  for (int i = 0; i < 4; ++i) breaker.RecordOutcome(true, 0);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  // In-flight requests admitted before the trip report in while Open;
  // their verdicts describe the pre-trip world and must not count.
  for (int i = 0; i < 10; ++i) breaker.RecordOutcome(false, 10);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.transitions(), 1u);
}

TEST(CircuitBreakerTest, StateNamesAreStable) {
  EXPECT_STREQ(BreakerStateName(BreakerState::kClosed), "closed");
  EXPECT_STREQ(BreakerStateName(BreakerState::kOpen), "open");
  EXPECT_STREQ(BreakerStateName(BreakerState::kHalfOpen), "half_open");
}

// ----------------------------------------------------------------- brownout

BrownoutController::Options FastBrownout() {
  BrownoutController::Options options;
  options.high_watermark = 0.75;
  options.low_watermark = 0.25;
  options.dwell_us = 100;
  return options;
}

TEST(BrownoutTest, DegradesOneStepPerDwellUnderSustainedOverload) {
  BrownoutController brownout(FastBrownout());
  EXPECT_EQ(brownout.Update(1.0, 1'000), 1);
  EXPECT_EQ(brownout.Update(1.0, 1'050), 1) << "dwell not elapsed";
  EXPECT_EQ(brownout.Update(1.0, 1'100), 2);
  EXPECT_EQ(brownout.Update(1.0, 1'200), 3);
  EXPECT_EQ(brownout.Update(1.0, 1'300), 4);
  EXPECT_EQ(brownout.Update(1.0, 1'400), 4) << "max level";
  EXPECT_EQ(brownout.degrades(), 4u);
}

TEST(BrownoutTest, HysteresisHoldsBetweenWatermarks) {
  BrownoutController brownout(FastBrownout());
  ASSERT_EQ(brownout.Update(1.0, 1'000), 1);
  // Mid-band fullness: neither degrade nor recover, at any dwell.
  EXPECT_EQ(brownout.Update(0.5, 2'000), 1);
  EXPECT_EQ(brownout.Update(0.5, 3'000), 1);
  EXPECT_EQ(brownout.Update(0.2, 3'100), 0) << "below low watermark";
  EXPECT_EQ(brownout.recoveries(), 1u);
}

TEST(BrownoutTest, MaxLevelOptionCapsDegradation) {
  BrownoutController::Options options = FastBrownout();
  options.max_level = 2;
  BrownoutController brownout(options);
  EXPECT_EQ(brownout.Update(1.0, 1'000), 1);
  EXPECT_EQ(brownout.Update(1.0, 2'000), 2);
  EXPECT_EQ(brownout.Update(1.0, 3'000), 2);
}

TEST(BrownoutTest, ApplyLevelSetsTheDocumentedKnobs) {
  ServeOptions l0;
  BrownoutController::ApplyLevel(0, &l0);
  EXPECT_EQ(l0.max_icl_demos, -1);
  EXPECT_FALSE(l0.disable_value_retriever);
  EXPECT_FALSE(l0.force_emergency_sql);
  EXPECT_EQ(l0.brownout_level, 0);

  ServeOptions l1;
  BrownoutController::ApplyLevel(1, &l1);
  EXPECT_EQ(l1.max_icl_demos, 1);
  EXPECT_FALSE(l1.disable_value_retriever);

  ServeOptions l2;
  BrownoutController::ApplyLevel(2, &l2);
  EXPECT_EQ(l2.max_icl_demos, 0);
  EXPECT_TRUE(l2.disable_value_retriever);
  EXPECT_EQ(l2.top_k1_override, 0);

  ServeOptions l3;
  BrownoutController::ApplyLevel(3, &l3);
  EXPECT_EQ(l3.top_k1_override, 2);
  EXPECT_EQ(l3.top_k2_override, 4);
  EXPECT_FALSE(l3.force_emergency_sql);

  ServeOptions l4;
  BrownoutController::ApplyLevel(4, &l4);
  EXPECT_TRUE(l4.force_emergency_sql);
  EXPECT_EQ(l4.brownout_level, 4);
}

// ---------------------------------------------------------- serve front end

uint64_t CounterDelta(const MetricsSnapshot& snapshot, const char* name) {
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

class ServeFrontEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bench_ = new Text2SqlBenchmark(BuildTinySpiderLike(2024));
    zoo_ = new LmZoo(1, 31);
    PipelineConfig config;
    config.size = ModelSize::k7B;
    pipeline_ = new CodesPipeline(config, zoo_->CodesFor(config.size));
    pipeline_->TrainClassifier(*bench_);
    pipeline_->FineTune(*bench_);
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete zoo_;
    delete bench_;
    pipeline_ = nullptr;
    zoo_ = nullptr;
    bench_ = nullptr;
  }
  void SetUp() override { MetricsRegistry::Global().Reset(); }
  void TearDown() override { Failpoints::Clear(); }

  static Text2SqlBenchmark* bench_;
  static LmZoo* zoo_;
  static CodesPipeline* pipeline_;
};
Text2SqlBenchmark* ServeFrontEndTest::bench_ = nullptr;
LmZoo* ServeFrontEndTest::zoo_ = nullptr;
CodesPipeline* ServeFrontEndTest::pipeline_ = nullptr;

TEST_F(ServeFrontEndTest, ExplicitTimeAccountingSumsToOffered) {
  FrontEndOptions options;
  options.admission.queue_capacity = 2;
  ServeFrontEnd fe(pipeline_, bench_, options);

  EXPECT_EQ(fe.Offer(0, 0, 0), Admission::kEnqueued);
  EXPECT_EQ(fe.Offer(1, 0, 0), Admission::kEnqueued);
  EXPECT_EQ(fe.Offer(2, 0, 0), Admission::kRejectedQueueFull);
  EXPECT_EQ(fe.queue_depth(), 2u);

  QueuedRequest out;
  ASSERT_TRUE(fe.Dequeue(10, &out));
  EXPECT_EQ(fe.Offer(3, /*deadline_us=*/50, 20), Admission::kEnqueued);

  // At t=100 request 3 is past its deadline: shed at dequeue, and the
  // remaining live request is served instead.
  std::vector<QueuedRequest> shed;
  ASSERT_TRUE(fe.Dequeue(100, &out, &shed));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].id, 3u);
  EXPECT_FALSE(fe.Dequeue(100, &out));
  EXPECT_EQ(fe.Drain(100), 0u);

  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterDelta(snapshot, "serve.offered"), 4u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.admitted"), 2u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.rejected"), 1u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.shed"), 1u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.admitted") +
                CounterDelta(snapshot, "serve.rejected") +
                CounterDelta(snapshot, "serve.shed"),
            CounterDelta(snapshot, "serve.offered"));
}

TEST_F(ServeFrontEndTest, PerTenantAccountingSumsToOfferedPerTenant) {
  FrontEndOptions options;
  options.tenant_names = {"alpha", "beta"};
  options.admission.queue_capacity = 2;
  options.admission.tenant_capacity_qps = 20.0;  // 10 qps per tenant
  options.admission.tenants.resize(2);
  options.admission.tenants[0].burst = 1.0;
  // Beta gets headroom so its rejections exercise the queue, not the
  // tenant bucket.
  options.admission.tenants[1].burst = 3.0;
  ServeFrontEnd fe(pipeline_, bench_, options);

  // alpha: one admitted, one clipped by its tenant bucket.
  EXPECT_EQ(fe.Offer(0, 0, 0, /*tenant=*/0), Admission::kEnqueued);
  EXPECT_EQ(fe.Offer(1, 0, 0, /*tenant=*/0), Admission::kRejectedTenantRate);
  // beta: one admitted (queue now full), one rejected queue-full, one
  // with a deadline that will expire before it is dequeued.
  EXPECT_EQ(fe.Offer(2, 0, 0, /*tenant=*/1), Admission::kEnqueued);
  EXPECT_EQ(fe.Offer(3, 0, 100'000, /*tenant=*/1),
            Admission::kRejectedQueueFull);

  QueuedRequest out;
  ASSERT_TRUE(fe.Dequeue(200'000, &out));
  EXPECT_EQ(fe.Offer(4, /*deadline_us=*/250'000, 200'000, /*tenant=*/1),
            Admission::kEnqueued);

  // Past request 4's deadline: it sheds at dequeue, attributed to beta;
  // the remaining live request serves.
  std::vector<QueuedRequest> shed;
  ASSERT_TRUE(fe.Dequeue(300'000, &out, &shed));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].id, 4u);
  EXPECT_EQ(shed[0].tenant, 1);
  EXPECT_FALSE(fe.Dequeue(300'000, &out));

  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  // Global family still sums.
  EXPECT_EQ(CounterDelta(snapshot, "serve.offered"), 5u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.rejected.tenant_rate"), 1u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.admitted") +
                CounterDelta(snapshot, "serve.rejected") +
                CounterDelta(snapshot, "serve.shed"),
            CounterDelta(snapshot, "serve.offered"));
  // Per-tenant families sum independently, and partition the global one.
  EXPECT_EQ(CounterDelta(snapshot, "serve.tenant.alpha.offered"), 2u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.tenant.alpha.admitted"), 1u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.tenant.alpha.rejected"), 1u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.tenant.alpha.shed"), 0u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.tenant.beta.offered"), 3u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.tenant.beta.admitted"), 1u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.tenant.beta.rejected"), 1u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.tenant.beta.shed"), 1u);
  for (const char* name : {"alpha", "beta"}) {
    std::string p = std::string("serve.tenant.") + name + ".";
    EXPECT_EQ(CounterDelta(snapshot, (p + "admitted").c_str()) +
                  CounterDelta(snapshot, (p + "rejected").c_str()) +
                  CounterDelta(snapshot, (p + "shed").c_str()),
              CounterDelta(snapshot, (p + "offered").c_str()))
        << name;
  }
}

TEST_F(ServeFrontEndTest, DrainShedsLeftoverQueue) {
  FrontEndOptions options;
  options.admission.queue_capacity = 8;
  ServeFrontEnd fe(pipeline_, bench_, options);
  for (uint64_t id = 0; id < 3; ++id) {
    ASSERT_EQ(fe.Offer(id, 0, 0), Admission::kEnqueued);
  }
  std::vector<QueuedRequest> shed;
  EXPECT_EQ(fe.Drain(10, &shed), 3u);
  EXPECT_EQ(shed.size(), 3u);
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterDelta(snapshot, "serve.shed.drain"), 3u);
}

TEST_F(ServeFrontEndTest, GenerationBreakerTripsForcesRungAndRecovers) {
  FrontEndOptions options;
  options.breaker = SmallBreaker();
  ServeFrontEnd fe(pipeline_, bench_, options);
  const auto& sample = bench_->dev.front();

  // Phase 1: every decode fails -> generation serves unverified fallbacks
  // until the breaker window trips.
  ASSERT_TRUE(Failpoints::Configure("lm.decode=prob:1.0", 7).ok());
  uint64_t now = 0;
  int until_open = 0;
  while (fe.breaker_state(ServeStage::kGeneration) == BreakerState::kClosed) {
    ASSERT_LT(until_open, 16) << "breaker never tripped";
    ServeOptions serve = fe.OptionsFor(now);
    EXPECT_FALSE(serve.force_emergency_sql);
    ServeReport report;
    std::string sql = pipeline_->PredictGuarded(*bench_, sample, serve,
                                                &report);
    EXPECT_FALSE(sql.empty());
    EXPECT_FALSE(report.execution_verified);
    fe.Complete(serve, report, now);
    now += 10;
    ++until_open;
  }
  EXPECT_EQ(until_open, 4) << "min_samples all-failed outcomes trip it";

  // Phase 2: while Open, requests are served as emergency SQL (the rung
  // fires without touching generation) and their outcomes feed nothing.
  ServeOptions forced = fe.OptionsFor(now);
  EXPECT_TRUE(forced.force_emergency_sql);
  ServeReport forced_report;
  std::string forced_sql = pipeline_->PredictGuarded(*bench_, sample, forced,
                                                     &forced_report);
  EXPECT_FALSE(forced_sql.empty());
  EXPECT_TRUE(forced_report.Fired(ServeRung::kEmergencySql));
  fe.Complete(forced, forced_report, now);
  EXPECT_EQ(fe.breaker_state(ServeStage::kGeneration), BreakerState::kOpen);

  // Phase 3: the fault clears; after the cooldown the breaker half-opens,
  // probes succeed, and the stage comes back.
  Failpoints::Clear();
  now += options.breaker.cooldown_us;
  for (int probe = 0; probe < options.breaker.close_after; ++probe) {
    ServeOptions serve = fe.OptionsFor(now);
    ASSERT_FALSE(serve.force_emergency_sql) << "probe " << probe;
    EXPECT_EQ(fe.breaker_state(ServeStage::kGeneration),
              BreakerState::kHalfOpen);
    ServeReport report;
    pipeline_->PredictGuarded(*bench_, sample, serve, &report);
    EXPECT_TRUE(report.execution_verified);
    fe.Complete(serve, report, now);
    now += 10;
  }
  EXPECT_EQ(fe.breaker_state(ServeStage::kGeneration), BreakerState::kClosed);
  EXPECT_FALSE(fe.OptionsFor(now).force_emergency_sql);

  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterDelta(snapshot, "serve.breaker.generation.to_open"), 1u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.breaker.generation.to_half_open"),
            1u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.breaker.generation.to_closed"), 1u);
}

TEST_F(ServeFrontEndTest, ClassifierBreakerForcesFallbackRung) {
  FrontEndOptions options;
  options.breaker = SmallBreaker();
  ServeFrontEnd fe(pipeline_, bench_, options);
  const auto& sample = bench_->dev.front();

  ASSERT_TRUE(Failpoints::Configure("classifier.score=prob:1.0", 7).ok());
  uint64_t now = 0;
  while (fe.breaker_state(ServeStage::kClassifier) == BreakerState::kClosed) {
    ASSERT_LT(now, 200u) << "classifier breaker never tripped";
    ServeOptions serve = fe.OptionsFor(now);
    ServeReport report;
    pipeline_->PredictGuarded(*bench_, sample, serve, &report);
    EXPECT_TRUE(report.Fired(ServeRung::kClassifierFallback));
    fe.Complete(serve, report, now);
    now += 10;
  }
  Failpoints::Clear();

  // While open the front end itself forces the rung; the report still
  // records kClassifierFallback but the breaker is no longer fed by it.
  ServeOptions forced = fe.OptionsFor(now);
  EXPECT_TRUE(forced.force_classifier_fallback);
  ServeReport report;
  pipeline_->PredictGuarded(*bench_, sample, forced, &report);
  EXPECT_TRUE(report.Fired(ServeRung::kClassifierFallback));
  fe.Complete(forced, report, now);
  EXPECT_EQ(fe.breaker_state(ServeStage::kClassifier), BreakerState::kOpen);
}

TEST_F(ServeFrontEndTest, QueuePressureDrivesBrownoutUpAndDown) {
  FrontEndOptions options;
  options.admission.queue_capacity = 4;
  options.brownout.dwell_us = 100;
  ServeFrontEnd fe(pipeline_, bench_, options);

  for (uint64_t id = 0; id < 4; ++id) {
    ASSERT_EQ(fe.Offer(id, 0, 1'000), Admission::kEnqueued);
  }
  fe.ObserveQueue(1'000);
  EXPECT_EQ(fe.brownout_level(), 1);
  fe.ObserveQueue(1'050);
  EXPECT_EQ(fe.brownout_level(), 1) << "dwell guard";
  fe.ObserveQueue(1'100);
  EXPECT_EQ(fe.brownout_level(), 2);

  ServeOptions degraded = fe.OptionsFor(1'150);
  EXPECT_EQ(degraded.brownout_level, 2);
  EXPECT_EQ(degraded.max_icl_demos, 0);
  EXPECT_TRUE(degraded.disable_value_retriever);

  // Drain the pressure: the controller steps back toward full richness.
  QueuedRequest out;
  while (fe.Dequeue(1'200, &out)) {
  }
  fe.ObserveQueue(1'300);
  EXPECT_EQ(fe.brownout_level(), 1);
  fe.ObserveQueue(1'400);
  EXPECT_EQ(fe.brownout_level(), 0);

  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterDelta(snapshot, "serve.brownout.degrade"), 2u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.brownout.recover"), 2u);
}

TEST_F(ServeFrontEndTest, BrownoutStrippedValueStageDoesNotFireRung) {
  // disable_value_retriever is brownout *policy*: the stage is healthy,
  // so no ladder rung fires and the value breaker is not consulted.
  ServeOptions serve;
  BrownoutController::ApplyLevel(2, &serve);
  ServeReport report;
  std::string sql = pipeline_->PredictGuarded(*bench_, bench_->dev.front(),
                                              serve, &report);
  EXPECT_FALSE(sql.empty());
  EXPECT_FALSE(report.Fired(ServeRung::kValueFallback));
  EXPECT_TRUE(report.execution_verified);
  EXPECT_EQ(report.brownout_level, 2);
}

TEST_F(ServeFrontEndTest, SyncServeServesAndRateLimits) {
  FrontEndOptions options;
  options.admission.rate_per_sec = 1e-6;  // ~one token per 11.5 days
  options.admission.burst = 1.0;
  ServeFrontEnd fe(pipeline_, bench_, options);

  std::string sql;
  ServeReport report;
  Status first = fe.Serve(bench_->dev.front(), &sql, &report);
  ASSERT_TRUE(first.ok()) << first.ToString();
  EXPECT_FALSE(sql.empty());

  Status second = fe.Serve(bench_->dev.front(), &sql);
  EXPECT_EQ(second.code(), StatusCode::kResourceExhausted);

  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterDelta(snapshot, "serve.offered"), 2u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.admitted"), 1u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.rejected.rate"), 1u);
}

TEST(ServeStageTest, StageNamesAreStable) {
  EXPECT_STREQ(ServeStageName(ServeStage::kClassifier), "classifier");
  EXPECT_STREQ(ServeStageName(ServeStage::kValueRetrieval),
               "value_retrieval");
  EXPECT_STREQ(ServeStageName(ServeStage::kGeneration), "generation");
}

// ------------------------------------------------------------ load campaign

TEST(ServeLoadGenTest, VirtualServiceCostIsPureAndBrownoutCheapens) {
  EXPECT_EQ(VirtualServiceUs(1, 42, 0, 20'000),
            VirtualServiceUs(1, 42, 0, 20'000));
  EXPECT_NE(VirtualServiceUs(1, 42, 0, 20'000),
            VirtualServiceUs(2, 42, 0, 20'000));
  for (uint64_t id = 0; id < 20; ++id) {
    for (int level = 1; level < kNumBrownoutLevels; ++level) {
      EXPECT_LT(VirtualServiceUs(1, id, level, 20'000),
                VirtualServiceUs(1, id, level - 1, 20'000))
          << "id=" << id << " level=" << level;
    }
  }
}

class ServeLoadCampaignTest : public ServeFrontEndTest {};

TEST_F(ServeLoadCampaignTest, CampaignIsByteIdenticalAcrossThreadCounts) {
  LoadGenOptions options;
  options.seed = 99;
  options.num_requests = 160;
  options.offered_qps = 400.0;  // 2x the 4x50/s virtual capacity
  options.virtual_workers = 4;
  options.service_base_us = 20'000;
  options.deadline_us = 100'000;
  options.front_end.brownout.dwell_us = 50'000;
  options.failpoint_spec = "*=prob:0.02";

  options.threads = 1;
  LoadReport serial = RunLoadCampaign(*pipeline_, *bench_, options);
  options.threads = 4;
  LoadReport parallel = RunLoadCampaign(*pipeline_, *bench_, options);

  EXPECT_EQ(serial.digest, parallel.digest);
  EXPECT_EQ(serial.Summary(), parallel.Summary());
  EXPECT_EQ(serial.offered, 160u);
  EXPECT_EQ(serial.admitted + serial.rejected_rate +
                serial.rejected_queue_full + serial.shed_deadline +
                serial.shed_drain,
            serial.offered)
      << "every request lands in exactly one outcome";
  EXPECT_GT(serial.admitted, 0u);
  EXPECT_GT(serial.rejected_queue_full + serial.shed_deadline, 0u)
      << "2x saturation must actually shed";
}

TEST_F(ServeLoadCampaignTest, MetricsObeySumInvariantAfterCampaign) {
  LoadGenOptions options;
  options.seed = 7;
  options.num_requests = 120;
  options.offered_qps = 400.0;
  options.threads = 2;
  options.front_end.brownout.dwell_us = 50'000;

  MetricsRegistry::Global().Reset();
  LoadReport report = RunLoadCampaign(*pipeline_, *bench_, options);
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();

  EXPECT_EQ(CounterDelta(snapshot, "serve.offered"), report.offered);
  EXPECT_EQ(CounterDelta(snapshot, "serve.admitted") +
                CounterDelta(snapshot, "serve.rejected") +
                CounterDelta(snapshot, "serve.shed"),
            CounterDelta(snapshot, "serve.offered"));
  EXPECT_EQ(CounterDelta(snapshot, "serve.rejected.rate") +
                CounterDelta(snapshot, "serve.rejected.queue_full"),
            CounterDelta(snapshot, "serve.rejected"));
  EXPECT_EQ(CounterDelta(snapshot, "serve.shed.deadline") +
                CounterDelta(snapshot, "serve.shed.drain"),
            CounterDelta(snapshot, "serve.shed"));
  uint64_t served_at_levels = 0;
  for (int l = 0; l < kNumBrownoutLevels; ++l) {
    served_at_levels += report.served_at_level[l];
  }
  EXPECT_EQ(served_at_levels, report.admitted);
}

TEST_F(ServeLoadCampaignTest, BrownoutLiftsGoodputUnderSaturation) {
  // The controller's whole purpose: at 2x offered load, adapting prompt
  // richness must serve more requests within deadline than pinning full
  // richness (max_level = 0 disables brownout entirely).
  LoadGenOptions adaptive;
  adaptive.seed = 11;
  adaptive.num_requests = 200;
  adaptive.offered_qps = 400.0;
  adaptive.threads = 2;
  adaptive.front_end.brownout.dwell_us = 50'000;

  LoadGenOptions rigid = adaptive;
  rigid.front_end.brownout.max_level = 0;

  LoadReport with_brownout = RunLoadCampaign(*pipeline_, *bench_, adaptive);
  LoadReport without = RunLoadCampaign(*pipeline_, *bench_, rigid);
  EXPECT_GT(with_brownout.served_within_deadline,
            without.served_within_deadline);
  EXPECT_GT(with_brownout.brownout_degrades, 0u);
  EXPECT_EQ(without.brownout_degrades, 0u);
}

}  // namespace
}  // namespace serve
}  // namespace codes
