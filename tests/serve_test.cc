// Tier-1 coverage for the overload-protection serving front end: the
// token bucket, the deadline-aware LIFO-under-saturation queue, per-stage
// circuit breakers (trip / half-open probing / recovery), the adaptive
// brownout controller, the ServeFrontEnd glue (explicit-time and
// wall-clock modes, serve.* accounting), and the virtual-time load
// generator's thread-count determinism contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/flat_hash.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"
#include "dataset/perturb.h"
#include "serve/admission.h"
#include "serve/brownout.h"
#include "serve/circuit_breaker.h"
#include "serve/front_end.h"
#include "serve/harden.h"
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

// -------------------------------------------------------- fair-share limiter

/// Tokens every admission bucket (global and per tenant) starts with.
constexpr int kBurst = static_cast<int>(kAdmissionBurst);

TEST(FairShareLimiterTest, HotTenantCannotDrainAnotherTenantsShare) {
  FairShareLimiter limiter(20.0, 2);  // equal shares: 10 qps each
  ASSERT_EQ(limiter.NumTenants(), 2u);
  EXPECT_DOUBLE_EQ(limiter.RateOf(0), 10.0);
  EXPECT_DOUBLE_EQ(limiter.RateOf(1), 10.0);

  // Tenant 0 floods at t=0: it gets its burst and nothing more.
  int admitted = 0;
  for (int i = 0; i < 100; ++i) admitted += limiter.TryAcquire(0, 0);
  EXPECT_EQ(admitted, kBurst);

  // Tenant 1 is untouched by the flood — its own bucket is full.
  for (int i = 0; i < kBurst; ++i) {
    EXPECT_TRUE(limiter.TryAcquire(1, 0)) << i;
  }
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

TEST(FairShareLimiterTest, DisabledAndOutOfRangeAlwaysAdmit) {
  FairShareLimiter disabled(0.0, 2);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(disabled.TryAcquire(0, 0));
  FairShareLimiter no_tenants(10.0, 0);
  EXPECT_EQ(no_tenants.NumTenants(), 0u);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(no_tenants.TryAcquire(0, 0));

  FairShareLimiter limiter(10.0, 2);
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
  DeadlineQueue queue(2);
  EXPECT_TRUE(queue.Push(Req(0, 0, 0)));
  EXPECT_TRUE(queue.Push(Req(1, 0, 0)));
  EXPECT_FALSE(queue.Push(Req(2, 0, 0)));
  EXPECT_EQ(queue.depth(), 2u);
}

TEST(DeadlineQueueTest, PopShedsExpiredBeforeServing) {
  DeadlineQueue queue(8);  // at most half full: pure FIFO
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
  DeadlineQueue queue(4);
  for (uint64_t id = 0; id < 4; ++id) ASSERT_TRUE(queue.Push(Req(id, 0, 0)));
  QueuedRequest out;
  std::vector<QueuedRequest> shed;
  // Depth 4 > half the capacity: newest first (its deadline budget is
  // intact).
  ASSERT_TRUE(queue.Pop(0, &out, &shed));
  EXPECT_EQ(out.id, 3u);
  ASSERT_TRUE(queue.Pop(0, &out, &shed));
  EXPECT_EQ(out.id, 2u);
  // Depth 2 <= half the capacity: back to FIFO fairness.
  ASSERT_TRUE(queue.Pop(0, &out, &shed));
  EXPECT_EQ(out.id, 0u);
  ASSERT_TRUE(queue.Pop(0, &out, &shed));
  EXPECT_EQ(out.id, 1u);
  EXPECT_TRUE(shed.empty());
}

TEST(DeadlineQueueTest, DrainRemovesEverything) {
  DeadlineQueue queue(4);
  for (uint64_t id = 0; id < 3; ++id) ASSERT_TRUE(queue.Push(Req(id, 0, 0)));
  std::vector<QueuedRequest> shed;
  queue.DrainTo(&shed);
  EXPECT_EQ(shed.size(), 3u);
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(AdmissionControllerTest, PopsNewestFirstAboveHalfCapacity) {
  // The controller's queue pops newest-first while it is more than half
  // full, then oldest-first.
  AdmissionController::Options options;
  options.queue_capacity = 8;
  AdmissionController controller(options, 0);
  for (uint64_t id = 0; id < 8; ++id) {
    ASSERT_EQ(controller.Offer(Req(id, 0, 0), 0), Admission::kEnqueued);
  }
  std::vector<uint64_t> order;
  QueuedRequest out;
  std::vector<QueuedRequest> shed;
  while (controller.Dequeue(0, &out, &shed)) order.push_back(out.id);
  EXPECT_EQ(order, (std::vector<uint64_t>{7, 6, 5, 4, 0, 1, 2, 3}));
  EXPECT_TRUE(shed.empty());
}

TEST(AdmissionControllerTest, RateLimitCheckedBeforeQueueSpace) {
  AdmissionController::Options options;
  options.rate_per_sec = 1.0;
  options.queue_capacity = kBurst;
  AdmissionController controller(options, 0);
  for (uint64_t id = 0; id < options.queue_capacity; ++id) {
    EXPECT_EQ(controller.Offer(Req(id, 0, 0), 0), Admission::kEnqueued);
  }
  // Queue is now full AND the bucket is empty; the rate verdict wins.
  EXPECT_EQ(controller.Offer(Req(100, 0, 0), 0), Admission::kRejectedRate);
  // A second later there is a token but still no queue space.
  EXPECT_EQ(controller.Offer(Req(101, 0, 0), 1'000'000),
            Admission::kRejectedQueueFull);
}

TEST(AdmissionControllerTest, TenantLimiterCheckedBeforeGlobalBucket) {
  AdmissionController::Options options;
  options.rate_per_sec = 1000.0;  // generous global bucket
  options.queue_capacity = 64;
  options.tenant_capacity_qps = 20.0;  // 10 qps each
  AdmissionController controller(options, 2);

  uint64_t id = 0;
  auto offer = [&](int tenant, uint64_t now_us) {
    QueuedRequest request = Req(id++, now_us, 0);
    request.tenant = tenant;
    return controller.Offer(request, now_us);
  };

  // Tenant 0 spends its burst at t=0 (the global bucket's too).
  for (int i = 0; i < kBurst; ++i) {
    EXPECT_EQ(offer(0, 0), Admission::kEnqueued);
  }
  // 10 ms later the global bucket is full again but tenant 0 has a tenth
  // of a token: the fair-share layer clips its requests before they can
  // spend any of the shared pool.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(offer(0, 10'000), Admission::kRejectedTenantRate);
  }
  // So tenant 1 still finds the whole global burst.
  for (int i = 0; i < kBurst; ++i) {
    EXPECT_EQ(offer(1, 10'000), Admission::kEnqueued);
  }
  // Untagged single-tenant traffic skips the tenant layer.
  EXPECT_EQ(offer(-1, 10'000), Admission::kRejectedRate);
}

// ---------------------------------------------------------- circuit breaker

// Production tuning: window 32, 8 minimum samples, trip at a 0.5 failure
// ratio, 2 s cooldown, 3 half-open probes, closes after 2 successes.
constexpr int kMinSamples = static_cast<int>(CircuitBreaker::kMinSamples);
constexpr uint64_t kCooldownUs = CircuitBreaker::kCooldownUs;

/// A breaker that `kMinSamples` straight failures at t=0 have tripped.
CircuitBreaker TrippedBreaker() {
  CircuitBreaker breaker{CircuitBreaker::Options()};
  for (int i = 0; i < kMinSamples; ++i) breaker.RecordOutcome(true, 0);
  return breaker;
}

TEST(CircuitBreakerTest, StaysClosedBelowMinSamples) {
  static_assert(CircuitBreaker::kWindow == 32 && kMinSamples == 8 &&
                kCooldownUs == 2'000'000 &&
                CircuitBreaker::kHalfOpenProbes == 3 &&
                CircuitBreaker::kCloseAfter == 2);
  CircuitBreaker breaker{CircuitBreaker::Options()};
  for (int i = 0; i < kMinSamples - 1; ++i) breaker.RecordOutcome(true, 0);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed)
      << "7 outcomes < min samples 8: ratio not yet meaningful";
  EXPECT_FALSE(breaker.ShouldForce(0));
}

TEST(CircuitBreakerTest, TripsAtFailureRatio) {
  CircuitBreaker breaker{CircuitBreaker::Options()};
  // Alternating success/failure: 3 failures in 7 outcomes.
  for (int i = 0; i < kMinSamples - 1; ++i) {
    breaker.RecordOutcome(i % 2 == 1, 0);
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.RecordOutcome(true, 0);  // 4/8 = threshold
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_TRUE(breaker.ShouldForce(kCooldownUs - 1)) << "cooldown not elapsed";
  EXPECT_EQ(breaker.transitions(), 1u);
}

TEST(CircuitBreakerTest, HalfOpenProbesThenCloses) {
  CircuitBreaker breaker = TrippedBreaker();
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);

  // Cooldown elapsed: the next consult transitions to HalfOpen and lets
  // exactly three probes through.
  EXPECT_FALSE(breaker.ShouldForce(kCooldownUs)) << "probe 1";
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.ShouldForce(kCooldownUs + 1)) << "probe 2";
  EXPECT_FALSE(breaker.ShouldForce(kCooldownUs + 2)) << "probe 3";
  EXPECT_TRUE(breaker.ShouldForce(kCooldownUs + 3)) << "probe quota spent";

  breaker.RecordOutcome(false, kCooldownUs + 100);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.RecordOutcome(false, kCooldownUs + 200);  // second success closes
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_FALSE(breaker.ShouldForce(kCooldownUs + 300));

  // The failing era's window was cleared on close: it takes the minimum
  // sample count of fresh failures to trip again, not one.
  for (int i = 0; i < kMinSamples - 1; ++i) {
    breaker.RecordOutcome(true, kCooldownUs + 400);
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.RecordOutcome(true, kCooldownUs + 500);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
}

TEST(CircuitBreakerTest, ProbeFailureReopensAndRestartsCooldown) {
  CircuitBreaker breaker = TrippedBreaker();
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.ShouldForce(kCooldownUs));  // probe
  const uint64_t failed_at = kCooldownUs + 100;
  breaker.RecordOutcome(true, failed_at);  // probe failed
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_TRUE(breaker.ShouldForce(failed_at + kCooldownUs - 1))
      << "new cooldown from the failed probe";
  EXPECT_FALSE(breaker.ShouldForce(failed_at + kCooldownUs))
      << "cooldown elapsed again";
}

TEST(CircuitBreakerTest, OpenDropsStragglerOutcomes) {
  CircuitBreaker breaker = TrippedBreaker();
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  // In-flight requests admitted before the trip report in while Open;
  // their verdicts describe the pre-trip world and must not count.
  for (int i = 0; i < 10; ++i) breaker.RecordOutcome(false, 10);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.transitions(), 1u);
}

TEST(CircuitBreakerTest, EarlierTimestampDoesNotEndCooldown) {
  // Concurrent callers can hand in timestamps slightly out of order; a
  // time before the trip is no elapsed time, not a wrapped-around eternity.
  const uint64_t tripped_at = 1'000'000;
  CircuitBreaker breaker{CircuitBreaker::Options()};
  for (int i = 0; i < kMinSamples; ++i) breaker.RecordOutcome(true, tripped_at);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_TRUE(breaker.ShouldForce(tripped_at - 1));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_TRUE(breaker.ShouldForce(tripped_at + kCooldownUs - 1));
  EXPECT_FALSE(breaker.ShouldForce(tripped_at + kCooldownUs)) << "probe 1";
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
}

// ----------------------------------------------------------------- brownout

BrownoutController::Options FastBrownout() {
  BrownoutController::Options options;
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

TEST(BrownoutTest, EarlierTimestampCountsAsNoElapsedTime) {
  // The production dwell: an out-of-order observation must not count as
  // an eternity since the last change and step the level again at once.
  BrownoutController brownout{BrownoutController::Options()};
  EXPECT_EQ(brownout.Update(1.0, 1'000'000), 1);
  EXPECT_EQ(brownout.Update(1.0, 999'999), 1);
  EXPECT_EQ(brownout.Update(1.0, 1'249'999), 1) << "dwell not elapsed";
  EXPECT_EQ(brownout.Update(1.0, 1'250'000), 2);
  EXPECT_EQ(brownout.degrades(), 2u);
}

TEST(BrownoutTest, MaxLevelOptionCapsDegradation) {
  BrownoutController::Options options = FastBrownout();
  options.max_level = 2;
  BrownoutController brownout(options);
  EXPECT_EQ(brownout.Update(1.0, 1'000), 1);
  EXPECT_EQ(brownout.Update(1.0, 2'000), 2);
  EXPECT_EQ(brownout.Update(1.0, 3'000), 2);
}

TEST(BrownoutTest, LadderTableRowsMatchTheDocumentedLevels) {
  static_assert(kNumBrownoutLevels == 5);
  const PromptOptions defaults;

  const BrownoutPolicy& l0 = kBrownoutLadder[0];  // full richness
  EXPECT_EQ(l0.demo_cap, -1);
  EXPECT_FALSE(l0.skip_value_retrieval);
  EXPECT_EQ(l0.top_k1, 0);
  EXPECT_EQ(l0.top_k2, 0);
  EXPECT_FALSE(l0.emergency_sql);

  const BrownoutPolicy& l1 = kBrownoutLadder[1];  // at most one demo
  EXPECT_EQ(l1.demo_cap, 1);
  EXPECT_FALSE(l1.skip_value_retrieval);
  EXPECT_EQ(l1.top_k1, 0);
  EXPECT_FALSE(l1.emergency_sql);

  const BrownoutPolicy& l2 = kBrownoutLadder[2];  // no demos, no values
  EXPECT_EQ(l2.demo_cap, 0);
  EXPECT_TRUE(l2.skip_value_retrieval);
  EXPECT_EQ(l2.top_k1, 0);
  EXPECT_EQ(l2.top_k2, 0);
  EXPECT_FALSE(l2.emergency_sql);

  const BrownoutPolicy& l3 = kBrownoutLadder[3];  // + schema top-k 2/4
  EXPECT_EQ(l3.demo_cap, 0);
  EXPECT_TRUE(l3.skip_value_retrieval);
  EXPECT_EQ(l3.top_k1, 2);
  EXPECT_EQ(l3.top_k2, 4);
  EXPECT_LT(l3.top_k1, defaults.top_k1) << "L3 only ever tightens";
  EXPECT_LT(l3.top_k2, defaults.top_k2);
  EXPECT_FALSE(l3.emergency_sql);

  const BrownoutPolicy& l4 = kBrownoutLadder[4];  // emergency SQL
  EXPECT_TRUE(l4.emergency_sql);

  // Out-of-range levels clamp onto the end rows.
  EXPECT_EQ(&BrownoutPolicyAt(-1), &kBrownoutLadder[0]);
  EXPECT_EQ(&BrownoutPolicyAt(2), &kBrownoutLadder[2]);
  EXPECT_EQ(&BrownoutPolicyAt(9), &kBrownoutLadder[4]);
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
  // Room for alpha's whole burst plus two of beta's requests, so beta's
  // rejections exercise the queue, not its tenant bucket.
  options.admission.queue_capacity = kBurst + 2;
  options.admission.tenant_capacity_qps = 20.0;  // 10 qps per tenant
  ServeFrontEnd fe(pipeline_, bench_, options);

  // alpha: its burst is enqueued, the next request is clipped by its
  // tenant bucket.
  uint64_t id = 0;
  for (int i = 0; i < kBurst; ++i) {
    EXPECT_EQ(fe.Offer(id++, 0, 0, /*tenant=*/0), Admission::kEnqueued);
  }
  EXPECT_EQ(fe.Offer(id++, 0, 0, /*tenant=*/0),
            Admission::kRejectedTenantRate);
  // beta: two enqueued (queue now full), one rejected queue-full.
  const uint64_t beta_first = id;
  EXPECT_EQ(fe.Offer(id++, 0, 0, /*tenant=*/1), Admission::kEnqueued);
  EXPECT_EQ(fe.Offer(id++, 0, 0, /*tenant=*/1), Admission::kEnqueued);
  EXPECT_EQ(fe.Offer(id++, 0, 100'000, /*tenant=*/1),
            Admission::kRejectedQueueFull);

  // The queue is more than half full, so it pops newest-first: beta's
  // second request is admitted, and a new beta request takes its slot
  // with a deadline that will expire before it is dequeued.
  QueuedRequest out;
  ASSERT_TRUE(fe.Dequeue(200'000, &out));
  EXPECT_EQ(out.id, beta_first + 1);
  const uint64_t doomed = id;
  EXPECT_EQ(fe.Offer(id++, /*deadline_us=*/250'000, 200'000, /*tenant=*/1),
            Admission::kEnqueued);

  // Past its deadline: it sheds at dequeue, attributed to beta, and
  // beta's first request serves.
  std::vector<QueuedRequest> shed;
  ASSERT_TRUE(fe.Dequeue(300'000, &out, &shed));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].id, doomed);
  EXPECT_EQ(shed[0].tenant, 1);
  EXPECT_EQ(out.id, beta_first);
  // alpha's queued burst is shed by the drain, attributed to alpha.
  EXPECT_EQ(fe.Drain(300'000), static_cast<size_t>(kBurst));

  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  // Global family still sums.
  EXPECT_EQ(CounterDelta(snapshot, "serve.offered"),
            static_cast<uint64_t>(kBurst + 5));
  EXPECT_EQ(CounterDelta(snapshot, "serve.rejected.tenant_rate"), 1u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.admitted") +
                CounterDelta(snapshot, "serve.rejected") +
                CounterDelta(snapshot, "serve.shed"),
            CounterDelta(snapshot, "serve.offered"));
  // Per-tenant families sum independently, and partition the global one.
  EXPECT_EQ(CounterDelta(snapshot, "serve.tenant.alpha.offered"),
            static_cast<uint64_t>(kBurst + 1));
  EXPECT_EQ(CounterDelta(snapshot, "serve.tenant.alpha.admitted"), 0u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.tenant.alpha.rejected"), 1u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.tenant.alpha.shed"),
            static_cast<uint64_t>(kBurst));
  EXPECT_EQ(CounterDelta(snapshot, "serve.tenant.beta.offered"), 4u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.tenant.beta.admitted"), 2u);
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
  ServeFrontEnd fe(pipeline_, bench_, FrontEndOptions());
  const auto& sample = bench_->dev.front();

  // Phase 1: every decode fails -> generation serves unverified fallbacks
  // until the breaker window trips.
  ASSERT_TRUE(Failpoints::Configure("lm.decode=prob:1.0", 7).ok());
  uint64_t now = 0;
  int until_open = 0;
  while (fe.breaker_state(ServeStage::kGeneration) == BreakerState::kClosed) {
    ASSERT_LT(until_open, 32) << "breaker never tripped";
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
  EXPECT_EQ(until_open, kMinSamples)
      << "the minimum sample count of all-failed outcomes trips it";

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
  now += kCooldownUs;
  for (int probe = 0; probe < CircuitBreaker::kCloseAfter; ++probe) {
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

TEST_F(ServeFrontEndTest, SuspectRequestsLeaveValueProbesToCleanOnes) {
  // Suspect requests run at the suspect floor, which skips value
  // retrieval, so they never report a value outcome. The front end once
  // consulted the breakers before the hardening verdict raised the level:
  // three suspects after the cooldown spent every half-open probe, the
  // value breaker stayed HalfOpen for good, and every later request was
  // forced onto the value fallback.
  ServeFrontEnd fe(pipeline_, bench_, FrontEndOptions());
  const Text2SqlSample& clean = bench_->dev.front();

  ASSERT_TRUE(
      Failpoints::Configure("value_retriever.build_index=prob:1.0", 7).ok());
  uint64_t now = 0;
  while (fe.breaker_state(ServeStage::kValueRetrieval) ==
         BreakerState::kClosed) {
    ASSERT_LT(now, 400u) << "value breaker never tripped";
    ServeOptions serve = fe.OptionsFor(now);
    ServeReport report;
    pipeline_->PredictGuarded(*bench_, clean, serve, &report);
    EXPECT_TRUE(report.Fired(ServeRung::kValueFallback));
    fe.Complete(serve, report, now);
    now += 10;
  }
  Failpoints::Clear();
  now += kCooldownUs;

  for (int i = 0; i < CircuitBreaker::kHalfOpenProbes; ++i) {
    Text2SqlSample mutated = clean;
    mutated.question = MutateQuestion(
        clean.question, QuestionMutation::kSchemaNoise, 4000 + i);
    Text2SqlSample storage;
    HardenVerdict verdict;
    const Text2SqlSample& request =
        fe.HardenRequest(mutated, &storage, &verdict);
    ASSERT_TRUE(verdict.suspect) << mutated.question;
    ServeOptions serve = fe.OptionsFor(now, std::move(verdict));
    EXPECT_EQ(serve.brownout_level, kSuspectFloorLevel);
    EXPECT_TRUE(serve.suspect);
    ServeReport report;
    pipeline_->PredictGuarded(*bench_, request, serve, &report);
    fe.Complete(serve, report, now);
    now += 10;
  }

  // Clean requests get the probes, succeed and close the breaker.
  for (int probe = 0; probe < CircuitBreaker::kCloseAfter; ++probe) {
    ServeOptions serve = fe.OptionsFor(now);
    ASSERT_FALSE(serve.force_value_fallback) << "probe " << probe;
    ServeReport report;
    pipeline_->PredictGuarded(*bench_, clean, serve, &report);
    EXPECT_FALSE(report.Fired(ServeRung::kValueFallback));
    fe.Complete(serve, report, now);
    now += 10;
  }
  EXPECT_EQ(fe.breaker_state(ServeStage::kValueRetrieval),
            BreakerState::kClosed);
  EXPECT_FALSE(fe.OptionsFor(now).force_value_fallback);
}

TEST_F(ServeFrontEndTest, ClassifierBreakerForcesFallbackRung) {
  ServeFrontEnd fe(pipeline_, bench_, FrontEndOptions());
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
  EXPECT_FALSE(degraded.force_value_fallback)
      << "a level that skips values does not consult the value breaker";

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
  // Level 2 skips values as brownout *policy*: the stage is healthy, so
  // no ladder rung fires and the value breaker is not consulted.
  ServeOptions serve;
  serve.brownout_level = 2;
  ServeReport report;
  std::string sql = pipeline_->PredictGuarded(*bench_, bench_->dev.front(),
                                              serve, &report);
  EXPECT_FALSE(sql.empty());
  EXPECT_FALSE(report.Fired(ServeRung::kValueFallback));
  EXPECT_TRUE(report.execution_verified);
  EXPECT_EQ(report.brownout_level, 2);
}

TEST_F(ServeFrontEndTest, ZeroQueueCapacityMeansOneSlot) {
  FrontEndOptions options;
  options.admission.queue_capacity = 0;
  options.brownout.dwell_us = 100;
  ServeFrontEnd fe(pipeline_, bench_, options);

  // The wall-clock path admits a caller into the one slot (an unclamped
  // capacity would reject every Serve as "at capacity").
  std::string sql;
  ASSERT_TRUE(fe.Serve(bench_->dev.front(), &sql).ok());
  EXPECT_FALSE(sql.empty());

  // The queue holds exactly one request.
  EXPECT_EQ(fe.Offer(0, 0, 1'000), Admission::kEnqueued);
  EXPECT_EQ(fe.Offer(1, 0, 1'000), Admission::kRejectedQueueFull);

  // Fullness is measured against that one slot: 1/1 degrades, and 0/1
  // (not 0/0) recovers.
  fe.ObserveQueue(1'000);
  EXPECT_EQ(fe.brownout_level(), 1);
  QueuedRequest out;
  ASSERT_TRUE(fe.Dequeue(1'050, &out));
  fe.ObserveQueue(1'100);
  EXPECT_EQ(fe.brownout_level(), 0);
}

TEST_F(ServeFrontEndTest, SyncServeServesAndRateLimits) {
  FrontEndOptions options;
  options.admission.rate_per_sec = 1e-6;  // ~one token per 11.5 days
  ServeFrontEnd fe(pipeline_, bench_, options);

  // The burst serves; the request after it is rate limited.
  for (int i = 0; i < kBurst; ++i) {
    std::string sql;
    ServeReport report;
    Status served = fe.Serve(bench_->dev.front(), &sql, &report);
    ASSERT_TRUE(served.ok()) << i << ": " << served.ToString();
    EXPECT_FALSE(sql.empty());
  }

  std::string sql;
  Status limited = fe.Serve(bench_->dev.front(), &sql);
  EXPECT_EQ(limited.code(), StatusCode::kResourceExhausted);

  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterDelta(snapshot, "serve.offered"),
            static_cast<uint64_t>(kBurst + 1));
  EXPECT_EQ(CounterDelta(snapshot, "serve.admitted"),
            static_cast<uint64_t>(kBurst));
  EXPECT_EQ(CounterDelta(snapshot, "serve.rejected.rate"), 1u);
}

// ------------------------------------------------------- brownout ladder

/// Two few-shot pipelines, chosen so that every rung of the ladder changes
/// some served SQL: on the tiny Spider-like fixture the demonstration cap
/// and the value skip move template choice; on a tiny BIRD-like fixture
/// (wide tables, evidence) the schema top-k and the value skip do.
class ServeLadderTest : public ::testing::Test {
 protected:
  struct Fixture {
    Text2SqlBenchmark bench;
    std::unique_ptr<CodesPipeline> pipeline;
  };

  static Fixture* MakeFixture(Text2SqlBenchmark bench, bool evidence) {
    auto* fixture = new Fixture{std::move(bench), nullptr};
    PipelineConfig config;
    config.size = ModelSize::k7B;
    config.use_external_knowledge = evidence;
    config.icl_shots = 3;
    config.extra_model_noise = 0.6;
    fixture->pipeline = std::make_unique<CodesPipeline>(
        config, zoo_->CodesFor(config.size));
    fixture->pipeline->TrainClassifier(fixture->bench);
    fixture->pipeline->SetDemonstrationPool(fixture->bench.train);
    return fixture;
  }

  static void SetUpTestSuite() {
    zoo_ = new LmZoo(1, 31);
    spider_ = MakeFixture(BuildTinySpiderLike(2024), false);
    BenchmarkConfig bird;
    bird.name = "tiny_bird_like";
    bird.profile = DbProfile::Bird();
    bird.train_domains = 4;
    bird.dev_domains = 2;
    bird.train_samples_per_db = 20;
    bird.dev_samples_per_db = 10;
    bird.with_external_knowledge = true;
    bird.seed = 2024;
    bird_ = MakeFixture(BuildBenchmark(bird), true);
  }
  static void TearDownTestSuite() {
    delete spider_;
    delete bird_;
    delete zoo_;
    spider_ = nullptr;
    bird_ = nullptr;
    zoo_ = nullptr;
  }

  static LmZoo* zoo_;
  static Fixture* spider_;
  static Fixture* bird_;
};
LmZoo* ServeLadderTest::zoo_ = nullptr;
ServeLadderTest::Fixture* ServeLadderTest::spider_ = nullptr;
ServeLadderTest::Fixture* ServeLadderTest::bird_ = nullptr;

TEST_F(ServeLadderTest, EveryLevelServesTheParentsSql) {
  // Every brownout level x clean/suspect x each breaker action, served
  // for 8 dev samples of each fixture; the report line and SQL of every
  // request fold into one digest, recorded when the ladder still lived
  // in four ServeOptions knobs derived from the level.
  enum Forced { kNone = 0, kClassifier, kValue, kGeneration };
  Fnv1aDigest digest;
  int emergency = 0;
  for (const Fixture* f : {spider_, bird_}) {
    ServeFrontEnd fe(f->pipeline.get(), &f->bench, FrontEndOptions());
    for (int level = 0; level < kNumBrownoutLevels; ++level) {
      for (bool suspect : {false, true}) {
        for (int forced = kNone; forced <= kGeneration; ++forced) {
          for (size_t i = 0; i < 8; ++i) {
            Text2SqlSample sample = f->bench.dev[i * f->bench.dev.size() / 8];
            ServeOptions options;
            options.brownout_level = level;
            options.force_classifier_fallback = forced == kClassifier;
            options.force_value_fallback = forced == kValue;
            if (forced == kGeneration) options.force_emergency_sql = true;
            if (suspect) {
              HardenResult h = HardenQuestion(MutateQuestion(
                  sample.question, QuestionMutation::kSchemaNoise, 4000 + i));
              ASSERT_TRUE(h.suspect);
              sample.question = h.sanitized;
              fe.MarkSuspect(&options, h.canonical);
            }
            ServeReport report;
            std::string sql = f->pipeline->PredictGuarded(f->bench, sample,
                                                          options, &report);
            EXPECT_EQ(report.brownout_level,
                      suspect ? std::max(level, kSuspectFloorLevel) : level);
            if (report.Fired(ServeRung::kEmergencySql)) ++emergency;
            digest.Add(std::to_string(level) + (suspect ? " s " : " c ") +
                       std::to_string(forced) + " " + report.ToString() +
                       " | " + sql + "\n");
          }
        }
      }
    }
  }
  // Level 4 and the generation breaker serve emergency SQL; nothing else
  // does on these fault-free fixtures.
  EXPECT_EQ(emergency, 2 * 2 * 8 * (4 + 4));
  EXPECT_EQ(digest.value, 0x9209be807cf1d318ull) << std::hex << digest.value;
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
