#include "serve/admission.h"

#include <algorithm>
#include <cmath>

namespace codes {
namespace serve {

TokenBucket::TokenBucket(double rate_per_sec, double burst) {
  // Sanitize before storing: a NaN burst would poison tokens_ forever
  // (std::max(NaN, 1.0) is NaN, and NaN < 1.0 is false, so TryAcquire
  // would admit every request), and a non-finite rate has no meaningful
  // refill semantics — treat it as "unlimited" like rate <= 0.
  if (!std::isfinite(rate_per_sec)) rate_per_sec = 0.0;
  if (!std::isfinite(burst) || burst < 1.0) burst = 1.0;
  rate_per_sec_ = rate_per_sec;
  burst_ = burst;
  tokens_ = burst;
}

void TokenBucket::Refill(uint64_t now_us) {
  if (!primed_) {
    // The first observation anchors the clock; the bucket starts full so a
    // cold front end never rejects its very first burst.
    last_refill_us_ = now_us;
    primed_ = true;
    return;
  }
  if (now_us <= last_refill_us_) return;
  double elapsed_s =
      static_cast<double>(now_us - last_refill_us_) * 1e-6;
  // Saturate at capacity, written so that a non-finite accrual (an
  // arbitrarily long idle gap, extreme rates) also lands on burst_: the
  // inverted comparison is false for NaN, so poison clamps instead of
  // propagating into tokens_ and bypassing admission forever.
  double next = tokens_ + elapsed_s * rate_per_sec_;
  tokens_ = (next < burst_) ? next : burst_;
  last_refill_us_ = now_us;
}

bool TokenBucket::TryAcquire(uint64_t now_us) {
  if (rate_per_sec_ <= 0.0) return true;
  Refill(now_us);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

double TokenBucket::tokens_at(uint64_t now_us) const {
  if (rate_per_sec_ <= 0.0) return burst_;
  if (!primed_ || now_us <= last_refill_us_) return tokens_;
  double elapsed_s =
      static_cast<double>(now_us - last_refill_us_) * 1e-6;
  double next = tokens_ + elapsed_s * rate_per_sec_;
  return (next < burst_) ? next : burst_;
}

FairShareLimiter::FairShareLimiter(double capacity_qps, size_t num_tenants) {
  if (!std::isfinite(capacity_qps) || capacity_qps <= 0.0 ||
      num_tenants == 0) {
    return;  // limiting disabled: no buckets, TryAcquire always true
  }
  rate_ = capacity_qps / static_cast<double>(num_tenants);
  buckets_.assign(num_tenants, TokenBucket(rate_, kAdmissionBurst));
}

bool FairShareLimiter::TryAcquire(int tenant, uint64_t now_us) {
  if (tenant < 0 || static_cast<size_t>(tenant) >= buckets_.size()) {
    return true;
  }
  return buckets_[static_cast<size_t>(tenant)].TryAcquire(now_us);
}

double FairShareLimiter::RateOf(int tenant) const {
  if (tenant < 0 || static_cast<size_t>(tenant) >= buckets_.size()) {
    return 0.0;
  }
  return rate_;
}

DeadlineQueue::DeadlineQueue(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)),
      lifo_threshold_(capacity_ / 2) {}

bool DeadlineQueue::Push(const QueuedRequest& request) {
  if (queue_.size() >= capacity_) return false;
  queue_.push_back(request);
  return true;
}

bool DeadlineQueue::Pop(uint64_t now_us, QueuedRequest* out,
                        std::vector<QueuedRequest>* shed) {
  while (!queue_.empty()) {
    // Under saturation serve the newest entry: its deadline budget is
    // still intact, where the oldest is the most likely to expire before
    // completing (serving it first converts queue time into wasted work).
    bool lifo = queue_.size() > lifo_threshold_;
    QueuedRequest candidate = lifo ? queue_.back() : queue_.front();
    if (lifo) {
      queue_.pop_back();
    } else {
      queue_.pop_front();
    }
    if (candidate.deadline_us != 0 && candidate.deadline_us <= now_us) {
      // Guaranteed-wasted work: shed before spending pipeline time on it.
      if (shed != nullptr) shed->push_back(candidate);
      continue;
    }
    *out = candidate;
    return true;
  }
  return false;
}

void DeadlineQueue::DrainTo(std::vector<QueuedRequest>* shed) {
  while (!queue_.empty()) {
    if (shed != nullptr) shed->push_back(queue_.front());
    queue_.pop_front();
  }
}

AdmissionController::AdmissionController(const Options& options,
                                         size_t num_tenants)
    : bucket_(options.rate_per_sec, kAdmissionBurst),
      tenant_limiter_(options.tenant_capacity_qps, num_tenants),
      queue_(options.queue_capacity) {}

Admission AdmissionController::Offer(const QueuedRequest& request,
                                     uint64_t now_us) {
  // Tenant fair share first: a hot tenant's excess is clipped before it
  // can spend any of the global tokens the other tenants share.
  if (!tenant_limiter_.TryAcquire(request.tenant, now_us)) {
    return Admission::kRejectedTenantRate;
  }
  if (!bucket_.TryAcquire(now_us)) return Admission::kRejectedRate;
  if (!queue_.Push(request)) return Admission::kRejectedQueueFull;
  return Admission::kEnqueued;
}

bool AdmissionController::Dequeue(uint64_t now_us, QueuedRequest* out,
                                  std::vector<QueuedRequest>* shed) {
  return queue_.Pop(now_us, out, shed);
}

void AdmissionController::DrainTo(std::vector<QueuedRequest>* shed) {
  queue_.DrainTo(shed);
}

}  // namespace serve
}  // namespace codes
