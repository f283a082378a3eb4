#ifndef CODES_SERVE_ADMISSION_H_
#define CODES_SERVE_ADMISSION_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace codes {
namespace serve {

/// Classic token bucket: `rate_per_sec` tokens accrue continuously up to
/// `burst`; each admitted request spends one. Time is explicit (µs) so the
/// same code runs under the virtual clock of a load campaign and the
/// steady clock of live serving — nothing in src/serve/ ever reads a real
/// clock itself.
///
/// Hardened against idle-gap overflow (ISSUE 9): refill after an
/// arbitrarily long gap saturates at `burst` even when the elapsed-time
/// arithmetic produces a non-finite intermediate, and non-finite
/// constructor parameters are sanitized. Without the guard a poisoned
/// `tokens_` (NaN compares false against every threshold) admits every
/// request forever — a mega-burst that silently bypasses admission.
class TokenBucket {
 public:
  /// `rate_per_sec` <= 0 (or non-finite) disables rate limiting
  /// (TryAcquire always succeeds); `burst` < 1 or non-finite is clamped
  /// so a legal rate can never starve every request.
  TokenBucket(double rate_per_sec, double burst);

  /// Spends one token if available at `now_us`. Monotonic `now_us`
  /// expected; a caller handing in an earlier time simply accrues nothing.
  bool TryAcquire(uint64_t now_us);

  double tokens_at(uint64_t now_us) const;

 private:
  void Refill(uint64_t now_us);

  double rate_per_sec_;
  double burst_;
  double tokens_;
  uint64_t last_refill_us_ = 0;
  bool primed_ = false;  ///< first TryAcquire anchors the clock
};

/// Burst allowance (tokens) of the global bucket and of every tenant's
/// bucket.
inline constexpr double kAdmissionBurst = 8.0;

/// Fair-share per-tenant rate limiting, layered *under* the global token
/// bucket: each of the N tenants gets a private bucket that refills at an
/// equal share of `capacity_qps` (rate = capacity / N) with burst
/// kAdmissionBurst. The per-tenant bucket is consulted before the global
/// one, so a hot tenant's excess is clipped at its own fair share and
/// never drains the tokens every other tenant shares — that ordering is
/// the isolation contract the multi-tenant campaign asserts (each cold
/// tenant keeps >= 80% of its isolated goodput while one tenant offers 5x
/// its share).
///
/// Tenants are fixed at construction (the fleet configures its tenant set
/// up front); requests with an out-of-range tenant id are not limited
/// here and fall through to the global bucket.
class FairShareLimiter {
 public:
  /// `capacity_qps` <= 0 (or no tenants) disables per-tenant limiting
  /// entirely.
  FairShareLimiter(double capacity_qps, size_t num_tenants);

  /// Spends one of `tenant`'s tokens if available. Always true when
  /// limiting is disabled or `tenant` is out of range.
  bool TryAcquire(int tenant, uint64_t now_us);

  /// The refill rate tenant `tenant` was assigned (0 when unlimited).
  double RateOf(int tenant) const;

  size_t NumTenants() const { return buckets_.size(); }

 private:
  std::vector<TokenBucket> buckets_;
  double rate_ = 0.0;
};

/// One queued admission ticket. The front end keeps request payloads; the
/// queue only orders ids and enforces deadlines.
struct QueuedRequest {
  uint64_t id = 0;
  uint64_t enqueue_us = 0;
  uint64_t deadline_us = 0;  ///< absolute; 0 means no deadline
  /// Owning tenant (index into the front end's tenant table); -1 for
  /// single-tenant traffic. Carried through shed/expire paths so every
  /// outcome attributes to the tenant that offered the request.
  int tenant = -1;
};

/// Bounded deadline-aware queue with a LIFO-under-saturation policy:
///
///  * Push refuses when `capacity` entries are waiting (reject-on-full —
///    the caller sheds instead of building an unbounded backlog).
///  * Pop first drops every entry whose deadline has already passed
///    (shedding work that is guaranteed wasted *before* spending pipeline
///    time on it), then serves FIFO while the queue is at most half
///    full and LIFO above that — under saturation the newest request is
///    the one whose deadline budget is still intact, so serving it yields
///    goodput where FIFO would serve a doomed request first.
class DeadlineQueue {
 public:
  /// A zero `capacity` is clamped to 1.
  explicit DeadlineQueue(size_t capacity);

  bool Push(const QueuedRequest& request);

  /// Pops the next serveable request into `out`; expired entries removed
  /// along the way are appended to `shed`. False when nothing is left.
  bool Pop(uint64_t now_us, QueuedRequest* out,
           std::vector<QueuedRequest>* shed);

  /// Removes every remaining entry into `shed` (campaign drain).
  void DrainTo(std::vector<QueuedRequest>* shed);

  size_t depth() const { return queue_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  size_t lifo_threshold_;  ///< capacity_ / 2
  std::deque<QueuedRequest> queue_;
};

/// Admission decision for one offered request.
enum class Admission {
  kEnqueued = 0,       ///< waiting in the deadline queue
  kRejectedRate,       ///< global token bucket empty
  kRejectedQueueFull,  ///< queue at capacity
  kRejectedTenantRate  ///< owning tenant's fair-share bucket empty
};

/// Token bucket + deadline queue glued into the front door. Not
/// thread-safe by itself: ServeFrontEnd serializes access (live serving)
/// or the single DES driver thread owns it (load campaigns).
class AdmissionController {
 public:
  struct Options {
    double rate_per_sec = 0.0;  ///< <= 0: no rate limit
    size_t queue_capacity = 64;  ///< 0 is clamped to 1

    /// Per-tenant fair-share layer. `tenant_capacity_qps` <= 0 (the
    /// default) disables it; otherwise each of the N tenants gets
    /// capacity / N as its private refill rate, checked before the global
    /// bucket.
    double tenant_capacity_qps = 0.0;
  };

  /// `num_tenants` sizes the fair-share layer (tenant ids 0..N-1).
  AdmissionController(const Options& options, size_t num_tenants);

  Admission Offer(const QueuedRequest& request, uint64_t now_us);
  bool Dequeue(uint64_t now_us, QueuedRequest* out,
               std::vector<QueuedRequest>* shed);
  void DrainTo(std::vector<QueuedRequest>* shed);

  /// Rate-limit check alone, bypassing the queue — for serving modes
  /// where the caller is its own waiting slot (ServeFrontEnd::Serve).
  /// Returns the would-be admission class: kEnqueued means the token was
  /// granted. The tenant layer, when configured, is consulted first.
  Admission AcquireToken(uint64_t now_us, int tenant = -1) {
    if (!tenant_limiter_.TryAcquire(tenant, now_us)) {
      return Admission::kRejectedTenantRate;
    }
    return bucket_.TryAcquire(now_us) ? Admission::kEnqueued
                                      : Admission::kRejectedRate;
  }

  size_t queue_depth() const { return queue_.depth(); }
  /// The deadline queue's capacity (a configured 0 is clamped to 1).
  size_t queue_capacity() const { return queue_.capacity(); }

 private:
  TokenBucket bucket_;
  FairShareLimiter tenant_limiter_;
  DeadlineQueue queue_;
};

}  // namespace serve
}  // namespace codes

#endif  // CODES_SERVE_ADMISSION_H_
