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

/// Weighted-fair per-tenant rate limiting, layered *under* the global
/// token bucket: tenant `t` gets a private bucket whose refill rate is
/// its weight share of `capacity_qps` (rate_t = capacity * w_t / Σw).
/// The per-tenant bucket is consulted before the global one, so a hot
/// tenant's excess is clipped at its own fair share and never drains the
/// tokens every other tenant shares — that ordering is the isolation
/// contract the multi-tenant campaign asserts (each cold tenant keeps
/// >= 80% of its isolated goodput while one tenant offers 5x its share).
///
/// Tenants are fixed at construction (the fleet configures its tenant set
/// up front); requests with an out-of-range tenant id are not limited
/// here and fall through to the global bucket.
class WeightedFairLimiter {
 public:
  struct TenantSpec {
    double weight = 1.0;  ///< relative share; <= 0 clamps to a tiny share
    double burst = 8.0;   ///< per-tenant burst allowance (tokens)
  };

  /// `capacity_qps` <= 0 disables per-tenant limiting entirely.
  WeightedFairLimiter(double capacity_qps,
                      const std::vector<TenantSpec>& tenants);

  /// Spends one of `tenant`'s tokens if available. Always true when
  /// limiting is disabled or `tenant` is out of range.
  bool TryAcquire(int tenant, uint64_t now_us);

  /// The refill rate tenant `tenant` was assigned (0 when unlimited).
  double RateOf(int tenant) const;

  size_t NumTenants() const { return buckets_.size(); }

 private:
  std::vector<TokenBucket> buckets_;
  std::vector<double> rates_;
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
///    time on it), then serves FIFO while the queue is shallow and
///    LIFO once depth crosses `lifo_threshold` — under saturation the
///    newest request is the one whose deadline budget is still intact,
///    so serving it yields goodput where FIFO would serve a doomed
///    request first.
class DeadlineQueue {
 public:
  /// `lifo_threshold` is a depth (entries); depths strictly above it pop
  /// newest-first. 0 means always-LIFO.
  DeadlineQueue(size_t capacity, size_t lifo_threshold);

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
  size_t lifo_threshold_;
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
    double burst = 8.0;
    size_t queue_capacity = 64;
    /// Queue depths strictly above this pop LIFO; defaults to half the
    /// capacity when left 0 (see Resolve()).
    size_t lifo_threshold = 0;

    /// Per-tenant weighted-fair layer. `tenant_capacity_qps` <= 0 (the
    /// default) disables it; otherwise each configured tenant gets
    /// capacity * weight / Σweights as its private refill rate, checked
    /// before the global bucket.
    double tenant_capacity_qps = 0.0;
    std::vector<WeightedFairLimiter::TenantSpec> tenants;

    Options Resolve() const;
  };

  explicit AdmissionController(const Options& options);

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

 private:
  TokenBucket bucket_;
  WeightedFairLimiter tenant_limiter_;
  DeadlineQueue queue_;
};

}  // namespace serve
}  // namespace codes

#endif  // CODES_SERVE_ADMISSION_H_
