#ifndef CODES_SERVE_FRONT_END_H_
#define CODES_SERVE_FRONT_END_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/pipeline.h"
#include "serve/admission.h"
#include "serve/brownout.h"
#include "serve/circuit_breaker.h"

namespace codes {
namespace serve {

/// Pipeline stages guarded by a circuit breaker, each mapped to the ladder
/// rung the front end forces while its breaker is open:
///
///   kClassifier      → force_classifier_fallback (full schema)
///   kValueRetrieval  → force_value_fallback      (no matched values)
///   kGeneration      → force_emergency_sql       (trivial query)
enum class ServeStage : int {
  kClassifier = 0,
  kValueRetrieval,
  kGeneration,
  kNumStages,  // sentinel
};

inline constexpr int kNumServeStages =
    static_cast<int>(ServeStage::kNumStages);

/// Brownout floor for suspect requests: they enter PredictGuarded at least
/// this degraded (level 2 = no demonstrations, no retrieved values), so
/// hostile input never burns full prompt richness.
inline constexpr int kSuspectFloorLevel = 2;
static_assert(kSuspectFloorLevel < kNumBrownoutLevels);

/// The hardening step's verdict on one request: suspect or not, and the
/// canonical question a suspect request retries with.
struct HardenVerdict {
  bool suspect = false;
  std::string canonical_question;
};

/// Configuration of the overload-protection front end.
struct FrontEndOptions {
  AdmissionController::Options admission;
  /// One breaker per stage, all sharing this tuning.
  CircuitBreaker::Options breaker;
  BrownoutController::Options brownout;
  /// Execution budgets stamped into every request's ServeOptions.
  ExecLimits limits;
  /// The one switch for the request-hardening front door (UTF-8 repair,
  /// byte cap, control strip, anomaly scoring; see HardenRequest). It
  /// gates live Serve calls and the DES dispatch of RunLoadCampaign
  /// alike. Clean questions pass through byte-identical, so turning it
  /// on moves no clean digest.
  bool harden = true;
  /// Tenant display names, indexed by tenant id. Their count sizes the
  /// admission fair-share layer. When non-empty, every
  /// offer/admit/reject/shed is also attributed to a
  /// serve.tenant.<name>.* counter family so the global sum invariant can
  /// be checked per tenant.
  std::vector<std::string> tenant_names;
};

/// The overload-protection front end between callers and
/// CodesPipeline::PredictGuarded: token-bucket admission, a bounded
/// deadline-aware queue, per-stage circuit breakers, and the adaptive
/// brownout controller, all emitting the serve.* metric families.
///
/// Metric accounting contract (asserted by codes_load and overload CI):
/// every offered request lands in exactly one of admitted / rejected /
/// shed, so
///
///   serve.admitted + serve.rejected + serve.shed == serve.offered
///
/// with serve.rejected = serve.rejected.rate + serve.rejected.queue_full
/// + serve.rejected.tenant_rate and serve.shed = serve.shed.deadline +
/// serve.shed.drain. With tenants configured the same invariant holds for
/// every serve.tenant.<name>.{offered,admitted,rejected,shed} family —
/// shed and expired requests attribute to the tenant that offered them,
/// not to whichever request's dequeue happened to flush them.
///
/// Two usage modes share all decision logic:
///
///  * Explicit-time API (Offer/Dequeue/OptionsFor/Complete/Drain): the
///    caller owns the clock. codes_load drives it with a virtual clock
///    from a single DES thread, which is what makes saturation campaigns
///    byte-identical at any real thread count. NOT thread-safe; a single
///    owner serializes calls.
///  * Wall-clock API (Serve): a thread-safe convenience wrapper that
///    derives time from a steady clock and uses the caller as the waiting
///    room.
class ServeFrontEnd {
 public:
  /// `pipeline` and `bench` must outlive the front end; they are only
  /// dereferenced by the wall-clock serving paths.
  ServeFrontEnd(const CodesPipeline* pipeline, const Text2SqlBenchmark* bench,
                const FrontEndOptions& options);

  // --- explicit-time API (single owner) -------------------------------

  /// Offers request `id` at `now_us`. kEnqueued means it is waiting in
  /// the deadline queue; a rejection is final (metrics recorded here).
  /// `tenant` (an index into FrontEndOptions::tenant_names) attributes
  /// the request to its owner; -1 means untenanted traffic.
  Admission Offer(uint64_t id, uint64_t deadline_us, uint64_t now_us,
                  int tenant = -1);

  /// Pops the next serveable request, shedding expired entries along the
  /// way (each shed is recorded, and appended to `shed` when non-null so
  /// the caller can account per-request). True = `out` is admitted
  /// (counted, wait time observed) and the caller must execute it with
  /// OptionsFor() and report back via Complete().
  bool Dequeue(uint64_t now_us, QueuedRequest* out,
               std::vector<QueuedRequest>* shed = nullptr);

  /// ServeOptions for a request dispatched now with hardening verdict
  /// `verdict`: base limits + brownout level (a suspect's is raised by
  /// MarkSuspect) + breaker-forced stage skips. Only the breakers of the
  /// stages that level runs are consulted, so the verdict must be known
  /// first: a consult whose stage never runs reports no outcome and
  /// would spend a half-open probe slot for good.
  ServeOptions OptionsFor(uint64_t now_us, HardenVerdict verdict = {});

  /// Feeds a finished request's report back into the breakers (stages the
  /// front end itself forced, or the request's brownout level skipped,
  /// are not fed — their "failures" are self-inflicted) and the per-level
  /// served counters.
  void Complete(const ServeOptions& options_used, const ServeReport& report,
                uint64_t now_us);

  /// Sheds everything still queued (campaign end); returns the count and
  /// appends the victims to `shed` when non-null.
  size_t Drain(uint64_t now_us, std::vector<QueuedRequest>* shed = nullptr);

  /// Feeds queue fullness into the brownout controller and refreshes the
  /// serve.queue.depth / serve.brownout.level gauges. Call whenever depth
  /// changes (arrivals, dispatches).
  void ObserveQueue(uint64_t now_us);

  /// The front door's hardening step (a no-op unless
  /// FrontEndOptions::harden): returns `sample`, or `*storage` (a copy,
  /// which may alias `sample`) when sanitizing changed the question, and
  /// writes the verdict to `*verdict` for OptionsFor. Pure and lock-free,
  /// so the DES driver and concurrent Serve calls run it outside the lock.
  const Text2SqlSample& HardenRequest(const Text2SqlSample& sample,
                                      Text2SqlSample* storage,
                                      HardenVerdict* verdict) const;

  /// Marks a request suspect after its hardening verdict: stamps the
  /// suspect flag and the canonical retry question into `options`, and
  /// raises its brownout level to at least kSuspectFloorLevel (never
  /// lowers an already deeper brownout). Lock-free: it only bumps the
  /// serve.adv.pre_degraded counter.
  void MarkSuspect(ServeOptions* options,
                   std::string canonical_question) const;

  int brownout_level() const { return brownout_.level(); }
  const BrownoutController& brownout() const { return brownout_; }
  BreakerState breaker_state(ServeStage stage) const {
    return breakers_[static_cast<int>(stage)].state();
  }
  uint64_t breaker_transitions(ServeStage stage) const {
    return breakers_[static_cast<int>(stage)].transitions();
  }
  size_t queue_depth() const { return admission_.queue_depth(); }

  // --- wall-clock API (thread-safe) -----------------------------------

  /// Synchronous guarded serving with admission control. There is no
  /// queue on this path — the calling thread is the waiting slot, so
  /// "queue depth" is the number of in-flight Serve calls and admission
  /// rejects once `queue_capacity` callers are already inside. Returns
  /// kResourceExhausted on rejection (no SQL produced), OK otherwise.
  /// Admitted questions go through HardenRequest.
  Status Serve(const Text2SqlSample& sample, std::string* sql,
               ServeReport* report = nullptr);

 private:
  /// Per-tenant slice of the admission counters (the serve.tenant.<name>.*
  /// family); pointers into the global registry, resolved once at
  /// construction.
  struct TenantCounters {
    Counter* offered;
    Counter* admitted;
    Counter* rejected;
    Counter* shed;
  };

  uint64_t WallNowUs() const;

  /// The counter slice for `tenant`, or nullptr for untenanted traffic.
  TenantCounters* TenantOf(int tenant);
  /// Counts one rejection (never kEnqueued), on `tenant` too if non-null.
  void CountRejection(Admission admission, TenantCounters* tenant);
  /// Counts `shed[first..]` as shed for `reason`, each on its tenant.
  void CountShed(const std::vector<QueuedRequest>& shed, size_t first,
                 Counter& reason);

  Admission OfferLocked(uint64_t id, uint64_t deadline_us, uint64_t now_us,
                        int tenant);
  ServeOptions OptionsForLocked(uint64_t now_us, HardenVerdict verdict);
  void CompleteLocked(const ServeOptions& options_used,
                      const ServeReport& report, uint64_t now_us);
  void ObserveFullnessLocked(double fullness, uint64_t now_us);
  /// Emits breaker transition counters for `stage` when `before` differs
  /// from the breaker's current state.
  void NoteBreakerTransition(ServeStage stage, BreakerState before);

  const CodesPipeline* pipeline_;
  const Text2SqlBenchmark* bench_;
  /// Stamped into every request's ServeOptions.
  const ExecLimits limits_;
  const bool harden_;

  /// Serializes the wall-clock paths; the explicit-time API relies on its
  /// single owner instead (a DES driver never contends).
  std::mutex mu_;
  AdmissionController admission_;
  std::vector<TenantCounters> tenant_metrics_;
  CircuitBreaker breakers_[kNumServeStages];
  BrownoutController brownout_;
  size_t in_flight_ = 0;  ///< wall-clock Serve calls currently inside
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace serve
}  // namespace codes

#endif  // CODES_SERVE_FRONT_END_H_
