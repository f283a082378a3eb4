#ifndef CODES_CORE_PIPELINE_H_
#define CODES_CORE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/exec_guard.h"
#include "common/lease_cache.h"
#include "dataset/sample.h"
#include "eval/metrics.h"
#include "generator/codes_model.h"
#include "lm/ngram_lm.h"
#include "linker/schema_classifier.h"
#include "prompt/prompt_builder.h"
#include "retrieval/demonstration_retriever.h"
#include "retrieval/value_retriever.h"
#include "sqlengine/exec_source.h"

namespace codes {

/// End-to-end configuration of a text-to-SQL deployment: model scale,
/// prompt construction knobs, EK usage, and the inference mode (SFT after
/// FineTune(), or few-shot ICL with `icl_shots` > 0).
struct PipelineConfig {
  ModelSize size = ModelSize::k7B;
  PromptOptions prompt;
  bool use_external_knowledge = false;
  int icl_shots = 0;
  /// Table 9 ablations of the demonstration retriever.
  bool random_demonstrations = false;
  bool use_pattern_similarity = true;
  /// Extra decode noise for emulating weaker baseline families.
  double extra_model_noise = 0.0;
  uint64_t seed = 99;

  /// Bounds on the lazily built per-database value-retriever cache
  /// (0 = no cap). Sustained traffic over many databases used to grow the
  /// cache without bound; it now evicts its least-recently-used entry once
  /// either cap is exceeded (LeaseCache). Entries are leased out as
  /// shared_ptrs, so an evicted retriever stays alive until the last
  /// in-flight request using it finishes.
  size_t retriever_cache_max_entries = 64;
  size_t retriever_cache_max_bytes = 512ull << 20;  // 512 MiB
};

/// One rung of the serving degradation ladder, ordered from least to most
/// degraded. A request's ServeReport records every rung that fired:
///
///   kClassifierFallback  schema classifier unavailable or failing — the
///                        prompt carries the full, unfiltered schema;
///   kValueFallback       value index build failed or ran over budget —
///                        the prompt carries no matched values;
///   kRepair              a beam candidate failed decode/parse/bind/
///                        guarded-execute and a lower-ranked candidate was
///                        tried (bounded by max_repair_attempts);
///   kEmergencySql        no usable candidate at all — a trivial but
///                        syntactically valid query is served.
enum class ServeRung : int {
  kClassifierFallback = 0,
  kValueFallback,
  kRepair,
  kEmergencySql,
};

/// Stable snake_case name ("classifier_fallback") for reports and logs.
const char* ServeRungName(ServeRung rung);

/// Per-request serving knobs. The default options guard nothing and
/// reproduce Predict's historical behaviour byte-for-byte.
struct ServeOptions {
  /// Execution budgets applied to candidate verification (and, for the
  /// deadline/cancel portion, to value-index construction).
  ExecLimits limits;
  /// Optional cooperative cancellation; must outlive the call.
  const CancelToken* cancel = nullptr;
  /// Max failed beam candidates tried before giving up on verification.
  /// Must be >= beam width to preserve the paper's first-executable
  /// selection exactly.
  int max_repair_attempts = 16;

  /// When set, candidate verification executes against this backend
  /// instead of the benchmark's in-memory database (prompt construction
  /// and the emergency query still use the in-memory one). This is how a
  /// disk-backed twin plugs into serving: a corrupted page surfaces as a
  /// kDataLoss execution failure, the candidate is treated as broken, and
  /// the request walks the degradation ladder (repair → unverified
  /// fallback) instead of returning garbage rows. Must outlive the call.
  const sql::ExecSource* verify_source = nullptr;

  /// When set, value retrieval uses this pre-built retriever instead of
  /// the pipeline's internal per-database cache. This is how the fleet
  /// manager plugs a tenant's leased artifact into a request: the lease
  /// (a shared_ptr held by the caller) must outlive the call. Ignored
  /// when force_value_fallback or disable_value_retriever is set.
  const ValueRetriever* value_retriever = nullptr;

  // --- Overload-protection overrides (set by the serving front end;
  // src/serve/) -------------------------------------------------------
  //
  // The `force_*` flags are circuit-breaker actions: they make the
  // request behave as if the stage had failed, firing the corresponding
  // ladder rung without ever touching the stage. The richness knobs below
  // them are brownout policy: they cheapen the prompt but fire no rung —
  // the stage is healthy, the *process* is shedding cost.

  /// Skip the schema classifier (breaker open): full unfiltered schema,
  /// fires kClassifierFallback.
  bool force_classifier_fallback = false;
  /// Skip value retrieval (breaker open): no matched values, fires
  /// kValueFallback.
  bool force_value_fallback = false;
  /// Serve the emergency SQL immediately (generation breaker open): no
  /// decoding at all, fires kEmergencySql.
  bool force_emergency_sql = false;

  /// Caps ICL demonstrations; -1 (default) means no cap, 0 means none.
  int max_icl_demos = -1;
  /// Skips value retrieval as *policy* (no rung fired, unlike
  /// force_value_fallback).
  bool disable_value_retriever = false;
  /// When > 0, overrides PromptOptions::top_k1 / top_k2 (only ever
  /// downward in practice; the builder clamps to schema size anyway).
  int top_k1_override = 0;
  int top_k2_override = 0;
  /// Brownout level these knobs were derived from (0 = full richness);
  /// copied into ServeReport for digests and metrics, not interpreted
  /// by the pipeline itself.
  int brownout_level = 0;

  // --- Adversarial-input handling (set by the hardening front door;
  // src/serve/harden) --------------------------------------------------

  /// The hardening pass flagged this request (structural repair fired or
  /// the anomaly score crossed the threshold). Partition flag: every
  /// request lands in exactly one of serve.adv.clean / serve.adv.suspect,
  /// which always sum to serve.requests. Default false, so direct
  /// Predict/eval/chaos callers all count as clean.
  bool suspect = false;
  /// Canonicalized form of the question (zero-width stripped, confusables
  /// folded to ASCII, whitespace collapsed). When a *suspect* request's
  /// beam produces no verified candidate, PredictGuarded retries once
  /// against this form — bounded by the same max_repair_attempts budget —
  /// before falling to the unverified/emergency rungs. Empty (or equal to
  /// the question) disables the retry.
  std::string canonical_question;
};

/// What happened while serving one request. Never reports failure to
/// produce SQL — PredictGuarded always returns a non-empty query — but
/// records how degraded the path to it was.
struct ServeReport {
  std::vector<ServeRung> rungs;  ///< fired rungs, deduplicated, in order
  int repair_attempts = 0;       ///< beam candidates that failed
  /// Beam rank of the served SQL; -1 means the emergency query.
  int candidate_rank = -1;
  /// True when the served SQL executed successfully under the guard.
  bool execution_verified = false;
  /// Brownout level the request was served at (ServeOptions::brownout_level
  /// echoed back; 0 when the caller never set one).
  int brownout_level = 0;
  /// ServeOptions::suspect echoed back (the serve.adv.* partition).
  bool suspect = false;
  /// 1 when the canonical-question retry ran (suspect request whose
  /// primary beam failed verification), 0 otherwise.
  int canonical_retries = 0;
  /// True when the served SQL came from the canonical retry's beam.
  bool canonical_served = false;
  /// OK when fully verified; otherwise the last error seen on the ladder.
  Status final_status;

  void AddRung(ServeRung rung);
  bool Fired(ServeRung rung) const;
  /// Deterministic one-line rendering (used by the chaos harness digest).
  std::string ToString() const;
};

/// The public entry point of the library: owns the model, the schema item
/// classifier, per-database value-retriever indexes, and the demonstration
/// pool, and turns (database, question) into SQL.
///
/// Typical SFT usage:
///   CodesPipeline pipeline(config, &lm);
///   pipeline.TrainClassifier(bench);
///   pipeline.FineTune(bench);
///   std::string sql = pipeline.Predict(bench, sample);
///
/// Typical few-shot usage (no fine-tuning):
///   config.icl_shots = 3;
///   CodesPipeline pipeline(config, &lm);
///   pipeline.SetDemonstrationPool(bench.train);
///   std::string sql = pipeline.Predict(bench, sample);
///
/// Thread-safety contract: after the setup phase (constructor,
/// TrainClassifier/ShareClassifier, FineTune, SetDemonstrationPool) has
/// finished, every `const` method — Predict, BuildPrompt, PredictorFor —
/// is safe to call concurrently from any number of threads. The only
/// mutable state on that path, the lazily built per-database value
/// retriever cache, is a thread-safe LeaseCache; everything
/// else (model, classifier, demonstration retriever) is read-only at
/// inference time. Setup methods themselves are NOT thread-safe and must
/// happen-before any concurrent use. This is what lets
/// ParallelEvaluateDevSet shard a dev set across a thread pool.
class CodesPipeline {
 public:
  /// `lm` must outlive the pipeline (pass the incrementally pre-trained
  /// CodeS LM, or a base-code LM for StarCoder-style baselines).
  CodesPipeline(const PipelineConfig& config, const NgramLm* lm);

  /// Trains the schema item classifier on `bench.train` (required before
  /// prompts with schema filtering can be built well).
  void TrainClassifier(const Text2SqlBenchmark& bench);

  /// Shares an already-trained classifier (e.g. the BIRD classifier reused
  /// on new domains, Section 9.6).
  void ShareClassifier(std::shared_ptr<SchemaItemClassifier> classifier);

  /// Supervised fine-tuning on `train`. Pass the owning benchmark when
  /// available so the model can mask schema words per sample.
  void FineTune(const std::vector<Text2SqlSample>& train,
                int max_samples = -1);
  void FineTune(const Text2SqlBenchmark& bench, int max_samples = -1);

  /// Sets the demonstration pool for few-shot ICL.
  void SetDemonstrationPool(const std::vector<Text2SqlSample>& pool);

  /// Predicts SQL for one sample of `bench`. Equivalent to PredictGuarded
  /// with default ServeOptions (no budgets, no faults on the clean path).
  std::string Predict(const Text2SqlBenchmark& bench,
                      const Text2SqlSample& sample) const;

  /// Guarded prediction: the full degradation ladder. Always returns a
  /// non-empty SQL string, no matter which stages fail or run over budget;
  /// `report` (optional) receives what happened. Establishes the request's
  /// deterministic failpoint scope from the per-sample generation seed, so
  /// chaos campaigns replay identically at any thread count. Thread-safe
  /// under the same contract as Predict.
  std::string PredictGuarded(const Text2SqlBenchmark& bench,
                             const Text2SqlSample& sample,
                             const ServeOptions& options,
                             ServeReport* report = nullptr) const;

  /// Convenience: an eval::SqlPredictor bound to `bench`.
  SqlPredictor PredictorFor(const Text2SqlBenchmark& bench) const;

  /// Builds the database prompt the model would see for this sample
  /// (exposed for examples and diagnostics).
  DatabasePrompt BuildPrompt(const Text2SqlBenchmark& bench,
                             const Text2SqlSample& sample) const;

  CodesModel& model() { return model_; }
  const CodesModel& model() const { return model_; }
  const SchemaItemClassifier* classifier() const { return classifier_.get(); }
  const PipelineConfig& config() const { return config_; }

  /// Point-in-time occupancy of the bounded value-retriever cache
  /// (exposed for the flat-memory regression test and diagnostics).
  struct RetrieverCacheStats {
    size_t entries = 0;
    size_t bytes = 0;
  };
  RetrieverCacheStats retriever_cache_stats() const;

  /// Drops every cached retriever without counting evictions — campaign
  /// hygiene (determinism selfchecks replay from a cold cache), not a
  /// budget event. Outstanding leases stay valid.
  void ClearRetrieverCache() const;

  /// Returns the cached (or lazily built) value retriever for `db`.
  /// Thread-safe: shared-lock lookup on the fast path, exclusive insert on
  /// miss. The returned lease keeps the retriever alive even if the cache
  /// evicts it while the request is still using it. Public so the cache
  /// bound/flat-memory regression tests can drive lookups without paying
  /// for full predictions.
  std::shared_ptr<const ValueRetriever> RetrieverFor(
      const sql::Database& db) const;

 private:
  /// Guarded variant: evaluates the value_retriever.build_index failpoint
  /// once per call (cache hit or miss — fault decisions must not depend on
  /// which request built the cache first), polls `guard` during a miss
  /// build, and returns nullptr with a kValueFallback rung on failure. A
  /// failed build is never cached, so a later healthy request rebuilds.
  std::shared_ptr<const ValueRetriever> RetrieverForGuarded(
      const sql::Database& db, ExecGuard* guard, ServeReport* report) const;

  /// Shared implementation of BuildPrompt/PredictGuarded: applies the
  /// classifier and value rungs of the ladder while constructing options.
  /// `serve` (optional) carries the breaker/brownout overrides.
  DatabasePrompt BuildPromptInternal(const Text2SqlBenchmark& bench,
                                     const Text2SqlSample& sample,
                                     ExecGuard* guard, ServeReport* report,
                                     const ServeOptions* serve) const;

  /// ICL demonstrations for `sample` (empty unless icl_shots > 0).
  /// `max_demos` < 0 means uncapped.
  std::vector<const Text2SqlSample*> CollectDemonstrations(
      const Text2SqlSample& sample, int max_demos) const;

  std::string QuestionWithEk(const Text2SqlSample& sample) const;

  PipelineConfig config_;
  CodesModel model_;
  std::shared_ptr<SchemaItemClassifier> classifier_;
  std::unique_ptr<DemonstrationRetriever> demo_retriever_;
  std::vector<Text2SqlSample> demo_pool_;
  /// Mean prompt-token cost of one demonstration, fixed at
  /// SetDemonstrationPool time (budgeting per-call on demo_pool_[0] alone
  /// let one unusually short first demo blow the token budget).
  int mean_demo_cost_ = 0;
  /// Per-database value indexes, priced by ApproxBytes and bounded by the
  /// config's retriever_cache_max_{entries,bytes}.
  mutable LeaseCache<const sql::Database*, ValueRetriever> retriever_cache_;
};

}  // namespace codes

#endif  // CODES_CORE_PIPELINE_H_
