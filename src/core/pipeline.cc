#include "core/pipeline.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/flat_hash.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "sqlengine/executor.h"

namespace codes {

namespace {

/// Serving counters. Every PredictGuarded call increments serve.requests
/// and exactly one serve.outcome.* counter (its most degraded fired rung,
/// or "clean"), so the outcome family always sums to the request count —
/// the invariant codes_chaos and chaos CI assert on the exported
/// snapshot. Per-rung counters count every fired rung independently.
struct ServeMetrics {
  Counter& requests = MetricsRegistry::Global().GetCounter("serve.requests");
  Counter& verified = MetricsRegistry::Global().GetCounter("serve.verified");
  Counter& unverified =
      MetricsRegistry::Global().GetCounter("serve.unverified");
  Counter& repair_attempts =
      MetricsRegistry::Global().GetCounter("serve.repair_attempts");
  Counter* rung_fired[4] = {
      &MetricsRegistry::Global().GetCounter("serve.rung.classifier_fallback"),
      &MetricsRegistry::Global().GetCounter("serve.rung.value_fallback"),
      &MetricsRegistry::Global().GetCounter("serve.rung.repair"),
      &MetricsRegistry::Global().GetCounter("serve.rung.emergency_sql")};
  Counter& outcome_clean =
      MetricsRegistry::Global().GetCounter("serve.outcome.clean");
  /// Adversarial-input partition: every request is exactly one of
  /// adv.clean / adv.suspect, so the pair always sums to serve.requests
  /// (the invariant the adversarial CI leg asserts). The retry counters
  /// track the canonical-question second chance suspect requests get.
  Counter& adv_clean =
      MetricsRegistry::Global().GetCounter("serve.adv.clean");
  Counter& adv_suspect =
      MetricsRegistry::Global().GetCounter("serve.adv.suspect");
  Counter& adv_retry =
      MetricsRegistry::Global().GetCounter("serve.adv.retry");
  Counter& adv_retry_served =
      MetricsRegistry::Global().GetCounter("serve.adv.retry_served");
  Counter* outcome[4] = {
      &MetricsRegistry::Global().GetCounter(
          "serve.outcome.classifier_fallback"),
      &MetricsRegistry::Global().GetCounter("serve.outcome.value_fallback"),
      &MetricsRegistry::Global().GetCounter("serve.outcome.repair"),
      &MetricsRegistry::Global().GetCounter("serve.outcome.emergency_sql")};
};

ServeMetrics& Metrics() {
  static ServeMetrics* metrics = new ServeMetrics();  // never freed
  return *metrics;
}

/// Bounded retriever-cache counters. Accounting is thread-count
/// invariant: a miss is a *winning* LeaseCache insert, so when two
/// requests race to build the same database's index, exactly one miss is
/// recorded and the loser counts as a hit.
struct RetrieverCacheMetrics {
  Counter& hits =
      MetricsRegistry::Global().GetCounter("pipeline.retriever_cache.hits");
  Counter& misses =
      MetricsRegistry::Global().GetCounter("pipeline.retriever_cache.misses");
  Counter& evictions = MetricsRegistry::Global().GetCounter(
      "pipeline.retriever_cache.evictions");
};

RetrieverCacheMetrics& CacheMetrics() {
  static RetrieverCacheMetrics* metrics = new RetrieverCacheMetrics();
  return *metrics;
}

/// Records the per-request serving counters from a finished report.
void RecordServeReport(const ServeReport& report) {
  ServeMetrics& m = Metrics();
  m.requests.Increment();
  (report.suspect ? m.adv_suspect : m.adv_clean).Increment();
  if (report.canonical_retries > 0) {
    m.adv_retry.Increment(static_cast<uint64_t>(report.canonical_retries));
    if (report.canonical_served) m.adv_retry_served.Increment();
  }
  (report.execution_verified ? m.verified : m.unverified).Increment();
  if (report.repair_attempts > 0) {
    m.repair_attempts.Increment(static_cast<uint64_t>(report.repair_attempts));
  }
  for (ServeRung rung : report.rungs) {
    m.rung_fired[static_cast<int>(rung)]->Increment();
  }
  // Outcome = the most degraded rung that fired (rungs are declared in
  // escalation order), or clean.
  if (report.rungs.empty()) {
    m.outcome_clean.Increment();
    return;
  }
  int worst = 0;
  for (ServeRung rung : report.rungs) {
    worst = std::max(worst, static_cast<int>(rung));
  }
  m.outcome[worst]->Increment();
}

/// Rough token cost of including a demonstration in the prompt.
int DemoTokenCost(const Text2SqlSample& sample) {
  return CountPromptTokens(sample.question) +
         CountPromptTokens(sample.sql) + 4;
}

/// The bottom of the ladder: a trivial query that is syntactically valid
/// against `db`, served only when every beam candidate is unusable.
std::string EmergencySql(const sql::Database& db) {
  if (db.schema().tables.empty()) return "SELECT 1";
  return "SELECT * FROM " + db.schema().tables[0].name + " LIMIT 1";
}

}  // namespace

const char* ServeRungName(ServeRung rung) {
  switch (rung) {
    case ServeRung::kClassifierFallback:
      return "classifier_fallback";
    case ServeRung::kValueFallback:
      return "value_fallback";
    case ServeRung::kRepair:
      return "repair";
    case ServeRung::kEmergencySql:
      return "emergency_sql";
  }
  return "unknown";
}

void ServeReport::AddRung(ServeRung rung) {
  if (!Fired(rung)) rungs.push_back(rung);
}

bool ServeReport::Fired(ServeRung rung) const {
  return std::find(rungs.begin(), rungs.end(), rung) != rungs.end();
}

std::string ServeReport::ToString() const {
  std::string out = "rungs=[";
  for (size_t i = 0; i < rungs.size(); ++i) {
    if (i > 0) out += ",";
    out += ServeRungName(rungs[i]);
  }
  out += "] repairs=" + std::to_string(repair_attempts);
  out += " rank=" + std::to_string(candidate_rank);
  out += execution_verified ? " verified" : " unverified";
  out += " brownout=" + std::to_string(brownout_level);
  // Adversarial fields render only when set, so every pre-existing
  // digest (chaos, load, crash campaigns) stays byte-identical for
  // clean traffic.
  if (suspect) {
    out += " adv=suspect retries=" + std::to_string(canonical_retries);
    if (canonical_served) out += " canonical";
  }
  out += " status=";
  out += StatusCodeName(final_status.code());
  return out;
}

CodesPipeline::CodesPipeline(const PipelineConfig& config, const NgramLm* lm)
    : config_(config),
      model_(config.size, lm),
      retriever_cache_({config.retriever_cache_max_entries,
                        config.retriever_cache_max_bytes}) {
  model_.set_extra_noise(config.extra_model_noise);
}

void CodesPipeline::TrainClassifier(const Text2SqlBenchmark& bench) {
  classifier_ = std::make_shared<SchemaItemClassifier>();
  SchemaItemClassifier::TrainOptions options;
  options.seed = config_.seed ^ 0xC1A55;
  classifier_->Train(bench, options);
}

void CodesPipeline::FineTune(const std::vector<Text2SqlSample>& train,
                             int max_samples) {
  model_.FineTune(train, max_samples);
}

void CodesPipeline::FineTune(const Text2SqlBenchmark& bench,
                             int max_samples) {
  model_.FineTune(bench.train, &bench, max_samples);
}

void CodesPipeline::SetDemonstrationPool(
    const std::vector<Text2SqlSample>& pool) {
  demo_pool_ = pool;
  mean_demo_cost_ = 0;
  if (!demo_pool_.empty()) {
    int64_t total = 0;
    for (const auto& demo : demo_pool_) total += DemoTokenCost(demo);
    mean_demo_cost_ =
        static_cast<int>(total / static_cast<int64_t>(demo_pool_.size()));
  }
  DemonstrationRetriever::Options options;
  options.embedding_dim = model_.profile().embedding_dim;
  options.use_pattern_similarity = config_.use_pattern_similarity;
  demo_retriever_ = std::make_unique<DemonstrationRetriever>(pool, options);
}

std::shared_ptr<const ValueRetriever> CodesPipeline::RetrieverFor(
    const sql::Database& db) const {
  return RetrieverForGuarded(db, nullptr, nullptr);
}

CodesPipeline::RetrieverCacheStats CodesPipeline::retriever_cache_stats()
    const {
  return RetrieverCacheStats{retriever_cache_.size(),
                             retriever_cache_.bytes()};
}

void CodesPipeline::ClearRetrieverCache() const { retriever_cache_.Clear(); }

std::shared_ptr<const ValueRetriever> CodesPipeline::RetrieverForGuarded(
    const sql::Database& db, ExecGuard* guard, ServeReport* report) const {
  if (!config_.prompt.use_value_retriever) return nullptr;
  // The failpoint is evaluated exactly once per call, before the cache is
  // consulted: whether this request finds a warm cache depends on thread
  // scheduling, and fault decisions must not.
  if (Failpoints::ShouldFail(FailpointSite::kValueRetrieverBuildIndex)) {
    if (report != nullptr) report->AddRung(ServeRung::kValueFallback);
    return nullptr;
  }
  RetrieverCacheMetrics& m = CacheMetrics();
  if (auto lease = retriever_cache_.Lookup(&db)) {
    m.hits.Increment();
    return lease;
  }
  // Build outside the cache lock so concurrent misses on different
  // databases index in parallel; on a same-database race the first insert
  // wins and the loser's copy is discarded.
  auto retriever = std::make_shared<ValueRetriever>();
  Status built =
      retriever->TryBuildIndex(db, guard, /*check_failpoint=*/false);
  if (!built.ok()) {
    // Over-budget or cancelled mid-build: degrade this request to a prompt
    // without values and leave the cache empty so a healthy request can
    // build it fully later.
    if (report != nullptr) report->AddRung(ServeRung::kValueFallback);
    return nullptr;
  }
  size_t bytes = retriever->ApproxBytes();
  auto result = retriever_cache_.Insert(&db, std::move(retriever), bytes);
  // A lost build race counts as a hit, so totals match a single-threaded
  // run.
  (result.inserted ? m.misses : m.hits).Increment();
  m.evictions.Increment(result.evicted);
  return result.lease;
}

std::string CodesPipeline::QuestionWithEk(
    const Text2SqlSample& sample) const {
  if (!config_.use_external_knowledge) return sample.question;
  return QuestionWithEvidence(sample.question, sample.external_knowledge);
}

DatabasePrompt CodesPipeline::BuildPrompt(const Text2SqlBenchmark& bench,
                                          const Text2SqlSample& sample) const {
  return BuildPromptInternal(bench, sample, nullptr, nullptr, nullptr);
}

DatabasePrompt CodesPipeline::BuildPromptInternal(
    const Text2SqlBenchmark& bench, const Text2SqlSample& sample,
    ExecGuard* guard, ServeReport* report, const ServeOptions* serve) const {
  const sql::Database& db = bench.DbOf(sample);
  std::string question = QuestionWithEk(sample);

  // The prompt budget is the model's context window minus demonstration
  // space (which is why the paper shrinks top-k1/k2 for few-shot mode).
  PromptOptions options = config_.prompt;
  options.max_prompt_tokens = std::min(options.max_prompt_tokens,
                                       model_.profile().max_context_tokens);
  if (config_.icl_shots > 0 && !demo_pool_.empty()) {
    options.max_prompt_tokens = std::max(
        256,
        options.max_prompt_tokens - config_.icl_shots * mean_demo_cost_);
  }

  // Brownout policy: tighter schema top-k at higher levels. No rung fires
  // for it — the stages are healthy, the prompt is just cheaper
  // (report->brownout_level records the level).
  const BrownoutPolicy& policy =
      BrownoutPolicyAt(serve != nullptr ? serve->brownout_level : 0);
  if (policy.top_k1 > 0) options.top_k1 = policy.top_k1;
  if (policy.top_k2 > 0) options.top_k2 = policy.top_k2;

  // Ladder rung 1: classifier unavailable (never trained/shared), failing
  // (injected fault), or breaker-forced off by the serving front end —
  // fall back to the full, unfiltered schema. PromptBuilder already keeps
  // everything when the classifier is null, so flipping the flag here is
  // byte-identical on the clean path; the flip exists to record the rung
  // and to cover the injected-fault case.
  bool forced_classifier =
      serve != nullptr && serve->force_classifier_fallback;
  if (options.use_schema_filter &&
      (classifier_ == nullptr || forced_classifier ||
       Failpoints::ShouldFail(FailpointSite::kClassifierScore))) {
    options.use_schema_filter = false;
    if (report != nullptr) {
      report->AddRung(ServeRung::kClassifierFallback);
    }
  }

  // Ladder rung 2 (inside RetrieverForGuarded): value index unavailable —
  // prompt carries no matched values. A breaker-forced skip fires the same
  // rung (the stage is genuinely being avoided as failing); a brownout
  // skip does not.
  const ValueRetriever* retriever = nullptr;
  std::shared_ptr<const ValueRetriever> lease;
  if (serve != nullptr && serve->force_value_fallback) {
    if (report != nullptr) report->AddRung(ServeRung::kValueFallback);
  } else if (policy.skip_value_retrieval) {
    // Policy skip: no rung, no retriever.
  } else if (serve != nullptr && serve->value_retriever != nullptr) {
    // Fleet-injected artifact: the caller holds the lease; the pipeline's
    // own cache is bypassed entirely.
    retriever = serve->value_retriever;
  } else {
    lease = RetrieverForGuarded(db, guard, report);
    retriever = lease.get();
  }

  PromptBuilder builder(classifier_.get(), options);
  return builder.Build(db, question, retriever);
}

std::vector<const Text2SqlSample*> CodesPipeline::CollectDemonstrations(
    const Text2SqlSample& sample, int max_demos) const {
  std::vector<const Text2SqlSample*> demos;
  int shots = config_.icl_shots;
  if (max_demos >= 0) shots = std::min(shots, max_demos);
  if (shots > 0 && !demo_pool_.empty()) {
    if (config_.random_demonstrations || demo_retriever_ == nullptr) {
      // Draw config_.icl_shots demos and truncate, rather than drawing
      // `shots`: a brownout cap must shorten the prompt, not reshuffle
      // which demos the uncapped levels would have seen.
      Rng rng(config_.seed ^ Fnv1a64(sample.question));
      for (int i = 0; i < config_.icl_shots; ++i) {
        const Text2SqlSample* demo = &demo_pool_[rng.Index(demo_pool_.size())];
        if (static_cast<int>(demos.size()) < shots) demos.push_back(demo);
      }
    } else {
      for (int idx : demo_retriever_->TopK(QuestionWithEk(sample), shots)) {
        demos.push_back(&demo_pool_[static_cast<size_t>(idx)]);
      }
    }
  }
  return demos;
}

std::string CodesPipeline::Predict(const Text2SqlBenchmark& bench,
                                   const Text2SqlSample& sample) const {
  return PredictGuarded(bench, sample, ServeOptions());
}

std::string CodesPipeline::PredictGuarded(const Text2SqlBenchmark& bench,
                                          const Text2SqlSample& sample,
                                          const ServeOptions& options,
                                          ServeReport* report) const {
  // Root span of the request tree; the stage spans below nest inside it.
  // On destruction (function exit) its duration lands in
  // span.pipeline.predict, and RecordServeReport has already classified
  // the outcome.
  CODES_TRACE_SPAN(predict_span, "pipeline.predict");

  ServeReport scratch;
  ServeReport& rep = report != nullptr ? *report : scratch;
  rep = ServeReport();
  rep.brownout_level = options.brownout_level;
  rep.suspect = options.suspect;

  // The per-sample generation seed doubles as the failpoint slot: it
  // identifies this request independently of scheduling, so fault
  // campaigns replay byte-identically at any thread count.
  uint64_t seed = config_.seed ^ Fnv1a64(sample.question);
  FailpointScope failpoint_scope(seed);
  ExecGuard guard(options.limits, options.cancel);

  const sql::Database& db = bench.DbOf(sample);

  // Generation breaker open (or brownout level 4): skip every stage and
  // serve the emergency query directly. This is the cheapest possible
  // response and the only rung that fires on this path.
  const BrownoutPolicy& policy = BrownoutPolicyAt(options.brownout_level);
  if (options.force_emergency_sql || policy.emergency_sql) {
    rep.AddRung(ServeRung::kEmergencySql);
    rep.candidate_rank = -1;
    rep.final_status =
        Status::Internal("generation skipped by circuit breaker or brownout");
    RecordServeReport(rep);
    return EmergencySql(db);
  }

  DatabasePrompt prompt = [&] {
    // Stage span: end-to-end prompt construction (classifier, value
    // retrieval, and serialization nest inside).
    CODES_TRACE_SPAN(prompt_span, "pipeline.prompt_build");
    return BuildPromptInternal(bench, sample, &guard, &rep, &options);
  }();

  GenerationInput input;
  input.db = &db;
  input.prompt = &prompt;
  input.question = sample.question;
  if (config_.use_external_knowledge) {
    input.external_knowledge = sample.external_knowledge;
  }
  input.demonstrations = CollectDemonstrations(sample, policy.demo_cap);

  // Candidate execution happens in the repair loop below, under the
  // guard; skip the model's own unguarded execution probe.
  auto beam = [&] {
    // Stage span: LM beam decoding.
    CODES_TRACE_SPAN(generation_span, "pipeline.generation");
    return model_.GenerateBeam(input, seed, /*mark_executable=*/false);
  }();

  // Stage span: candidate verification + repair loop (guarded execution
  // of beam candidates).
  CODES_TRACE_SPAN(verify_span, "pipeline.verify");

  // Ladder rung 3: walk a beam in rank order and serve the first
  // candidate that decodes and executes under the guard. Every failed
  // candidate is one bounded repair attempt; with no faults and no budgets
  // this reproduces the paper's first-executable selection exactly. The
  // walk is shared with the canonical retry below, which re-enters it
  // with whatever attempt budget the primary beam left unspent.
  std::string fallback_sql;
  int fallback_rank = -1;
  Status last_error;
  int attempts = 0;
  auto walk = [&](const auto& candidates) -> int {
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (attempts >= ServeOptions::max_repair_attempts) break;
      const std::string& sql = candidates[i].sql;
      if (sql.empty()) continue;
      if (fallback_rank < 0) {
        fallback_sql = sql;
        fallback_rank = static_cast<int>(i);
      }
      Status exec_status;
      if (Failpoints::ShouldFail(FailpointSite::kLmDecode)) {
        exec_status = Failpoints::FailStatus(FailpointSite::kLmDecode);
      } else {
        // Row/byte budgets are per-candidate; the deadline keeps running
        // across the whole request.
        guard.ResetUsage();
        exec_status = sql::ExecuteSql(db, sql, &guard).status();
      }
      if (exec_status.ok()) return static_cast<int>(i);
      last_error = exec_status;
      ++attempts;
    }
    return -1;
  };
  auto serve_verified = [&](const std::string& sql, int rank) {
    if (attempts > 0) rep.AddRung(ServeRung::kRepair);
    rep.repair_attempts = attempts;
    rep.candidate_rank = rank;
    rep.execution_verified = true;
    rep.final_status = Status::Ok();
    RecordServeReport(rep);
    return sql;
  };

  int verified_rank = walk(beam);
  if (verified_rank >= 0) {
    return serve_verified(beam[verified_rank].sql, verified_rank);
  }

  // Perturbation-aware degradation: before conceding to the unverified /
  // emergency rungs, a suspect request gets one retry against the
  // canonicalized question (zero-width stripped, confusables folded,
  // whitespace collapsed). The retry spends the repair budget the primary
  // beam left over and runs inside the same failpoint scope, so campaigns
  // replay thread-count invariantly; the prompt is rebuilt because
  // canonicalization is precisely what hands the schema classifier and
  // value retriever cleaner text. Counted under serve.adv.retry*, and the
  // retry's own generation/verification lands in the verify span.
  if (options.suspect && !options.canonical_question.empty() &&
      options.canonical_question != sample.question &&
      attempts < ServeOptions::max_repair_attempts) {
    rep.canonical_retries = 1;
    Text2SqlSample canonical = sample;
    canonical.question = options.canonical_question;
    DatabasePrompt retry_prompt =
        BuildPromptInternal(bench, canonical, &guard, &rep, &options);
    GenerationInput retry_input = input;
    retry_input.prompt = &retry_prompt;
    retry_input.question = canonical.question;
    auto retry_beam = model_.GenerateBeam(
        retry_input, config_.seed ^ Fnv1a64(canonical.question),
        /*mark_executable=*/false);
    int retry_rank = walk(retry_beam);
    if (retry_rank >= 0) {
      rep.canonical_served = true;
      return serve_verified(retry_beam[retry_rank].sql, retry_rank);
    }
  }

  rep.repair_attempts = attempts;
  if (attempts > 0) rep.AddRung(ServeRung::kRepair);
  if (fallback_rank >= 0) {
    // Nothing verified within budget: serve the highest-ranked candidate
    // unverified, exactly as the unguarded path would.
    rep.candidate_rank = fallback_rank;
    rep.final_status = last_error;
    RecordServeReport(rep);
    return fallback_sql;
  }

  // Ladder rung 4: the beam is empty (or all-blank) — serve a trivial
  // query rather than nothing.
  rep.AddRung(ServeRung::kEmergencySql);
  rep.candidate_rank = -1;
  rep.final_status =
      last_error.ok() ? Status::NotFound("empty beam") : last_error;
  RecordServeReport(rep);
  return EmergencySql(db);
}

SqlPredictor CodesPipeline::PredictorFor(
    const Text2SqlBenchmark& bench) const {
  return [this, &bench](const Text2SqlSample& sample) {
    return Predict(bench, sample);
  };
}

}  // namespace codes
