// Tier-1 coverage for adversarial serving (DESIGN.md section 17): the
// request-hardening front door (UTF-8 repair, byte cap, control strip,
// zero-width/confusable canonicalization, anomaly scoring), the suspect
// brownout floor, the canonical-question retry inside PredictGuarded,
// the serve.adv.* partition invariant, and the adversarial load-campaign
// determinism contract.

#include <gtest/gtest.h>

#include <string>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"
#include "dataset/perturb.h"
#include "serve/front_end.h"
#include "serve/harden.h"
#include "serve/load_gen.h"

namespace codes {
namespace serve {
namespace {

// --------------------------------------------------------- HardenQuestion

TEST(HardenQuestionTest, CleanAsciiPassesThroughByteIdentical) {
  const std::string q = "How many singers do we have?";
  HardenResult r = HardenQuestion(q);
  EXPECT_EQ(r.sanitized, q);
  EXPECT_EQ(r.canonical, q);
  EXPECT_EQ(r.flags, 0u);
  EXPECT_FALSE(r.suspect);
  EXPECT_LT(r.anomaly, kAnomalyThreshold);
}

TEST(HardenQuestionTest, RepairsIllFormedUtf8AndFlagsSuspect) {
  HardenResult r = HardenQuestion("list\xC3 all");
  EXPECT_EQ(r.sanitized, "list\xEF\xBF\xBD all");
  EXPECT_TRUE(r.flags & kHardenRepairedUtf8);
  EXPECT_TRUE(r.suspect);
}

TEST(HardenQuestionTest, ControlCharactersStripAndWhitespaceNormalizes) {
  HardenResult r = HardenQuestion("\x01list\x07 all\tsingers\n");
  // C0/DEL dropped; tab and newline become plain spaces.
  EXPECT_EQ(r.sanitized, "list all singers ");
  EXPECT_TRUE(r.flags & kHardenStrippedControl);
  EXPECT_TRUE(r.suspect);
  // The canonical tier additionally trims/collapses the whitespace.
  EXPECT_EQ(r.canonical, "list all singers");
}

TEST(HardenQuestionTest, ByteCapTruncatesAtCodePointBoundary) {
  // Words of ASCII filler, so only the cap (not the anomaly score) is
  // under test.
  auto filler = [](size_t bytes) {
    std::string text;
    while (text.size() < bytes) text += "list the singers ";
    text.resize(bytes);
    return text;
  };
  // 4,095 ASCII bytes then a 2-byte é: the cap at 4,096 would cut
  // mid-sequence, so truncation backs up to the last complete code point.
  const std::string head = filler(kMaxQuestionBytes - 1);
  HardenResult r = HardenQuestion(head + "\xC3\xA9");
  EXPECT_EQ(r.sanitized, head);
  EXPECT_TRUE(r.flags & kHardenTruncated);
  EXPECT_TRUE(r.suspect);

  // At or under the cap nothing happens.
  const std::string fits_text = filler(kMaxQuestionBytes - 2) + "\xC3\xA9";
  HardenResult fits = HardenQuestion(fits_text);
  EXPECT_EQ(fits.sanitized, fits_text);
  EXPECT_FALSE(fits.flags & kHardenTruncated);
}

TEST(HardenQuestionTest, ZeroWidthAndConfusablesFoldToAsciiCanonical) {
  // NBSP between words, a zero-width space inside one, a fullwidth
  // question mark: sanitized keeps the bytes (served as-is), canonical
  // folds back to the plain ASCII question.
  const std::string q =
      "How many\xC2\xA0singers\xE2\x80\x8B are there\xEF\xBC\x9F";
  HardenResult r = HardenQuestion(q);
  EXPECT_EQ(r.sanitized, q);
  EXPECT_EQ(r.canonical, "How many singers are there?");
  EXPECT_TRUE(r.flags & kHardenStrippedZeroWidth);
  EXPECT_TRUE(r.flags & kHardenFoldedConfusable);
  EXPECT_TRUE(r.suspect);
}

TEST(HardenQuestionTest, CollapsedWhitespaceAloneIsNotSuspicion) {
  HardenResult r = HardenQuestion("how  many   singers");
  EXPECT_EQ(r.sanitized, "how  many   singers");
  EXPECT_EQ(r.canonical, "how many singers");
  EXPECT_EQ(r.flags, kHardenCollapsedWhitespace);
  EXPECT_FALSE(r.suspect) << "double spaces are something people type";
}

TEST(AnomalyScoreTest, SeparatesNaturalQuestionsFromFloods) {
  EXPECT_DOUBLE_EQ(AnomalyScore(""), 0.0);
  EXPECT_LT(AnomalyScore("What is the average age of all singers?"), 0.5);
  EXPECT_LT(AnomalyScore("Show each department and its head count."), 0.5);
  // Repeated-character padding and unbroken token blowups score high.
  EXPECT_GE(AnomalyScore(std::string(200, 'a')), 0.5);
  EXPECT_GE(AnomalyScore("q " + std::string(120, '!')), 0.5);
  std::string blowup = "where name = ";
  for (int i = 0; i < 40; ++i) blowup += "abcdef";
  EXPECT_GE(AnomalyScore(blowup), 0.5) << "240-byte unbroken word";
}

TEST(HardenQuestionTest, SchemaNoiseMutationRoundTripsToCanonical) {
  // The load generator's kSchemaNoise mutation is exactly the class of
  // hostile input the canonical tier undoes: harden(mutate(q)).canonical
  // must reconstruct q, which is what makes the canonical retry worth
  // spending repair budget on.
  Text2SqlBenchmark bench = BuildTinySpiderLike(42);
  int mutated = 0;
  for (size_t i = 0; i < bench.dev.size(); ++i) {
    const std::string& q = bench.dev[i].question;
    std::string noisy =
        MutateQuestion(q, QuestionMutation::kSchemaNoise, 1000 + i);
    if (noisy == q) continue;
    ++mutated;
    HardenResult r = HardenQuestion(noisy);
    EXPECT_TRUE(r.suspect) << noisy;
    EXPECT_EQ(r.canonical, q) << noisy;
  }
  EXPECT_GT(mutated, 0);

  // The structurally clean mutation kinds pass hardening untouched:
  // plain ASCII rewording never trips the front door.
  for (QuestionMutation kind : {QuestionMutation::kSynonym,
                                QuestionMutation::kTypo,
                                QuestionMutation::kParaphrase}) {
    std::string m =
        MutateQuestion(bench.dev.front().question, kind, 7);
    HardenResult r = HardenQuestion(m);
    EXPECT_EQ(r.sanitized, m) << QuestionMutationName(kind);
    EXPECT_FALSE(r.suspect) << QuestionMutationName(kind);
  }
}

// ----------------------------------------------- pipeline + front end glue

uint64_t CounterDelta(const MetricsSnapshot& snapshot, const char* name) {
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

class AdversarialServeTest : public ::testing::Test {
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

  /// A dev sample whose question carries schema noise, plus the
  /// ServeOptions a hardening front door would stamp for it.
  struct SuspectCase {
    Text2SqlSample sample;
    ServeOptions options;
  };
  static SuspectCase MakeSuspect(size_t dev_index, uint64_t seed) {
    SuspectCase c;
    c.sample = bench_->dev[dev_index];
    std::string noisy = MutateQuestion(
        c.sample.question, QuestionMutation::kSchemaNoise, seed);
    HardenResult h = HardenQuestion(noisy);
    c.sample.question = h.sanitized;
    c.options.suspect = true;
    c.options.canonical_question = h.canonical;
    return c;
  }

  static Text2SqlBenchmark* bench_;
  static LmZoo* zoo_;
  static CodesPipeline* pipeline_;
};
Text2SqlBenchmark* AdversarialServeTest::bench_ = nullptr;
LmZoo* AdversarialServeTest::zoo_ = nullptr;
CodesPipeline* AdversarialServeTest::pipeline_ = nullptr;

TEST_F(AdversarialServeTest, MarkSuspectRaisesBrownoutFloorNeverLowers) {
  static_assert(kSuspectFloorLevel == 2);
  ServeFrontEnd fe(pipeline_, bench_, FrontEndOptions());

  ServeOptions fresh;
  fe.MarkSuspect(&fresh, "canonical text");
  EXPECT_TRUE(fresh.suspect);
  EXPECT_EQ(fresh.canonical_question, "canonical text");
  EXPECT_EQ(fresh.brownout_level, 2) << "floor applied to a level-0 request";
  EXPECT_EQ(BrownoutPolicyAt(fresh.brownout_level).demo_cap, 0);
  EXPECT_TRUE(BrownoutPolicyAt(fresh.brownout_level).skip_value_retrieval);

  // An already deeper brownout is left alone: the floor only raises.
  ServeOptions deep;
  deep.brownout_level = 3;
  fe.MarkSuspect(&deep, "c");
  EXPECT_EQ(deep.brownout_level, 3);

  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterDelta(snapshot, "serve.adv.pre_degraded"), 2u);
}

TEST_F(AdversarialServeTest, DisabledIsVerbatimEvenOnGarbage) {
  Text2SqlSample garbage = bench_->dev.front();
  garbage.question = "\x01 bad \xC3 bytes \x7F " + garbage.question;
  ASSERT_TRUE(HardenQuestion(garbage.question).suspect);

  // With hardening off the front end hands the question to the pipeline
  // untouched: same SQL as serving it directly, never marked suspect.
  FrontEndOptions off;
  off.harden = false;
  ServeFrontEnd unhardened(pipeline_, bench_, off);
  std::string sql;
  ServeReport report;
  ASSERT_TRUE(unhardened.Serve(garbage, &sql, &report).ok());
  EXPECT_EQ(sql, pipeline_->PredictGuarded(*bench_, garbage, ServeOptions()));
  EXPECT_FALSE(report.suspect);
  EXPECT_EQ(report.brownout_level, 0);

  // The default front end hardens the same question and pre-degrades it.
  ServeFrontEnd hardened(pipeline_, bench_, FrontEndOptions());
  ServeReport hardened_report;
  ASSERT_TRUE(hardened.Serve(garbage, &sql, &hardened_report).ok());
  EXPECT_TRUE(hardened_report.suspect);
  EXPECT_EQ(hardened_report.brownout_level, kSuspectFloorLevel);

  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterDelta(snapshot, "serve.adv.pre_degraded"), 1u);
}

TEST_F(AdversarialServeTest, CleanSuspectPartitionSumsToRequests) {
  // Every PredictGuarded call lands in exactly one of serve.adv.clean /
  // serve.adv.suspect — the invariant the adversarial CI leg asserts on
  // the exported snapshot. Default options (and so every legacy caller)
  // count as clean.
  ServeOptions clean;
  ServeReport clean_report;
  pipeline_->PredictGuarded(*bench_, bench_->dev.front(), clean,
                            &clean_report);
  EXPECT_FALSE(clean_report.suspect);

  SuspectCase c = MakeSuspect(0, 2025);
  ServeReport suspect_report;
  std::string sql =
      pipeline_->PredictGuarded(*bench_, c.sample, c.options,
                                &suspect_report);
  EXPECT_FALSE(sql.empty());
  EXPECT_TRUE(suspect_report.suspect);

  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterDelta(snapshot, "serve.adv.clean"), 1u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.adv.suspect"), 1u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.adv.clean") +
                CounterDelta(snapshot, "serve.adv.suspect"),
            CounterDelta(snapshot, "serve.requests"));
}

TEST_F(AdversarialServeTest, CanonicalRetryRunsWhenPrimaryBeamFails) {
  // Every decode fails: the primary beam burns 4 of the 16 repair
  // attempts without a verified candidate, so the suspect's canonical
  // retry fires (and fails too — its decodes are equally poisoned),
  // recorded before the unverified fallback serves.
  ASSERT_TRUE(Failpoints::Configure("lm.decode=prob:1.0", 7).ok());
  SuspectCase c = MakeSuspect(0, 2026);
  ASSERT_NE(c.options.canonical_question, c.sample.question)
      << "fixture must actually be perturbed";
  ServeReport report;
  std::string sql =
      pipeline_->PredictGuarded(*bench_, c.sample, c.options, &report);
  EXPECT_FALSE(sql.empty());
  EXPECT_FALSE(report.execution_verified);
  EXPECT_EQ(report.canonical_retries, 1);
  EXPECT_FALSE(report.canonical_served);
  EXPECT_NE(report.ToString().find("adv=suspect retries=1"),
            std::string::npos);

  // A clean request under the same fault never spends the retry.
  ServeOptions clean;
  ServeReport clean_report;
  pipeline_->PredictGuarded(*bench_, bench_->dev.front(), clean,
                            &clean_report);
  EXPECT_EQ(clean_report.canonical_retries, 0);

  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterDelta(snapshot, "serve.adv.retry"), 1u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.adv.retry_served"), 0u);
}

TEST_F(AdversarialServeTest, CanonicalRetryRescuesSomeSuspectRequests) {
  // Under partial decode failure some suspects lose their whole primary
  // beam but verify on the canonical retry — the perturbation-aware
  // degradation this PR exists for. Deterministic: failpoint decisions
  // are a pure function of (seed, site, scope, counter).
  ASSERT_TRUE(Failpoints::Configure("lm.decode=prob:0.8", 11).ok());
  uint64_t retries = 0;
  uint64_t rescued = 0;
  for (size_t i = 0; i < bench_->dev.size(); ++i) {
    SuspectCase c = MakeSuspect(i, 3000 + i);
    if (c.options.canonical_question == c.sample.question) continue;
    ServeReport report;
    std::string sql =
        pipeline_->PredictGuarded(*bench_, c.sample, c.options, &report);
    EXPECT_FALSE(sql.empty());
    retries += static_cast<uint64_t>(report.canonical_retries);
    if (report.canonical_served) {
      ++rescued;
      EXPECT_TRUE(report.execution_verified);
    }
  }
  EXPECT_GT(retries, 0u);
  EXPECT_GT(rescued, 0u) << "no suspect was rescued by its retry";

  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterDelta(snapshot, "serve.adv.retry"), retries);
  EXPECT_EQ(CounterDelta(snapshot, "serve.adv.retry_served"), rescued);
}

// ------------------------------------------------- adversarial campaigns

TEST_F(AdversarialServeTest, AdvCampaignIsByteIdenticalAcrossThreadCounts) {
  LoadGenOptions options;
  options.seed = 21;
  options.num_requests = 200;
  options.offered_qps = 400.0;
  options.threads = 1;
  options.front_end.brownout.dwell_us = 50'000;
  options.adv_rate = 0.3;

  LoadReport serial = RunLoadCampaign(*pipeline_, *bench_, options);
  options.threads = 4;
  LoadReport parallel = RunLoadCampaign(*pipeline_, *bench_, options);

  EXPECT_EQ(serial.digest, parallel.digest);
  EXPECT_EQ(serial.Summary(), parallel.Summary());
  EXPECT_GT(serial.adv_offered, 0u);
  EXPECT_NEAR(static_cast<double>(serial.adv_offered), 0.3 * 200, 20.0);
  EXPECT_GT(serial.suspect, 0u);
  EXPECT_LE(serial.suspect, serial.admitted);
  EXPECT_GT(serial.verified_within_deadline, 0u);
  EXPECT_LE(serial.verified_within_deadline, serial.served_within_deadline);
  EXPECT_GT(serial.VerifiedGoodputQps(), 0.0);

  // The campaign feeds the same partition invariant into the registry.
  MetricsRegistry::Global().Reset();
  options.threads = 2;
  LoadReport report = RunLoadCampaign(*pipeline_, *bench_, options);
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterDelta(snapshot, "serve.adv.clean") +
                CounterDelta(snapshot, "serve.adv.suspect"),
            CounterDelta(snapshot, "serve.requests"));
  EXPECT_EQ(CounterDelta(snapshot, "serve.adv.suspect"), report.suspect);
}

TEST_F(AdversarialServeTest, AdvRateZeroKeepsLegacyCampaignByteIdentical) {
  // Hardening is on in every campaign by default; on clean traffic it
  // must reproduce the unhardened campaign exactly: same digest, no
  // adversarial accounting, and a Summary with no adversarial block.
  LoadGenOptions hardened;
  hardened.seed = 99;
  hardened.num_requests = 160;
  hardened.offered_qps = 400.0;
  hardened.threads = 2;
  hardened.front_end.brownout.dwell_us = 50'000;
  ASSERT_TRUE(hardened.front_end.harden);
  ASSERT_EQ(hardened.adv_rate, 0.0);

  LoadGenOptions unhardened = hardened;
  unhardened.front_end.harden = false;

  LoadReport a = RunLoadCampaign(*pipeline_, *bench_, hardened);
  LoadReport b = RunLoadCampaign(*pipeline_, *bench_, unhardened);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.Summary(), b.Summary());
  EXPECT_EQ(a.adv_offered, 0u);
  EXPECT_EQ(a.suspect, 0u);
  EXPECT_EQ(a.Summary().find("adversarial"), std::string::npos);

  // With the front end's one switch off, mutated traffic reaches the
  // pipeline unhardened: nothing is flagged suspect.
  LoadGenOptions adversarial = unhardened;
  adversarial.adv_rate = 0.3;
  MetricsRegistry::Global().Reset();
  LoadReport c = RunLoadCampaign(*pipeline_, *bench_, adversarial);
  EXPECT_GT(c.adv_offered, 0u);
  EXPECT_EQ(c.suspect, 0u);
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterDelta(snapshot, "serve.adv.suspect"), 0u);
  EXPECT_EQ(CounterDelta(snapshot, "serve.adv.pre_degraded"), 0u);
}

}  // namespace
}  // namespace serve
}  // namespace codes
