// End-to-end integration tests: the complete pipeline (corpus -> LMs ->
// classifier -> prompt -> generation -> execution-based metrics) on the
// tiny benchmark, exercising the claims the benches measure at scale.

#include <gtest/gtest.h>

#include "augment/augmentation.h"
#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"
#include "dataset/perturb.h"
#include "eval/metrics.h"

namespace codes {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bench_ = new Text2SqlBenchmark(BuildTinySpiderLike(2024));
    zoo_ = new LmZoo(1, 31);
  }
  static void TearDownTestSuite() {
    delete zoo_;
    delete bench_;
  }
  static Text2SqlBenchmark* bench_;
  static LmZoo* zoo_;
};
Text2SqlBenchmark* IntegrationTest::bench_ = nullptr;
LmZoo* IntegrationTest::zoo_ = nullptr;

TEST_F(IntegrationTest, SftPipelineBeatsChance) {
  PipelineConfig config;
  config.size = ModelSize::k7B;
  CodesPipeline pipeline(config, zoo_->CodesFor(config.size));
  pipeline.TrainClassifier(*bench_);
  pipeline.FineTune(*bench_);
  EvalOptions options;
  auto m = EvaluateDevSet(*bench_, pipeline.PredictorFor(*bench_), options);
  EXPECT_GT(m.ex, 40.0);  // tiny bench; the full bench reaches ~80
}

TEST_F(IntegrationTest, IclPipelineWorksWithoutFineTuning) {
  PipelineConfig config;
  config.size = ModelSize::k7B;
  config.icl_shots = 3;
  config.prompt.top_k1 = 5;
  config.prompt.top_k2 = 6;
  CodesPipeline pipeline(config, zoo_->CodesFor(config.size));
  pipeline.TrainClassifier(*bench_);
  pipeline.SetDemonstrationPool(bench_->train);
  EXPECT_FALSE(pipeline.model().fine_tuned());
  EvalOptions options;
  auto m = EvaluateDevSet(*bench_, pipeline.PredictorFor(*bench_), options);
  EXPECT_GT(m.ex, 30.0);
}

TEST_F(IntegrationTest, IncrementalPretrainingHelpsDownstream) {
  // The C1 claim end-to-end: same pipeline, base LM vs CodeS LM, averaged
  // over both ICL and SFT settings on the tiny bench.
  double base_total = 0, codes_total = 0;
  for (bool sft : {false, true}) {
    for (bool codes_lm : {false, true}) {
      PipelineConfig config;
      config.size = ModelSize::k1B;  // small models show the largest gap
      if (!sft) config.icl_shots = 3;
      CodesPipeline pipeline(config, codes_lm
                                         ? zoo_->CodesFor(config.size)
                                         : zoo_->BaseFor(config.size));
      pipeline.TrainClassifier(*bench_);
      if (sft) {
        pipeline.FineTune(*bench_);
      } else {
        pipeline.SetDemonstrationPool(bench_->train);
      }
      EvalOptions options;
      auto m =
          EvaluateDevSet(*bench_, pipeline.PredictorFor(*bench_), options);
      (codes_lm ? codes_total : base_total) += m.ex;
    }
  }
  EXPECT_GE(codes_total, base_total);
}

TEST_F(IntegrationTest, ExternalKnowledgeLiftsHiddenSchemaAccuracy) {
  auto bird = BuildBirdLike(31);
  PipelineConfig config;
  config.size = ModelSize::k7B;
  EvalOptions options;
  options.max_samples = 120;

  config.use_external_knowledge = false;
  CodesPipeline without(config, zoo_->CodesFor(config.size));
  without.TrainClassifier(bird);
  without.FineTune(bird);
  auto m_without = EvaluateDevSet(bird, without.PredictorFor(bird), options);

  config.use_external_knowledge = true;
  CodesPipeline with(config, zoo_->CodesFor(config.size));
  with.TrainClassifier(bird);
  with.FineTune(bird);
  auto m_with = EvaluateDevSet(bird, with.PredictorFor(bird), options);
  EXPECT_GE(m_with.ex, m_without.ex + 2.0);
}

TEST_F(IntegrationTest, ClassifierSharingTransfersAcrossDomains) {
  // Section 9.6: reuse a trained classifier on an unseen domain.
  AugmentOptions aug;
  aug.seed_pairs = 10;
  aug.question_to_sql_pairs = 30;
  aug.sql_to_question_pairs = 30;
  auto bank = BuildNewDomainDataset(BankFinancialsDomain(), 15, aug);

  PipelineConfig config;
  config.size = ModelSize::k7B;
  CodesPipeline target(config, zoo_->CodesFor(config.size));
  target.TrainClassifier(*bench_);
  target.FineTune(bank.bench);
  EvalOptions options;
  auto m = EvaluateDevSet(bank.bench, target.PredictorFor(bank.bench),
                          options);
  EXPECT_GT(m.ex, 25.0);
}

TEST_F(IntegrationTest, RobustnessDropsButSurvivesPerturbation) {
  PipelineConfig config;
  config.size = ModelSize::k7B;
  CodesPipeline pipeline(config, zoo_->CodesFor(config.size));
  pipeline.TrainClassifier(*bench_);
  pipeline.FineTune(*bench_);
  EvalOptions options;
  auto clean = EvaluateDevSet(*bench_, pipeline.PredictorFor(*bench_),
                              options);
  auto syn = BuildSpiderSyn(*bench_, 1);
  auto m_syn = EvaluateDevSet(syn, pipeline.PredictorFor(syn), options);
  EXPECT_GT(m_syn.ex, 0.0);
  EXPECT_LE(m_syn.ex, clean.ex + 10.0);  // no spurious gains
}

TEST_F(IntegrationTest, AugmentedSftBeatsZeroShotTransferOnNewDomain) {
  AugmentOptions aug;
  aug.seed_pairs = 16;
  aug.question_to_sql_pairs = 160;
  aug.sql_to_question_pairs = 160;
  auto bank = BuildNewDomainDataset(BankFinancialsDomain(), 40, aug);

  PipelineConfig config;
  config.size = ModelSize::k7B;

  // Zero-shot transfer from the tiny Spider-like model.
  CodesPipeline transfer(config, zoo_->CodesFor(config.size));
  transfer.TrainClassifier(*bench_);
  transfer.FineTune(*bench_);
  EvalOptions options;
  auto m_transfer =
      EvaluateDevSet(bank.bench, transfer.PredictorFor(bank.bench), options);

  // SFT on augmented in-domain data.
  CodesPipeline adapted(config, zoo_->CodesFor(config.size));
  adapted.TrainClassifier(*bench_);
  adapted.FineTune(bank.bench);
  auto m_adapted =
      EvaluateDevSet(bank.bench, adapted.PredictorFor(bank.bench), options);
  EXPECT_GT(m_adapted.ex, m_transfer.ex);
}

}  // namespace
}  // namespace codes
