#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/thread_pool.h"
#include "core/model_zoo.h"
#include "corpus/pretrain_corpus.h"
#include "sqlengine/executor.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"
#include "dataset/templates.h"
#include "eval/metrics.h"
#include "generator/capacity.h"
#include "generator/codes_model.h"

namespace codes {
namespace {

class GeneratorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bench_ = new Text2SqlBenchmark(BuildTinySpiderLike(99));
    zoo_ = new LmZoo(1, 31);
  }
  static void TearDownTestSuite() {
    delete zoo_;
    delete bench_;
  }
  static Text2SqlBenchmark* bench_;
  static LmZoo* zoo_;
};
Text2SqlBenchmark* GeneratorTest::bench_ = nullptr;
LmZoo* GeneratorTest::zoo_ = nullptr;

TEST_F(GeneratorTest, CapacityProfilesAreMonotone) {
  int count = 0;
  const ModelSize* sizes = AllModelSizes(&count);
  ASSERT_EQ(count, 4);
  for (int i = 1; i < count; ++i) {
    const auto& prev = ProfileFor(sizes[i - 1]);
    const auto& cur = ProfileFor(sizes[i]);
    EXPECT_GT(cur.params_billion, prev.params_billion);
    EXPECT_GE(cur.embedding_dim, prev.embedding_dim);
    EXPECT_GE(cur.ngram_order, prev.ngram_order);
    EXPECT_LE(cur.decode_noise, prev.decode_noise);
    EXPECT_GE(cur.candidate_templates, prev.candidate_templates);
  }
  // Table 1: only the 15B model has the reduced 6,144-token context.
  EXPECT_EQ(ProfileFor(ModelSize::k15B).max_context_tokens, 6144);
  EXPECT_EQ(ProfileFor(ModelSize::k7B).max_context_tokens, 8192);
}

TEST_F(GeneratorTest, GenerationIsDeterministic) {
  PipelineConfig config;
  config.size = ModelSize::k3B;
  CodesPipeline pipeline(config, zoo_->CodesFor(config.size));
  pipeline.TrainClassifier(*bench_);
  pipeline.FineTune(*bench_);
  const auto& s = bench_->dev[0];
  EXPECT_EQ(pipeline.Predict(*bench_, s), pipeline.Predict(*bench_, s));
}

TEST_F(GeneratorTest, PredictionsAreExecutable) {
  PipelineConfig config;
  config.size = ModelSize::k7B;
  CodesPipeline pipeline(config, zoo_->CodesFor(config.size));
  pipeline.TrainClassifier(*bench_);
  pipeline.FineTune(*bench_);
  int executable = 0;
  for (const auto& s : bench_->dev) {
    std::string predicted = pipeline.Predict(*bench_, s);
    if (sql::IsExecutable(bench_->DbOf(s), predicted)) ++executable;
  }
  // Beam selection returns the first executable candidate; nearly every
  // prediction should run.
  EXPECT_GE(executable, static_cast<int>(bench_->dev.size()) - 1);
}

TEST_F(GeneratorTest, FineTuningImprovesAccuracy) {
  // Needs enough training data for centroids to cover the template space;
  // the tiny fixture is too sparse, so build a medium benchmark.
  BenchmarkConfig bench_config;
  bench_config.name = "medium";
  bench_config.train_domains = 8;
  bench_config.dev_domains = 3;
  bench_config.train_samples_per_db = 40;
  bench_config.dev_samples_per_db = 15;
  bench_config.seed = 321;
  auto medium = BuildBenchmark(bench_config);

  PipelineConfig config;
  config.size = ModelSize::k7B;
  EvalOptions options;

  CodesPipeline raw(config, zoo_->CodesFor(config.size));
  raw.TrainClassifier(medium);
  auto before = EvaluateDevSet(medium, raw.PredictorFor(medium), options);

  CodesPipeline tuned(config, zoo_->CodesFor(config.size));
  tuned.TrainClassifier(medium);
  tuned.FineTune(medium);
  auto after = EvaluateDevSet(medium, tuned.PredictorFor(medium), options);
  EXPECT_GT(after.ex, before.ex);
}

TEST_F(GeneratorTest, BeamRespectsWidthAndOrdering) {
  PipelineConfig config;
  config.size = ModelSize::k7B;
  CodesPipeline pipeline(config, zoo_->CodesFor(config.size));
  pipeline.TrainClassifier(*bench_);
  pipeline.FineTune(*bench_);
  const auto& s = bench_->dev[0];
  auto prompt = pipeline.BuildPrompt(*bench_, s);
  GenerationInput input;
  input.db = &bench_->DbOf(s);
  input.prompt = &prompt;
  input.question = s.question;
  auto beam = pipeline.model().GenerateBeam(input, 7);
  ASSERT_FALSE(beam.empty());
  EXPECT_LE(beam.size(),
            static_cast<size_t>(pipeline.model().profile().beam_width));
  for (size_t i = 1; i < beam.size(); ++i) {
    EXPECT_GE(beam[i - 1].score, beam[i].score);
  }
}

TEST_F(GeneratorTest, SchemaFilterGatesGeneration) {
  // With an empty prompt (no kept tables), generation cannot reference
  // the schema and falls back.
  PipelineConfig config;
  config.size = ModelSize::k3B;
  CodesPipeline pipeline(config, zoo_->CodesFor(config.size));
  pipeline.TrainClassifier(*bench_);
  const auto& s = bench_->dev[0];
  DatabasePrompt empty;  // nothing kept, nothing matched
  GenerationInput input;
  input.db = &bench_->DbOf(s);
  input.prompt = &empty;
  input.question = s.question;
  auto beam = pipeline.model().GenerateBeam(input, 3);
  for (const auto& cand : beam) {
    // Only slot-free templates (none exist: all need a table) could fire;
    // the beam should be empty or non-executable fallbacks.
    EXPECT_TRUE(cand.sql.empty() || !cand.executable || cand.sql == "SELECT 1");
  }
}

TEST_F(GeneratorTest, DemonstrationsInfluenceIcl) {
  PipelineConfig config;
  config.size = ModelSize::k7B;
  config.icl_shots = 3;
  EvalOptions options;

  CodesPipeline with(config, zoo_->CodesFor(config.size));
  with.TrainClassifier(*bench_);
  with.SetDemonstrationPool(bench_->train);
  auto m_with = EvaluateDevSet(*bench_, with.PredictorFor(*bench_), options);

  CodesPipeline zero(config, zoo_->CodesFor(config.size));
  zero.TrainClassifier(*bench_);
  // No demonstration pool set: zero-shot.
  auto m_zero = EvaluateDevSet(*bench_, zero.PredictorFor(*bench_), options);
  EXPECT_GE(m_with.ex, m_zero.ex);
}

TEST_F(GeneratorTest, ExtraNoiseDegradesBaselines) {
  PipelineConfig clean;
  clean.size = ModelSize::k7B;
  clean.icl_shots = 3;
  PipelineConfig noisy = clean;
  noisy.extra_model_noise = 1.2;  // extreme family-quality penalty

  EvalOptions options;
  CodesPipeline a(clean, zoo_->BaseFor(clean.size));
  a.TrainClassifier(*bench_);
  a.SetDemonstrationPool(bench_->train);
  auto m_clean = EvaluateDevSet(*bench_, a.PredictorFor(*bench_), options);

  CodesPipeline b(noisy, zoo_->BaseFor(noisy.size));
  b.TrainClassifier(*bench_);
  b.SetDemonstrationPool(bench_->train);
  auto m_noisy = EvaluateDevSet(*bench_, b.PredictorFor(*bench_), options);
  EXPECT_GT(m_clean.ex, m_noisy.ex);
}

// FNV-1a over every beam of a request set: SQL text, template id, the
// exact bits of each score, and the executable mark.
uint64_t BeamDigest(const std::vector<std::vector<ScoredCandidate>>& beams) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  for (const auto& beam : beams) {
    const uint64_t n = beam.size();
    mix(&n, sizeof(n));
    for (const auto& cand : beam) {
      mix(cand.sql.data(), cand.sql.size());
      mix("", 1);
      const int64_t tid = cand.template_id;
      mix(&tid, sizeof(tid));
      uint64_t bits = 0;
      std::memcpy(&bits, &cand.score, sizeof(bits));
      mix(&bits, sizeof(bits));
      const char exec = cand.executable ? 1 : 0;
      mix(&exec, 1);
    }
  }
  return h;
}

// A small BIRD-like set: abbreviated names, comments, dirty values, EK.
Text2SqlBenchmark TinyBirdLike() {
  BenchmarkConfig bird_config;
  bird_config.name = "tiny_bird_like";
  bird_config.profile = DbProfile::Bird();
  bird_config.train_domains = 3;
  bird_config.dev_domains = 2;
  bird_config.train_samples_per_db = 20;
  bird_config.dev_samples_per_db = 10;
  bird_config.with_external_knowledge = true;
  bird_config.seed = 4242;
  return BuildBenchmark(bird_config);
}

// One request of a golden beam set: `with_demos` adds three fixed train
// samples as in-context demonstrations.
struct GoldenRequest {
  const CodesPipeline* pipeline;
  const Text2SqlBenchmark* bench;
  const Text2SqlSample* sample;
  bool with_demos;
  uint64_t seed;
};

// Generates every request's beam on `threads` threads and digests them.
uint64_t GoldenBeamDigest(const std::vector<GoldenRequest>& requests,
                          int threads) {
  std::vector<std::vector<ScoredCandidate>> beams(requests.size());
  ThreadPool pool(threads);
  pool.ParallelFor(requests.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const GoldenRequest& r = requests[i];
      DatabasePrompt prompt = r.pipeline->BuildPrompt(*r.bench, *r.sample);
      GenerationInput input;
      input.db = &r.bench->DbOf(*r.sample);
      input.prompt = &prompt;
      input.question = r.sample->question;
      input.external_knowledge = r.sample->external_knowledge;
      if (r.with_demos) {
        for (size_t d = 0; d < 3; ++d) {
          input.demonstrations.push_back(&r.bench->train[d * 7]);
        }
      }
      beams[i] = r.pipeline->model().GenerateBeam(input, r.seed + i);
    }
  });
  return BeamDigest(beams);
}

// Checks the serial digest against `golden` and the 8-thread one against
// the serial one.
void ExpectGoldenAtOneAndEightThreads(
    const std::vector<GoldenRequest>& requests, uint64_t golden) {
  const uint64_t serial = GoldenBeamDigest(requests, 1);
  std::printf("beam digest: 0x%016" PRIx64 "\n", serial);
  EXPECT_EQ(serial, golden);
  EXPECT_EQ(GoldenBeamDigest(requests, 8), serial);
}

// Golden beams: a fixed request set — a Spider-like dev set with and
// without demonstrations, and a BIRD-like dev set (abbreviated names,
// comments, dirty values, EK) — generated at 1 and 8 threads must hash to
// the digest recorded before generation memoized its per-request scores.
// Any change to a score's value, the RNG stream or the candidate order
// shows up here.
TEST_F(GeneratorTest, GoldenBeamDigestMatchesAtOneAndEightThreads) {
  constexpr uint64_t kGoldenDigest = 0x805301e2a580d7e8ULL;
  const Text2SqlBenchmark bird = TinyBirdLike();

  PipelineConfig config;
  config.size = ModelSize::k7B;
  CodesPipeline spider_pipeline(config, zoo_->CodesFor(config.size));
  spider_pipeline.TrainClassifier(*bench_);
  spider_pipeline.FineTune(*bench_);
  config.use_external_knowledge = true;
  CodesPipeline bird_pipeline(config, zoo_->CodesFor(config.size));
  bird_pipeline.TrainClassifier(bird);
  bird_pipeline.FineTune(bird);

  std::vector<GoldenRequest> requests;
  for (const auto& s : bench_->dev) {
    requests.push_back({&spider_pipeline, bench_, &s, false, 7});
    requests.push_back({&spider_pipeline, bench_, &s, true, 11});
  }
  for (const auto& s : bird.dev) {
    requests.push_back({&bird_pipeline, &bird, &s, false, 13});
  }
  ExpectGoldenAtOneAndEightThreads(requests, kGoldenDigest);
}

// The same pin for the narrowest (1B, 64-wide) anchor pool on the
// Spider-like set, with and without demonstrations. Recorded before
// template scoring moved to the sparse anchor pool.
TEST_F(GeneratorTest, GoldenBeamDigest1BMatchesAtOneAndEightThreads) {
  constexpr uint64_t kGoldenDigest = 0x7195870bb301bbceULL;
  PipelineConfig config;
  config.size = ModelSize::k1B;
  CodesPipeline pipeline(config, zoo_->CodesFor(config.size));
  pipeline.TrainClassifier(*bench_);
  pipeline.FineTune(*bench_);

  std::vector<GoldenRequest> requests;
  for (const auto& s : bench_->dev) {
    requests.push_back({&pipeline, bench_, &s, false, 17});
    requests.push_back({&pipeline, bench_, &s, true, 19});
  }
  ExpectGoldenAtOneAndEightThreads(requests, kGoldenDigest);
}

// The same pin for the widest (15B, 384-wide) anchor pool on the BIRD-like
// set with EK, with and without demonstrations. Recorded before template
// scoring moved to the sparse anchor pool.
TEST_F(GeneratorTest, GoldenBeamDigest15BBirdMatchesAtOneAndEightThreads) {
  constexpr uint64_t kGoldenDigest = 0x610e3f1cc55b8c0dULL;
  const Text2SqlBenchmark bird = TinyBirdLike();
  PipelineConfig config;
  config.size = ModelSize::k15B;
  config.use_external_knowledge = true;
  CodesPipeline pipeline(config, zoo_->CodesFor(config.size));
  pipeline.TrainClassifier(bird);
  pipeline.FineTune(bird);

  std::vector<GoldenRequest> requests;
  for (const auto& s : bird.dev) {
    requests.push_back({&pipeline, &bird, &s, false, 23});
    requests.push_back({&pipeline, &bird, &s, true, 29});
  }
  ExpectGoldenAtOneAndEightThreads(requests, kGoldenDigest);
}

TEST_F(GeneratorTest, BaselineTableCoversSixteenModels) {
  auto specs = Table4Baselines();
  EXPECT_EQ(specs.size(), 16u);
  int codes_rows = 0;
  for (const auto& spec : specs) {
    if (spec.sql_pretrained) ++codes_rows;
  }
  EXPECT_EQ(codes_rows, 4);
}

TEST_F(GeneratorTest, LmZooPerplexityOrdering) {
  auto sql_eval = BuildSqlEvalSet(60, 13);
  for (int order = 2; order <= 5; ++order) {
    EXPECT_LT(zoo_->Codes(order).Perplexity(sql_eval),
              zoo_->Base(order).Perplexity(sql_eval))
        << "order " << order;
  }
}

}  // namespace
}  // namespace codes
