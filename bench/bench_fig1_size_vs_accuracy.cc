// Reproduces Figure 1: accuracy vs model size — fine-tuned CodeS at 1B-15B
// compared against much larger prompting-based baselines (emulated as
// base-corpus models with strong decoding but no SQL-centric incremental
// pre-training and no fine-tuning).
//
// Paper shape to reproduce: CodeS reaches or beats the "10x-100x larger"
// prompting baselines on both benchmarks despite its size.

#include <cstdio>

#include "bench/bench_common.h"
#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"

namespace codes {
namespace {

constexpr int kMaxSamples = 80;

void Run() {
  bench::Banner("Figure 1: accuracy vs model size (Spider EX% | BIRD EX%)");
  auto spider = BuildSpiderLike();
  auto bird = BuildBirdLike();
  LmZoo zoo;

  bench::TablePrinter table({30, 12, 10, 10});
  table.Row({"Model", "params (B)", "Spider", "BIRD"});
  table.Separator();

  EvalOptions options;
  options.max_samples = kMaxSamples;
  options.num_threads = 0;  // parallel evaluation: shard dev set over all cores

  // Prompting-based large-model proxies (few-shot, no SQL pre-training).
  struct Proxy {
    const char* name;
    double params;
    double extra_noise;
  };
  const Proxy kProxies[] = {
      {"ChatGPT-class proxy (175B)", 175.0, 0.06},
      {"GPT-4-class proxy (>>175B)", 1000.0, 0.00},
  };
  for (const auto& proxy : kProxies) {
    PipelineConfig config;
    config.size = ModelSize::k15B;  // largest available capacity profile
    config.icl_shots = 5;
    config.extra_model_noise = proxy.extra_noise;
    CodesPipeline sp(config, zoo.BaseFor(config.size));
    sp.TrainClassifier(spider);
    sp.SetDemonstrationPool(spider.train);
    auto m_spider = EvaluateDevSet(spider, sp.PredictorFor(spider), options);
    PipelineConfig bird_config = config;
    bird_config.use_external_knowledge = true;
    CodesPipeline bp(bird_config, zoo.BaseFor(config.size));
    bp.TrainClassifier(bird);
    bp.SetDemonstrationPool(bird.train);
    auto m_bird = EvaluateDevSet(bird, bp.PredictorFor(bird), options);
    table.Row({proxy.name, FormatDouble(proxy.params, 0),
               bench::Pct(m_spider.ex), bench::Pct(m_bird.ex)});
  }

  int count = 0;
  const ModelSize* sizes = AllModelSizes(&count);
  for (int i = 0; i < count; ++i) {
    ModelSize size = sizes[i];
    PipelineConfig config;
    config.size = size;
    CodesPipeline sp(config, zoo.CodesFor(size));
    sp.TrainClassifier(spider);
    sp.FineTune(spider);
    auto m_spider = EvaluateDevSet(spider, sp.PredictorFor(spider), options);
    PipelineConfig bird_config = config;
    bird_config.use_external_knowledge = true;
    CodesPipeline bp(bird_config, zoo.CodesFor(size));
    bp.TrainClassifier(bird);
    bp.FineTune(bird);
    auto m_bird = EvaluateDevSet(bird, bp.PredictorFor(bird), options);
    table.Row({"SFT " + ModelSizeName(size),
               FormatDouble(ProfileFor(size).params_billion, 0),
               bench::Pct(m_spider.ex), bench::Pct(m_bird.ex)});
  }
  std::printf(
      "\npaper shape: SFT CodeS-7B/15B >= the 10x-100x larger prompting "
      "baselines on both benchmarks.\n");
}

}  // namespace
}  // namespace codes

int main(int argc, char** argv) {
  return codes::bench::RunTableBench("bench_fig1_size_vs_accuracy", argc, argv, codes::Run);
}
