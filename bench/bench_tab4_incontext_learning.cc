// Reproduces Table 4: few-shot in-context learning of open-source LLMs vs
// CodeS, at 1/3/5 shots, on Spider-like (TS%) and BIRD-like (EX%, with and
// without external knowledge).
//
// Paper shape to reproduce:
//  * incremental pre-training (CodeS rows) beats each base model;
//  * smaller models gain more from pre-training than larger ones;
//  * more shots help; larger models rank higher; EK helps on BIRD.

#include <cstdio>

#include "bench/bench_common.h"
#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"

namespace codes {
namespace {

constexpr int kMaxSamples = 60;

EvalMetrics RunOne(const Text2SqlBenchmark& benchmark, const LmZoo& zoo,
                   const BaselineSpec& spec, int shots, bool use_ek,
                   bool compute_ts) {
  PipelineConfig config;
  config.size = spec.profile;
  config.icl_shots = shots;
  config.prompt.top_k1 = 5;  // paper shrinks k1/k2 in few-shot mode
  config.prompt.top_k2 = 6;
  config.use_external_knowledge = use_ek;
  config.extra_model_noise = spec.extra_noise;
  CodesPipeline pipeline(config, spec.sql_pretrained
                                     ? zoo.CodesFor(spec.profile)
                                     : zoo.BaseFor(spec.profile));
  pipeline.TrainClassifier(benchmark);
  pipeline.SetDemonstrationPool(benchmark.train);
  EvalOptions options;
  options.max_samples = kMaxSamples;
  options.num_threads = 0;  // parallel evaluation: shard dev set over all cores
  options.compute_ts = compute_ts;
  options.ts_instances = 2;
  return EvaluateDevSet(benchmark, pipeline.PredictorFor(benchmark), options);
}

void Run() {
  bench::Banner(
      "Table 4: few-shot in-context learning (Spider TS% | BIRD EX% | BIRD "
      "w/EK EX%)");
  auto spider = BuildSpiderLike();
  auto bird = BuildBirdLike();
  LmZoo zoo;

  bench::TablePrinter table({20, 6, 6, 6, 6, 6, 6, 6, 6, 6});
  table.Row({"LLM", "sp-1", "sp-3", "sp-5", "bd-1", "bd-3", "bd-5", "ek-1",
             "ek-3", "ek-5"});
  table.Separator();
  for (const auto& spec : Table4Baselines()) {
    std::vector<std::string> row{spec.name};
    for (int shots : {1, 3, 5}) {
      auto m = RunOne(spider, zoo, spec, shots, false, /*compute_ts=*/true);
      row.push_back(bench::Pct(m.ts));
    }
    for (int shots : {1, 3, 5}) {
      auto m = RunOne(bird, zoo, spec, shots, false, /*compute_ts=*/false);
      row.push_back(bench::Pct(m.ex));
    }
    for (int shots : {1, 3, 5}) {
      auto m = RunOne(bird, zoo, spec, shots, true, /*compute_ts=*/false);
      row.push_back(bench::Pct(m.ex));
    }
    table.Row(row);
  }
  std::printf(
      "\npaper shape: CodeS-* > StarCoder* > CodeGen*/Llama2 at matched "
      "size; gains from incremental pre-training shrink with size.\n");
}

}  // namespace
}  // namespace codes

int main(int argc, char** argv) {
  return codes::bench::RunTableBench("bench_tab4_incontext_learning", argc, argv, codes::Run);
}
