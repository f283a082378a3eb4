// Reproduces Table 5: supervised fine-tuning on Spider's dev set (EX%/TS%).
//
// Paper shape to reproduce: accuracy grows 1B -> 3B -> 7B and saturates at
// 15B (7B ~= 15B); fine-tuned CodeS beats the fine-tuned Llama-2 proxies.

#include <cstdio>

#include "bench/bench_common.h"
#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"

namespace codes {
namespace {

EvalMetrics SftRun(const Text2SqlBenchmark& benchmark, const LmZoo& zoo,
                   ModelSize size, bool sql_pretrained, double extra_noise) {
  PipelineConfig config;
  config.size = size;
  config.extra_model_noise = extra_noise;
  CodesPipeline pipeline(config, sql_pretrained ? zoo.CodesFor(size)
                                                : zoo.BaseFor(size));
  pipeline.TrainClassifier(benchmark);
  pipeline.FineTune(benchmark);
  EvalOptions options;
  options.compute_ts = true;
  options.ts_instances = 3;
  options.num_threads = 0;  // parallel evaluation: shard dev set over all cores
  return EvaluateDevSet(benchmark, pipeline.PredictorFor(benchmark), options);
}

void Run() {
  bench::Banner("Table 5: SFT on Spider-like dev (EX% / TS%)");
  auto spider = BuildSpiderLike();
  LmZoo zoo;

  bench::TablePrinter table({24, 8, 8});
  table.Row({"Method", "EX%", "TS%"});
  table.Separator();
  struct RowSpec {
    const char* name;
    ModelSize size;
    bool sql_pretrained;
    double extra_noise;
  };
  const RowSpec kRows[] = {
      {"SFT Llama2-7B", ModelSize::k7B, false, 0.42},
      {"SFT Llama2-13B", ModelSize::k15B, false, 0.36},
      {"SFT CodeS-1B", ModelSize::k1B, true, 0.0},
      {"SFT CodeS-3B", ModelSize::k3B, true, 0.0},
      {"SFT CodeS-7B", ModelSize::k7B, true, 0.0},
      {"SFT CodeS-15B", ModelSize::k15B, true, 0.0},
  };
  for (const auto& row : kRows) {
    auto m = SftRun(spider, zoo, row.size, row.sql_pretrained,
                    row.extra_noise);
    table.Row({row.name, bench::Pct(m.ex), bench::Pct(m.ts)});
  }
  std::printf(
      "\npaper reference (EX/TS): Llama2-7B 77.8/73.0, Llama2-13B 81.6/76.6, "
      "CodeS 1B 77.9/72.2, 3B 83.4/78.1, 7B 85.4/80.3, 15B 84.9/79.4\n");
}

}  // namespace
}  // namespace codes

int main(int argc, char** argv) {
  return codes::bench::RunTableBench("bench_tab5_sft_spider", argc, argv, codes::Run);
}
