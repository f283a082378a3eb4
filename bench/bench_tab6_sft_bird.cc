// Reproduces Table 6: supervised fine-tuning on BIRD-like dev (EX% and
// VES%), with and without external knowledge.
//
// Paper shape to reproduce: BIRD is much harder than Spider; EK lifts all
// scales; accuracy grows with scale with a small 7B->15B step; VES tracks
// EX (correct queries are about as efficient as gold).

#include <cstdio>

#include "bench/bench_common.h"
#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"

namespace codes {
namespace {

void Run() {
  bench::Banner("Table 6: SFT on BIRD-like dev (EX% / VES%)");
  auto bird = BuildBirdLike();
  LmZoo zoo;

  bench::TablePrinter table({16, 8, 8, 10, 10});
  table.Row({"Method", "EX%", "VES%", "EX% w/EK", "VES% w/EK"});
  table.Separator();
  int count = 0;
  const ModelSize* sizes = AllModelSizes(&count);
  for (int i = 0; i < count; ++i) {
    ModelSize size = sizes[i];
    std::vector<std::string> row{"SFT " + ModelSizeName(size)};
    for (bool ek : {false, true}) {
      PipelineConfig config;
      config.size = size;
      config.use_external_knowledge = ek;
      CodesPipeline pipeline(config, zoo.CodesFor(size));
      pipeline.TrainClassifier(bird);
      pipeline.FineTune(bird);
      EvalOptions options;
      options.compute_ves = true;
      options.num_threads = 0;  // parallel evaluation: shard dev set over all cores
      auto m = EvaluateDevSet(bird, pipeline.PredictorFor(bird), options);
      row.push_back(bench::Pct(m.ex));
      row.push_back(bench::Pct(m.ves));
    }
    table.Row(row);
  }
  std::printf(
      "\npaper reference dev EX (no EK / w EK): 1B 38.5/50.5, 3B 43.4/55.0, "
      "7B 45.2/57.2, 15B 47.9/58.5\n");
}

}  // namespace
}  // namespace codes

int main(int argc, char** argv) {
  return codes::bench::RunTableBench("bench_tab6_sft_bird", argc, argv, codes::Run);
}
