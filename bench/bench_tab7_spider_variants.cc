// Reproduces Table 7: robustness of SFT CodeS on the Spider variants
// Spider-Syn, Spider-Realistic (EX%/TS%), and Spider-DK (EX%).
//
// Paper shape to reproduce: all variants cost accuracy relative to the
// clean dev set; larger models degrade more gracefully; the 3B model
// already beats weak baselines.

#include <cstdio>

#include "bench/bench_common.h"
#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"
#include "dataset/perturb.h"

namespace codes {
namespace {

void Run() {
  bench::Banner(
      "Table 7: SFT CodeS on Spider variants (Syn EX/TS | Realistic EX/TS | "
      "DK EX)");
  auto spider = BuildSpiderLike();
  auto syn = BuildSpiderSyn(spider, 11);
  auto realistic = BuildSpiderRealistic(spider, 12);
  auto dk = BuildSpiderDk(spider, 13);
  LmZoo zoo;

  bench::TablePrinter table({16, 8, 8, 8, 8, 8, 10});
  table.Row({"Method", "syn-EX", "syn-TS", "rea-EX", "rea-TS", "dk-EX",
             "clean-EX"});
  table.Separator();
  int count = 0;
  const ModelSize* sizes = AllModelSizes(&count);
  for (int i = 0; i < count; ++i) {
    ModelSize size = sizes[i];
    PipelineConfig config;
    config.size = size;
    CodesPipeline pipeline(config, zoo.CodesFor(size));
    pipeline.TrainClassifier(spider);
    pipeline.FineTune(spider);

    // Both option sets shard the dev set across every core (num_threads 0).
    EvalOptions with_ts;
    with_ts.compute_ts = true;
    with_ts.ts_instances = 2;
    with_ts.num_threads = 0;
    EvalOptions ex_only;
    ex_only.num_threads = 0;

    auto m_syn = EvaluateDevSet(syn, pipeline.PredictorFor(syn), with_ts);
    auto m_rea =
        EvaluateDevSet(realistic, pipeline.PredictorFor(realistic), with_ts);
    auto m_dk = EvaluateDevSet(dk, pipeline.PredictorFor(dk), ex_only);
    auto m_clean =
        EvaluateDevSet(spider, pipeline.PredictorFor(spider), ex_only);
    table.Row({"SFT " + ModelSizeName(size), bench::Pct(m_syn.ex),
               bench::Pct(m_syn.ts), bench::Pct(m_rea.ex),
               bench::Pct(m_rea.ts), bench::Pct(m_dk.ex),
               bench::Pct(m_clean.ex)});
  }
  std::printf(
      "\npaper reference (7B): Syn 76.9/70.0, Realistic 82.9/77.2, DK 72.0; "
      "clean Spider EX 85.4\n");
}

}  // namespace
}  // namespace codes

int main(int argc, char** argv) {
  return codes::bench::RunTableBench("bench_tab7_spider_variants", argc, argv, codes::Run);
}
