// Reproduces Table 9: ablations of the demonstration retriever, schema
// filter, value retriever, and prompt metadata, under 3-shot in-context
// learning on Spider-like (TS%) and BIRD-like (EX%).
//
// Paper shape to reproduce:
//  * removing the value retriever hurts BIRD far more than Spider;
//  * removing comments hurts BIRD (ambiguous schemas), barely Spider;
//  * removing primary/foreign keys hurts JOIN-heavy questions everywhere;
//  * removing representative values hurts BIRD;
//  * pattern-aware demonstration retrieval beats plain/random retrieval.

#include <cstdio>
#include <functional>

#include "bench/bench_common.h"
#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"

namespace codes {
namespace {

constexpr int kMaxSamples = 70;

struct Ablation {
  const char* name;
  std::function<void(PipelineConfig&)> apply;
};

void Run() {
  bench::Banner(
      "Table 9: 3-shot ICL ablations (Spider-like TS% | BIRD-like EX%)");
  auto spider = BuildSpiderLike();
  auto bird = BuildBirdLike();
  LmZoo zoo;

  const Ablation kAblations[] = {
      {"original", [](PipelineConfig&) {}},
      {"-w/o pattern similarity",
       [](PipelineConfig& c) { c.use_pattern_similarity = false; }},
      {"-w/o demonstration retriever",
       [](PipelineConfig& c) { c.random_demonstrations = true; }},
      {"-w/o schema filter",
       [](PipelineConfig& c) { c.prompt.use_schema_filter = false; }},
      {"-w/o value retriever",
       [](PipelineConfig& c) { c.prompt.use_value_retriever = false; }},
      {"-w/o column data types",
       [](PipelineConfig& c) { c.prompt.include_column_types = false; }},
      {"-w/o comments",
       [](PipelineConfig& c) { c.prompt.include_comments = false; }},
      {"-w/o representative values",
       [](PipelineConfig& c) {
         c.prompt.include_representative_values = false;
       }},
      {"-w/o primary and foreign keys",
       [](PipelineConfig& c) { c.prompt.include_keys = false; }},
  };

  int count = 0;
  const ModelSize* sizes = AllModelSizes(&count);
  bench::TablePrinter table({30, 9, 9, 9, 9, 9, 9, 9, 9});
  std::vector<std::string> header{"Ablation"};
  for (int i = 0; i < count; ++i) header.push_back("sp-" + ModelSizeName(sizes[i]).substr(6));
  for (int i = 0; i < count; ++i) header.push_back("bd-" + ModelSizeName(sizes[i]).substr(6));
  table.Row(header);
  table.Separator();

  for (const auto& ablation : kAblations) {
    std::vector<std::string> row{ablation.name};
    for (const Text2SqlBenchmark* benchmark : {&spider, &bird}) {
      bool is_spider = (benchmark == &spider);
      for (int i = 0; i < count; ++i) {
        PipelineConfig config;
        config.size = sizes[i];
        config.icl_shots = 3;
        config.prompt.top_k1 = 5;
        config.prompt.top_k2 = 6;
        config.use_external_knowledge = false;
        ablation.apply(config);
        CodesPipeline pipeline(config, zoo.CodesFor(sizes[i]));
        pipeline.TrainClassifier(*benchmark);
        pipeline.SetDemonstrationPool(benchmark->train);
        EvalOptions options;
        options.max_samples = kMaxSamples;
        options.num_threads = 0;  // parallel evaluation over all cores
        options.compute_ts = is_spider;
        options.ts_instances = 2;
        auto m = EvaluateDevSet(*benchmark,
                                pipeline.PredictorFor(*benchmark), options);
        row.push_back(bench::Pct(is_spider ? m.ts : m.ex));
      }
    }
    table.Row(row);
  }
  std::printf(
      "\npaper shape: value retriever and keys matter most on BIRD; "
      "comments matter on BIRD; types barely matter.\n");
}

}  // namespace
}  // namespace codes

int main(int argc, char** argv) {
  return codes::bench::RunTableBench("bench_tab9_ablations", argc, argv, codes::Run);
}
