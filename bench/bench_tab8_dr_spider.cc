// Reproduces Table 8: the Dr.Spider diagnostic suite — 3 database
// perturbations, 9 question perturbations, 5 SQL-side test sets — for the
// four SFT CodeS scales, with per-category macro averages and the global
// average.
//
// Paper shape to reproduce: DB perturbations (especially schema
// abbreviation without comments) hurt the most; NLQ perturbations hurt
// moderately; larger models are more robust; the global average rises
// with scale and saturates at 7B/15B.

#include <cstdio>
#include <map>

#include "bench/bench_common.h"
#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"
#include "dataset/perturb.h"

namespace codes {
namespace {

constexpr int kMaxSamples = 80;

void Run() {
  bench::Banner("Table 8: Dr.Spider perturbation suite (EX%)");
  auto spider = BuildSpiderLike();
  auto suite = BuildDrSpiderSuite(spider, 21);
  LmZoo zoo;

  int count = 0;
  const ModelSize* sizes = AllModelSizes(&count);

  // One fine-tuned pipeline per scale, reused across all 17 sets.
  std::vector<std::unique_ptr<CodesPipeline>> pipelines;
  for (int i = 0; i < count; ++i) {
    PipelineConfig config;
    config.size = sizes[i];
    auto pipeline = std::make_unique<CodesPipeline>(config,
                                                    zoo.CodesFor(sizes[i]));
    pipeline->TrainClassifier(spider);
    pipeline->FineTune(spider);
    pipelines.push_back(std::move(pipeline));
  }

  bench::TablePrinter table({6, 24, 6, 8, 8, 8, 8});
  table.Row({"Type", "Perturbation", "N", "1B", "3B", "7B", "15B"});
  table.Separator();

  std::map<std::string, std::vector<double>> category_sums;
  std::map<std::string, int> category_counts;
  std::vector<double> global_sums(static_cast<size_t>(count), 0.0);
  int global_count = 0;

  EvalOptions options;
  options.max_samples = kMaxSamples;
  options.num_threads = 0;  // parallel evaluation: shard dev set over all cores

  for (const auto& set : suite) {
    std::vector<std::string> row{set.category, set.name,
                                 std::to_string(set.bench.dev.size())};
    auto& sums = category_sums[set.category];
    if (sums.empty()) sums.assign(static_cast<size_t>(count), 0.0);
    for (int i = 0; i < count; ++i) {
      auto m = EvaluateDevSet(set.bench,
                              pipelines[i]->PredictorFor(set.bench), options);
      row.push_back(bench::Pct(m.ex));
      sums[static_cast<size_t>(i)] += m.ex;
      global_sums[static_cast<size_t>(i)] += m.ex;
    }
    category_counts[set.category] += 1;
    ++global_count;
    table.Row(row);
  }

  table.Separator();
  for (const auto& [category, sums] : category_sums) {
    std::vector<std::string> row{category, "macro-average", ""};
    for (int i = 0; i < count; ++i) {
      row.push_back(
          bench::Pct(sums[static_cast<size_t>(i)] / category_counts.at(category)));
    }
    table.Row(row);
  }
  std::vector<std::string> global_row{"All", "global average", ""};
  for (int i = 0; i < count; ++i) {
    global_row.push_back(
        bench::Pct(global_sums[static_cast<size_t>(i)] / global_count));
  }
  table.Row(global_row);
  std::printf(
      "\npaper reference global average: 1B 66.3, 3B 72.8, 7B 75.0, 15B "
      "75.1\n");
}

}  // namespace
}  // namespace codes

int main(int argc, char** argv) {
  return codes::bench::RunTableBench("bench_tab8_dr_spider", argc, argv, codes::Run);
}
