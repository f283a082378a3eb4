// Reproduces Table 3: table/column AUC of the schema item classifier on
// Spider-like, BIRD-like, and BIRD-like with external knowledge.
//
// Paper shape to reproduce: Spider AUC > BIRD AUC (ambiguous schemas hurt
// linking), and EK improves BIRD.

#include <cstdio>

#include "bench/bench_common.h"
#include "common/thread_pool.h"
#include "dataset/benchmark_builder.h"
#include "linker/schema_classifier.h"

namespace codes {
namespace {

void Run() {
  bench::Banner("Table 3: schema item classifier AUC");
  auto spider = BuildSpiderLike();
  auto bird = BuildBirdLike();

  // The two trainings are independent, as are the three AUC sweeps; each
  // writes its own slot, so the pool changes wall-clock, not results.
  SchemaItemClassifier spider_classifier;
  SchemaItemClassifier bird_classifier;
  SchemaItemClassifier::TrainOptions options;
  ThreadPool pool(0);  // one worker per hardware thread
  pool.Submit([&] { spider_classifier.Train(spider, options); });
  pool.Submit([&] { bird_classifier.Train(bird, options); });
  pool.Wait();

  std::pair<double, double> spider_auc, bird_auc, bird_ek_auc;
  pool.Submit([&] {
    spider_auc = EvaluateClassifierAuc(spider_classifier, spider, false);
  });
  pool.Submit(
      [&] { bird_auc = EvaluateClassifierAuc(bird_classifier, bird, false); });
  pool.Submit([&] {
    bird_ek_auc = EvaluateClassifierAuc(bird_classifier, bird, true);
  });
  pool.Wait();
  auto [spider_t, spider_c] = spider_auc;
  auto [bird_t, bird_c] = bird_auc;
  auto [bird_ek_t, bird_ek_c] = bird_ek_auc;

  bench::TablePrinter table({12, 10, 10, 12});
  table.Row({"", "Spider", "BIRD", "BIRD w/ EK"});
  table.Separator();
  table.Row({"Table AUC", FormatDouble(spider_t, 3),
             FormatDouble(bird_t, 3),
             FormatDouble(bird_ek_t, 3)});
  table.Row({"Column AUC", FormatDouble(spider_c, 3),
             FormatDouble(bird_c, 3),
             FormatDouble(bird_ek_c, 3)});
  std::printf(
      "\npaper reference: table 0.991 / ~0.90 / 0.976 ; column 0.993 / "
      "0.943 / 0.957\n");
}

}  // namespace
}  // namespace codes

int main(int argc, char** argv) {
  return codes::bench::RunTableBench("bench_tab3_schema_classifier_auc", argc, argv, codes::Run);
}
