// Reproduces the Section 5 mechanism in isolation: perplexity of the base
// (StarCoder-like) language model vs the incrementally pre-trained CodeS
// language model on held-out SQL, at every n-gram order the model scales
// use.
//
// Paper shape to reproduce: incremental pre-training on the SQL-centric
// corpus sharply reduces SQL perplexity at every scale — the signal the
// downstream generator exploits when reranking candidates.

#include <cstdio>

#include "bench/bench_common.h"
#include "core/model_zoo.h"
#include "corpus/pretrain_corpus.h"

namespace codes {
namespace {

void Run() {
  bench::Banner("Section 5: SQL perplexity, base vs incrementally pre-trained");
  LmZoo zoo;
  auto eval_set = BuildSqlEvalSet(300, 777);

  bench::TablePrinter table({8, 14, 14, 12});
  table.Row({"order", "base ppl", "codes ppl", "reduction"});
  table.Separator();
  for (int order = 2; order <= 5; ++order) {
    double base = zoo.Base(order).Perplexity(eval_set);
    double codes = zoo.Codes(order).Perplexity(eval_set);
    table.Row({std::to_string(order), FormatDouble(base, 1),
               FormatDouble(codes, 1),
               FormatDouble(base / codes, 1) + "x"});
  }
  std::printf(
      "\nexpected shape: multi-x perplexity reduction after incremental "
      "pre-training at every order.\n");
}

}  // namespace
}  // namespace codes

int main(int argc, char** argv) {
  return codes::bench::RunTableBench("bench_pretraining", argc, argv, codes::Run);
}
