// Thin throughput harness for the CI perf gate: queries/sec of the
// parallel batched evaluator (7B SFT) at 1 and 8 threads, with the EX
// metric asserted identical across thread counts, written to
// BENCH_throughput.json via --json-out. bench_latency prints the full
// 1/2/4/8 paper table; this binary exists so the perf job can harvest a
// machine-readable snapshot without paying for the whole latency sheet.
//
// Schema notes (DESIGN.md section 13): the 1-thread rate is gated
// (calibration-normalized); the 8-thread rate and scaling factor depend
// on the runner's core count, so they ride in the noisy allowlist.

#include <cstdio>
#include <set>
#include <string>

#include "bench/bench_common.h"
#include "bench/perf_report.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"
#include "eval/parallel_eval.h"
#include "serve/load_gen.h"
#include "tools/campaign.h"

namespace codes {
namespace {

/// Goodput under perturbation: the `codes_load --adv --smoke` campaign
/// (campaign::AdvSmokeOptions) against its clean twin — identical seed and
/// arrival schedule, 30% of requests mutated by the online question
/// perturbations before dispatch.
/// Both goodput numbers are virtual-time DES results, pure functions of
/// (seed, options), so they gate as exact metrics rather than noisy ones;
/// the retention ratio rides in the noisy list only because plain _pct
/// keys classify as lower-is-better raw values.
void AdversarialGoodputSection(const Text2SqlBenchmark& bench,
                               const CodesPipeline& pipeline,
                               bench::PerfReport* report) {
  bench::Banner("Goodput under perturbation (codes_load --adv)");

  serve::LoadGenOptions adv = campaign::AdvSmokeOptions();
  serve::LoadGenOptions clean = adv;
  clean.adv_rate = 0.0;

  serve::LoadReport clean_report =
      serve::RunLoadCampaign(pipeline, bench, clean);
  serve::LoadReport adv_report = serve::RunLoadCampaign(pipeline, bench, adv);

  double clean_goodput = clean_report.VerifiedGoodputQps();
  double adv_goodput = adv_report.VerifiedGoodputQps();
  double retention_pct =
      clean_goodput > 0.0 ? 100.0 * adv_goodput / clean_goodput : 100.0;

  bench::TablePrinter table({10, 10, 10, 10, 12, 14});
  table.Row({"traffic", "offered", "mutated", "suspect", "verified<dl",
             "goodput qps"});
  table.Separator();
  table.Row({"clean", std::to_string(clean_report.offered),
             std::to_string(clean_report.adv_offered),
             std::to_string(clean_report.suspect),
             std::to_string(clean_report.verified_within_deadline),
             FormatDouble(clean_goodput, 1)});
  table.Row({"adv 30%", std::to_string(adv_report.offered),
             std::to_string(adv_report.adv_offered),
             std::to_string(adv_report.suspect),
             std::to_string(adv_report.verified_within_deadline),
             FormatDouble(adv_goodput, 1)});
  std::printf(
      "\ngoodput retention under 30%% perturbation: %.1f%% "
      "(budget: >= 80%%)\ncanonical retries spent: %llu, rescued: %llu; "
      "suspects enter pre-degraded at brownout level 2, which is why "
      "retention can exceed 100%%.\n",
      retention_pct,
      static_cast<unsigned long long>(adv_report.canonical_retries),
      static_cast<unsigned long long>(adv_report.canonical_served));
  CODES_CHECK(adv_report.adv_offered > 0);
  CODES_CHECK(adv_report.suspect > 0);
  CODES_CHECK(adv_goodput >= 0.8 * clean_goodput);

  report->Add("clean_verified_goodput_qps", clean_goodput);
  report->Add("adv_verified_goodput_qps", adv_goodput);
  report->AddNoisy("adv_goodput_retention_pct", retention_pct);
}

void Run(bench::PerfReport* report, bool quick) {
  bench::Banner("Throughput: parallel batched evaluation (7B SFT)");
  std::printf("hardware threads: %d\n", ThreadPool::ResolveThreadCount(0));

  auto spider = BuildSpiderLike();
  LmZoo zoo;
  PipelineConfig config;
  config.size = ModelSize::k7B;
  CodesPipeline pipeline(config, zoo.CodesFor(config.size));
  pipeline.TrainClassifier(spider);
  pipeline.FineTune(spider);

  // Warm the per-database retriever cache so both thread counts measure
  // inference, not index construction.
  std::set<int> warmed;
  for (const auto& sample : spider.dev) {
    if (warmed.insert(sample.db_index).second) {
      (void)pipeline.BuildPrompt(spider, sample);
    }
  }

  const int samples = quick ? 80 : 200;
  bench::TablePrinter table({10, 12, 12, 10, 8});
  table.Row({"threads", "seconds", "queries/s", "speedup", "EX%"});
  table.Separator();
  double qps_1t = 0.0;
  double qps_8t = 0.0;
  double ex_1t = 0.0;
  for (int threads : {1, 8}) {
    EvalOptions options;
    options.num_threads = threads;
    options.max_samples = samples;
    Timer timer;
    EvalResult result =
        ParallelEvaluateDevSet(spider, pipeline.PredictorFor(spider), options);
    double seconds = timer.ElapsedSeconds();
    double qps = result.metrics.n / seconds;
    if (threads == 1) {
      qps_1t = qps;
      ex_1t = result.metrics.ex;
    } else {
      qps_8t = qps;
      // The determinism contract: sharding must not move accuracy.
      CODES_CHECK(result.metrics.ex == ex_1t);
    }
    table.Row({std::to_string(threads), FormatDouble(seconds, 2),
               FormatDouble(qps, 1),
               FormatDouble(qps / qps_1t, 2) + "x", bench::Pct(result.metrics.ex)});
  }
  std::printf(
      "\nEX%% is asserted identical across thread counts: the driver "
      "shards deterministically and merges in sample order.\n");

  report->Add("eval_qps_1t_per_sec", qps_1t);
  report->AddNoisy("eval_qps_8t_per_sec", qps_8t);
  report->AddNoisy("eval_scaling_8t_speedup_x", qps_8t / qps_1t);
  report->Add("eval_ex_pct", ex_1t);

  AdversarialGoodputSection(spider, pipeline, report);
}

}  // namespace
}  // namespace codes

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_out;
  codes::FlagSet flags("bench_throughput");
  flags.Bool("--quick", &quick);
  flags.Path("--json-out", &json_out);
  if (int rc = flags.Parse(argc, argv)) return rc;
  codes::bench::PerfReport report("throughput", quick ? "quick" : "full");
  report.SetCalibration(codes::bench::CalibrateOpsPerSec());
  codes::Run(&report, quick);
  return codes::WriteSnapshot(json_out, report.ToJson(), "bench report") ? 0
                                                                         : 1;
}
