// Reproduces Section 9.7 (latency/deployment) and prints the Table 1
// architecture sheet: per-sample inference latency by model scale, plus
// the capacity profiles standing in for the transformer hyper-parameters.
// It is also the one perf-gate harness: every metric of BENCH_latency.json
// (hot-path and storage ratios, eval queries/sec at 1 and 8 threads,
// campaign goodput, the overhead trials) comes from this binary, and every
// pipeline section runs on one trained 7B fixture.
//
// Paper shape to reproduce: latency grows with scale but stays far below
// API-based systems (DIN-SQL + GPT-4 at ~60 s/sample); the ratio between
// 15B and 1B is modest (~2.5x).

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/perf_report.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"
#include "eval/parallel_eval.h"
#include "index/bm25_index.h"
#include "index/bm25_reference.h"
#include "lm/ngram_lm.h"
#include "lm/ngram_reference.h"
#include "serve/front_end.h"
#include "serve/load_gen.h"
#include "sqlengine/database.h"
#include "sqlengine/executor.h"
#include "sqlengine/parser.h"
#include "storage/crash_sim.h"
#include "storage/storage_db.h"
#include "text/similarity.h"
#include "tools/campaign.h"

namespace codes {
namespace {

/// Fastest of `reps` timings (seconds) of `fn`: scheduler noise only ever
/// adds time, so the least-interrupted run best estimates the code's cost.
template <typename Fn>
double BestOf(Fn&& fn, int reps) {
  double best = fn();
  for (int r = 1; r < reps; ++r) best = std::min(best, fn());
  return best;
}

/// Calls `fn` on `queries` dev samples, cycling through the dev set.
template <typename Fn>
void ForEachQuery(const Text2SqlBenchmark& bench, int queries, Fn&& fn) {
  for (int n = 0; n < queries; ++n) fn(bench.dev[n % bench.dev.size()]);
}

/// Hot-path before/after: each speed-campaign rewrite raced against the
/// pinned reference implementation it replaced, on identical workloads,
/// inside one binary (so compiler/flags/machine cancel out). The
/// equivalence suite (tests/speed_equivalence_test.cc) guarantees both
/// sides return byte-identical results; this section reports what the
/// rewrite bought. Speedups land in BENCH_latency.json as gated metrics.
void HotPathSection(bench::PerfReport* report, bool quick) {
  bench::Banner("Hot paths: pinned reference vs speed-campaign rewrite");

  const int scale = quick ? 1 : 4;
  bench::TablePrinter table({26, 14, 14, 10});
  table.Row({"hot path", "before us/op", "after us/op", "speedup"});
  table.Separator();

  // --- Longest common substring (value retriever fine-ranking) ---------
  {
    std::mt19937 rng(20260808);
    const std::string alphabet =
        "abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    std::uniform_int_distribution<size_t> len(20, 120);
    std::uniform_int_distribution<size_t> chr(0, alphabet.size() - 1);
    std::vector<std::pair<std::string, std::string>> pairs;
    for (int i = 0; i < 400 * scale; ++i) {
      std::string a, b;
      for (size_t j = len(rng); j > 0; --j) a.push_back(alphabet[chr(rng)]);
      for (size_t j = len(rng); j > 0; --j) b.push_back(alphabet[chr(rng)]);
      pairs.emplace_back(std::move(a), std::move(b));
    }
    long long sink = 0;
    auto run_ref = [&] {
      Timer timer;
      for (const auto& [a, b] : pairs) {
        sink += LongestCommonSubstringLengthReferenceDp(a, b);
      }
      return timer.ElapsedSeconds();
    };
    auto run_new = [&] {
      Timer timer;
      for (const auto& [a, b] : pairs) {
        sink += LongestCommonSubstringLength(a, b);
      }
      return timer.ElapsedSeconds();
    };
    double before_us = 1e6 * BestOf(run_ref, 3) / pairs.size();
    double after_us = 1e6 * BestOf(run_new, 3) / pairs.size();
    if (sink == 42) std::printf(" ");  // keep the loops observable
    table.Row({"lcs (string pair)", FormatDouble(before_us, 3),
               FormatDouble(after_us, 3),
               FormatDouble(before_us / after_us, 2) + "x"});
    report->Add("hotpath_lcs_before_us", before_us);
    report->Add("hotpath_lcs_after_us", after_us);
    report->Add("hotpath_lcs_speedup_x", before_us / after_us);
  }

  // --- BM25 query (value retriever coarse stage) -----------------------
  {
    std::mt19937 rng(7);
    static const char* kWords[] = {
        "Jesenik", "Prague",  "branch",  "office", "Sarah",    "Martinez",
        "road",    "losses",  "castle",  "client", "account",  "2019",
        "total",   "north",   "station", "premium","Ostrava",  "wine",
        "exporter","district","arena",   "velvet", "capacity", "stadium"};
    std::uniform_int_distribution<int> nwords(1, 5);
    std::uniform_int_distribution<size_t> word(0, std::size(kWords) - 1);
    Bm25Index fast;
    ReferenceBm25Index ref;
    for (int d = 0; d < 1500 * scale; ++d) {
      std::string doc;
      for (int w = nwords(rng); w > 0; --w) {
        if (!doc.empty()) doc += ' ';
        doc += kWords[word(rng)];
      }
      fast.AddDocument(doc);
      ref.AddDocument(doc);
    }
    fast.Finalize();
    ref.Finalize();
    std::vector<std::string> queries;
    for (int q = 0; q < 300 * scale; ++q) {
      std::string query;
      for (int w = 0; w < 4; ++w) {
        if (!query.empty()) query += ' ';
        query += kWords[word(rng)];
      }
      queries.push_back(std::move(query));
    }
    size_t sink = 0;
    auto run_ref = [&] {
      Timer timer;
      for (const auto& q : queries) sink += ref.Query(q, 10).size();
      return timer.ElapsedSeconds();
    };
    auto run_new = [&] {
      Timer timer;
      for (const auto& q : queries) sink += fast.Query(q, 10).size();
      return timer.ElapsedSeconds();
    };
    double before_us = 1e6 * BestOf(run_ref, 3) / queries.size();
    double after_us = 1e6 * BestOf(run_new, 3) / queries.size();
    if (sink == 42) std::printf(" ");
    table.Row({"bm25 query (top-10)", FormatDouble(before_us, 3),
               FormatDouble(after_us, 3),
               FormatDouble(before_us / after_us, 2) + "x"});
    report->Add("hotpath_bm25_before_us", before_us);
    report->Add("hotpath_bm25_after_us", after_us);
    report->Add("hotpath_bm25_speedup_x", before_us / after_us);
  }

  // --- N-gram scoring (generation-time candidate ranking) --------------
  {
    std::vector<std::string> corpus;
    static const char* kFragments[] = {
        "SELECT name FROM singer WHERE age > 20",
        "SELECT count(*) FROM concert WHERE year = 2014",
        "SELECT T1.name FROM singer AS T1 JOIN concert AS T2 ON T1.id = "
        "T2.singer_id",
        "SELECT avg(age), min(age), max(age) FROM singer",
        "SELECT stadium_id, count(*) FROM concert GROUP BY stadium_id "
        "ORDER BY count(*) DESC",
        "SELECT DISTINCT country FROM singer WHERE age > 20"};
    for (int i = 0; i < 40 * scale; ++i) {
      corpus.push_back(kFragments[i % std::size(kFragments)] +
                       std::string(" -- v") + std::to_string(i));
    }
    NgramLm fast(5);
    ReferenceNgramLm ref(5);
    fast.Train(corpus);
    ref.Train(corpus);
    double sink = 0;
    auto run_ref = [&] {
      Timer timer;
      for (const auto& doc : corpus) sink += ref.AvgLogProb(doc);
      return timer.ElapsedSeconds();
    };
    auto run_new = [&] {
      Timer timer;
      for (const auto& doc : corpus) sink += fast.AvgLogProb(doc);
      return timer.ElapsedSeconds();
    };
    double before_us = 1e6 * BestOf(run_ref, 3) / corpus.size();
    double after_us = 1e6 * BestOf(run_new, 3) / corpus.size();
    if (sink == 42.0) std::printf(" ");
    table.Row({"ngram AvgLogProb (doc)", FormatDouble(before_us, 3),
               FormatDouble(after_us, 3),
               FormatDouble(before_us / after_us, 2) + "x"});
    report->Add("hotpath_ngram_before_us", before_us);
    report->Add("hotpath_ngram_after_us", after_us);
    report->Add("hotpath_ngram_speedup_x", before_us / after_us);
  }

  std::printf(
      "\nboth columns run in this binary on identical workloads; the "
      "equivalence suite pins byte-identical outputs, so the ratio is a "
      "pure data-structure win.\n");
}

/// Index-scan vs sequential-scan access path on the disk-backed storage
/// engine: the SAME StorageDb, the SAME parsed statements, with only the
/// index knob toggled — so the ratio isolates what the B+ tree access path
/// buys on a selective predicate over 100k rows. The differential suite
/// pins both paths byte-identical; this section reports the speed.
void StorageAccessPathSection(bench::PerfReport* report, bool quick) {
  bench::Banner(
      "Storage access paths: index scan vs sequential scan (100k rows)");

  // Row count is identical in both profiles: the gated metric is a ratio,
  // and shrinking the table would change the claim, not just the runtime.
  constexpr int kRows = 100'000;
  sql::DatabaseSchema schema;
  schema.name = "bench_storage";
  sql::TableDef items;
  items.name = "items";
  items.columns = {
      {"id", sql::DataType::kInteger, "row id", true},
      {"grp", sql::DataType::kInteger, "bucket", false},
      {"payload", sql::DataType::kText, "ballast", false},
  };
  schema.tables = {items};
  sql::Database db(std::move(schema));
  for (int i = 0; i < kRows; ++i) {
    CODES_CHECK(db.Insert("items",
                          {sql::Value(static_cast<int64_t>(i)),
                           sql::Value(static_cast<int64_t>(i % 997)),
                           sql::Value("payload-" + std::to_string(i))})
                    .ok());
  }
  auto built = storage::StorageDb::CreateInMemoryFrom(db, /*pool_frames=*/256);
  CODES_CHECK(built.ok());
  storage::StorageDb& sdb = **built;

  // Pre-bound selective range probes (50 of 100k rows each, well under
  // the planner's selectivity cutoff), spread across the key space so no
  // single hot leaf serves every query.
  std::vector<sql::BoundStatement> stmts;
  for (int q = 0; q < 16; ++q) {
    int lo = (q * 6151) % (kRows - 60);
    auto parsed = sql::ParseSql(
        "SELECT payload FROM items WHERE id BETWEEN " + std::to_string(lo) +
        " AND " + std::to_string(lo + 49));
    CODES_CHECK(parsed.ok());
    stmts.push_back(sql::Bind(std::move(*parsed), sdb.schema()));
  }
  const int reps = quick ? 2 : 6;
  size_t result_rows = 0;
  auto run_paths = [&](bool indexed) {
    sdb.set_index_scans_enabled(indexed);
    Timer timer;
    for (int r = 0; r < reps; ++r) {
      for (const auto& stmt : stmts) {
        auto result = sql::Execute(sdb, stmt);
        CODES_CHECK(result.ok());
        result_rows += result->NumRows();
      }
    }
    return timer.ElapsedSeconds();
  };

  // Confirm the planner actually takes the index path when allowed — a
  // silent fallback to seq scan would turn this section into noise.
  MetricsRegistry::SetEnabled(true);
  MetricsRegistry::Global().Reset();
  (void)run_paths(true);
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  CODES_CHECK(snap.counters["storage.path.index_scan"] > 0);

  const int timing_reps = 3;
  double seq_seconds = BestOf([&] { return run_paths(false); }, timing_reps);
  double idx_seconds = BestOf([&] { return run_paths(true); }, timing_reps);
  const double per_query = static_cast<double>(reps) * stmts.size();
  double seq_us = 1e6 * seq_seconds / per_query;
  double idx_us = 1e6 * idx_seconds / per_query;
  if (result_rows == 0) std::printf(" ");  // keep the loops observable

  bench::TablePrinter table({26, 14, 14});
  table.Row({"access path", "us / query", "rows touched"});
  table.Separator();
  table.Row({"sequential scan", FormatDouble(seq_us, 1),
             std::to_string(kRows)});
  table.Row({"B+ tree index scan", FormatDouble(idx_us, 1), "~50"});
  std::printf("\nindex-path speedup: %.1fx (gate: >= 5x; both paths return "
              "byte-identical rows)\n",
              seq_us / idx_us);
  // Absolute per-query times depend on machine memory speed: noisy. The
  // ratio is the architectural claim and gates.
  report->AddNoisy("storage_seq_scan_us", seq_us);
  report->AddNoisy("storage_index_scan_us", idx_us);
  report->Add("storage_index_speedup_x", seq_us / idx_us);
}

/// Durability cost of the crash-safety layer (DESIGN.md section 15): what
/// WAL page-image logging plus the commit-marker group flush add to a
/// mutation batch, against the same staging with plain write-back and no
/// log. Both sides run on in-memory SimFiles, so the numbers isolate
/// the CPU/write-amplification cost of the logging protocol itself — real
/// device sync latency is workload- and hardware-specific and is NOT
/// measured here. A recovery row reports redo-replay time over the full
/// un-checkpointed log. All absolute times and the ratio are noisy (tiny
/// batches, allocator-sensitive); the section exists to keep the overhead
/// visible in every snapshot, not to gate it.
void DurabilitySection(bench::PerfReport* report, bool quick) {
  bench::Banner("Durability: WAL commit overhead and recovery replay");

  sql::DatabaseSchema schema;
  schema.name = "bench_durability";
  sql::TableDef events;
  events.name = "events";
  events.columns = {
      {"id", sql::DataType::kInteger, "row id", true},
      {"grp", sql::DataType::kInteger, "bucket", false},
      {"payload", sql::DataType::kText, "ballast", false},
  };
  schema.tables = {events};
  sql::Database db(std::move(schema));
  constexpr int kInitialRows = 512;
  for (int i = 0; i < kInitialRows; ++i) {
    CODES_CHECK(db.Insert("events",
                          {sql::Value(static_cast<int64_t>(i)),
                           sql::Value(static_cast<int64_t>(i % 53)),
                           sql::Value("seed-" + std::to_string(i))})
                    .ok());
  }

  const int batches = quick ? 32 : 96;
  constexpr int kRowsPerBatch = 16;
  auto batch_rows = [&](int b) {
    std::vector<sql::Row> rows;
    rows.reserve(kRowsPerBatch);
    for (int r = 0; r < kRowsPerBatch; ++r) {
      int64_t id = kInitialRows + int64_t{b} * kRowsPerBatch + r;
      rows.push_back({sql::Value(id), sql::Value(id % 53),
                      sql::Value("row-" + std::to_string(id))});
    }
    return rows;
  };

  // WAL path: stage, log page images, group-flush. No checkpoints, so the
  // log holds every batch and the reopen below replays all of them.
  storage::SimEnv env;
  const storage::StorageFiles files{env.GetFile("bench.db"),
                                    env.GetFile("bench.db.wal")};
  auto wal_built = storage::StorageDb::Create(db, files, /*pool_frames=*/256);
  CODES_CHECK(wal_built.ok());
  Timer wal_timer;
  for (int b = 0; b < batches; ++b) {
    CODES_CHECK((*wal_built)->AppendRows(0, batch_rows(b)).ok());
    CODES_CHECK((*wal_built)->CommitBatch().ok());
  }
  double wal_us = 1e6 * wal_timer.ElapsedSeconds() / batches;
  wal_built->reset();  // close the database before the recovery reopen

  // Baseline: identical staging, plain write-back, no logging. Flush() is
  // the closest durability stand-in the no-WAL engine has.
  auto raw_built = storage::StorageDb::CreateInMemoryFrom(
      db, /*pool_frames=*/256);
  CODES_CHECK(raw_built.ok());
  Timer raw_timer;
  for (int b = 0; b < batches; ++b) {
    CODES_CHECK((*raw_built)->AppendRows(0, batch_rows(b)).ok());
    CODES_CHECK((*raw_built)->Flush().ok());
  }
  double raw_us = 1e6 * raw_timer.ElapsedSeconds() / batches;

  // Clean reopen of the WAL-path database: redo recovery replays every
  // batch's page images (nothing was checkpointed) and re-checkpoints.
  Timer recover_timer;
  auto reopened = storage::StorageDb::Open(files, /*pool_frames=*/256);
  double recover_us = 1e6 * recover_timer.ElapsedSeconds();
  CODES_CHECK(reopened.ok());
  CODES_CHECK((*reopened)->SourceRowCount(0) ==
              static_cast<size_t>(kInitialRows + batches * kRowsPerBatch));

  double overhead_pct = 100.0 * (wal_us - raw_us) / raw_us;
  bench::TablePrinter table({34, 14});
  table.Row({"commit path", "us / batch"});
  table.Separator();
  table.Row({"write-back, no log", FormatDouble(raw_us, 1)});
  table.Row({"WAL log + commit flush", FormatDouble(wal_us, 1)});
  std::printf("\nWAL overhead: %+.1f%% per committed batch (%d batches of "
              "%d rows)\nredo recovery: %.0f us to replay the full "
              "un-checkpointed log\n",
              overhead_pct, batches, kRowsPerBatch, recover_us);
  report->AddNoisy("durability_commit_wal_us", wal_us);
  report->AddNoisy("durability_commit_nowal_us", raw_us);
  report->AddNoisy("durability_wal_overhead_pct", overhead_pct);
  report->AddNoisy("durability_recovery_replay_us", recover_us);
}

/// Where a guarded request spends its time: runs `queries` predictions
/// with a zeroed registry and prints every pipeline stage span with its
/// histogram percentiles and share of the root span's total. The share
/// column is the paper's Section 9.7 claim made measurable — schema
/// filtering and value retrieval should be small next to generation.
void StageAttributionSection(const Text2SqlBenchmark& bench,
                             const CodesPipeline& pipeline, int queries,
                             bench::PerfReport* report) {
  bench::Banner("Stage attribution: where a guarded request spends time");

  ServeOptions options;
  options.limits.max_rows = 20000;

  MetricsRegistry::SetEnabled(true);
  MetricsRegistry::Global().Reset();
  ForEachQuery(bench, queries, [&](const Text2SqlSample& sample) {
    (void)pipeline.PredictGuarded(bench, sample, options);
  });
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();

  auto total_it = snapshot.histograms.find("span.pipeline.predict");
  double total_us = total_it != snapshot.histograms.end()
                        ? static_cast<double>(total_it->second.sum_us)
                        : 0.0;

  bench::TablePrinter table({28, 8, 10, 10, 10, 8});
  table.Row({"stage span", "count", "p50 us", "p95 us", "p99 us", "share"});
  table.Separator();
  for (const auto& [name, h] : snapshot.histograms) {
    constexpr std::string_view kPrefix = "span.";
    if (name.rfind(kPrefix, 0) != 0) continue;
    double share =
        total_us > 0.0 ? 100.0 * static_cast<double>(h.sum_us) / total_us : 0.0;
    table.Row({name.substr(kPrefix.size()), std::to_string(h.count),
               FormatDouble(h.p50_us, 0), FormatDouble(h.p95_us, 0),
               FormatDouble(h.p99_us, 0), bench::Pct(share) + "%"});
  }
  std::printf(
      "\npercentiles are histogram bucket upper bounds (2x resolution); "
      "share is the span's summed time over the root pipeline.predict "
      "span's. Nested spans (bm25.lookup inside value_retrieval) overlap "
      "their parents, so shares do not sum to 100%%.\n");

  // Fixed stage list for the JSON schema: the key set must not depend on
  // which spans happened to fire, so absent spans report 0. Percentiles
  // are histogram bucket upper bounds (2x resolution), so a hair of drift
  // can double the reported value — noisy, never gated.
  const std::pair<const char*, const char*> kStages[] = {
      {"span.pipeline.predict", "stage_predict"},
      {"span.pipeline.value_retrieval", "stage_value_retrieval"},
      {"span.bm25.lookup", "stage_bm25_lookup"},
  };
  for (const auto& [span, key] : kStages) {
    auto it = snapshot.histograms.find(span);
    double p50 = it != snapshot.histograms.end() ? it->second.p50_us : 0.0;
    double p95 = it != snapshot.histograms.end() ? it->second.p95_us : 0.0;
    report->AddNoisy(std::string(key) + "_p50_us", p50);
    report->AddNoisy(std::string(key) + "_p95_us", p95);
  }
}

/// Per-request latency distribution with every failpoint armed at 1%:
/// the repair loop and fallback rungs should fatten the tail, not the
/// median.
void ChaosTailLatencySection(const Text2SqlBenchmark& bench,
                             const CodesPipeline& pipeline, int queries) {
  bench::Banner("Tail latency under 1% fault injection (7B SFT)");

  ServeOptions options;
  options.limits.max_rows = 20000;

  auto percentile = [](std::vector<double>& ms, double p) {
    size_t idx = static_cast<size_t>(p * (ms.size() - 1));
    return ms[idx];
  };
  bench::TablePrinter table({16, 10, 10, 10, 10});
  table.Row({"faults", "p50 ms", "p95 ms", "p99 ms", "max ms"});
  table.Separator();
  for (bool inject : {false, true}) {
    if (inject) {
      CODES_CHECK(Failpoints::Configure("*=prob:0.01", 7).ok());
    }
    std::vector<double> ms;
    ms.reserve(queries);
    ForEachQuery(bench, queries, [&](const Text2SqlSample& sample) {
      Timer timer;
      (void)pipeline.PredictGuarded(bench, sample, options);
      ms.push_back(1000.0 * timer.ElapsedSeconds());
    });
    std::sort(ms.begin(), ms.end());
    table.Row({inject ? "*=prob:0.01" : "none",
               FormatDouble(percentile(ms, 0.50), 2),
               FormatDouble(percentile(ms, 0.95), 2),
               FormatDouble(percentile(ms, 0.99), 2),
               FormatDouble(ms.back(), 2)});
  }
  Failpoints::Clear();
  std::printf(
      "\nfaulted requests pay for fallback prompt rebuilds and repair "
      "re-executions; the clean median must not move.\n");
}

/// Goodput as offered load sweeps past saturation: open-loop virtual-time
/// campaigns through the serving front end at several multiples of the
/// level-0 capacity. An unprotected open-loop server collapses past 1x
/// (every request eventually misses its deadline inside an unbounded
/// backlog); with admission control, deadline shedding, and brownout the
/// goodput curve must stay flat instead — the 2x point is required to
/// hold >= 90% of the best goodput seen at or below it. The table also
/// records the shed/reject
/// rate and where served requests landed on the brownout ladder.
void OverloadGoodputSection(const Text2SqlBenchmark& bench,
                            const CodesPipeline& pipeline) {
  bench::Banner("Overload goodput: offered load vs served-in-deadline");

  serve::LoadGenOptions base;
  base.seed = 20240806;
  base.num_requests = 600;
  base.virtual_workers = 4;
  base.service_base_us = 20'000;  // level-0 capacity: 4 / 20 ms = 200 qps
  base.deadline_us = 200'000;
  base.threads = 4;
  const double capacity_qps = 1e6 * base.virtual_workers /
                              static_cast<double>(base.service_base_us);
  std::printf("level-0 capacity: %.0f qps (%d virtual workers x %.0f ms)\n",
              capacity_qps, base.virtual_workers,
              base.service_base_us / 1000.0);

  bench::TablePrinter table({10, 10, 10, 10, 8, 10, 20});
  table.Row({"offered", "goodput", "shed+rej%", "late%", "deg", "rec",
             "served L0..L4"});
  table.Separator();
  double peak_goodput = 0.0;
  double goodput_at_2x = 0.0;
  for (double mult : {0.5, 1.0, 1.5, 2.0, 3.0}) {
    serve::LoadGenOptions options = base;
    options.offered_qps = capacity_qps * mult;
    serve::LoadReport report = serve::RunLoadCampaign(pipeline, bench, options);
    double goodput = report.GoodputQps();
    // Peak over offered <= 2x: the asserted point must not sit in a
    // collapse relative to anything before it. (Brownout keeps goodput
    // *rising* past 2x — served requests get cheaper — so the 3x row is
    // informational, not part of the budget.)
    if (mult <= 2.0) peak_goodput = std::max(peak_goodput, goodput);
    if (mult == 2.0) goodput_at_2x = goodput;
    uint64_t dropped = report.rejected_rate + report.rejected_queue_full +
                       report.shed_deadline + report.shed_drain;
    std::string levels;
    for (int level = 0; level < kNumBrownoutLevels; ++level) {
      if (level > 0) levels += "/";
      levels += std::to_string(report.served_at_level[level]);
    }
    table.Row({FormatDouble(options.offered_qps, 0), FormatDouble(goodput, 1),
               bench::Pct(static_cast<double>(dropped) / report.offered) + "%",
               bench::Pct(static_cast<double>(report.served_late) /
                          report.offered) +
                   "%",
               std::to_string(report.brownout_degrades),
               std::to_string(report.brownout_recoveries), levels});
  }
  double retained = 100.0 * goodput_at_2x / peak_goodput;
  std::printf(
      "\ngoodput at 2x saturation: %.1f qps = %.1f%% of the peak over "
      "offered <= 2x (budget: >= 90%%)\n"
      "past 1x the queue saturates, deadline shedding discards doomed "
      "requests before they cost pipeline time, and brownout moves served "
      "traffic to cheaper richness levels.\n",
      goodput_at_2x, retained);
  CODES_CHECK(retained >= 90.0);
}


/// Goodput under perturbation: the `codes_load --adv --smoke` campaign
/// (campaign::AdvSmokeOptions) against its clean twin — identical seed and
/// arrival schedule, 30% of requests mutated by the online question
/// perturbations before dispatch. Both goodputs are virtual-time DES
/// results, pure functions of (seed, options), so their `_des_qps` keys
/// gate as exact values with no machine-speed rescaling; the retention
/// ratio is noisy only because plain `_pct` keys classify as
/// lower-is-better.
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
  auto row = [&table](const char* traffic, const serve::LoadReport& r) {
    table.Row({traffic, std::to_string(r.offered),
               std::to_string(r.adv_offered), std::to_string(r.suspect),
               std::to_string(r.verified_within_deadline),
               FormatDouble(r.VerifiedGoodputQps(), 1)});
  };
  row("clean", clean_report);
  row("adv 30%", adv_report);
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

  report->Add("clean_verified_goodput_des_qps", clean_goodput);
  report->Add("adv_verified_goodput_des_qps", adv_goodput);
  report->AddNoisy("adv_goodput_retention_pct", retention_pct);
}

/// Queries/sec of the parallel batched evaluator at 1 and 8 threads, with
/// EX asserted identical across thread counts: the driver shards
/// deterministically and merges in sample order. The 1-thread rate gates
/// (calibration-normalized); the 8-thread rate and the scaling factor
/// depend on the runner's core count, so they are noisy.
void EvalThroughputSection(const Text2SqlBenchmark& bench,
                           const CodesPipeline& pipeline, int samples,
                           bench::PerfReport* report) {
  bench::Banner("Throughput: parallel batched evaluation (7B SFT)");
  std::printf("hardware threads: %d\n", ThreadPool::ResolveThreadCount(0));

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
        ParallelEvaluateDevSet(bench, pipeline.PredictorFor(bench), options);
    double seconds = timer.ElapsedSeconds();
    double qps = result.metrics.n / seconds;
    if (threads == 1) {
      qps_1t = qps;
      ex_1t = result.metrics.ex;
    } else {
      qps_8t = qps;
      CODES_CHECK(result.metrics.ex == ex_1t);
    }
    table.Row({std::to_string(threads), FormatDouble(seconds, 2),
               FormatDouble(qps, 1), FormatDouble(qps / qps_1t, 2) + "x",
               bench::Pct(result.metrics.ex)});
  }
  std::printf("\nEX%% is asserted identical across thread counts.\n");

  report->Add("eval_qps_1t_per_sec", qps_1t);
  report->AddNoisy("eval_qps_8t_per_sec", qps_8t);
  report->AddNoisy("eval_scaling_8t_speedup_x", qps_8t / qps_1t);
  report->Add("eval_ex_pct", ex_1t);
}

/// One side of an overhead trial: its table label and the per-request call.
struct TrialArm {
  std::string label;
  std::function<void(const Text2SqlSample&)> serve;
};

/// The one method behind every "<name> overhead" figure: the same
/// `queries`-request loop through a base arm and a variant arm. Each arm
/// runs once to warm up; then kReps repetitions alternate which arm goes
/// first, and the fastest run of each arm is kept, so neither warm-up nor
/// drift during the trial favours one side. Prints the two-row table and
/// the overhead, reports `<name>_overhead_pct` (a difference of two noisy
/// wall-clock minima: reported, never gated) and returns the base arm's
/// best seconds.
double OverheadTrial(const Text2SqlBenchmark& bench, int queries,
                     const std::string& name, const TrialArm& base,
                     const TrialArm& variant, bench::PerfReport* report) {
  constexpr int kReps = 5;
  auto run = [&](const TrialArm& arm) {
    Timer timer;
    ForEachQuery(bench, queries, arm.serve);
    return timer.ElapsedSeconds();
  };
  (void)run(base);
  (void)run(variant);
  double best_base = std::numeric_limits<double>::infinity();
  double best_variant = best_base;
  for (int rep = 0; rep < kReps; ++rep) {
    if (rep % 2 == 0) {
      best_base = std::min(best_base, run(base));
      best_variant = std::min(best_variant, run(variant));
    } else {
      best_variant = std::min(best_variant, run(variant));
      best_base = std::min(best_base, run(base));
    }
  }
  double overhead_pct = 100.0 * (best_variant - best_base) / best_base;

  bench::TablePrinter table({24, 12, 14});
  table.Row({"path", "seconds", "ms / sample"});
  table.Separator();
  table.Row({base.label, FormatDouble(best_base, 3),
             FormatDouble(1000.0 * best_base / queries, 3)});
  table.Row({variant.label, FormatDouble(best_variant, 3),
             FormatDouble(1000.0 * best_variant / queries, 3)});
  std::printf("\n%s overhead: %+.2f%% (budget: <= 2%%)\n", name.c_str(),
              overhead_pct);
  report->AddNoisy(name + "_overhead_pct", overhead_pct);
  return best_base;
}

/// What each protection layer costs a request that trips nothing, each as
/// one OverheadTrial. The budget is <= 2% for every layer; at this query
/// count the trials' run-to-run spread is wider than that, so the figures
/// are reported, not gated.
void OverheadTrialsSection(const Text2SqlBenchmark& bench,
                           const CodesPipeline& pipeline, int queries,
                           bench::PerfReport* report) {
  // Guards: unguarded Predict vs PredictGuarded with an *active* guard
  // (generous budgets and a never-cancelled token, so every check runs but
  // nothing trips). The base arm is also the gated per-sample latency.
  bench::Banner("Guard overhead: Predict vs guarded serving (7B SFT)");
  ServeOptions guarded;
  guarded.limits.max_rows = 50'000'000;
  guarded.limits.max_bytes = static_cast<size_t>(1) << 40;
  guarded.limits.max_depth = 64;
  CancelToken token;
  guarded.cancel = &token;
  double predict_seconds = OverheadTrial(
      bench, queries, "guard",
      {"Predict (no guard)",
       [&](const Text2SqlSample& s) { (void)pipeline.Predict(bench, s); }},
      {"PredictGuarded",
       [&](const Text2SqlSample& s) {
         (void)pipeline.PredictGuarded(bench, s, guarded);
       }},
      report);
  report->Add("predict_us_per_sample", 1e6 * predict_seconds / queries);

  // Observability: the same guarded loop with the metrics switch off
  // (spans skip clock reads and histogram writes) vs on.
  bench::Banner("Instrumentation overhead: metrics off vs on (7B SFT)");
  ServeOptions options;
  options.limits.max_rows = 20000;
  auto predict_with_metrics = [&](bool enabled) {
    return [&, enabled](const Text2SqlSample& s) {
      MetricsRegistry::SetEnabled(enabled);
      (void)pipeline.PredictGuarded(bench, s, options);
    };
  };
  OverheadTrial(bench, queries, "instrumentation",
                {"metrics disabled", predict_with_metrics(false)},
                {"metrics enabled", predict_with_metrics(true)}, report);
  MetricsRegistry::SetEnabled(true);

  // Admission: PredictGuarded called directly vs through
  // ServeFrontEnd::Serve with every protection active but nothing tripping
  // (no rate limit, a near-empty queue so brownout stays at level 0, a
  // breaker threshold the failure ratio cannot reach). The difference is
  // admission bookkeeping: token bucket, breaker, brownout, serve.* metrics.
  bench::Banner("Admission overhead: PredictGuarded vs front-end Serve");
  serve::FrontEndOptions fe;
  fe.limits = guarded.limits;
  fe.admission.queue_capacity = 4096;
  fe.breaker.failure_threshold = 1.1;
  fe.harden = false;
  serve::ServeFrontEnd unhardened(&pipeline, &bench, fe);
  fe.harden = true;
  serve::ServeFrontEnd hardened(&pipeline, &bench, fe);
  ServeOptions direct;
  direct.limits = fe.limits;
  auto serve_through = [](serve::ServeFrontEnd& front_end) {
    return [&front_end](const Text2SqlSample& s) {
      std::string sql;
      (void)front_end.Serve(s, &sql);
    };
  };
  OverheadTrial(bench, queries, "admission",
                {"PredictGuarded",
                 [&](const Text2SqlSample& s) {
                   (void)pipeline.PredictGuarded(bench, s, direct);
                 }},
                {"ServeFrontEnd::Serve", serve_through(hardened)}, report);

  // Hardening: the front-end Serve loop with request hardening off vs on.
  // Dev questions are plain ASCII, so the sanitized tier equals the input
  // and the whole pass is validation work: UTF-8 scan, control scan,
  // canonicalization, anomaly score.
  bench::Banner("Hardening overhead: front-end Serve, harden off vs on");
  OverheadTrial(bench, queries, "hardening",
                {"Serve, harden off", serve_through(unhardened)},
                {"Serve, harden on", serve_through(hardened)}, report);
}

/// Builds one prompt per dev database so every retriever cache is warm
/// and the timed sections measure inference, not index construction.
void WarmEveryDatabase(const Text2SqlBenchmark& bench,
                       const CodesPipeline& pipeline) {
  std::set<int> warmed;
  for (const auto& sample : bench.dev) {
    if (warmed.insert(sample.db_index).second) {
      (void)pipeline.BuildPrompt(bench, sample);
    }
  }
}

void Run(bench::PerfReport* report, bool quick) {
  HotPathSection(report, quick);
  StorageAccessPathSection(report, quick);
  DurabilitySection(report, quick);

  bench::Banner("Table 1: model capacity profiles");
  bench::TablePrinter arch({12, 8, 8, 8, 8, 8, 8, 8});
  arch.Row({"model", "params", "hidden", "ffn", "heads", "blocks", "ctx",
            "ngram"});
  arch.Separator();
  int count = 0;
  const ModelSize* sizes = AllModelSizes(&count);
  for (int i = 0; i < count; ++i) {
    const CapacityProfile& p = ProfileFor(sizes[i]);
    arch.Row({p.name, FormatDouble(p.params_billion, 0) + "B",
              std::to_string(p.hidden_size), std::to_string(p.ffn_size),
              std::to_string(p.attention_heads),
              std::to_string(p.transformer_blocks),
              std::to_string(p.max_context_tokens),
              std::to_string(p.ngram_order)});
  }

  bench::Banner("Section 9.7: inference latency per sample (SFT, Spider)");
  auto spider = BuildSpiderLike();
  LmZoo zoo;
  bench::TablePrinter table({12, 16, 14});
  table.Row({"model", "ms / sample", "samples / s"});
  table.Separator();
  // Each size is trained once; the 7B pipeline is kept as the fixture of
  // every section below. The quick (CI) profile measures only the 7B
  // point of the scale sheet: training four model sizes dominates
  // wall-clock and the JSON schema carries no per-size metrics.
  std::unique_ptr<CodesPipeline> seven_b;
  for (int i = 0; i < count; ++i) {
    ModelSize size = sizes[i];
    if (quick && size != ModelSize::k7B) continue;
    PipelineConfig config;
    config.size = size;
    auto pipeline = std::make_unique<CodesPipeline>(config, zoo.CodesFor(size));
    pipeline->TrainClassifier(spider);
    pipeline->FineTune(spider);
    WarmEveryDatabase(spider, *pipeline);
    constexpr int kSamples = 100;
    Timer timer;
    ForEachQuery(spider, kSamples, [&](const Text2SqlSample& sample) {
      (void)pipeline->Predict(spider, sample);
    });
    double seconds = timer.ElapsedSeconds();
    table.Row({ModelSizeName(size), FormatDouble(1000.0 * seconds / kSamples, 2),
               FormatDouble(kSamples / seconds, 1)});
    if (size == ModelSize::k7B) seven_b = std::move(pipeline);
  }
  std::printf(
      "\npaper reference: 0.6 / 0.9 / 1.1 / 1.5 seconds per sample on an "
      "A800; DIN-SQL + GPT-4 needs ~60 s per sample.\n");

  const CodesPipeline& pipeline = *seven_b;
  EvalThroughputSection(spider, pipeline, quick ? 80 : 200, report);
  StageAttributionSection(spider, pipeline, quick ? 80 : 300, report);
  ChaosTailLatencySection(spider, pipeline, quick ? 150 : 500);
  OverloadGoodputSection(spider, pipeline);
  AdversarialGoodputSection(spider, pipeline, report);
  OverheadTrialsSection(spider, pipeline, quick ? 80 : 300, report);
}

}  // namespace
}  // namespace codes

int main(int argc, char** argv) {
  bool quick = false;
  std::string metrics_out;
  std::string json_out;
  codes::FlagSet flags("bench_latency");
  flags.Bool("--quick", &quick);
  flags.Path("--metrics-out", &metrics_out);
  flags.Path("--json-out", &json_out);
  if (int rc = flags.Parse(argc, argv)) return rc;
  codes::bench::PerfReport report("latency", quick ? "quick" : "full");
  report.SetCalibration(codes::bench::CalibrateOpsPerSec());
  codes::Run(&report, quick);
  bool written = codes::WriteSnapshot(
      metrics_out, codes::MetricsRegistry::Global().SnapshotJson(),
      "metrics snapshot");
  written = codes::WriteSnapshot(json_out, report.ToJson(), "bench report") &&
            written;
  return written ? 0 : 1;
}
