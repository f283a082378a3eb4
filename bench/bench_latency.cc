// Reproduces Section 9.7 (latency/deployment) and prints the Table 1
// architecture sheet: per-sample inference latency by model scale, plus
// the capacity profiles standing in for the transformer hyper-parameters.
// Eval throughput across thread counts is bench_throughput's job.
//
// Paper shape to reproduce: latency grows with scale but stays far below
// API-based systems (DIN-SQL + GPT-4 at ~60 s/sample); the ratio between
// 15B and 1B is modest (~2.5x).

#include <algorithm>
#include <cstdio>

#include <random>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/perf_report.h"
#include "common/failpoint.h"
#include "common/timer.h"
#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"
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

namespace codes {
namespace {

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

  auto best_of = [](auto&& fn, int reps) {
    double best = fn();
    for (int r = 1; r < reps; ++r) best = std::min(best, fn());
    return best;
  };

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
    double before_us = 1e6 * best_of(run_ref, 3) / pairs.size();
    double after_us = 1e6 * best_of(run_new, 3) / pairs.size();
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
    double before_us = 1e6 * best_of(run_ref, 3) / queries.size();
    double after_us = 1e6 * best_of(run_new, 3) / queries.size();
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
    double before_us = 1e6 * best_of(run_ref, 3) / corpus.size();
    double after_us = 1e6 * best_of(run_new, 3) / corpus.size();
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
  auto best_of = [](auto&& fn, int n) {
    double best = fn();
    for (int r = 1; r < n; ++r) best = std::min(best, fn());
    return best;
  };

  // Confirm the planner actually takes the index path when allowed — a
  // silent fallback to seq scan would turn this section into noise.
  MetricsRegistry::SetEnabled(true);
  MetricsRegistry::Global().Reset();
  (void)run_paths(true);
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  CODES_CHECK(snap.counters["storage.path.index_scan"] > 0);

  const int timing_reps = 3;
  double seq_seconds = best_of([&] { return run_paths(false); }, timing_reps);
  double idx_seconds = best_of([&] { return run_paths(true); }, timing_reps);
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
/// log. Both sides run on RAM-backed page stores, so the numbers isolate
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
  auto wal_built =
      storage::StorageDb::CreateSimFrom(db, &env, "bench.db",
                                        /*pool_frames=*/256);
  CODES_CHECK(wal_built.ok());
  Timer wal_timer;
  for (int b = 0; b < batches; ++b) {
    CODES_CHECK((*wal_built)->AppendRows(0, batch_rows(b)).ok());
    CODES_CHECK((*wal_built)->CommitBatch().ok());
  }
  double wal_us = 1e6 * wal_timer.ElapsedSeconds() / batches;
  wal_built->reset();  // release the sim files before the recovery reopen

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
  auto reopened = storage::StorageDb::OpenSim(&env, "bench.db",
                                              /*pool_frames=*/256);
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

/// Unguarded Predict vs PredictGuarded with an *active* guard (generous
/// budgets, so every check runs but nothing trips). The robustness layer's
/// contract is <= 2% overhead for guard-enabled serving.
void GuardOverheadSection(const Text2SqlBenchmark& bench,
                          const CodesPipeline& pipeline, int queries,
                          bench::PerfReport* report) {
  bench::Banner("Guard overhead: Predict vs guarded serving (7B SFT)");

  ServeOptions guarded;
  guarded.limits.max_rows = 50'000'000;
  guarded.limits.max_bytes = static_cast<size_t>(1) << 40;
  guarded.limits.max_depth = 64;
  CancelToken token;  // never cancelled; forces the token check too
  guarded.cancel = &token;

  auto run_free = [&]() {
    Timer timer;
    int n = 0;
    while (n < queries) {
      for (const auto& sample : bench.dev) {
        if (n >= queries) break;
        (void)pipeline.Predict(bench, sample);
        ++n;
      }
    }
    return timer.ElapsedSeconds();
  };
  auto run_guarded = [&]() {
    Timer timer;
    int n = 0;
    while (n < queries) {
      for (const auto& sample : bench.dev) {
        if (n >= queries) break;
        (void)pipeline.PredictGuarded(bench, sample, guarded);
        ++n;
      }
    }
    return timer.ElapsedSeconds();
  };

  // Interleave three repetitions of each and keep the fastest, so ambient
  // machine noise does not masquerade as guard cost.
  double best_free = run_free();
  double best_guarded = run_guarded();
  for (int rep = 1; rep < 3; ++rep) {
    best_free = std::min(best_free, run_free());
    best_guarded = std::min(best_guarded, run_guarded());
  }
  double overhead_pct = 100.0 * (best_guarded - best_free) / best_free;

  bench::TablePrinter table({22, 12, 14});
  table.Row({"path", "seconds", "ms / sample"});
  table.Separator();
  table.Row({"Predict (no guard)", FormatDouble(best_free, 3),
             FormatDouble(1000.0 * best_free / queries, 3)});
  table.Row({"PredictGuarded", FormatDouble(best_guarded, 3),
             FormatDouble(1000.0 * best_guarded / queries, 3)});
  std::printf("\nguard overhead: %+.2f%% (budget: <= 2%%)\n", overhead_pct);
  report->Add("predict_us_per_sample", 1e6 * best_free / queries);
  // A difference of two noisy wall-clock reads: report, never gate.
  report->AddNoisy("guard_overhead_pct", overhead_pct);
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
  int n = 0;
  while (n < queries) {
    for (const auto& sample : bench.dev) {
      if (n >= queries) break;
      (void)pipeline.PredictGuarded(bench, sample, options);
      ++n;
    }
  }
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

/// The observability layer's own cost: the same prediction loop with the
/// metrics switch off (spans skip clock reads and histogram writes) vs on,
/// interleaved best-of-3 like the guard section. Budget: <= 2%.
void InstrumentationOverheadSection(const Text2SqlBenchmark& bench,
                                    const CodesPipeline& pipeline,
                                    int queries, bench::PerfReport* report) {
  bench::Banner("Instrumentation overhead: metrics off vs on (7B SFT)");

  ServeOptions options;
  options.limits.max_rows = 20000;

  auto run = [&](bool enabled) {
    MetricsRegistry::SetEnabled(enabled);
    Timer timer;
    int n = 0;
    while (n < queries) {
      for (const auto& sample : bench.dev) {
        if (n >= queries) break;
        (void)pipeline.PredictGuarded(bench, sample, options);
        ++n;
      }
    }
    return timer.ElapsedSeconds();
  };

  // The true gated cost (a handful of clock reads + histogram writes per
  // request) is far below ambient run-to-run noise, so the measurement
  // needs more care than the guard section: warm both paths once, then
  // interleave five repetitions with alternating order (so thermal drift
  // cannot systematically favor one path) and keep the fastest of each.
  (void)run(false);
  (void)run(true);
  double best_off = run(false);
  double best_on = run(true);
  for (int rep = 1; rep < 5; ++rep) {
    if (rep % 2 == 1) {
      best_on = std::min(best_on, run(true));
      best_off = std::min(best_off, run(false));
    } else {
      best_off = std::min(best_off, run(false));
      best_on = std::min(best_on, run(true));
    }
  }
  MetricsRegistry::SetEnabled(true);
  double overhead_pct = 100.0 * (best_on - best_off) / best_off;

  bench::TablePrinter table({24, 12, 14});
  table.Row({"path", "seconds", "ms / sample"});
  table.Separator();
  table.Row({"metrics disabled", FormatDouble(best_off, 3),
             FormatDouble(1000.0 * best_off / queries, 3)});
  table.Row({"metrics enabled", FormatDouble(best_on, 3),
             FormatDouble(1000.0 * best_on / queries, 3)});
  std::printf("\ninstrumentation overhead: %+.2f%% (budget: <= 2%%)\n",
              overhead_pct);
  report->AddNoisy("instrumentation_overhead_pct", overhead_pct);
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
    int n = 0;
    while (n < queries) {
      for (const auto& sample : bench.dev) {
        if (n >= queries) break;
        Timer timer;
        (void)pipeline.PredictGuarded(bench, sample, options);
        ms.push_back(1000.0 * timer.ElapsedSeconds());
        ++n;
      }
    }
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
    for (int level = 0; level < serve::kNumBrownoutLevels; ++level) {
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

/// The serving front door's own cost: PredictGuarded called directly vs
/// through ServeFrontEnd::Serve with every protection active but nothing
/// tripping (no rate limit, near-empty queue so brownout stays at level 0,
/// breaker threshold set unreachable). The difference is pure admission
/// bookkeeping — token bucket, breaker consults, brownout update, serve.*
/// metrics — and must stay within the same <= 2% budget as the guards.
void AdmissionOverheadSection(const Text2SqlBenchmark& bench,
                              const CodesPipeline& pipeline, int queries,
                              bench::PerfReport* report) {
  bench::Banner("Admission overhead: PredictGuarded vs front-end Serve");

  serve::FrontEndOptions fe;
  fe.limits.max_rows = 50'000'000;
  fe.limits.max_bytes = static_cast<size_t>(1) << 40;
  fe.limits.max_depth = 64;
  fe.admission.queue_capacity = 4096;  // fullness ~0: brownout never moves
  fe.breaker.failure_threshold = 1.1;  // ratio tops out at 1.0: never trips
  serve::ServeFrontEnd front_end(&pipeline, &bench, fe);

  ServeOptions direct;
  direct.limits = fe.limits;

  auto run_direct = [&]() {
    Timer timer;
    int n = 0;
    while (n < queries) {
      for (const auto& sample : bench.dev) {
        if (n >= queries) break;
        (void)pipeline.PredictGuarded(bench, sample, direct);
        ++n;
      }
    }
    return timer.ElapsedSeconds();
  };
  auto run_served = [&]() {
    Timer timer;
    int n = 0;
    while (n < queries) {
      for (const auto& sample : bench.dev) {
        if (n >= queries) break;
        std::string sql;
        (void)front_end.Serve(sample, &sql);
        ++n;
      }
    }
    return timer.ElapsedSeconds();
  };

  // Interleaved best-of-3, exactly like the guard section: ambient noise
  // must not masquerade as front-end cost.
  double best_direct = run_direct();
  double best_served = run_served();
  for (int rep = 1; rep < 3; ++rep) {
    best_direct = std::min(best_direct, run_direct());
    best_served = std::min(best_served, run_served());
  }
  double overhead_pct = 100.0 * (best_served - best_direct) / best_direct;

  bench::TablePrinter table({24, 12, 14});
  table.Row({"path", "seconds", "ms / sample"});
  table.Separator();
  table.Row({"PredictGuarded", FormatDouble(best_direct, 3),
             FormatDouble(1000.0 * best_direct / queries, 3)});
  table.Row({"ServeFrontEnd::Serve", FormatDouble(best_served, 3),
             FormatDouble(1000.0 * best_served / queries, 3)});
  std::printf("\nadmission overhead: %+.2f%% (budget: <= 2%%)\n",
              overhead_pct);
  report->AddNoisy("admission_overhead_pct", overhead_pct);
}

/// What the request-hardening front door costs clean traffic: the same
/// front-end Serve loop with hardening off vs on. Dev questions are plain
/// ASCII, so the sanitized tier is byte-identical to the input and the
/// whole pass is validation work — UTF-8 scan, control scan,
/// canonicalization, anomaly score. Budget: <= 2%, same as the guards.
void HardeningOverheadSection(const Text2SqlBenchmark& bench,
                              const CodesPipeline& pipeline, int queries,
                              bench::PerfReport* report) {
  bench::Banner("Hardening overhead: front-end Serve, harden off vs on");

  serve::FrontEndOptions fe;
  fe.limits.max_rows = 50'000'000;
  fe.limits.max_bytes = static_cast<size_t>(1) << 40;
  fe.limits.max_depth = 64;
  fe.admission.queue_capacity = 4096;  // fullness ~0: brownout never moves
  fe.breaker.failure_threshold = 1.1;  // ratio tops out at 1.0: never trips
  fe.harden.enabled = false;
  serve::ServeFrontEnd unhardened(&pipeline, &bench, fe);
  fe.harden.enabled = true;
  serve::ServeFrontEnd hardened(&pipeline, &bench, fe);

  auto run = [&](serve::ServeFrontEnd& front_end) {
    Timer timer;
    int n = 0;
    while (n < queries) {
      for (const auto& sample : bench.dev) {
        if (n >= queries) break;
        std::string sql;
        (void)front_end.Serve(sample, &sql);
        ++n;
      }
    }
    return timer.ElapsedSeconds();
  };

  // Interleaved best-of-3, exactly like the admission section.
  double best_off = run(unhardened);
  double best_on = run(hardened);
  for (int rep = 1; rep < 3; ++rep) {
    best_off = std::min(best_off, run(unhardened));
    best_on = std::min(best_on, run(hardened));
  }
  double overhead_pct = 100.0 * (best_on - best_off) / best_off;

  bench::TablePrinter table({24, 12, 14});
  table.Row({"path", "seconds", "ms / sample"});
  table.Separator();
  table.Row({"Serve, harden off", FormatDouble(best_off, 3),
             FormatDouble(1000.0 * best_off / queries, 3)});
  table.Row({"Serve, harden on", FormatDouble(best_on, 3),
             FormatDouble(1000.0 * best_on / queries, 3)});
  std::printf("\nhardening overhead on clean traffic: %+.2f%% "
              "(budget: <= 2%%)\n",
              overhead_pct);
  report->AddNoisy("hardening_overhead_pct", overhead_pct);
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
  // The quick (CI) profile measures only the 7B point of the scale sheet:
  // training four model sizes dominates wall-clock and the JSON schema
  // carries no per-size metrics.
  for (int i = 0; i < count; ++i) {
    ModelSize size = sizes[i];
    if (quick && size != ModelSize::k7B) continue;
    PipelineConfig config;
    config.size = size;
    CodesPipeline pipeline(config, zoo.CodesFor(size));
    pipeline.TrainClassifier(spider);
    pipeline.FineTune(spider);
    // Warm the per-database retriever caches so we time inference only.
    for (const auto& sample : spider.dev) {
      pipeline.BuildPrompt(spider, sample);
      break;
    }
    Timer timer;
    int n = 0;
    for (const auto& sample : spider.dev) {
      (void)pipeline.Predict(spider, sample);
      ++n;
      if (n >= 100) break;
    }
    double seconds = timer.ElapsedSeconds();
    table.Row({ModelSizeName(size), FormatDouble(1000.0 * seconds / n, 2),
               FormatDouble(n / seconds, 1)});
  }
  std::printf(
      "\npaper reference: 0.6 / 0.9 / 1.1 / 1.5 seconds per sample on an "
      "A800; DIN-SQL + GPT-4 needs ~60 s per sample.\n");

  {
    PipelineConfig config;
    config.size = ModelSize::k7B;
    CodesPipeline pipeline(config, zoo.CodesFor(config.size));
    pipeline.TrainClassifier(spider);
    pipeline.FineTune(spider);
    const int q = quick ? 80 : 300;
    // Warm every dev database's retriever cache once so the sections
    // below measure inference, not index construction.
    std::set<int> warmed;
    for (const auto& sample : spider.dev) {
      if (warmed.insert(sample.db_index).second) {
        (void)pipeline.BuildPrompt(spider, sample);
      }
    }
    GuardOverheadSection(spider, pipeline, q, report);
    StageAttributionSection(spider, pipeline, q, report);
    InstrumentationOverheadSection(spider, pipeline, q, report);
    ChaosTailLatencySection(spider, pipeline, /*queries=*/quick ? 150 : 500);
    OverloadGoodputSection(spider, pipeline);
    AdmissionOverheadSection(spider, pipeline, q, report);
    HardeningOverheadSection(spider, pipeline, q, report);
  }
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
