#include "storage/crash_harness.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "sqlengine/database.h"
#include "sqlengine/exec_source.h"
#include "sqlengine/value.h"
#include "storage/storage_db.h"

namespace codes::storage {

namespace {

constexpr const char* kDbFile = "crash.db";
constexpr size_t kMaxReportedFailures = 16;

uint64_t CounterValue(const std::string& name) {
  return MetricsRegistry::Global().GetCounter(name).Value();
}

// --- deterministic workload -------------------------------------------
//
// One table `events(id INTEGER PK, grp INTEGER, label TEXT)`. Row i is a
// pure function of (seed, i); ids are a scattered permutation slice of
// [0, 1000003) (48271 is coprime with the prime 1000003, so distinct i
// give distinct ids), which keeps B+ tree splits happening all over the
// key space instead of only at the right edge.

int64_t IdAt(const CrashCampaignConfig& cfg, size_t i) {
  return static_cast<int64_t>(((i + 1 + cfg.seed % 997) * 48271ULL) %
                              1000003ULL);
}

sql::Row RowAt(const CrashCampaignConfig& cfg, size_t i) {
  int64_t id = IdAt(cfg, i);
  sql::Row row;
  row.push_back(sql::Value(id));
  row.push_back(sql::Value(static_cast<int64_t>(i % 17)));
  row.push_back(sql::Value("ev-" + std::to_string(id % 997)));
  return row;
}

sql::Database MakeSourceDb(const CrashCampaignConfig& cfg) {
  sql::DatabaseSchema schema;
  schema.name = "crashdb";
  sql::TableDef table;
  table.name = "events";
  table.columns.push_back({"id", sql::DataType::kInteger, "", true});
  table.columns.push_back({"grp", sql::DataType::kInteger, "", false});
  table.columns.push_back({"label", sql::DataType::kText, "", false});
  schema.tables.push_back(std::move(table));
  sql::Database db(std::move(schema));
  for (int i = 0; i < cfg.initial_rows; ++i) {
    Status inserted = db.Insert("events", RowAt(cfg, static_cast<size_t>(i)));
    CODES_CHECK(inserted.ok());
  }
  return db;
}

size_t TotalRows(const CrashCampaignConfig& cfg, int batches) {
  return static_cast<size_t>(cfg.initial_rows) +
         static_cast<size_t>(batches) * cfg.rows_per_batch;
}

/// Runs the mutation workload: `cfg.batches` append+commit batches with
/// periodic checkpoints. When recording, captures the boundary count after
/// each fully committed batch (the prefix-consistency pivot).
Status RunBatches(StorageDb* db, const CrashCampaignConfig& cfg,
                  const CrashController* ctrl,
                  std::vector<uint64_t>* ops_after_batch) {
  for (int b = 0; b < cfg.batches; ++b) {
    std::vector<sql::Row> rows;
    rows.reserve(cfg.rows_per_batch);
    for (int r = 0; r < cfg.rows_per_batch; ++r) {
      size_t i = static_cast<size_t>(cfg.initial_rows) +
                 static_cast<size_t>(b) * cfg.rows_per_batch + r;
      rows.push_back(RowAt(cfg, i));
    }
    CODES_RETURN_IF_ERROR(db->AppendRows(0, rows));
    CODES_RETURN_IF_ERROR(db->CommitBatch());
    if (cfg.checkpoint_every > 0 && (b + 1) % cfg.checkpoint_every == 0) {
      CODES_RETURN_IF_ERROR(db->Checkpoint());
    }
    if (ops_after_batch != nullptr) {
      ops_after_batch->push_back(ctrl->op_count());
    }
  }
  return Status::Ok();
}

// --- content digests ---------------------------------------------------
//
// A recovered state and its oracle fold the same labelled sections:
// sequential scan, index range scans over the PK (plus a point lookup),
// and the PK index stats. The oracle side never touches storage code.

struct RangeSpec {
  bool lo_bounded = false;
  int64_t lo = 0;
  bool lo_inclusive = true;
  bool hi_bounded = false;
  int64_t hi = 0;
  bool hi_inclusive = true;
};

std::vector<RangeSpec> MakeRanges(const CrashCampaignConfig& cfg) {
  return {
      {true, 0, true, true, 200000, true},
      {true, 200000, false, true, 600000, true},
      {true, 600000, true, false, 0, true},
      // Point lookup on the very first row's id.
      {true, IdAt(cfg, 0), true, true, IdAt(cfg, 0), true},
  };
}

bool InRange(int64_t id, const RangeSpec& r) {
  if (r.lo_bounded && (r.lo_inclusive ? id < r.lo : id <= r.lo)) return false;
  if (r.hi_bounded && (r.hi_inclusive ? id > r.hi : id >= r.hi)) return false;
  return true;
}

void FoldRow(Fnv1aDigest* d, const sql::Row& row) {
  for (const sql::Value& v : row) {
    d->Add(v.is_null() ? "N" : v.is_integer() ? "I" : v.is_real() ? "R" : "T");
    d->Add(v.ToString());
    d->Add(";");
  }
  d->Add("\n");
}

/// Oracle digest of the state after `batches` committed batches, computed
/// purely from the row generator.
uint64_t ExpectedStateDigest(const CrashCampaignConfig& cfg, int batches) {
  Fnv1aDigest d;
  size_t n = TotalRows(cfg, batches);
  d.Add("seq\n");
  for (size_t i = 0; i < n; ++i) FoldRow(&d, RowAt(cfg, i));
  std::vector<RangeSpec> ranges = MakeRanges(cfg);
  for (size_t r = 0; r < ranges.size(); ++r) {
    d.Add("range" + std::to_string(r) + "\n");
    for (size_t i = 0; i < n; ++i) {
      if (InRange(IdAt(cfg, i), ranges[r])) FoldRow(&d, RowAt(cfg, i));
    }
  }
  d.Add("stats\n");
  d.Add(std::to_string(n));
  d.Add(" u1\n");
  return d.value;
}

/// Engine-side digest of a (recovered) database, same sections as the
/// oracle. Returns 0 and sets `*err` on any access failure.
uint64_t ActualStateDigest(const StorageDb& db, const CrashCampaignConfig& cfg,
                           std::string* err) {
  Fnv1aDigest d;
  d.Add("seq\n");
  Result<std::vector<sql::Row>> rows = db.Materialize(0);
  if (!rows.ok()) {
    *err = "materialize: " + rows.status().message();
    return 0;
  }
  for (const sql::Row& row : *rows) FoldRow(&d, row);
  std::vector<RangeSpec> ranges = MakeRanges(cfg);
  for (size_t r = 0; r < ranges.size(); ++r) {
    d.Add("range" + std::to_string(r) + "\n");
    const RangeSpec& spec = ranges[r];
    sql::Value lo(spec.lo);
    sql::Value hi(spec.hi);
    sql::IndexBound lo_bound{spec.lo_bounded ? &lo : nullptr,
                             spec.lo_inclusive};
    sql::IndexBound hi_bound{spec.hi_bounded ? &hi : nullptr,
                             spec.hi_inclusive};
    std::unique_ptr<sql::RowCursor> cursor =
        db.IndexScan(0, 0, lo_bound, hi_bound);
    sql::Row row;
    while (cursor->Next(&row)) FoldRow(&d, row);
    if (!cursor->status().ok()) {
      *err = "index scan: " + cursor->status().message();
      return 0;
    }
  }
  d.Add("stats\n");
  sql::ColumnIndexStats stats;
  if (!db.IndexStats(0, 0, &stats)) {
    *err = "primary-key index missing after recovery";
    return 0;
  }
  d.Add(std::to_string(stats.entries));
  d.Add(stats.unique ? " u1\n" : " u0\n");
  return d.value;
}

// --- campaign machinery ------------------------------------------------

/// Shared read-only inputs of every crash case: the recorded boundary
/// trace, the per-batch commit pivots, and the oracle digest per prefix.
struct CampaignContext {
  std::vector<CrashOpRecord> trace;
  std::vector<uint64_t> ops_after_batch;
  std::vector<uint64_t> expected;  ///< digest for c committed batches
};

/// Recording pass: runs the workload crash-free, captures boundaries, and
/// cross-checks the oracle against the engine at full depth (an oracle
/// bug must fail loudly here, not as a thousand bogus case failures).
Result<CampaignContext> PrepareContext(const CrashCampaignConfig& cfg) {
  if (cfg.batches <= 0 || cfg.rows_per_batch <= 0 || cfg.initial_rows < 0) {
    return Status::InvalidArgument("crash campaign: non-positive workload");
  }
  CampaignContext ctx;
  ctx.expected.reserve(cfg.batches + 1);
  for (int c = 0; c <= cfg.batches; ++c) {
    ctx.expected.push_back(ExpectedStateDigest(cfg, c));
  }
  SimEnv env;
  sql::Database src = MakeSourceDb(cfg);
  CODES_ASSIGN_OR_RETURN(
      std::unique_ptr<StorageDb> db,
      StorageDb::CreateSimFrom(src, &env, kDbFile, cfg.pool_frames));
  env.controller().StartRecording();
  CODES_RETURN_IF_ERROR(
      RunBatches(db.get(), cfg, &env.controller(), &ctx.ops_after_batch));
  ctx.trace = env.controller().trace();
  std::string err;
  uint64_t actual = ActualStateDigest(*db, cfg, &err);
  if (!err.empty()) {
    return Status::Internal("crash-free run: " + err);
  }
  if (actual != ctx.expected[cfg.batches]) {
    return Status::Internal(
        "crash-free run digest disagrees with the oracle — harness bug");
  }
  return ctx;
}

/// One armed run: build, crash at `plan`, reboot, recover, check.
CrashCaseOutcome RunOneCase(const CrashCampaignConfig& cfg,
                            const CrashPlan& plan,
                            const CampaignContext& ctx) {
  CrashCaseOutcome out;
  out.crash_op = plan.crash_op;
  out.variant = plan.variant;

  SimEnv env;
  sql::Database src = MakeSourceDb(cfg);
  bool crash_fired = false;
  {
    Result<std::unique_ptr<StorageDb>> built =
        StorageDb::CreateSimFrom(src, &env, kDbFile, cfg.pool_frames);
    if (!built.ok()) {
      out.error = "build: " + built.status().message();
      return out;
    }
    std::unique_ptr<StorageDb> db = std::move(*built);
    env.controller().Arm(plan);
    Status run = RunBatches(db.get(), cfg, nullptr, nullptr);
    crash_fired = env.controller().crashed();
    if (!run.ok() && !crash_fired) {
      out.error = "workload failed without a simulated crash: " +
                  run.message();
      return out;
    }
    // db destructs here; post-crash its best-effort write-back is refused
    // by the sim layer, exactly like a process that already lost power.
  }
  env.Reboot();

  Result<std::unique_ptr<StorageDb>> reopened =
      StorageDb::OpenSim(&env, kDbFile, cfg.pool_frames);
  if (!reopened.ok()) {
    out.error = "recovery failed: " + reopened.status().message();
    return out;
  }
  const StorageDb& db = **reopened;

  size_t count = db.SourceRowCount(0);
  size_t base = static_cast<size_t>(cfg.initial_rows);
  if (count < base || (count - base) % cfg.rows_per_batch != 0) {
    out.error = "recovered row count " + std::to_string(count) +
                " is not on a batch boundary";
    return out;
  }
  int c = static_cast<int>((count - base) / cfg.rows_per_batch);
  if (c > cfg.batches) {
    out.error = "recovered " + std::to_string(c) + " batches, ran only " +
                std::to_string(cfg.batches);
    return out;
  }

  // Prefix-consistency window: every batch whose commit fully preceded
  // the crash boundary is guaranteed; at most the one in-flight batch may
  // additionally survive (eager variants with a durable commit record).
  if (crash_fired) {
    int j = 0;
    while (j < static_cast<int>(ctx.ops_after_batch.size()) &&
           ctx.ops_after_batch[j] <= plan.crash_op) {
      ++j;
    }
    if (c != j && c != j + 1) {
      out.error = "recovered " + std::to_string(c) +
                  " batches outside the window {" + std::to_string(j) + ", " +
                  std::to_string(j + 1) + "}";
      return out;
    }
  } else if (c != cfg.batches) {
    out.error = "crash-free case lost batches: " + std::to_string(c);
    return out;
  }

  std::string err;
  uint64_t actual = ActualStateDigest(db, cfg, &err);
  if (!err.empty()) {
    out.error = err;
    return out;
  }
  if (actual != ctx.expected[c]) {
    out.error = "content digest mismatch at prefix " + std::to_string(c);
    return out;
  }
  out.recovered_batches = c;
  return out;
}

std::vector<CrashPlan> EnumerateCases(const CrashCampaignConfig& cfg,
                                      const CampaignContext& ctx) {
  std::vector<CrashPlan> cases;
  for (uint64_t k = 0; k < ctx.trace.size(); ++k) {
    cases.push_back({k, CrashVariant::kLostBuffer, 0});
    cases.push_back({k, CrashVariant::kEagerBuffer, 0});
    if (cfg.torn_variants &&
        ctx.trace[k].kind == CrashOpRecord::Kind::kWrite &&
        ctx.trace[k].bytes >= 2) {
      cases.push_back({k, CrashVariant::kTorn,
                       static_cast<size_t>(ctx.trace[k].bytes / 2)});
    }
  }
  return cases;
}

}  // namespace

Result<CrashCampaignResult> RunCrashCampaign(const CrashCampaignConfig& cfg) {
  CODES_ASSIGN_OR_RETURN(CampaignContext ctx, PrepareContext(cfg));

  std::vector<CrashPlan> cases = EnumerateCases(cfg, ctx);
  CrashCampaignResult result;
  result.boundaries = ctx.trace.size();
  if (cfg.max_cases > 0 && cases.size() > cfg.max_cases) {
    // Deterministic stride sample keeps coverage spread over the whole
    // workload instead of front-loading it.
    std::vector<CrashPlan> sampled;
    sampled.reserve(cfg.max_cases);
    for (uint64_t i = 0; i < cfg.max_cases; ++i) {
      sampled.push_back(cases[i * cases.size() / cfg.max_cases]);
    }
    result.cases_dropped = cases.size() - sampled.size();
    cases = std::move(sampled);
  }

  uint64_t runs0 = CounterValue("storage.recovery.runs");
  uint64_t seen0 = CounterValue("storage.recovery.wal_records_seen");
  uint64_t replayed0 = CounterValue("storage.recovery.replayed");
  uint64_t discarded0 = CounterValue("storage.recovery.discarded");

  std::vector<CrashCaseOutcome> outcomes(cases.size());
  ThreadPool pool(cfg.threads);
  pool.ParallelFor(cases.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      outcomes[i] = RunOneCase(cfg, cases[i], ctx);
    }
  });

  Fnv1aDigest digest;
  for (const CrashCaseOutcome& out : outcomes) {
    digest.Add("op=" + std::to_string(out.crash_op) +
               " var=" + CrashVariantName(out.variant));
    if (out.error.empty()) {
      digest.Add(" c=" + std::to_string(out.recovered_batches) + " ok\n");
    } else {
      digest.Add(" FAIL " + out.error + "\n");
      ++result.failures;
      if (result.failed.size() < kMaxReportedFailures) {
        result.failed.push_back(out);
      }
    }
    ++result.cases_run;
  }
  result.digest = digest.value;
  result.recovery_runs = CounterValue("storage.recovery.runs") - runs0;
  result.wal_records_seen =
      CounterValue("storage.recovery.wal_records_seen") - seen0;
  result.wal_records_replayed =
      CounterValue("storage.recovery.replayed") - replayed0;
  result.wal_records_discarded =
      CounterValue("storage.recovery.discarded") - discarded0;
  return result;
}

Result<CrashCaseOutcome> RunCrashCase(const CrashCampaignConfig& cfg,
                                      uint64_t crash_op,
                                      CrashVariant variant) {
  CODES_ASSIGN_OR_RETURN(CampaignContext ctx, PrepareContext(cfg));
  if (crash_op >= ctx.trace.size()) {
    return Status::InvalidArgument(
        "crash_op " + std::to_string(crash_op) + " out of range (workload has " +
        std::to_string(ctx.trace.size()) + " boundaries)");
  }
  CrashPlan plan{crash_op, variant, 0};
  if (variant == CrashVariant::kTorn) {
    if (ctx.trace[crash_op].kind != CrashOpRecord::Kind::kWrite) {
      return Status::InvalidArgument(
          "torn variant requires a write boundary");
    }
    plan.torn_bytes = static_cast<size_t>(ctx.trace[crash_op].bytes / 2);
  }
  return RunOneCase(cfg, plan, ctx);
}

}  // namespace codes::storage
