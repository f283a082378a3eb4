// codes_perfbench: the repo benchmark harness.
//
// Runs one workload against the public API of the library and prints one
// JSON report as the last line of stdout (perfbench/run.py turns it into the
// benchmark result). Workloads, metrics and the layer map are documented in
// perfbench/README.md.
//
//   codes_perfbench --workload {spider_eval|bird_serve|fleet_churn}
//                   --seed N --seconds S --trace {0|1}
//                   [--smoke] [--trace-out PATH]
//
// --trace 0 is the timed run: set-up is repeated and its median reported,
// then requests run closed-loop for at least S seconds and at least one full
// pass over the request stream. --trace 1 is the per-layer run: every
// request is served exactly as in the timed run (span request.e2e), then its
// layer chain is replayed through the public calls of each layer (span
// request.replay); spans are kept in memory and written to --trace-out.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/model_zoo.h"
#include "core/pipeline.h"
#include "dataset/benchmark_builder.h"
#include "eval/metrics.h"
#include "eval/parallel_eval.h"
#include "fleet/fleet_manager.h"
#include "prompt/prompt_builder.h"
#include "serve/front_end.h"
#include "sqlengine/executor.h"
#include "sqlengine/parser.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace codes {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "codes_perfbench: %s\n", message.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

uint64_t ParseU64(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno != 0 || text[0] == '-') {
    Die("bad value for " + flag + ": '" + text + "'");
  }
  return v;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Die("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = ParseU64(flag, value);
    } else if (flag == "--seconds") {
      uint64_t s = ParseU64(flag, value);
      if (s < 1 || s > 600) Die("--seconds must be in [1, 600]");
      args.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Die("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.workload != "spider_eval" && args.workload != "bird_serve" &&
      args.workload != "fleet_churn") {
    Die("--workload must be spider_eval, bird_serve or fleet_churn");
  }
  return args;
}

// ---------------------------------------------------------------------------
// Small measurement helpers

/// FNV-1a; also the pipeline's per-sample seed derivation (its generation
/// seed is PipelineConfig::seed ^ Fnv1a(question)).
uint64_t Fnv1a(std::string_view s, uint64_t h = 1469598103934665603ULL) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

volatile double g_calibration_sink = 0.0;

/// Linear interpolation between closest ranks (NumPy's default).
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

/// 100 * part / whole, or 0 when there is no whole.
double Pct(double part, double whole) {
  return whole > 0 ? 100.0 * part / whole : 0.0;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  std::string one, five, fifteen;
  if (!(in >> one >> five >> fifteen)) return "unknown";
  return one + " " + five + " " + fifteen;
}

/// Machine-speed probe recorded with every run: MB/s of FNV-1a over a
/// fixed in-cache buffer. It never enters a metric; it makes a contended
/// run visible.
double CalibrationMbps() {
  std::string buffer(64 << 10, 'x');
  for (size_t i = 0; i < buffer.size(); ++i) buffer[i] = static_cast<char>(i);
  const int reps = 400;
  uint64_t h = 0;
  auto start = Clock::now();
  for (int r = 0; r < reps; ++r) {
    h ^= Fnv1a(buffer, h + static_cast<uint64_t>(r));
  }
  double seconds = SecondsSince(start);
  g_calibration_sink = g_calibration_sink + static_cast<double>(h & 1);
  return static_cast<double>(buffer.size()) * reps / seconds / 1e6;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Reads a set of global counters at construction; Delta() is the growth
/// since then.
class CounterWindow {
 public:
  explicit CounterWindow(const std::vector<std::string>& names) {
    for (const auto& name : names) {
      start_[name] = MetricsRegistry::Global().GetCounter(name).Value();
    }
  }
  uint64_t Delta(const std::string& name) const {
    auto it = start_.find(name);
    if (it == start_.end()) Die("counter not watched: " + name);
    return MetricsRegistry::Global().GetCounter(name).Value() - it->second;
  }

 private:
  std::unordered_map<std::string, uint64_t> start_;
};

const std::vector<std::string>& WatchedCounters() {
  static const std::vector<std::string> names = {
      "serve.requests",
      "serve.unverified",
      "serve.offered",
      "serve.admitted",
      "serve.rejected",
      "serve.shed",
      "fleet.attach",
      "fleet.attach.build",
      "fleet.attach.snapshot",
      "fleet.evict",
      "pipeline.retriever_cache.hits",
      "pipeline.retriever_cache.misses"};
  return names;
}

// ---------------------------------------------------------------------------
// Spans: recorded around the benchmark's own calls into each layer, kept in
// memory, written out once at the end.

struct SpanRecord {
  const char* name;
  uint64_t request;
  uint64_t id;
  uint64_t parent;  ///< 0 = root
  Clock::time_point start;
  Clock::time_point end;
};

class SpanLog {
 public:
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Add(const SpanRecord& record) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(record);
  }
  std::vector<SpanRecord> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  std::atomic<uint64_t> next_id_{0};
  std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a null log records nothing.
class Span {
 public:
  Span(SpanLog* log, const char* name, uint64_t request, uint64_t parent)
      : log_(log),
        record_{name, request, log != nullptr ? log->NextId() : 0, parent,
                Clock::now(), {}} {}
  ~Span() {
    if (log_ == nullptr) return;
    record_.end = Clock::now();
    log_->Add(record_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  uint64_t id() const { return record_.id; }

 private:
  SpanLog* log_;
  SpanRecord record_;
};

/// Layer spans reported by the traced run, in report order.
const std::vector<std::string>& LayerSpans() {
  static const std::vector<std::string> names = {
      "generator.beam",   "lm.score",          "prompt.build",
      "linker.score",     "retrieval.retrieve", "retrieval.build_index",
      "fleet.attach",     "sqlengine.parse",   "sqlengine.execute",
      "eval.ex_match"};
  return names;
}

// ---------------------------------------------------------------------------
// Metric output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Check(const std::string& name, bool ok) {
    checks_.emplace_back(name, ok);
    if (!ok) std::fprintf(stderr, "check failed: %s\n", name.c_str());
  }
  void Condition(const std::string& key, const std::string& json_value) {
    conditions_.emplace_back(key, json_value);
  }
  bool AllChecksPass() const {
    for (const auto& [name, ok] : checks_) {
      if (!ok) return false;
    }
    return true;
  }
  std::string ToJson(const Args& args, uint64_t attempted, uint64_t failed,
                     const std::string& digest, double ex_pct,
                     double ts_pct) const {
    std::ostringstream out;
    out << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
        << ",\"trace\":" << (args.trace ? 1 : 0)
        << ",\"smoke\":" << (args.smoke ? "true" : "false")
        << ",\"correct\":" << (AllChecksPass() ? "true" : "false")
        << ",\"attempted\":" << attempted << ",\"failed\":" << failed
        << ",\"digest\":\"" << digest << "\",\"ex_pct\":" << Num(ex_pct)
        << ",\"ts_pct\":" << Num(ts_pct) << ",\"checks\":{";
    for (size_t i = 0; i < checks_.size(); ++i) {
      if (i > 0) out << ",";
      out << "\"" << JsonEscape(checks_[i].first)
          << "\":" << (checks_[i].second ? "true" : "false");
    }
    out << "},\"conditions\":{";
    for (size_t i = 0; i < conditions_.size(); ++i) {
      if (i > 0) out << ",";
      out << "\"" << conditions_[i].first << "\":" << conditions_[i].second;
    }
    out << "},\"metrics\":{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) out << ",";
      out << "\"" << metrics_[i].name << "\":{\"value\":"
          << Num(metrics_[i].value) << ",\"unit\":\"" << metrics_[i].unit
          << "\"}";
    }
    out << "}}";
    return out.str();
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::vector<std::pair<std::string, std::string>> conditions_;
};

std::string Quote(const std::string& s) { return "\"" + JsonEscape(s) + "\""; }

// ---------------------------------------------------------------------------
// Workload state

/// One request of a workload's stream: a dev sample of World::bench, and
/// for fleet_churn the tenant that owns its database.
struct Request {
  int sample = 0;
  int tenant = -1;
};

/// Everything one set-up produces. Destroyed and rebuilt for each timed
/// set-up repetition.
struct World {
  std::unique_ptr<LmZoo> zoo;
  const NgramLm* lm = nullptr;
  Text2SqlBenchmark bench;  ///< requests index bench.dev
  std::unique_ptr<CodesPipeline> pipeline;
  std::unique_ptr<serve::ServeFrontEnd> front;  // bird_serve
  std::unique_ptr<fleet::FleetManager> fleet;   // fleet_churn
  std::vector<Request> stream;    ///< one pass, in request order
  size_t fleet_budget_bytes = 0;
};

/// Size knobs per workload; --smoke shrinks them to a few requests.
struct Sizes {
  int samples_per_db;  ///< served questions generated per database
  int stream_len;      ///< bird_serve / fleet_churn requests per pass
  int traced_len;      ///< requests of the stream the traced pass replays
  int setup_reps;      ///< timed set-ups; the median is reported
  int builds;          ///< served databases: 20 (one per domain) per build
};

Sizes SizesFor(const Args& args) {
  if (args.smoke) return Sizes{2, 12, 12, 1, 1};
  if (args.workload == "spider_eval") return Sizes{20, 0, 0, 3, 2};
  // 60 databases stay within the pipeline's 64-entry retriever cache.
  if (args.workload == "bird_serve") return Sizes{20, 1200, 400, 3, 3};
  return Sizes{30, 1000, 1000, 3, 2};  // fleet_churn
}

constexpr int kEvalThreads = 2;
/// Zipf exponent of tenant popularity in fleet_churn.
constexpr double kZipfS = 1.0;
/// The fleet memory budget holds this share of the tenants' total bytes.
constexpr double kFleetBudgetShare = 0.25;

/// The deployed model is part of the program under test, not of its input:
/// it is trained on the repo's fixed Spider-like or BIRD-like preset. The
/// seed varies only the traffic (served databases, questions, order).
void TrainModel(World* w, bool bird) {
  w->zoo = std::make_unique<LmZoo>();
  w->lm = w->zoo->CodesFor(ModelSize::k7B);
  Text2SqlBenchmark train = bird ? BuildBirdLike() : BuildSpiderLike();
  PipelineConfig config;
  config.size = ModelSize::k7B;
  config.use_external_knowledge = bird;
  w->pipeline = std::make_unique<CodesPipeline>(config, w->lm);
  w->pipeline->TrainClassifier(train);
  w->pipeline->FineTune(train);
}

/// Served databases: every one of the 20 domains, `builds` times over, so
/// every seed serves the same schema mix; the seed draws the contents and
/// the questions. Dev samples are interleaved across databases (one
/// question per database per round), so any contiguous block of the dev
/// set, such as an evaluation worker's shard, sees the same mix.
Text2SqlBenchmark BuildServed(const std::string& name, const DbProfile& profile,
                              bool external_knowledge, int samples_per_db,
                              int builds, uint64_t seed) {
  Text2SqlBenchmark served;
  served.name = name;
  served.profile = profile;
  std::vector<std::vector<Text2SqlSample>> by_db;
  for (int b = 0; b < builds; ++b) {
    BenchmarkConfig config;
    config.name = name;
    config.profile = profile;
    config.train_domains = 0;
    config.dev_domains = 20;
    config.dev_samples_per_db = samples_per_db;
    config.with_external_knowledge = external_knowledge;
    config.seed = seed * 1000003ULL + static_cast<uint64_t>(b);
    Text2SqlBenchmark part = BuildBenchmark(config);
    int offset = static_cast<int>(served.databases.size());
    for (auto& db : part.databases) served.databases.push_back(std::move(db));
    for (auto& domain : part.domain_names) {
      served.domain_names.push_back(domain);
    }
    by_db.resize(served.databases.size());
    for (auto& sample : part.dev) {
      sample.db_index += offset;
      by_db[static_cast<size_t>(sample.db_index)].push_back(std::move(sample));
    }
  }
  for (size_t round = 0;; ++round) {
    bool any = false;
    for (auto& samples : by_db) {
      if (round >= samples.size()) continue;
      served.dev.push_back(std::move(samples[round]));
      any = true;
    }
    if (!any) break;
  }
  return served;
}

void WarmRetrievers(World* w) {
  for (const auto& db : w->bench.databases) (void)w->pipeline->RetrieverFor(db);
}

std::unique_ptr<World> SetupSpiderEval(const Args& args, const Sizes& sz) {
  auto w = std::make_unique<World>();
  TrainModel(w.get(), false);
  w->bench = BuildServed("spider_eval", DbProfile::Spider(), false,
                         sz.samples_per_db, sz.builds, args.seed);
  WarmRetrievers(w.get());
  for (int i = 0; i < static_cast<int>(w->bench.dev.size()); ++i) {
    w->stream.push_back(Request{i, -1});
  }
  return w;
}

std::unique_ptr<World> SetupBirdServe(const Args& args, const Sizes& sz) {
  auto w = std::make_unique<World>();
  TrainModel(w.get(), true);
  w->bench = BuildServed("bird_serve", DbProfile::Bird(), true,
                         sz.samples_per_db, sz.builds, args.seed);
  WarmRetrievers(w.get());
  w->front = std::make_unique<serve::ServeFrontEnd>(
      w->pipeline.get(), &w->bench, serve::FrontEndOptions());
  // Rounds over the databases in seeded order, each taking that database's
  // next question from a seeded shuffle: every database gets the same
  // share of the stream.
  Rng rng(args.seed ^ 0xB12D5E7EULL);
  std::vector<std::vector<int>> queue(w->bench.databases.size());
  for (int i = 0; i < static_cast<int>(w->bench.dev.size()); ++i) {
    queue[static_cast<size_t>(w->bench.dev[i].db_index)].push_back(i);
  }
  std::vector<int> dbs;
  for (size_t d = 0; d < queue.size(); ++d) {
    if (queue[d].empty()) continue;
    rng.Shuffle(queue[d]);
    dbs.push_back(static_cast<int>(d));
  }
  if (dbs.empty()) Die("bird_serve: no served questions");
  for (int round = 0; static_cast<int>(w->stream.size()) < sz.stream_len;
       ++round) {
    rng.Shuffle(dbs);
    for (int d : dbs) {
      if (static_cast<int>(w->stream.size()) >= sz.stream_len) break;
      const auto& q = queue[static_cast<size_t>(d)];
      int sample = q[static_cast<size_t>(round) % q.size()];
      w->stream.push_back(Request{sample, -1});
    }
  }
  return w;
}

std::unique_ptr<World> SetupFleetChurn(const Args& args, const Sizes& sz) {
  auto w = std::make_unique<World>();
  TrainModel(w.get(), false);

  // Tenants: narrow Spider-style schemas with every table at 300 rows, well
  // above the preset's 40..120 (a fixed count keeps the hot tenants' cost
  // from varying with the seed), every domain `builds` times.
  DbProfile tenant_profile = DbProfile::Spider();
  tenant_profile.min_rows = 300;
  tenant_profile.max_rows = 300;
  w->bench = BuildServed("fleet_tenants", tenant_profile, false,
                         sz.samples_per_db, sz.builds, args.seed);

  // Budget: a fixed share of what every tenant's bundle would cost.
  size_t total_bytes = 0;
  for (const auto& db : w->bench.databases) {
    ValueRetriever probe;
    probe.BuildIndex(db);
    total_bytes += probe.ApproxBytes() + sizeof(fleet::TenantArtifacts);
  }
  fleet::FleetManager::Options options;
  options.memory_budget_bytes =
      static_cast<size_t>(kFleetBudgetShare * static_cast<double>(total_bytes));
  w->fleet_budget_bytes = options.memory_budget_bytes;
  w->fleet = std::make_unique<fleet::FleetManager>(options);
  std::vector<int> tenant_of_db;
  std::vector<std::vector<int>> samples_of_tenant(w->bench.databases.size());
  for (size_t d = 0; d < w->bench.databases.size(); ++d) {
    fleet::FleetManager::TenantDesc desc;
    desc.name = "t" + std::to_string(d);
    desc.db = &w->bench.databases[d];
    tenant_of_db.push_back(w->fleet->AddTenant(std::move(desc)));
  }
  for (int i = 0; i < static_cast<int>(w->bench.dev.size()); ++i) {
    int tenant = tenant_of_db[static_cast<size_t>(w->bench.dev[i].db_index)];
    samples_of_tenant[static_cast<size_t>(tenant)].push_back(i);
  }

  // Zipf popularity. Ranks follow domain name, then build, so every seed
  // has the same hot schemas; the seed draws tenants and questions.
  std::vector<int> by_rank;
  for (int t = 0; t < w->fleet->NumTenants(); ++t) {
    if (!samples_of_tenant[static_cast<size_t>(t)].empty()) {
      by_rank.push_back(t);
    }
  }
  if (by_rank.empty()) Die("fleet_churn: no tenant has samples");
  std::stable_sort(by_rank.begin(), by_rank.end(), [&](int a, int b) {
    return w->bench.domain_names[static_cast<size_t>(a)] <
           w->bench.domain_names[static_cast<size_t>(b)];
  });
  std::vector<double> weights;
  for (size_t k = 0; k < by_rank.size(); ++k) {
    weights.push_back(1.0 / std::pow(static_cast<double>(k + 1), kZipfS));
  }
  Rng rng(args.seed ^ 0xF1EE7ULL);
  for (int i = 0; i < sz.stream_len; ++i) {
    int tenant = by_rank[rng.WeightedIndex(weights)];
    const auto& samples = samples_of_tenant[static_cast<size_t>(tenant)];
    w->stream.push_back(Request{samples[rng.Index(samples.size())], tenant});
  }
  // Bring the LRU to its steady state: attach along a prefix of the stream.
  size_t warm = std::min<size_t>(w->stream.size(), 300);
  for (size_t i = 0; i < warm; ++i) (void)w->fleet->Attach(w->stream[i].tenant);
  return w;
}

std::unique_ptr<World> Setup(const Args& args, const Sizes& sz) {
  if (args.workload == "spider_eval") return SetupSpiderEval(args, sz);
  if (args.workload == "bird_serve") return SetupBirdServe(args, sz);
  return SetupFleetChurn(args, sz);
}

// ---------------------------------------------------------------------------
// Serving one request exactly as the timed run does

struct Served {
  std::string sql;
  ServeReport report;
  bool ok = false;         ///< request produced SQL (not rejected / errored)
  bool cold_attach = false;  ///< fleet_churn: this request built the bundle
  uint64_t attach_span = 0;  ///< fleet_churn, traced: the fleet.attach span
};

/// bird_serve / fleet_churn: one request end to end. `e2e_span` (traced
/// runs) parents the fleet.attach span.
Served ServeOne(World& w, const Request& r, SpanLog* log, uint64_t request_id,
                uint64_t e2e_span,
                std::shared_ptr<const fleet::TenantArtifacts>* lease_out) {
  Served out;
  const Text2SqlSample& sample = w.bench.dev[static_cast<size_t>(r.sample)];
  if (w.front != nullptr) {
    Status status = w.front->Serve(sample, &out.sql, &out.report);
    out.ok = status.ok();
    return out;
  }
  // One client: the attach counter moves exactly when this Attach was cold.
  Counter& attaches = MetricsRegistry::Global().GetCounter("fleet.attach");
  uint64_t attaches_before = attaches.Value();
  std::shared_ptr<const fleet::TenantArtifacts> lease;
  {
    Span span(log, "fleet.attach", request_id, e2e_span);
    out.attach_span = span.id();
    lease = w.fleet->Attach(r.tenant);
  }
  out.cold_attach = attaches.Value() != attaches_before;
  if (lease == nullptr || lease->retriever == nullptr) return out;
  ServeOptions options;
  options.value_retriever = lease->retriever.get();
  out.sql = w.pipeline->PredictGuarded(w.bench, sample, options, &out.report);
  out.ok = true;
  if (lease_out != nullptr) *lease_out = std::move(lease);
  return out;
}

// ---------------------------------------------------------------------------
// Replaying one request's layer chain through each layer's public calls

struct Replay {
  std::string sql;
  int candidates_executed = 0;
  int prompt_tokens = 0;
  int items_scored = 0;
  bool rank0_verified = false;
};

std::string EmergencySqlFor(const sql::Database& db) {
  if (db.schema().tables.empty()) return "SELECT 1";
  return "SELECT * FROM " + db.schema().tables[0].name + " LIMIT 1";
}

volatile double g_sink = 0.0;  // keeps shadow-call results observable

Replay ReplayChain(World& w, const Request& r, const ValueRetriever* leased,
                   bool cold_attach, uint64_t attach_span, SpanLog* log,
                   uint64_t request_id, uint64_t replay_span) {
  Replay out;
  const CodesPipeline& pipeline = *w.pipeline;
  const Text2SqlSample& sample = w.bench.dev[static_cast<size_t>(r.sample)];
  const sql::Database& db = w.bench.DbOf(sample);
  const PipelineConfig& config = pipeline.config();
  std::string question = sample.question;
  if (config.use_external_knowledge && !sample.external_knowledge.empty()) {
    question += " ; " + sample.external_knowledge;
  }

  if (cold_attach) {
    // The cold fleet path: the index build a cold Attach performed.
    Span span(log, "retrieval.build_index", request_id, attach_span);
    ValueRetriever rebuilt;
    if (!rebuilt.TryBuildIndex(db, nullptr, false).ok()) {
      Die("replay: TryBuildIndex failed");
    }
    g_sink = g_sink + static_cast<double>(rebuilt.NumIndexedValues());
  }

  // Prompt layer. Warm workloads use the pipeline's own per-database
  // retriever; fleet_churn builds with the leased one, as PredictGuarded
  // does when ServeOptions::value_retriever is set.
  std::shared_ptr<const ValueRetriever> own;
  const ValueRetriever* retriever = leased;
  if (retriever == nullptr) {
    own = pipeline.RetrieverFor(db);
    retriever = own.get();
  }
  DatabasePrompt prompt;
  uint64_t prompt_span = 0;
  {
    Span span(log, "prompt.build", request_id, replay_span);
    prompt_span = span.id();
    if (leased != nullptr) {
      PromptOptions options = config.prompt;
      options.max_prompt_tokens =
          std::min(options.max_prompt_tokens,
                   pipeline.model().profile().max_context_tokens);
      prompt = PromptBuilder(pipeline.classifier(), options)
                   .Build(db, question, leased);
    } else {
      prompt = pipeline.BuildPrompt(w.bench, sample);
    }
  }
  out.prompt_tokens = prompt.token_count;
  {
    // Shadow of the classifier scoring inside BuildPrompt.
    Span span(log, "linker.score", request_id, prompt_span);
    const SchemaItemClassifier* classifier = pipeline.classifier();
    const auto& tables = db.schema().tables;
    for (int t = 0; t < static_cast<int>(tables.size()); ++t) {
      g_sink = g_sink + classifier->ScoreTable(question, db, t);
      ++out.items_scored;
    }
    for (int t : prompt.kept_tables) {
      const auto& columns = tables[static_cast<size_t>(t)].columns;
      for (int c = 0; c < static_cast<int>(columns.size()); ++c) {
        g_sink = g_sink + classifier->ScoreColumn(question, db, t, c);
        ++out.items_scored;
      }
    }
  }
  if (retriever != nullptr) {
    // Shadow of the value retrieval inside BuildPrompt.
    Span span(log, "retrieval.retrieve", request_id, prompt_span);
    auto values = retriever->Retrieve(question, config.prompt.value_coarse_k,
                                      config.prompt.value_fine_k);
    g_sink = g_sink + static_cast<double>(values.size());
  }

  // Generator layer.
  GenerationInput input;
  input.db = &db;
  input.prompt = &prompt;
  input.question = sample.question;
  if (config.use_external_knowledge) {
    input.external_knowledge = sample.external_knowledge;
  }
  std::vector<ScoredCandidate> beam;
  uint64_t beam_span = 0;
  {
    Span span(log, "generator.beam", request_id, replay_span);
    beam_span = span.id();
    beam = pipeline.model().GenerateBeam(
        input, config.seed ^ Fnv1a(sample.question),
        /*mark_executable=*/false);
  }
  {
    // Shadow of the LM reranking term inside GenerateBeam.
    Span span(log, "lm.score", request_id, beam_span);
    for (const auto& candidate : beam) {
      g_sink = g_sink + w.lm->AvgLogProb(candidate.sql);
    }
  }

  // Verification walk: the first candidate that executes is served.
  const int max_attempts = ServeOptions().max_repair_attempts;
  int attempts = 0;
  int fallback = -1;
  int served = -1;
  for (size_t i = 0; i < beam.size() && attempts < max_attempts; ++i) {
    const std::string& text = beam[i].sql;
    if (text.empty()) continue;
    if (fallback < 0) fallback = static_cast<int>(i);
    Status status;
    uint64_t exec_span = 0;
    {
      Span span(log, "sqlengine.execute", request_id, replay_span);
      exec_span = span.id();
      status = sql::ExecuteSql(db, text).status();
    }
    {
      // Shadow of the parse inside ExecuteSql.
      Span span(log, "sqlengine.parse", request_id, exec_span);
      g_sink = g_sink + (sql::ParseSql(text).ok() ? 1.0 : 0.0);
    }
    ++out.candidates_executed;
    if (status.ok()) {
      served = static_cast<int>(i);
      break;
    }
    ++attempts;
  }
  out.rank0_verified = served == 0;
  if (served >= 0) {
    out.sql = beam[static_cast<size_t>(served)].sql;
  } else if (fallback >= 0) {
    out.sql = beam[static_cast<size_t>(fallback)].sql;
  } else {
    out.sql = EmergencySqlFor(db);
  }
  {
    Span span(log, "eval.ex_match", request_id, replay_span);
    g_sink = g_sink + (ExecutionMatch(db, out.sql, sample.sql) ? 1.0 : 0.0);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Passes

/// A run of consecutive requests inside the timed window. The timed
/// metrics are medians over chunks, so host contention that hits a minority
/// of chunks does not move them.
struct Chunk {
  double completed = 0;  ///< requests that produced SQL
  double seconds = 0;
  std::vector<double> latency_us;
};

/// Serving workloads cut their window into chunks of this many requests:
/// enough for ten requests beyond p95.
constexpr size_t kChunkRequests = 200;

/// Medians over chunks of per-chunk throughput, p50 and p95.
struct WindowStats {
  double qps = 0;
  double p50_us = 0;
  double p95_us = 0;
};

WindowStats SummarizeChunks(const std::vector<Chunk>& chunks) {
  std::vector<double> qps, p50, p95;
  for (const Chunk& c : chunks) {
    qps.push_back(c.seconds > 0 ? c.completed / c.seconds : 0.0);
    p50.push_back(Percentile(c.latency_us, 0.50));
    p95.push_back(Percentile(c.latency_us, 0.95));
  }
  return WindowStats{Median(qps), Median(p50), Median(p95)};
}

/// Outcome of serving requests closed-loop.
struct PassResult {
  std::vector<std::string> first_sql;    ///< served SQL of the first pass
  std::vector<double> first_latency_us;  ///< first pass, by request index
  std::vector<Chunk> chunks;             ///< every request, in order
  std::vector<Replay> replays;           ///< traced: first pass, by index
  uint64_t issued = 0;
  uint64_t completed = 0;  ///< produced SQL
  std::vector<uint64_t> per_tenant_requests;
  double elapsed_s = 0.0;
  bool repeat_sql_matches = true;  ///< later passes served the same SQL
  bool nonempty_sql = true;
};

/// Serves the first `len` requests of the stream from one closed-loop
/// client, repeating them until `seconds` have passed and the first pass
/// has completed (`seconds` <= 0: exactly one pass). With a span log, each
/// request of the first pass is followed by its replay.
PassResult RunServePass(World& w, size_t len, double seconds, SpanLog* log) {
  const size_t n = std::min(len, w.stream.size());
  PassResult result;
  result.first_sql.assign(n, "");
  result.first_latency_us.assign(n, 0.0);
  if (log != nullptr) result.replays.assign(n, Replay());
  int tenants = w.fleet != nullptr ? w.fleet->NumTenants() : 0;
  result.per_tenant_requests.assign(static_cast<size_t>(tenants), 0);
  auto start = Clock::now();
  auto chunk_start = start;
  Chunk chunk;
  for (size_t i = 0;; ++i) {
    bool first_pass = i < n;
    if (!first_pass && (seconds <= 0 || SecondsSince(start) >= seconds)) {
      break;
    }
    const Request& r = w.stream[i % n];
    uint64_t request_id = i + 1;
    Served served;
    std::shared_ptr<const fleet::TenantArtifacts> lease;
    auto t0 = Clock::now();
    {
      Span e2e(log, "request.e2e", request_id, 0);
      served = ServeOne(w, r, log, request_id, e2e.id(), &lease);
    }
    double us = MicrosBetween(t0, Clock::now());
    chunk.latency_us.push_back(us);
    chunk.completed += served.ok ? 1 : 0;
    if (chunk.latency_us.size() == kChunkRequests) {
      chunk.seconds = SecondsSince(chunk_start);
      result.chunks.push_back(std::move(chunk));
      chunk = Chunk();
      chunk_start = Clock::now();
    }
    ++result.issued;
    if (served.ok) ++result.completed;
    if (served.ok && served.sql.empty()) result.nonempty_sql = false;
    if (r.tenant >= 0) {
      ++result.per_tenant_requests[static_cast<size_t>(r.tenant)];
    }
    if (!first_pass) {
      if (served.sql != result.first_sql[i % n]) {
        result.repeat_sql_matches = false;
      }
      continue;
    }
    result.first_sql[i] = served.sql;
    result.first_latency_us[i] = us;
    if (log != nullptr) {
      Span replay_span(log, "request.replay", request_id, 0);
      result.replays[i] = ReplayChain(
          w, r, lease != nullptr ? lease->retriever.get() : nullptr,
          served.cold_attach, served.attach_span, log, request_id,
          replay_span.id());
    }
  }
  result.elapsed_s = SecondsSince(start);
  if (result.chunks.empty() && !chunk.latency_us.empty()) {
    // Shorter than one chunk (smoke runs): the whole pass is the chunk.
    chunk.seconds = SecondsSince(chunk_start);
    result.chunks.push_back(std::move(chunk));
  }
  return result;
}

/// spider_eval: repeated ParallelEvaluateDevSet calls (EX + TS, 2 threads)
/// until `seconds` have passed (at least one call). Per-sample predictor
/// latency is recorded; with a span log each predictor call is a
/// request.e2e span.
struct EvalRun {
  EvalResult first;
  std::vector<double> latency_us;
  std::vector<Chunk> chunks;  ///< one per evaluation call
  uint64_t evaluated = 0;
  int calls = 0;
  double elapsed_s = 0.0;
  bool repeat_sql_matches = true;
};

/// EX + TS on kEvalThreads workers, as spider_eval measures it.
EvalOptions TsEvalOptions(uint64_t seed) {
  EvalOptions options;
  options.compute_ts = true;
  options.ts_instances = 3;
  options.num_threads = kEvalThreads;
  options.seed = seed;
  return options;
}

EvalRun RunEvalPasses(World& w, const Args& args, double seconds,
                      SpanLog* log) {
  const EvalOptions options = TsEvalOptions(args.seed);
  const size_t n = w.bench.dev.size();
  std::vector<double> latency(n, 0.0);
  const Text2SqlSample* base = w.bench.dev.data();
  SqlPredictor predictor = [&](const Text2SqlSample& sample) {
    size_t index = static_cast<size_t>(&sample - base);
    if (index >= n) Die("predictor called with a sample outside the dev set");
    auto t0 = Clock::now();
    std::string sql;
    {
      Span span(log, "request.e2e", index + 1, 0);
      sql = w.pipeline->Predict(w.bench, sample);
    }
    latency[index] = MicrosBetween(t0, Clock::now());
    return sql;
  };
  EvalRun run;
  auto start = Clock::now();
  do {
    auto call_start = Clock::now();
    EvalResult result = ParallelEvaluateDevSet(w.bench, predictor, options);
    run.chunks.push_back(Chunk{static_cast<double>(result.samples.size()),
                               SecondsSince(call_start), latency});
    run.latency_us.insert(run.latency_us.end(), latency.begin(), latency.end());
    run.evaluated += result.samples.size();
    if (run.calls == 0) {
      run.first = std::move(result);
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (result.samples[i].predicted != run.first.samples[i].predicted) {
          run.repeat_sql_matches = false;
        }
      }
    }
    ++run.calls;
  } while (seconds > 0 && SecondsSince(start) < seconds);
  run.elapsed_s = SecondsSince(start);
  return run;
}

/// EX and TS of the first pass's served SQL, scored by the eval layer
/// after the timed window. Each distinct question counts once: a repeated
/// request serves the same SQL (checked), and counting it again would let
/// the hottest tenants' few questions dominate.
EvalMetrics ScoreServed(World& w, const std::vector<std::string>& sql,
                        uint64_t seed) {
  std::vector<Text2SqlSample> distinct;
  std::vector<std::string> distinct_sql;
  std::unordered_set<int> seen;
  for (size_t i = 0; i < w.stream.size(); ++i) {
    int sample = w.stream[i].sample;
    if (!seen.insert(sample).second) continue;
    distinct.push_back(w.bench.dev[static_cast<size_t>(sample)]);
    distinct_sql.push_back(sql[i]);
  }
  std::swap(w.bench.dev, distinct);
  const Text2SqlSample* base = w.bench.dev.data();
  SqlPredictor lookup = [&](const Text2SqlSample& sample) {
    return distinct_sql[static_cast<size_t>(&sample - base)];
  };
  EvalMetrics metrics =
      ParallelEvaluateDevSet(w.bench, lookup, TsEvalOptions(seed)).metrics;
  std::swap(w.bench.dev, distinct);
  return metrics;
}

uint64_t DigestOf(const std::vector<std::string>& sql) {
  uint64_t h = 1469598103934665603ULL;
  for (const auto& s : sql) {
    h = Fnv1a(s, h);
    h = Fnv1a(std::string_view("\n", 1), h);
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Share of stream requests whose question already appeared earlier in it.
double RepeatedQuestionPct(const World& w) {
  std::unordered_set<std::string> seen;
  size_t repeated = 0;
  for (const Request& r : w.stream) {
    const auto& q = w.bench.dev[static_cast<size_t>(r.sample)].question;
    if (!seen.insert(q).second) ++repeated;
  }
  return Pct(static_cast<double>(repeated),
             static_cast<double>(w.stream.size()));
}

// ---------------------------------------------------------------------------
// Per-layer aggregation of a span log

struct LayerStats {
  uint64_t calls = 0;
  double self_us = 0.0;
};

std::map<std::string, LayerStats> AggregateLayers(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, double> child_us;
  for (const auto& s : spans) {
    if (s.parent != 0) child_us[s.parent] += MicrosBetween(s.start, s.end);
  }
  std::map<std::string, LayerStats> layers;
  for (const auto& name : LayerSpans()) layers[name] = LayerStats();
  for (const auto& s : spans) {
    auto it = layers.find(s.name);
    if (it == layers.end()) continue;
    double self = MicrosBetween(s.start, s.end) - child_us[s.id];
    it->second.calls += 1;
    it->second.self_us += std::max(0.0, self);
  }
  return layers;
}

void WriteTrace(const std::string& path, const std::vector<SpanRecord>& spans,
                Clock::time_point epoch) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  if (!out) Die("cannot write trace " + path);
  for (const auto& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"request\":" << s.request
        << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"start_us\":" << Num(MicrosBetween(epoch, s.start))
        << ",\"dur_us\":" << Num(MicrosBetween(s.start, s.end)) << "}\n";
  }
}

// ---------------------------------------------------------------------------
// Modes

struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string digest;
  double ex_pct = 0.0;
  double ts_pct = 0.0;
};

/// Failure accounting from serve.* counter deltas: rejected, shed, and
/// served-unverified (which includes emergency SQL) requests, plus requests
/// that produced no SQL at all. Wrong but executable answers are not
/// failures; they count only against ex_pct / ts_pct.
uint64_t FailedFrom(const CounterWindow& window, uint64_t errored) {
  return window.Delta("serve.rejected") + window.Delta("serve.shed") +
         window.Delta("serve.unverified") + errored;
}

double FailPct(const Totals& totals) {
  return Pct(static_cast<double>(totals.failed),
             static_cast<double>(totals.attempted));
}

void RecordCommonConditions(const Args& args, const World& w, Report* report) {
  report->Condition("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  report->Condition("compiler", Quote(PERFBENCH_COMPILER));
  report->Condition("flags", Quote(PERFBENCH_FLAGS));
  report->Condition("seed", std::to_string(args.seed));
  report->Condition("stream_requests", std::to_string(w.stream.size()));
  report->Condition("repeated_question_pct", Num(RepeatedQuestionPct(w)));
  report->Condition("databases", std::to_string(w.bench.databases.size()));
}

Totals RunTimed(const Args& args, const Sizes& sz, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<World> w;
  for (int rep = 0; rep < sz.setup_reps; ++rep) {
    w.reset();
    auto t0 = Clock::now();
    w = Setup(args, sz);
    setup_s.push_back(SecondsSince(t0));
  }
  RecordCommonConditions(args, *w, report);
  std::string setups = "[";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    setups += (i > 0 ? "," : "") + Num(setup_s[i]);
  }
  report->Condition("setup_s_each", setups + "]");
  report->Condition("loadavg_before", Quote(LoadAverage()));
  report->Condition("calibration_mbps_before", Num(CalibrationMbps()));

  Totals totals;
  WindowStats stats;
  if (args.workload == "spider_eval") {
    CounterWindow window(WatchedCounters());
    EvalRun run = RunEvalPasses(*w, args, args.seconds, nullptr);
    report->Condition("loadavg_after", Quote(LoadAverage()));
    report->Condition("calibration_mbps_after", Num(CalibrationMbps()));
    report->Condition("requests_measured", std::to_string(run.evaluated));
    report->Condition("eval_calls", std::to_string(run.calls));
    report->Condition("window_s", Num(run.elapsed_s));
    std::vector<std::string> sql;
    bool nonempty = true;
    for (const auto& s : run.first.samples) {
      sql.push_back(s.predicted);
      if (s.predicted.empty()) nonempty = false;
    }
    uint64_t requests = window.Delta("serve.requests");
    totals.attempted = requests;
    totals.failed = FailedFrom(window, 0);
    totals.digest = Hex(DigestOf(sql));
    totals.ex_pct = run.first.metrics.ex;
    totals.ts_pct = run.first.metrics.ts;
    report->Check("served_sql_nonempty", nonempty);
    report->Check("repeat_passes_serve_same_sql", run.repeat_sql_matches);
    report->Check("serve_requests_equal_evaluated", requests == run.evaluated);
    stats = SummarizeChunks(run.chunks);
  } else {
    // Warm-up: CPU caches, allocator and (bird_serve) the front end.
    size_t warm = std::min<size_t>(w->stream.size(), 10);
    for (size_t i = 0; i < warm; ++i) {
      (void)ServeOne(*w, w->stream[i], nullptr, 0, 0, nullptr);
    }
    size_t resident_before = w->fleet != nullptr ? w->fleet->NumResident() : 0;
    CounterWindow window(WatchedCounters());
    PassResult run =
        RunServePass(*w, w->stream.size(), args.seconds, nullptr);
    report->Condition("loadavg_after", Quote(LoadAverage()));
    report->Condition("calibration_mbps_after", Num(CalibrationMbps()));
    report->Condition("requests_measured", std::to_string(run.issued));
    // A request the front end refused is already in serve.rejected; only
    // the fleet path can fail without a serve.* counter (no lease).
    uint64_t errored = w->front != nullptr ? 0 : run.issued - run.completed;
    totals.attempted = run.issued;
    totals.failed = FailedFrom(window, errored);
    totals.digest = Hex(DigestOf(run.first_sql));
    EvalMetrics quality = ScoreServed(*w, run.first_sql, args.seed);
    totals.ex_pct = quality.ex;
    totals.ts_pct = quality.ts;
    report->Check("served_sql_nonempty", run.nonempty_sql);
    report->Check("repeat_passes_serve_same_sql", run.repeat_sql_matches);
    if (w->front != nullptr) {
      uint64_t offered = window.Delta("serve.offered");
      report->Check("admitted_rejected_shed_sum_to_offered",
                    window.Delta("serve.admitted") +
                            window.Delta("serve.rejected") +
                            window.Delta("serve.shed") ==
                        offered);
      report->Check("offered_equals_issued", offered == run.issued);
      totals.attempted = offered;
    } else {
      report->Check("serve_requests_equal_completed",
                    window.Delta("serve.requests") == run.completed);
      uint64_t req_sum = 0;
      for (uint64_t n : run.per_tenant_requests) req_sum += n;
      uint64_t attach = window.Delta("fleet.attach");
      report->Check("fleet_tenant_requests_sum", req_sum == run.issued);
      report->Check("fleet_attach_is_build_plus_snapshot",
                    attach == window.Delta("fleet.attach.build") +
                                  window.Delta("fleet.attach.snapshot"));
      // Every cold attach makes one bundle resident, every eviction drops
      // one.
      report->Check("fleet_resident_is_attach_minus_evict",
                    resident_before + attach ==
                        w->fleet->NumResident() + window.Delta("fleet.evict"));
      report->Check("fleet_within_budget",
                    w->fleet->ResidentBytes() <= w->fleet_budget_bytes ||
                        w->fleet->NumResident() <= 1);
      report->Condition("fleet_budget_bytes",
                        std::to_string(w->fleet_budget_bytes));
      report->Condition("fleet_tenants",
                        std::to_string(w->fleet->NumTenants()));
      report->Condition(
          "fleet_hit_pct",
          Num(Pct(static_cast<double>(run.issued - attach),
                  static_cast<double>(run.issued))));
    }
    stats = SummarizeChunks(run.chunks);
    report->Condition("chunks", std::to_string(run.chunks.size()));
    report->Condition("window_s", Num(run.elapsed_s));
  }
  report->Add("qps", stats.qps, "1/s");
  report->Add("latency_p50_us", stats.p50_us, "us");
  report->Add("latency_p95_us", stats.p95_us, "us");
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("ex_pct", totals.ex_pct, "%");
  report->Add("ts_pct", totals.ts_pct, "%");
  double fail_pct = FailPct(totals);
  report->Condition("fail_pct", Num(fail_pct));
  report->Add("verified_pct", 100.0 - fail_pct, "%");
  report->Add("peak_rss_mb", PeakRssMb(), "MiB");
  return totals;
}

Totals RunTraced(const Args& args, const Sizes& sz, Report* report) {
  auto t_setup = Clock::now();
  std::unique_ptr<World> w = Setup(args, sz);
  RecordCommonConditions(args, *w, report);
  report->Condition("setup_s_traced", Num(SecondsSince(t_setup)));
  report->Condition("loadavg_before", Quote(LoadAverage()));
  report->Condition("calibration_mbps_before", Num(CalibrationMbps()));

  SpanLog log;
  Totals totals;
  std::vector<SpanRecord> spans;
  std::vector<Replay> replays;
  std::vector<std::string> e2e_sql;
  std::vector<double> untraced_us, traced_us;
  uint64_t requests = 0;
  double fleet_requests = 0.0;  // attaches issued over both passes
  auto epoch = Clock::now();

  CounterWindow window(WatchedCounters());
  if (args.workload == "spider_eval") {
    // Untraced baseline, then the traced call, then the replays.
    EvalRun baseline = RunEvalPasses(*w, args, 0, nullptr);
    EvalRun traced = RunEvalPasses(*w, args, 0, &log);
    untraced_us = baseline.latency_us;
    traced_us = traced.latency_us;
    size_t n = w->stream.size();
    replays.assign(n, Replay());
    for (size_t i = 0; i < n; ++i) {
      Span replay_span(&log, "request.replay", i + 1, 0);
      replays[i] = ReplayChain(*w, w->stream[i], nullptr, false, 0, &log,
                               i + 1, replay_span.id());
      e2e_sql.push_back(traced.first.samples[i].predicted);
    }
    std::vector<std::string> sql;
    bool nonempty = true;
    for (const auto& s : baseline.first.samples) {
      sql.push_back(s.predicted);
      if (s.predicted.empty()) nonempty = false;
    }
    report->Check("served_sql_nonempty", nonempty);
    totals.digest = Hex(DigestOf(sql));
    totals.ex_pct = baseline.first.metrics.ex;
    totals.ts_pct = baseline.first.metrics.ts;
    report->Check("traced_e2e_matches_untraced", e2e_sql == sql);
    requests = n;
  } else {
    // The untraced baseline serves the whole stream (digest, EX, TS); the
    // traced pass replays its first traced_len requests.
    PassResult baseline = RunServePass(*w, w->stream.size(), 0, nullptr);
    PassResult traced =
        RunServePass(*w, static_cast<size_t>(sz.traced_len), 0, &log);
    replays = std::move(traced.replays);
    e2e_sql = traced.first_sql;
    untraced_us = baseline.first_latency_us;
    untraced_us.resize(traced.first_sql.size());
    traced_us = traced.first_latency_us;
    totals.digest = Hex(DigestOf(baseline.first_sql));
    EvalMetrics quality = ScoreServed(*w, baseline.first_sql, args.seed);
    totals.ex_pct = quality.ex;
    totals.ts_pct = quality.ts;
    report->Check("traced_e2e_matches_untraced",
                  std::equal(traced.first_sql.begin(), traced.first_sql.end(),
                             baseline.first_sql.begin()));
    report->Check("served_sql_nonempty",
                  baseline.nonempty_sql && traced.nonempty_sql);
    requests = traced.first_sql.size();
    if (w->fleet != nullptr) {
      fleet_requests = static_cast<double>(baseline.issued + traced.issued);
    }
  }
  report->Condition("loadavg_after", Quote(LoadAverage()));
  report->Condition("calibration_mbps_after", Num(CalibrationMbps()));
  spans = log.Take();

  bool replay_matches = true;
  for (size_t i = 0; i < replays.size(); ++i) {
    if (replays[i].sql != e2e_sql[i]) {
      replay_matches = false;
      std::fprintf(stderr,
                   "replay mismatch at request %zu:\n  e2e:    %s\n"
                   "  replay: %s\n",
                   i, e2e_sql[i].c_str(), replays[i].sql.c_str());
    }
  }
  report->Check("replay_serves_e2e_sql", replay_matches);

  // Per-layer spans.
  auto layers = AggregateLayers(spans);
  double total_self = 0.0;
  for (const auto& [name, stats] : layers) total_self += stats.self_us;
  double n_req = static_cast<double>(std::max<uint64_t>(requests, 1));
  for (const auto& name : LayerSpans()) {
    const LayerStats& stats = layers[name];
    report->Add(name + ".calls", static_cast<double>(stats.calls), "count");
    report->Add(name + ".self_us", stats.self_us / n_req, "us");
    report->Add(name + ".share_pct", Pct(stats.self_us, total_self), "%");
  }

  // e2e minus the replayed chain: front end / pipeline bookkeeping. The
  // chain is fleet.attach plus the replay's top-level layer calls; shadow
  // calls (the replayed build included) repeat work already counted there.
  double e2e_total = 0.0, chain_total = 0.0;
  std::unordered_set<uint64_t> replay_roots;
  for (const auto& s : spans) {
    if (std::string_view(s.name) == "request.replay") replay_roots.insert(s.id);
  }
  for (const auto& s : spans) {
    std::string_view name(s.name);
    double us = MicrosBetween(s.start, s.end);
    if (name == "request.e2e") e2e_total += us;
    if (name == "fleet.attach") chain_total += us;
    if (replay_roots.count(s.parent) != 0 && name != "eval.ex_match") {
      chain_total += us;
    }
  }
  report->Add("serve.overhead_us", (e2e_total - chain_total) / n_req, "us");

  double items = 0, tokens = 0, candidates = 0, rank0 = 0;
  for (const auto& r : replays) {
    items += r.items_scored;
    tokens += r.prompt_tokens;
    candidates += r.candidates_executed;
    rank0 += r.rank0_verified ? 1 : 0;
  }
  report->Add("sqlengine.candidates_per_req", candidates / n_req, "count");
  report->Add("generator.rank0_verified_pct", 100.0 * rank0 / n_req, "%");
  report->Add("prompt.tokens_per_req", tokens / n_req, "count");
  report->Add("linker.items_scored_per_req", items / n_req, "count");

  // Counter ratios over both passes (untraced baseline + traced).
  double attach = static_cast<double>(window.Delta("fleet.attach"));
  double fleet_hit_pct = Pct(fleet_requests - attach, fleet_requests);
  report->Add("fleet.hit_pct", fleet_hit_pct, "%");
  auto per_kreq = [&](const char* counter) {
    return 10.0 * Pct(static_cast<double>(window.Delta(counter)),
                      fleet_requests);
  };
  report->Add("fleet.builds_per_kreq", per_kreq("fleet.attach.build"),
              "count");
  report->Add("fleet.snapshot_loads_per_kreq",
              per_kreq("fleet.attach.snapshot"), "count");
  report->Add("fleet.evicts_per_kreq", per_kreq("fleet.evict"), "count");
  // In fleet_churn the leased bundle is the retrieval layer's cache.
  double hits =
      static_cast<double>(window.Delta("pipeline.retriever_cache.hits"));
  double lookups = hits + static_cast<double>(
                              window.Delta("pipeline.retriever_cache.misses"));
  report->Add("retrieval.cache_hit_pct",
              w->fleet != nullptr ? fleet_hit_pct : Pct(hits, lookups), "%");
  double offered = static_cast<double>(window.Delta("serve.offered"));
  report->Add("serve.rejected_pct",
              Pct(static_cast<double>(window.Delta("serve.rejected")), offered),
              "%");
  report->Add("serve.shed_pct",
              Pct(static_cast<double>(window.Delta("serve.shed")), offered),
              "%");
  double base_med = Median(untraced_us);
  report->Add("tracing_overhead_pct",
              Pct(Median(traced_us) - base_med, base_med), "%");
  report->Condition("spans", std::to_string(spans.size()));
  report->Condition("requests_measured", std::to_string(requests));

  totals.attempted = window.Delta("serve.offered");
  if (totals.attempted == 0) totals.attempted = window.Delta("serve.requests");
  totals.failed = FailedFrom(window, 0);
  report->Add("serve.fail_pct", FailPct(totals), "%");
  WriteTrace(args.trace_out, spans, epoch);
  return totals;
}

}  // namespace
}  // namespace codes

int main(int argc, char** argv) {
  using namespace codes;
  Args args = ParseArgs(argc, argv);
  Sizes sizes = SizesFor(args);
  Report report;
  Totals totals = args.trace ? RunTraced(args, sizes, &report)
                             : RunTimed(args, sizes, &report);
  std::printf("%s\n", report.ToJson(args, totals.attempted, totals.failed,
                                    totals.digest, totals.ex_pct, totals.ts_pct)
                          .c_str());
  return 0;
}
