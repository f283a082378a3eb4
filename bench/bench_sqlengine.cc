// Micro-benchmarks of the SQL engine substrate: parsing, scans, hash vs
// nested-loop joins, and aggregation. Not a paper table; documents the
// substrate costs behind the EX/TS/VES metrics.

#include <benchmark/benchmark.h>

#include <memory>

#include "common/rng.h"
#include "dataset/benchmark_builder.h"
#include "dataset/db_generator.h"
#include "dataset/domains.h"
#include "sqlengine/executor.h"
#include "sqlengine/parser.h"

namespace codes {
namespace {

std::unique_ptr<sql::Database> MakeDb(int rows) {
  DbProfile profile = DbProfile::Spider();
  profile.min_rows = rows;
  profile.max_rows = rows;
  Rng rng(5);
  return std::make_unique<sql::Database>(
      GenerateDatabase(AllDomains()[0], profile, rng));
}

void BM_ParseSelect(benchmark::State& state) {
  const std::string sql =
      "SELECT singer.name, COUNT(*) FROM concert JOIN singer ON "
      "concert.singer_id = singer.singer_id WHERE concert.year > 2000 "
      "GROUP BY singer.name HAVING COUNT(*) >= 2 ORDER BY COUNT(*) DESC "
      "LIMIT 5";
  for (auto _ : state) {
    auto stmt = sql::ParseSql(sql);
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_ParseSelect);

void BM_FilteredScan(benchmark::State& state) {
  auto db = MakeDb(static_cast<int>(state.range(0)));
  auto stmt = sql::ParseSql("SELECT name FROM singer WHERE age > 50");
  const sql::BoundStatement bound =
      sql::Bind(std::move(*stmt), db->schema());
  for (auto _ : state) {
    auto result = sql::Execute(*db, bound);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FilteredScan)->Arg(100)->Arg(1000);

void BM_HashJoin(benchmark::State& state) {
  auto db = MakeDb(static_cast<int>(state.range(0)));
  auto stmt = sql::ParseSql(
      "SELECT singer.name, concert.concert_title FROM concert JOIN singer "
      "ON concert.singer_id = singer.singer_id");
  const sql::BoundStatement bound =
      sql::Bind(std::move(*stmt), db->schema());
  for (auto _ : state) {
    auto result = sql::Execute(*db, bound);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_HashJoin)->Arg(100)->Arg(1000);

void BM_NestedLoopThetaJoin(benchmark::State& state) {
  auto db = MakeDb(static_cast<int>(state.range(0)));
  auto stmt = sql::ParseSql(
      "SELECT COUNT(*) FROM concert JOIN singer ON concert.singer_id < "
      "singer.singer_id");
  const sql::BoundStatement bound =
      sql::Bind(std::move(*stmt), db->schema());
  for (auto _ : state) {
    auto result = sql::Execute(*db, bound);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_NestedLoopThetaJoin)->Arg(100)->Arg(400);

void BM_GroupAggregate(benchmark::State& state) {
  auto db = MakeDb(static_cast<int>(state.range(0)));
  auto stmt = sql::ParseSql(
      "SELECT country, COUNT(*), AVG(age) FROM singer GROUP BY country");
  const sql::BoundStatement bound =
      sql::Bind(std::move(*stmt), db->schema());
  for (auto _ : state) {
    auto result = sql::Execute(*db, bound);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_GroupAggregate)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace codes

BENCHMARK_MAIN();
