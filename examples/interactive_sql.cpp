// A mini SQL shell over the from-scratch engine substrate: generates one
// domain database, prints its DDL, and executes SQL typed on stdin. Shows
// that the execution layer behind the EX/TS/VES metrics is a real engine.
//
//   $ echo "SELECT country, COUNT(*) FROM singer GROUP BY country" |
//       ./interactive_sql
//
// Without stdin input it runs a scripted demo.

#include <cstdio>
#include <iostream>
#include <string>

#include "common/rng.h"
#include "dataset/db_generator.h"
#include "dataset/domains.h"
#include "sqlengine/executor.h"

int main() {
  using namespace codes;

  Rng rng(7);
  sql::Database db = GenerateDatabase(AllDomains()[0], DbProfile::Spider(),
                                      rng);
  std::printf("generated database '%s' (%zu rows)\n\n",
              db.schema().name.c_str(), db.TotalRows());
  std::printf("%s\n", db.schema().ToDdl().c_str());

  const char* demo_queries[] = {
      "SELECT country, COUNT(*) AS singers FROM singer GROUP BY country "
      "ORDER BY COUNT(*) DESC LIMIT 5",
      "SELECT singer.name, concert.concert_title FROM concert JOIN singer "
      "ON concert.singer_id = singer.singer_id WHERE concert.year > 2000 "
      "LIMIT 5",
      "SELECT MIN(age), MAX(age), AVG(age) FROM singer",
  };

  bool had_input = false;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    had_input = true;
    auto result = sql::ExecuteSql(db, line);
    if (result.ok()) {
      std::printf("%s\n", result->ToString().c_str());
    } else {
      std::printf("error: %s\n", result.status().ToString().c_str());
    }
  }

  if (!had_input) {
    for (const char* query : demo_queries) {
      std::printf("sql> %s\n", query);
      auto result = sql::ExecuteSql(db, query);
      if (result.ok()) {
        std::printf("%s\n", result->ToString().c_str());
      } else {
        std::printf("error: %s\n", result.status().ToString().c_str());
      }
    }
  }
  return 0;
}
