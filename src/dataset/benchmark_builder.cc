#include "dataset/benchmark_builder.h"

#include <set>
#include <unordered_set>

#include "common/status.h"
#include "common/string_util.h"
#include "dataset/domains.h"
#include "dataset/templates.h"
#include "sqlengine/executor.h"

namespace codes {

namespace {

/// Columns whose comment will be hidden from the schema after sample
/// generation (BIRD's "only the evidence explains this column" setting).
using HiddenColumnSet = std::set<std::pair<int, int>>;

HiddenColumnSet PickHiddenColumns(const sql::Database& db,
                                  double probability, Rng& rng) {
  HiddenColumnSet hidden;
  if (probability <= 0) return hidden;
  const auto& schema = db.schema();
  for (size_t t = 0; t < schema.tables.size(); ++t) {
    for (size_t c = 0; c < schema.tables[t].columns.size(); ++c) {
      const auto& col = schema.tables[t].columns[c];
      if (col.comment.empty() || col.is_primary_key) continue;
      if (rng.Bernoulli(probability)) {
        hidden.emplace(static_cast<int>(t), static_cast<int>(c));
      }
    }
  }
  return hidden;
}

/// Builds the BIRD-style external-knowledge string for a sample: it maps
/// ambiguous column names to their meaning ("net profit growth rate refers
/// to financial_report.npgr"), the same shape of evidence BIRD provides.
/// Hidden columns always get a hint — after hiding, the EK is the *only*
/// source of that mapping.
std::string BuildExternalKnowledge(const sql::Database& db,
                                   const TemplateInstance& inst,
                                   const HiddenColumnSet& hidden) {
  std::string ek;
  int hints = 0;
  for (const auto& [t, c] : inst.used_items) {
    if (c < 0) continue;
    const auto& table = db.schema().tables[t];
    const auto& col = table.columns[c];
    if (col.comment.empty()) continue;
    bool is_hidden = hidden.count({t, c}) > 0;
    // Non-hidden columns only need evidence when their name is ambiguous
    // (the question never spells it out) and we still have hint budget.
    if (!is_hidden) {
      if (hints >= 2) continue;
      if (ContainsIgnoreCase(inst.question, col.name)) continue;
    }
    if (!ek.empty()) ek += " ; ";
    ek += col.comment + " refers to " + table.name + "." + col.name;
    ++hints;
  }
  return ek;
}

void SampleInto(std::vector<Text2SqlSample>& out, int db_index,
                const sql::Database& db, int count, bool with_ek,
                const HiddenColumnSet& hidden, Rng& rng) {
  const TemplateLibrary& lib = GlobalTemplates();
  const ColumnProfile columns(db);
  int produced = 0;
  int failures = 0;
  while (produced < count && failures < count * 10) {
    auto inst = lib.InstantiateRandom(db, columns, rng);
    if (!inst.has_value()) break;
    // Keep only executable SQL (it always should be; belt and braces).
    if (!sql::IsExecutable(db, inst->sql_text)) {
      ++failures;
      continue;
    }
    Text2SqlSample sample;
    sample.db_index = db_index;
    sample.question = inst->question;
    sample.sql = inst->sql_text;
    sample.template_id = inst->template_id;
    sample.used_items = inst->used_items;
    if (with_ek) {
      sample.external_knowledge = BuildExternalKnowledge(db, *inst, hidden);
    }
    out.push_back(std::move(sample));
    ++produced;
  }
}

/// Clears the comments of hidden columns; from here on only EK hints can
/// explain them.
void HideComments(sql::Database& db, const HiddenColumnSet& hidden) {
  for (const auto& [t, c] : hidden) {
    db.mutable_schema().tables[static_cast<size_t>(t)]
        .columns[static_cast<size_t>(c)]
        .comment.clear();
  }
}

}  // namespace

Text2SqlBenchmark BuildBenchmark(const BenchmarkConfig& config) {
  CODES_CHECK(config.train_domains + config.dev_domains <=
              static_cast<int>(AllDomains().size()));
  Text2SqlBenchmark bench;
  bench.name = config.name;
  bench.profile = config.profile;
  Rng rng(config.seed);

  // Shuffle domain order deterministically, then split.
  std::vector<int> domain_order(AllDomains().size());
  for (size_t i = 0; i < domain_order.size(); ++i) {
    domain_order[i] = static_cast<int>(i);
  }
  rng.Shuffle(domain_order);

  auto add_db = [&bench, &config, &rng](int domain_idx,
                                        const std::string& salt) {
    Rng db_rng = rng.Fork();
    bench.databases.push_back(GenerateDatabase(AllDomains()[domain_idx],
                                               config.profile, db_rng, salt));
    bench.domain_names.push_back(AllDomains()[domain_idx].name);
    return static_cast<int>(bench.databases.size()) - 1;
  };

  for (int i = 0; i < config.train_domains; ++i) {
    int db_index = add_db(domain_order[i], "");
    Rng hide_rng = rng.Fork();
    HiddenColumnSet hidden = PickHiddenColumns(
        bench.databases[db_index], config.profile.hidden_comment_probability,
        hide_rng);
    Rng sample_rng = rng.Fork();
    SampleInto(bench.train, db_index, bench.databases[db_index],
               config.train_samples_per_db, config.with_external_knowledge,
               hidden, sample_rng);
    HideComments(bench.databases[db_index], hidden);
  }
  for (int i = 0; i < config.dev_domains; ++i) {
    int domain_idx = domain_order[config.train_domains + i];
    int db_index = add_db(domain_idx, "");
    Rng hide_rng = rng.Fork();
    HiddenColumnSet hidden = PickHiddenColumns(
        bench.databases[db_index], config.profile.hidden_comment_probability,
        hide_rng);
    Rng sample_rng = rng.Fork();
    SampleInto(bench.dev, db_index, bench.databases[db_index],
               config.dev_samples_per_db, config.with_external_knowledge,
               hidden, sample_rng);
    HideComments(bench.databases[db_index], hidden);
  }
  return bench;
}

Text2SqlBenchmark BuildSpiderLike(uint64_t seed) {
  BenchmarkConfig config;
  config.name = "spider_like";
  config.profile = DbProfile::Spider();
  config.train_domains = 14;
  config.dev_domains = 6;
  config.train_samples_per_db = 60;
  config.dev_samples_per_db = 25;
  config.with_external_knowledge = false;
  config.seed = seed;
  return BuildBenchmark(config);
}

Text2SqlBenchmark BuildBirdLike(uint64_t seed) {
  BenchmarkConfig config;
  config.name = "bird_like";
  config.profile = DbProfile::Bird();
  config.train_domains = 14;
  config.dev_domains = 6;
  config.train_samples_per_db = 60;
  config.dev_samples_per_db = 25;
  config.with_external_knowledge = true;
  config.seed = seed;
  return BuildBenchmark(config);
}

Text2SqlBenchmark BuildTinySpiderLike(uint64_t seed) {
  BenchmarkConfig config;
  config.name = "tiny_spider_like";
  config.profile = DbProfile::Spider();
  config.train_domains = 4;
  config.dev_domains = 2;
  config.train_samples_per_db = 20;
  config.dev_samples_per_db = 10;
  config.with_external_knowledge = false;
  config.seed = seed;
  return BuildBenchmark(config);
}

}  // namespace codes
