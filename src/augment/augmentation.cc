#include "augment/augmentation.h"

#include <algorithm>
#include <cctype>

#include "common/status.h"
#include "dataset/db_generator.h"
#include "dataset/perturb.h"
#include "dataset/templates.h"
#include "sqlengine/executor.h"

namespace codes {

namespace {

constexpr const char* kCarrierPrefixes[] = {
    "Could you tell me ", "I would like to know ", "Please find ",
    "Can you show ",
};

Text2SqlSample SampleFromInstance(const TemplateInstance& inst,
                                  int db_index) {
  Text2SqlSample sample;
  sample.db_index = db_index;
  sample.question = inst.question;
  sample.sql = inst.sql_text;
  sample.template_id = inst.template_id;
  sample.used_items = inst.used_items;
  return sample;
}

}  // namespace

std::string ParaphraseQuestion(const std::string& question, Rng& rng) {
  std::string out = question;
  // Apply a random subset of keyword paraphrases.
  for (const auto& [from, to] : KeywordSynonymTable()) {
    if (rng.Bernoulli(0.4)) {
      out = ReplaceWordOutsideQuotes(out, from, to);
    }
  }
  // Occasionally wrap in a conversational carrier.
  if (rng.Bernoulli(0.3)) {
    std::string carrier = kCarrierPrefixes[rng.Index(std::size(kCarrierPrefixes))];
    if (!out.empty()) {
      out[0] = static_cast<char>(std::tolower(static_cast<unsigned char>(out[0])));
    }
    out = carrier + out;
  }
  return out;
}

std::vector<Text2SqlSample> AugmentQuestionToSql(
    const sql::Database& db, const std::vector<Text2SqlSample>& seeds,
    int count, Rng& rng) {
  CODES_CHECK(!seeds.empty());
  const TemplateLibrary& lib = GlobalTemplates();

  // The seeds reveal which intents real users have: collect their
  // templates (the paper's two-stage GPT-3.5 prompting generates questions
  // "drawing inspiration from the real questions", then produces SQL; we
  // re-instantiate the same intents with fresh slots).
  std::vector<int> seed_templates;
  for (const auto& seed : seeds) {
    int tid = lib.IdentifyTemplate(seed.sql);
    if (tid >= 0) seed_templates.push_back(tid);
  }
  CODES_CHECK(!seed_templates.empty());

  const ColumnProfile columns(db);
  std::vector<Text2SqlSample> out;
  int attempts = 0;
  while (static_cast<int>(out.size()) < count && attempts < count * 12) {
    ++attempts;
    int tid = seed_templates[rng.Index(seed_templates.size())];
    auto inst = lib.Instantiate(tid, db, columns, rng);
    if (!inst.has_value()) continue;
    if (!sql::IsExecutable(db, inst->sql_text)) continue;
    Text2SqlSample sample = SampleFromInstance(*inst, 0);
    // "High temperature" diversity: paraphrase most generated questions.
    sample.question = ParaphraseQuestion(sample.question, rng);
    out.push_back(std::move(sample));
  }
  return out;
}

std::vector<Text2SqlSample> AugmentSqlToQuestion(const sql::Database& db,
                                                 int count, Rng& rng) {
  const TemplateLibrary& lib = GlobalTemplates();
  const ColumnProfile columns(db);
  std::vector<Text2SqlSample> out;
  int attempts = 0;
  while (static_cast<int>(out.size()) < count && attempts < count * 12) {
    ++attempts;
    // Uniform coverage over the template library keeps the augmented set
    // *general* (the paper's argument for the SQL-to-question direction).
    int tid = static_cast<int>(rng.Index(static_cast<size_t>(lib.size())));
    auto inst = lib.Instantiate(tid, db, columns, rng);
    if (!inst.has_value()) continue;
    if (!sql::IsExecutable(db, inst->sql_text)) continue;
    Text2SqlSample sample = SampleFromInstance(*inst, 0);
    // Refinement step: the templated question is rephrased so it stops
    // sounding mechanical (Figure 5(b)'s [REFINED QUESTION]).
    sample.question = ParaphraseQuestion(sample.question, rng);
    out.push_back(std::move(sample));
  }
  return out;
}

NewDomainDataset BuildNewDomainDataset(const DomainSpec& domain,
                                       int test_size,
                                       const AugmentOptions& options) {
  NewDomainDataset dataset;
  Rng rng(options.seed);

  // The new-domain database: wide-but-clean profile; real deployments have
  // full column names but plenty of columns (Figure 2's 65-column table).
  DbProfile profile = DbProfile::Spider();
  profile.min_rows = 80;
  profile.max_rows = 200;
  Rng db_rng = rng.Fork();
  dataset.bench.name = domain.name;
  dataset.bench.databases.push_back(GenerateDatabase(domain, profile, db_rng));
  dataset.bench.domain_names.push_back(domain.name);
  dataset.bench.profile = profile;
  const sql::Database& db = dataset.bench.databases[0];

  const TemplateLibrary& lib = GlobalTemplates();
  const ColumnProfile columns(db);

  // Seed pairs: "a few genuine user questions" with hand-written SQL.
  // Real users phrase questions conversationally, hence the paraphrase.
  Rng seed_rng = rng.Fork();
  while (static_cast<int>(dataset.seeds.size()) < options.seed_pairs) {
    auto inst = lib.InstantiateRandom(db, columns, seed_rng);
    if (!inst.has_value()) break;
    if (!sql::IsExecutable(db, inst->sql_text)) continue;
    Text2SqlSample sample = SampleFromInstance(*inst, 0);
    sample.question = ParaphraseQuestion(sample.question, seed_rng);
    dataset.seeds.push_back(std::move(sample));
  }

  // Test set: held-out user-style questions (the paper's 91/97 manually
  // annotated evaluation questions).
  Rng test_rng = rng.Fork();
  while (static_cast<int>(dataset.bench.dev.size()) < test_size) {
    auto inst = lib.InstantiateRandom(db, columns, test_rng);
    if (!inst.has_value()) break;
    if (!sql::IsExecutable(db, inst->sql_text)) continue;
    Text2SqlSample sample = SampleFromInstance(*inst, 0);
    sample.question = ParaphraseQuestion(sample.question, test_rng);
    dataset.bench.dev.push_back(std::move(sample));
  }

  // Bi-directional augmentation fills the training set.
  Rng aug_rng = rng.Fork();
  auto q2s = AugmentQuestionToSql(db, dataset.seeds,
                                  options.question_to_sql_pairs, aug_rng);
  auto s2q =
      AugmentSqlToQuestion(db, options.sql_to_question_pairs, aug_rng);
  dataset.bench.train = std::move(q2s);
  dataset.bench.train.insert(dataset.bench.train.end(),
                             std::make_move_iterator(s2q.begin()),
                             std::make_move_iterator(s2q.end()));
  return dataset;
}

}  // namespace codes
