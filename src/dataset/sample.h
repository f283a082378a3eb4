#ifndef CODES_DATASET_SAMPLE_H_
#define CODES_DATASET_SAMPLE_H_

#include <memory>
#include <string>
#include <vector>

#include "dataset/db_generator.h"
#include "sqlengine/database.h"

namespace codes {

/// Identifies one schema item used by a sample's gold SQL — the label the
/// schema item classifier trains on — as indices into the sample's
/// database (DESIGN §6): names are rendered only where text is produced.
struct UsedSchemaItem {
  int table = 0;
  int column = -1;  ///< -1 when the whole table is referenced
};

/// One text-to-SQL example: the triplet (database, question, SQL) of
/// Section 8, plus generator metadata.
struct Text2SqlSample {
  int db_index = 0;             ///< index into the benchmark's databases
  std::string question;
  std::string sql;              ///< gold SQL text
  int template_id = -1;         ///< which grammar template produced it
  std::string external_knowledge;  ///< BIRD-style EK hint; may be empty
  std::vector<UsedSchemaItem> used_items;  ///< schema items in the gold SQL
};

/// The question with its BIRD-style evidence appended, "question ;
/// evidence" — the text the schema classifier, the demonstration
/// retriever and the linker read. The question alone when there is no
/// evidence.
inline std::string QuestionWithEvidence(const std::string& question,
                                        const std::string& evidence) {
  if (evidence.empty()) return question;
  return question + " ; " + evidence;
}

/// A full benchmark: databases plus train/dev splits. Dev samples refer to
/// databases disjoint from the train databases (cross-domain setting).
struct Text2SqlBenchmark {
  std::string name;
  std::vector<sql::Database> databases;
  std::vector<Text2SqlSample> train;
  std::vector<Text2SqlSample> dev;
  /// Domain name each database was generated from (parallel to
  /// `databases`); empty for hand-built databases. Used by the test-suite
  /// metric to regenerate database contents.
  std::vector<std::string> domain_names;
  /// Profile the databases were generated with (needed to regenerate
  /// contents for the test-suite metric).
  DbProfile profile;

  const sql::Database& DbOf(const Text2SqlSample& sample) const {
    return databases[static_cast<size_t>(sample.db_index)];
  }
};

}  // namespace codes

#endif  // CODES_DATASET_SAMPLE_H_
