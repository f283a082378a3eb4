#ifndef CODES_DATASET_TEMPLATES_H_
#define CODES_DATASET_TEMPLATES_H_

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "dataset/column_profile.h"
#include "dataset/sample.h"
#include "sqlengine/database.h"
#include "sqlengine/value.h"

namespace codes {

/// One instantiated (question, SQL) pair plus generator metadata.
struct TemplateInstance {
  std::string sql_text;
  std::string question;
  int template_id = -1;
  /// Tables and columns the SQL uses, as schema indexes of the database
  /// the template was instantiated against.
  std::vector<UsedSchemaItem> used_items;
  /// Literal predicate values appearing in the SQL (and usually in the
  /// question); used to build EK hints and to evaluate value retrieval.
  std::vector<std::string> value_strings;
};

/// Optional guidance that biases slot filling when a template is
/// re-instantiated by the *generator* (rather than sampled randomly by the
/// benchmark builder). All scores are "higher is better"; when a callback
/// is absent the corresponding choice falls back to uniform random.
///
/// This is how grammar-guided decoding works in the CodeS substitute: the
/// model's schema-linking and value-retrieval signals flow into the same
/// template instantiation code that defined the data distribution.
struct SlotGuidance {
  std::function<double(int table)> table_score;
  std::function<double(int table, int column)> select_column_score;
  std::function<double(int table, int column)> filter_column_score;
  /// Returns a concrete predicate value for (table, column) — typically a
  /// retrieved database value matched to the question — or nullopt.
  std::function<std::optional<sql::Value>(int table, int column)> filter_value;
  /// Fallback value source when nothing matched the question: a
  /// representative value of the column as shown in the prompt (Section
  /// 6.3), or nullopt when the prompt omits representative values. In
  /// guided mode templates never sample raw database cells — the model can
  /// only use what its prompt exposes.
  std::function<std::optional<sql::Value>(int table, int column)>
      representative_value;
  /// Whether the FK edge (child table, parent table) is visible to the
  /// model; absent PK/FK metadata in the prompt hides all edges, which is
  /// why that ablation mostly breaks JOIN queries.
  std::function<bool(int child_table, int parent_table)> join_visible;
  /// Normalized first-mention position (0=start, 1=absent) of a column in
  /// the question; used to order multi-column select lists the way the
  /// question lists them.
  std::function<double(int table, int column)> mention_position;
  /// Numeric literals mentioned in the question, in order of appearance.
  std::vector<double> numbers;
  /// Zero-mean noise added to slot scores; the capacity knob of small
  /// model profiles.
  double noise = 0.0;
};

/// The (question, SQL) template grammar.
///
/// This single library plays three roles from the paper:
///  * benchmark construction (Spider/BIRD-like train & dev sets),
///  * SQL-to-question data augmentation (the "75 common SQL templates" of
///    Section 7 — this library registers exactly 75 template ids),
///  * the generator's sketch space: the CodeS substitute model proposes
///    candidate SQL by re-instantiating templates against the prompt's
///    schema under SlotGuidance (see src/generator).
///
/// Every template id maps to a unique SQL structural fingerprint
/// (sqlengine/fingerprint.h), so gold SQL can be mapped back to its
/// template with IdentifyTemplate().
class TemplateLibrary {
 public:
  TemplateLibrary();

  /// Number of registered templates (75).
  int size() const { return static_cast<int>(defs_.size()); }

  /// Short template name, e.g. "group_count" or "agg_avg_where".
  const std::string& name(int template_id) const;

  /// Instantiates template `template_id` against `db`, whose slot types
  /// `profile` describes (it must have been built from `db` as it is now);
  /// returns nullopt when the database lacks the required slot types (e.g.
  /// no FK edge for a join template). `guidance` biases slot choices when
  /// present. Callers instantiating many templates against one database
  /// build the profile once and pass it to every call.
  std::optional<TemplateInstance> Instantiate(
      int template_id, const sql::Database& db, const ColumnProfile& profile,
      Rng& rng, const SlotGuidance* guidance = nullptr) const;

  /// Instantiates a uniformly random template (skipping ones that do not
  /// fit `db`). Returns nullopt only if nothing fits.
  std::optional<TemplateInstance> InstantiateRandom(
      const sql::Database& db, const ColumnProfile& profile, Rng& rng) const;

  /// Maps SQL text back to a template id via its structural fingerprint;
  /// -1 when the shape is not in the library.
  int IdentifyTemplate(const std::string& sql_text) const;

  /// The templated-question skeleton for a template ("Return the lowest
  /// {COLUMN} of {TABLE}" style); used by SQL-to-question augmentation.
  const std::string& QuestionSkeleton(int template_id) const;

 private:
  using BuildFn = std::function<std::optional<TemplateInstance>(
      const sql::Database&, const ColumnProfile&, Rng&, const SlotGuidance*)>;

  struct TemplateDef {
    std::string name;
    std::string question_skeleton;
    BuildFn build;
  };

  void Register(std::string name, std::string skeleton, BuildFn build);
  // Registration is split across translation units to keep files small.
  void RegisterJoinTemplates();        // templates_join.cc
  void RegisterSubqueryAndSetTemplates();  // templates_nested.cc
  void BuildFingerprintMap();

  std::vector<TemplateDef> defs_;
  std::unordered_map<std::string, int> fingerprint_to_id_;
};

/// Singleton accessor; the library is immutable and thread-compatible.
const TemplateLibrary& GlobalTemplates();

}  // namespace codes

#endif  // CODES_DATASET_TEMPLATES_H_
