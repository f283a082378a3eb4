#ifndef CODES_GENERATOR_CODES_MODEL_H_
#define CODES_GENERATOR_CODES_MODEL_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "dataset/sample.h"
#include "dataset/templates.h"
#include "embed/sentence_encoder.h"
#include "generator/capacity.h"
#include "lm/ngram_lm.h"
#include "prompt/prompt_builder.h"
#include "sqlengine/database.h"

namespace codes {

/// Everything the model sees for one query: the structured database
/// prompt, the question (with EK appended when available), and optional
/// in-context demonstrations.
struct GenerationInput {
  const sql::Database* db = nullptr;
  const DatabasePrompt* prompt = nullptr;
  std::string question;
  /// BIRD-style evidence. Used for schema *linking* only — appending it to
  /// the question would distort the template signature.
  std::string external_knowledge;
  std::vector<const Text2SqlSample*> demonstrations;
};

/// One beam candidate.
struct ScoredCandidate {
  std::string sql;
  int template_id = -1;
  double score = 0.0;
  bool executable = false;
};

/// The CodeS substitute model: a grammar-guided text-to-SQL generator.
///
/// Decoding works in three learned stages, mirroring how the paper's LM
/// implicitly factors the task:
///  1. *Sketch selection* — templates are scored against the question via
///     sentence/pattern embeddings, using SFT-learned centroids, built-in
///     skeleton knowledge (the "pre-trained" prior), and in-context
///     demonstrations.
///  2. *Slot filling* — the top sketches are instantiated against the
///     prompt's surviving schema items under SlotGuidance: linking scores,
///     retrieved values, representative values, question numbers, and the
///     FK edges the prompt exposes.
///  3. *Reranking* — candidates mix template score, slot-linking score,
///     and the n-gram LM's average log-probability of the SQL string (the
///     term incremental pre-training improves). A beam of `beam_width`
///     candidates is kept and the first executable one is returned,
///     exactly as Section 9.1.4 describes.
class CodesModel {
 public:
  /// `lm` must outlive the model. Pass the incrementally pre-trained LM
  /// for CodeS behaviour or a base-corpus LM for StarCoder-like baselines.
  CodesModel(ModelSize size, const NgramLm* lm);

  const CapacityProfile& profile() const { return profile_; }
  bool fine_tuned() const { return fine_tuned_; }

  /// Extra decode noise stacked on the profile's (used to emulate weaker
  /// baseline model families such as CodeGen or Llama-2 in Table 4).
  void set_extra_noise(double noise) { extra_noise_ = noise; }

  /// Supervised fine-tuning (Section 8.1): learns template centroids and
  /// priors from (question, SQL) pairs. `max_samples` < 0 uses all. The
  /// overload with `bench` additionally masks schema words using each
  /// sample's database, which markedly improves cross-domain transfer.
  void FineTune(const std::vector<Text2SqlSample>& train, int max_samples = -1);
  void FineTune(const std::vector<Text2SqlSample>& train,
                const Text2SqlBenchmark* bench, int max_samples = -1);

  /// Full beam, for diagnostics, tests, and guarded serving. When
  /// `mark_executable` is false the per-candidate execution probe is
  /// skipped (candidates keep `executable = false`); callers that execute
  /// candidates themselves — the pipeline's guarded repair loop — use this
  /// to avoid paying for every candidate's execution twice. Ranking is
  /// unaffected: candidates are scored and ordered before marking.
  std::vector<ScoredCandidate> GenerateBeam(const GenerationInput& input,
                                            uint64_t seed,
                                            bool mark_executable = true) const;

 private:
  /// Every template's anchors in one contiguous pool. Each anchor stores
  /// its question and pattern embeddings as CSR rows (their nonzero
  /// entries, index ascending) in the shared `index`/`value` arrays, next
  /// to their squared norms and its weight. Template t owns anchors
  /// [template_begin[t], template_begin[t + 1]), in the order they were
  /// appended.
  struct AnchorPool {
    struct Anchor {
      uint32_t begin = 0;  // question row: entries [begin, mid)
      uint32_t mid = 0;    // pattern row: entries [mid, end)
      uint32_t end = 0;
      double question_sq_norm = 0.0;
      double pattern_sq_norm = 0.0;
      double weight = 1.0;
    };

    AnchorPool() = default;
    /// A pool of `num_templates` templates, each without anchors.
    explicit AnchorPool(int num_templates)
        : template_begin(static_cast<size_t>(num_templates) + 1, 0) {}

    /// Appends an anchor at the end of template `template_id`'s range.
    void Append(int template_id, const std::vector<float>& question,
                const std::vector<float>& pattern, double weight);

    std::vector<uint32_t> template_begin;
    std::vector<Anchor> anchors;
    std::vector<uint32_t> index;
    std::vector<float> value;
  };

  /// The question and pattern embeddings of a request, with their squared
  /// norms computed once for scoring against every anchor.
  struct QueryEmbedding {
    std::vector<float> question, pattern;
    double question_sq_norm, pattern_sq_norm;
  };
  double TemplateScore(int template_id, const QueryEmbedding& query) const;
  void RebuildSkeletonAnchors();

  CapacityProfile profile_;
  const NgramLm* lm_;
  SentenceEncoder encoder_;
  bool fine_tuned_ = false;
  double extra_noise_ = 0.0;

  /// Per-template anchors: skeleton knowledge plus SFT exemplars and
  /// centroids.
  AnchorPool anchors_;
  std::vector<double> template_prior_;  // log-count prior from SFT
};

}  // namespace codes

#endif  // CODES_GENERATOR_CODES_MODEL_H_
