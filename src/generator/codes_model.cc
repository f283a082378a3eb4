#include "generator/codes_model.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>

#include "common/string_util.h"
#include "dataset/db_generator.h"
#include "dataset/domains.h"
#include "dataset/perturb.h"
#include "sqlengine/executor.h"
#include "text/pattern.h"
#include "text/similarity.h"
#include "text/tokenize.h"

namespace codes {

namespace {

/// Single-quoted spans of a question, in order.
std::vector<std::string> QuotedSpans(const std::string& question) {
  std::vector<std::string> spans;
  size_t pos = 0;
  while (true) {
    size_t open = question.find('\'', pos);
    if (open == std::string::npos) break;
    size_t close = question.find('\'', open + 1);
    if (close == std::string::npos) break;
    spans.push_back(question.substr(open + 1, close - open - 1));
    pos = close + 1;
  }
  return spans;
}

/// Numeric literals of a question, outside quotes, in order.
std::vector<double> QuestionNumbers(const std::string& question) {
  std::vector<double> numbers;
  bool in_quote = false;
  std::string token;
  auto flush = [&numbers, &token]() {
    if (!token.empty() && IsNumberToken(token)) {
      numbers.push_back(std::strtod(token.c_str(), nullptr));
    }
    token.clear();
  };
  for (char c : question) {
    if (c == '\'') {
      flush();
      in_quote = !in_quote;
      continue;
    }
    if (in_quote) continue;
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') {
      token += c;
    } else {
      flush();
    }
  }
  flush();
  return numbers;
}

/// Replaces schema-derived content words of `question` with "_", leaving
/// the *structural* words that identify the SQL shape. Masking happens
/// before template scoring so that "how many singer are there" and "how
/// many gym are there" collapse to the same signature; anchors trained on
/// one domain then transfer to any other — the cross-domain mechanism.
std::string MaskSchemaWords(const std::string& question,
                            const SchemaStems& schema_stems) {
  std::vector<std::string> out;
  bool prev_masked = false;
  for (auto& token : WordTokens(question)) {
    if (schema_stems.Contains(StemToken(token))) {
      if (!prev_masked) out.emplace_back("_");
      prev_masked = true;
    } else {
      out.push_back(std::move(token));
      prev_masked = false;
    }
  }
  return Join(out, " ");
}

/// A per-request memo of a pure score: slot i is computed on first use.
class ScoreMemo {
 public:
  explicit ScoreMemo(size_t size) : value_(size), known_(size, 0) {}

  template <typename Compute>
  double Get(size_t i, Compute&& compute) {
    if (!known_[i]) {
      value_[i] = compute();
      known_[i] = 1;
    }
    return value_[i];
  }

 private:
  std::vector<double> value_;
  std::vector<char> known_;
};

/// Coverage of a phrase's content words by the question's tokens.
double PhraseCoverage(const std::string& phrase, const StemSet& question_stems) {
  std::vector<std::string> phrase_tokens;
  for (auto& t : WordTokens(phrase)) {
    if (!IsStopWord(t)) phrase_tokens.push_back(std::move(t));
  }
  if (phrase_tokens.empty()) return 0.0;
  return TokenCoverage(phrase_tokens, question_stems);
}

/// Normalized position (0=start, 1=end/absent) of the first question
/// token matching any content word of `phrase`. In the benchmark's
/// phrasings, selected columns are mentioned before filtered ones.
double FirstMentionPosition(const std::string& phrase,
                            const std::vector<std::string>& question_stems) {
  if (question_stems.empty()) return 1.0;
  std::vector<std::string> phrase_stems;
  for (auto& w : WordTokens(phrase)) {
    if (!IsStopWord(w)) phrase_stems.push_back(StemToken(w));
  }
  for (size_t i = 0; i < question_stems.size(); ++i) {
    for (const auto& p : phrase_stems) {
      if (question_stems[i] == p) {
        return static_cast<double>(i) /
               static_cast<double>(question_stems.size());
      }
    }
  }
  return 1.0;
}

}  // namespace

SchemaStems::SchemaStems(const sql::Database& db) {
  auto add_phrase = [this](const std::string& phrase) {
    for (auto& w : WordTokens(phrase)) {
      if (!IsStopWord(w)) stems_.insert(StemToken(w));
    }
  };
  for (const auto& table : db.schema().tables) {
    add_phrase(table.name);
    add_phrase(table.comment);
    for (const auto& col : table.columns) {
      add_phrase(col.name);
      add_phrase(col.comment);
    }
  }
  // A pre-trained model also recognizes common synonyms of schema words
  // ("vocalist" for singer); they are masked too.
  const std::vector<std::string> stems(stems_.begin(), stems_.end());
  for (const auto& extra : ExpandWithSynonyms(stems)) {
    stems_.insert(StemToken(extra));
  }
}

size_t SchemaStems::ApproxBytes() const {
  // Each node holds a string and a next pointer next to its bucket slot.
  size_t bytes = sizeof(*this) + stems_.bucket_count() * sizeof(void*);
  for (const auto& stem : stems_) {
    bytes += sizeof(std::string) + 2 * sizeof(void*) + stem.capacity();
  }
  return bytes;
}

CodesModel::CodesModel(ModelSize size, const NgramLm* lm)
    : profile_(ProfileFor(size)), lm_(lm), encoder_(profile_.embedding_dim) {
  RebuildSkeletonAnchors();
}

void CodesModel::AnchorPool::Append(int template_id,
                                    const std::vector<float>& question,
                                    const std::vector<float>& pattern,
                                    double weight) {
  CODES_CHECK(template_id >= 0 &&
              static_cast<size_t>(template_id) + 1 < template_begin.size());
  // The rows go to the end of the entry arrays; only the small per-anchor
  // record is placed inside the template's range.
  Anchor anchor;
  anchor.begin = static_cast<uint32_t>(index.size());
  anchor.question_sq_norm = AppendNonzeros(question, &index, &value);
  anchor.mid = static_cast<uint32_t>(index.size());
  anchor.pattern_sq_norm = AppendNonzeros(pattern, &index, &value);
  anchor.end = static_cast<uint32_t>(index.size());
  anchor.weight = weight;
  const size_t next = static_cast<size_t>(template_id) + 1;
  anchors.insert(anchors.begin() + template_begin[next], anchor);
  for (size_t t = next; t < template_begin.size(); ++t) ++template_begin[t];
}

void CodesModel::RebuildSkeletonAnchors() {
  const TemplateLibrary& lib = GlobalTemplates();
  anchors_ = AnchorPool(lib.size());
  if (template_prior_.empty()) {
    template_prior_.assign(static_cast<size_t>(lib.size()), 0.0);
  }

  // "Pre-trained" NL-to-SQL knowledge: realized question phrasings per
  // template, produced on reference databases and schema-masked so the
  // anchors are domain-free. This models what an LM learns from NL-SQL
  // pre-training pairs (the paper's NL-SQL-458K slice).
  constexpr int kAnchorVariants = 3;
  Rng rng(0xA2C40);
  DbProfile profile = DbProfile::Spider();
  profile.min_rows = 40;
  profile.max_rows = 60;
  std::vector<sql::Database> reference_dbs;
  for (int d = 0; d < 4 && d < static_cast<int>(AllDomains().size()); ++d) {
    Rng db_rng = rng.Fork();
    reference_dbs.push_back(
        GenerateDatabase(AllDomains()[static_cast<size_t>(d)], profile,
                         db_rng, "anchor"));
  }
  std::vector<ColumnProfile> reference_columns;
  for (const auto& db : reference_dbs) reference_columns.emplace_back(db);
  for (int tid = 0; tid < lib.size(); ++tid) {
    // Skeleton anchor (always available). "{COLUMN}"-style placeholders
    // become mask tokens so skeletons live in the same space as masked
    // questions.
    {
      std::string masked = lib.QuestionSkeleton(tid);
      while (true) {
        size_t open = masked.find('{');
        if (open == std::string::npos) break;
        size_t close = masked.find('}', open);
        if (close == std::string::npos) break;
        masked.replace(open, close - open + 1, "_");
      }
      anchors_.Append(tid, encoder_.Encode(masked),
                      encoder_.Encode(ExtractQuestionPattern(masked)), 0.5);
    }
    int produced = 0;
    for (int attempt = 0; attempt < 24 && produced < kAnchorVariants;
         ++attempt) {
      const size_t d = rng.Index(reference_dbs.size());
      const auto& db = reference_dbs[d];
      auto inst = lib.Instantiate(tid, db, reference_columns[d], rng);
      if (!inst.has_value()) continue;
      std::string masked = MaskSchemaWords(inst->question, SchemaStems(db));
      anchors_.Append(tid, encoder_.Encode(masked),
                      encoder_.Encode(ExtractQuestionPattern(masked)), 0.55);
      // Paraphrase knowledge: a pre-trained LM also recognizes common
      // keyword rewrites ("greater than" == "more than"), so each variant
      // contributes a paraphrased twin anchor.
      std::string paraphrased = masked;
      for (const auto& [from, to] : KeywordSynonymTable()) {
        paraphrased = ReplaceWordOutsideQuotes(paraphrased, from, to);
      }
      if (paraphrased != masked) {
        anchors_.Append(tid, encoder_.Encode(paraphrased),
                        encoder_.Encode(ExtractQuestionPattern(paraphrased)),
                        0.5);
      }
      ++produced;
    }
  }
}

void CodesModel::FineTune(const std::vector<Text2SqlSample>& train,
                          int max_samples) {
  // Fine-tuning needs each sample's database to mask schema words; the
  // overload below is the real implementation.
  FineTune(train, nullptr, max_samples);
}

void CodesModel::FineTune(const std::vector<Text2SqlSample>& train,
                          const Text2SqlBenchmark* bench, int max_samples) {
  const TemplateLibrary& lib = GlobalTemplates();
  size_t limit = train.size();
  if (max_samples >= 0) {
    limit = std::min(limit, static_cast<size_t>(max_samples));
  }

  // Refit the encoder on the training distribution, then rebuild anchors
  // in the new embedding space. Small fine-tuning sets keep the
  // pre-trained vocabulary statistics (re-deriving IDF from a handful of
  // questions would destroy more signal than it adds).
  if (limit >= 200) {
    std::vector<std::string> questions;
    questions.reserve(limit);
    for (size_t i = 0; i < limit; ++i) questions.push_back(train[i].question);
    encoder_.FitIdf(questions);
    RebuildSkeletonAnchors();
  }
  template_prior_.assign(static_cast<size_t>(lib.size()), 0.0);

  struct Accumulator {
    std::vector<double> question_sum;
    std::vector<double> pattern_sum;
    int count = 0;
  };
  std::vector<Accumulator> acc(static_cast<size_t>(lib.size()));
  constexpr int kExemplarsPerTemplate = 4;
  std::vector<int> exemplars(static_cast<size_t>(lib.size()), 0);

  for (size_t i = 0; i < limit; ++i) {
    const auto& sample = train[i];
    int tid = lib.IdentifyTemplate(sample.sql);
    if (tid < 0) continue;
    std::string question = sample.question;
    if (bench != nullptr) {
      question = MaskSchemaWords(question, SchemaStems(bench->DbOf(sample)));
    }
    std::vector<float> q = encoder_.Encode(question);
    std::vector<float> p = encoder_.Encode(ExtractQuestionPattern(question));
    auto& a = acc[static_cast<size_t>(tid)];
    if (a.question_sum.empty()) {
      a.question_sum.assign(q.size(), 0.0);
      a.pattern_sum.assign(p.size(), 0.0);
    }
    for (size_t d = 0; d < q.size(); ++d) {
      a.question_sum[d] += q[d];
      a.pattern_sum[d] += p[d];
    }
    a.count += 1;
    if (exemplars[static_cast<size_t>(tid)] < kExemplarsPerTemplate) {
      anchors_.Append(tid, q, p, 1.0);
      exemplars[static_cast<size_t>(tid)] += 1;
    }
  }
  for (size_t tid = 0; tid < acc.size(); ++tid) {
    if (acc[tid].count == 0) continue;
    std::vector<float> question(acc[tid].question_sum.size());
    std::vector<float> pattern(acc[tid].pattern_sum.size());
    for (size_t d = 0; d < acc[tid].question_sum.size(); ++d) {
      question[d] =
          static_cast<float>(acc[tid].question_sum[d] / acc[tid].count);
      pattern[d] = static_cast<float>(acc[tid].pattern_sum[d] / acc[tid].count);
    }
    anchors_.Append(static_cast<int>(tid), question, pattern, 1.0);
    template_prior_[tid] = 0.02 * std::log(1.0 + acc[tid].count);
  }
  fine_tuned_ = true;
}

double CodesModel::TemplateScore(int template_id,
                                 const QueryEmbedding& query) const {
  const size_t t = static_cast<size_t>(template_id);
  double best = 0.0;
  for (uint32_t a = anchors_.template_begin[t];
       a < anchors_.template_begin[t + 1]; ++a) {
    const AnchorPool::Anchor& anchor = anchors_.anchors[a];
    const SparseRow question{anchors_.index.data() + anchor.begin,
                             anchors_.value.data() + anchor.begin,
                             anchor.mid - anchor.begin,
                             anchor.question_sq_norm};
    const SparseRow pattern{anchors_.index.data() + anchor.mid,
                            anchors_.value.data() + anchor.mid,
                            anchor.end - anchor.mid, anchor.pattern_sq_norm};
    double sim = std::max(
        SparseDenseCosine(question, query.question, query.question_sq_norm),
        SparseDenseCosine(pattern, query.pattern, query.pattern_sq_norm));
    best = std::max(best, sim * anchor.weight);
  }
  return best + template_prior_[t];
}

std::vector<ScoredCandidate> CodesModel::GenerateBeam(
    const GenerationInput& input, uint64_t seed, bool mark_executable) const {
  const TemplateLibrary& lib = GlobalTemplates();
  const sql::Database& db = *input.db;
  const DatabasePrompt& prompt = *input.prompt;
  Rng rng(seed ^ 0x5EEDC0DE5ULL);

  // Per-database state: the caller's, or built for this call.
  std::optional<SchemaStems> own_stems;
  const SchemaStems& schema_stems = input.schema_stems != nullptr
                                        ? *input.schema_stems
                                        : own_stems.emplace(db);
  std::optional<ColumnProfile> own_columns;
  const ColumnProfile& columns =
      input.columns != nullptr ? *input.columns : own_columns.emplace(db);

  std::string masked = MaskSchemaWords(input.question, schema_stems);
  QueryEmbedding query;
  query.question = encoder_.Encode(masked);
  query.pattern = encoder_.Encode(ExtractQuestionPattern(masked));
  query.question_sq_norm = SquaredNorm(query.question);
  query.pattern_sq_norm = SquaredNorm(query.pattern);
  // Linking evidence sees question + external knowledge; template scoring
  // above deliberately sees the bare question only.
  const std::string link_text =
      QuestionWithEvidence(input.question, input.external_knowledge);
  std::vector<std::string> q_tokens =
      ExpandWithSynonyms(WordTokens(link_text));
  std::vector<std::string> q_stems;
  q_stems.reserve(q_tokens.size());
  for (const auto& t : q_tokens) q_stems.push_back(StemToken(t));
  const StemSet q_stem_set(q_tokens);

  // ---- stage 1: sketch selection
  std::vector<double> template_scores(static_cast<size_t>(lib.size()), 0.0);
  for (int tid = 0; tid < lib.size(); ++tid) {
    template_scores[static_cast<size_t>(tid)] = TemplateScore(tid, query);
  }
  // In-context demonstrations sharpen template selection. Evidence is
  // aggregated as a per-template *max* over demos (so extra, less similar
  // demos never outvote the best match — more shots can only widen
  // coverage), thresholded so weak matches add nothing.
  if (!input.demonstrations.empty()) {
    std::vector<float> raw_q = encoder_.Encode(input.question);
    std::vector<float> raw_p =
        encoder_.Encode(ExtractQuestionPattern(input.question));
    std::vector<double> demo_best(static_cast<size_t>(lib.size()), 0.0);
    for (const Text2SqlSample* demo : input.demonstrations) {
      int tid = lib.IdentifyTemplate(demo->sql);
      if (tid < 0) continue;
      std::vector<float> demo_q = encoder_.Encode(demo->question);
      std::vector<float> demo_p =
          encoder_.Encode(ExtractQuestionPattern(demo->question));
      double sim = std::max(CosineSimilarity(raw_q, demo_q),
                            CosineSimilarity(raw_p, demo_p));
      double evidence = std::max(0.0, sim - 0.35) * 1.3;
      demo_best[static_cast<size_t>(tid)] =
          std::max(demo_best[static_cast<size_t>(tid)], evidence);
    }
    for (int tid = 0; tid < lib.size(); ++tid) {
      template_scores[static_cast<size_t>(tid)] +=
          demo_best[static_cast<size_t>(tid)];
    }
  }

  // Attention dilution: longer prompts are harder to exploit, so decode
  // noise scales with how much of the context window the prompt fills.
  // This is what makes schema filtering pay off and what costs the 15B
  // model its smaller context on value-heavy databases.
  double fill = static_cast<double>(prompt.token_count) /
                static_cast<double>(profile_.max_context_tokens);
  double noise = (profile_.decode_noise + extra_noise_) * (1.0 + 1.2 * fill);
  std::vector<std::pair<double, int>> ranked;
  ranked.reserve(template_scores.size());
  for (int tid = 0; tid < lib.size(); ++tid) {
    double jitter = rng.Gaussian() * noise * 0.22;
    ranked.emplace_back(template_scores[static_cast<size_t>(tid)] + jitter,
                        tid);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });

  // ---- stage 2: slot guidance from the prompt
  std::vector<std::string> quoted = QuotedSpans(input.question);

  // A column is visible to the model if the schema filter kept it OR a
  // retrieved value names it in the matched-values section of the prompt.
  auto column_visible = [&](int t, int c) -> bool {
    if (prompt.ColumnKept(t, c)) return true;
    for (const auto& mv : prompt.matched_values) {
      if (mv.table == t && mv.column == c && mv.score >= 0.85) return true;
    }
    return false;
  };

  // Every score below is a pure function of (request, database), so each
  // is computed at most once per request, on first use, into a flat array
  // indexed by the profile's dense column slot (or by table). Filling on
  // first use skips items no template asks about; no score draws from the
  // RNG, so the random stream is unchanged.
  const LcsPattern question_lcs(input.question);
  const size_t slots = static_cast<size_t>(columns.column_count());
  const size_t tables = static_cast<size_t>(columns.table_count());
  ScoreMemo base_memo(slots), value_hit_memo(slots), mention_memo(slots);
  ScoreMemo table_score_memo(tables), table_coverage_memo(tables);

  auto column_base_score = [&](int t, int c) -> double {
    return base_memo.Get(columns.Slot(t, c), [&]() -> double {
      if (!column_visible(t, c)) return -1e9;
      const auto& col = db.schema().tables[t].columns[c];
      double score = PhraseCoverage(col.name, q_stem_set) * 1.2;
      if (prompt.comments_included && !col.comment.empty()) {
        score = std::max(score, PhraseCoverage(col.comment, q_stem_set) * 1.3);
      }
      // Abbreviation guessing: "npgr" links to "net profit growth rate".
      if (InitialsMatch(col.name, q_tokens)) score = std::max(score, 0.9);
      score += 0.15 * question_lcs.MatchDegree(ColumnPhrase(col));
      return score;
    });
  };

  auto value_hit = [&](int t, int c) -> double {
    return value_hit_memo.Get(columns.Slot(t, c), [&]() {
      double best = 0.0;
      for (const auto& mv : prompt.matched_values) {
        if (mv.table == t && mv.column == c && mv.score >= 0.85) {
          best = std::max(best, mv.score);
        }
      }
      return best;
    });
  };

  auto mention_position = [&](int t, int c) -> double {
    return mention_memo.Get(columns.Slot(t, c), [&]() {
      const auto& col = db.schema().tables[t].columns[c];
      return FirstMentionPosition(
          prompt.comments_included && !col.comment.empty() ? col.comment
                                                           : col.name,
          q_stems);
    });
  };

  // Coverage of a table's name (or comment) by the question.
  auto table_coverage = [&](int t) -> double {
    return table_coverage_memo.Get(static_cast<size_t>(t), [&]() {
      const auto& table = db.schema().tables[t];
      double tc = PhraseCoverage(table.name, q_stem_set);
      if (prompt.comments_included && !table.comment.empty()) {
        tc = std::max(tc, PhraseCoverage(table.comment, q_stem_set));
      }
      return tc;
    });
  };

  SlotGuidance guidance;
  guidance.noise = noise * 0.25;
  guidance.numbers = QuestionNumbers(input.question);
  guidance.table_score = [&](int t) -> double {
    return table_score_memo.Get(static_cast<size_t>(t), [&]() -> double {
      if (!prompt.TableKept(t)) return -1e9;
      const auto& table = db.schema().tables[t];
      double score = PhraseCoverage(table.name, q_stem_set) * 1.5;
      if (prompt.comments_included && !table.comment.empty()) {
        score = std::max(score, PhraseCoverage(table.comment, q_stem_set));
      }
      double best_col = 0.0;
      for (size_t c = 0; c < table.columns.size(); ++c) {
        double cs = column_base_score(t, static_cast<int>(c)) +
                    value_hit(t, static_cast<int>(c));
        best_col = std::max(best_col, cs);
      }
      return score + 0.5 * std::max(0.0, best_col);
    });
  };
  guidance.select_column_score = [&](int t, int c) -> double {
    double base = column_base_score(t, c);
    if (base <= -1e8) return base;
    double pos = mention_position(t, c);
    // A column mentioned next to a value is being *filtered*, not
    // selected; selected columns are mentioned first in the question.
    return base - 0.9 * value_hit(t, c) + 0.25 * (1.0 - pos);
  };
  guidance.filter_column_score = [&](int t, int c) -> double {
    double base = column_base_score(t, c);
    if (base <= -1e8) return base;
    return base + 1.4 * value_hit(t, c);
  };

  // Predicate values are consumed in order so multi-value templates (OR,
  // IN, set ops) receive distinct values. The cursor resets per template
  // instantiation.
  std::unordered_map<int64_t, size_t> value_cursor;
  guidance.filter_value = [&](int t, int c) -> std::optional<sql::Value> {
    const auto& col = db.schema().tables[t].columns[c];
    // Candidate list: retrieved values for this column (exact stored
    // representation), then raw quoted spans, then question numbers for
    // numeric columns.
    std::vector<sql::Value> candidates;
    // Strong matches first (they carry the exact stored representation,
    // which is what makes the value retriever matter on dirty data), then
    // raw quoted spans, then weaker matches.
    std::vector<const RetrievedValue*> strong, weak;
    for (const auto& mv : prompt.matched_values) {
      if (mv.table != t || mv.column != c) continue;
      if (mv.score >= 0.85) {
        strong.push_back(&mv);
      } else if (mv.score >= 0.7) {
        weak.push_back(&mv);
      }
    }
    auto by_score = [](const RetrievedValue* a, const RetrievedValue* b) {
      if (a->score != b->score) return a->score > b->score;
      return a->text.size() > b->text.size();  // longer match wins ties
    };
    std::sort(strong.begin(), strong.end(), by_score);
    std::sort(weak.begin(), weak.end(), by_score);
    for (const auto* mv : strong) candidates.emplace_back(mv->text);
    auto add_unique_text = [&candidates](const std::string& text) {
      for (const auto& existing : candidates) {
        if (existing.is_text() &&
            ToLower(existing.AsText()) == ToLower(Trim(text))) {
          return;
        }
      }
      if (!text.empty()) candidates.emplace_back(text);
    };
    if (col.type == sql::DataType::kText) {
      for (const auto& span : quoted) add_unique_text(span);
      for (const auto* mv : weak) add_unique_text(mv->text);
    } else {
      for (double n : guidance.numbers) {
        if (col.type == sql::DataType::kInteger && n == std::floor(n)) {
          candidates.emplace_back(static_cast<int64_t>(n));
        } else {
          candidates.emplace_back(n);
        }
      }
    }
    int64_t key = (static_cast<int64_t>(t) << 32) | static_cast<int64_t>(c);
    size_t& cursor = value_cursor[key];
    if (cursor >= candidates.size()) return std::nullopt;
    return candidates[cursor++];
  };
  guidance.representative_value = [&prompt](int t, int c) {
    return prompt.RepresentativeValue(t, c);
  };
  guidance.join_visible = [&](int child_t, int parent_t) {
    return prompt.keys_included && prompt.TableKept(child_t) &&
           prompt.TableKept(parent_t);
  };
  guidance.mention_position = mention_position;

  // ---- stage 3: instantiate + rerank
  std::vector<ScoredCandidate> beam;
  int tried = 0;
  for (const auto& [tscore, tid] : ranked) {
    if (tried >= profile_.candidate_templates) break;
    ++tried;
    value_cursor.clear();
    Rng inst_rng = rng.Fork();
    auto inst = lib.Instantiate(tid, db, columns, inst_rng, &guidance);
    if (!inst.has_value()) continue;

    // Linking score: a centered *sum* of evidence for every schema item
    // the candidate uses. Columns/tables the question mentions add credit;
    // ones it never mentions subtract, so a candidate dragging in an
    // unrelated table loses to a simpler one. Key columns are structural
    // and excluded.
    double link = 0.0;
    for (const auto& [t, c] : inst->used_items) {
      if (c < 0) {
        // Table-level evidence.
        link += std::min(table_coverage(t), 1.0) * 0.7 - 0.3;
        continue;
      }
      if (columns.is_key(t, c)) continue;
      double cs = column_base_score(t, c) + value_hit(t, c);
      if (cs > -1e8) {
        link += std::min(std::max(cs, 0.0), 1.8) - 0.5;
      }
    }
    link *= 0.5;

    // Value-arity fit: a candidate should consume as many literal values
    // as the question mentions (two quoted values want an OR/IN shape, a
    // "top 3" wants a LIMIT, a question with no values wants none).
    int cand_text_values = 0;
    int cand_numbers = 0;
    for (const auto& vs : inst->value_strings) {
      if (IsNumberToken(vs)) {
        ++cand_numbers;
      } else {
        ++cand_text_values;
      }
    }
    double arity_penalty =
        0.35 * std::abs(static_cast<int>(quoted.size()) - cand_text_values) +
        0.18 * std::abs(static_cast<int>(guidance.numbers.size()) -
                        cand_numbers);

    double lm_score = (lm_ != nullptr) ? lm_->AvgLogProb(inst->sql_text) : 0.0;
    ScoredCandidate cand;
    cand.sql = inst->sql_text;
    cand.template_id = tid;
    cand.score = profile_.template_weight * tscore +
                 profile_.link_weight * link - arity_penalty +
                 profile_.lm_weight * (lm_score / 4.0) +
                 rng.Gaussian() * noise * 0.12;
    beam.push_back(std::move(cand));
  }

  std::sort(beam.begin(), beam.end(),
            [](const ScoredCandidate& a, const ScoredCandidate& b) {
              return a.score > b.score;
            });
  if (beam.size() > static_cast<size_t>(profile_.beam_width)) {
    beam.resize(static_cast<size_t>(profile_.beam_width));
  }
  if (mark_executable) {
    for (auto& cand : beam) {
      cand.executable = sql::IsExecutable(db, cand.sql);
    }
  }
  return beam;
}

}  // namespace codes
