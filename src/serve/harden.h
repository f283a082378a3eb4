#ifndef CODES_SERVE_HARDEN_H_
#define CODES_SERVE_HARDEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace codes {
namespace serve {

/// Hard byte cap applied after UTF-8 repair. Longer questions are
/// truncated at a code-point boundary — never mid-sequence — and flagged
/// suspect.
constexpr size_t kMaxQuestionBytes = 4096;
/// Anomaly score at or above which a structurally clean question is still
/// treated as suspect (see AnomalyScore).
constexpr double kAnomalyThreshold = 0.5;

/// What the hardening pass did to one question (bit flags).
enum HardenFlag : uint32_t {
  kHardenRepairedUtf8 = 1u << 0,       ///< ill-formed bytes -> U+FFFD
  kHardenTruncated = 1u << 1,          ///< byte cap applied
  kHardenStrippedControl = 1u << 2,    ///< C0/DEL controls removed
  kHardenStrippedZeroWidth = 1u << 3,  ///< zero-width code points removed
  kHardenFoldedConfusable = 1u << 4,   ///< homoglyphs folded to ASCII
  kHardenCollapsedWhitespace = 1u << 5,
  kHardenAnomalous = 1u << 6,  ///< anomaly score >= threshold
};

/// The two-tier result of hardening one question.
///
/// `sanitized` is what the pipeline serves: UTF-8 repaired, byte-capped,
/// control characters stripped. For clean traffic it is byte-identical to
/// the input, which is what keeps the paper's behaviour (and every
/// committed digest) intact. `canonical` is the aggressive rewrite held
/// in reserve: zero-width characters deleted, confusable code points
/// (fullwidth forms, curly quotes, NBSP) folded to ASCII, whitespace
/// collapsed. A suspect request whose beam fails verification is retried
/// once against `canonical` before falling to the emergency rungs.
struct HardenResult {
  std::string sanitized;
  std::string canonical;
  double anomaly = 0.0;
  uint32_t flags = 0;
  /// True when any structural repair fired or the anomaly score crossed
  /// the threshold. Suspect requests are pre-degraded and counted in
  /// serve.adv.suspect (clean ones in serve.adv.clean).
  bool suspect = false;
};

/// Hardens one question: the request-hardening front door of DESIGN.md
/// section 17. A pure function of the question (no locks, no globals), so
/// the DES load generator can apply it on its driver thread and campaigns
/// stay byte-identical at any real thread count.
HardenResult HardenQuestion(std::string_view question);

/// Cheap anomaly score in [0, 1] over a sanitized question: byte-class
/// entropy collapse (all-one-class spam), longest-run repetition, token
/// blowup (unbrokenly long "words" that explode the tokenizer), and
/// non-ASCII density. Natural ASCII questions (accents included) score
/// well under 0.5; adversarial padding, repeated-char floods, and
/// non-ASCII-dominated text score above it. The latter is deliberately
/// conservative: a suspect request is pre-degraded and retry-eligible,
/// never rejected, so the cost of flagging unsegmented CJK is one rung of
/// prompt richness, not an outage. Exposed for tests and the bench.
double AnomalyScore(std::string_view question);

}  // namespace serve
}  // namespace codes

#endif  // CODES_SERVE_HARDEN_H_
