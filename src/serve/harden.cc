#include "serve/harden.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace codes {
namespace serve {

namespace {

/// Decodes the (already validated) UTF-8 sequence at `s[i]` into a code
/// point, advancing `*len` to its byte length. Sanitized input only.
uint32_t DecodeUtf8(std::string_view s, size_t i, size_t* len) {
  unsigned char b0 = static_cast<unsigned char>(s[i]);
  if (b0 < 0x80) {
    *len = 1;
    return b0;
  }
  size_t n = (b0 >= 0xF0) ? 4 : (b0 >= 0xE0) ? 3 : 2;
  uint32_t cp = b0 & (0x7Fu >> n);
  for (size_t k = 1; k < n && i + k < s.size(); ++k) {
    cp = (cp << 6) | (static_cast<unsigned char>(s[i + k]) & 0x3Fu);
  }
  *len = n;
  return cp;
}

void EncodeUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    *out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    *out += static_cast<char>(0xC0 | (cp >> 6));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    *out += static_cast<char>(0xE0 | (cp >> 12));
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    *out += static_cast<char>(0xF0 | (cp >> 18));
    *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

bool IsZeroWidth(uint32_t cp) {
  return cp == 0x200B || cp == 0x200C || cp == 0x200D ||  // ZWSP/ZWNJ/ZWJ
         cp == 0xFEFF || cp == 0x00AD;                    // BOM, soft hyphen
}

/// Folds a confusable code point to its ASCII stand-in; returns 0 when
/// `cp` is not a confusable we fold. Deliberately small: fullwidth forms,
/// typographic quotes/dashes, and exotic spaces cover the perturbations
/// dataset/perturb emits and the common copy-paste hostiles.
uint32_t FoldConfusable(uint32_t cp) {
  if (cp >= 0xFF01 && cp <= 0xFF5E) return cp - 0xFEE0;  // fullwidth ASCII
  if (cp == 0x00A0 || (cp >= 0x2000 && cp <= 0x200A) || cp == 0x202F ||
      cp == 0x3000) {
    return ' ';  // NBSP, en/em/thin spaces, ideographic space
  }
  if (cp >= 0x2018 && cp <= 0x201B) return '\'';  // curly single quotes
  if (cp >= 0x201C && cp <= 0x201F) return '"';   // curly double quotes
  if (cp >= 0x2010 && cp <= 0x2015) return '-';   // hyphens and dashes
  return 0;
}

}  // namespace

double AnomalyScore(std::string_view question) {
  if (question.empty()) return 0.0;

  // Byte-class histogram over code-unit starts (continuation bytes are
  // part of their lead byte's character, not separate evidence).
  enum { kLower, kUpper, kDigit, kSpace, kPunct, kNonAscii, kNumClasses };
  size_t counts[kNumClasses] = {0, 0, 0, 0, 0, 0};
  size_t units = 0;
  for (char ch : question) {
    unsigned char c = static_cast<unsigned char>(ch);
    if ((c & 0xC0) == 0x80) continue;
    ++units;
    if (c >= 'a' && c <= 'z') {
      ++counts[kLower];
    } else if (c >= 'A' && c <= 'Z') {
      ++counts[kUpper];
    } else if (c >= '0' && c <= '9') {
      ++counts[kDigit];
    } else if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      ++counts[kSpace];
    } else if (c < 0x80) {
      ++counts[kPunct];
    } else {
      ++counts[kNonAscii];
    }
  }
  if (units == 0) return 1.0;  // nothing but continuation bytes: garbage

  // Repetition: the longest run of one byte, as a fraction of the input.
  // Natural text tops out around 2-3 repeated characters; padding floods
  // ("aaaa...", "!!!!...") approach 1.0.
  size_t longest_run = 1;
  size_t run = 1;
  for (size_t i = 1; i < question.size(); ++i) {
    run = (question[i] == question[i - 1]) ? run + 1 : 1;
    longest_run = std::max(longest_run, run);
  }
  double repeat_frac =
      static_cast<double>(longest_run) / static_cast<double>(question.size());

  // Token blowup: mean bytes per whitespace-separated word. Questions
  // average ~5; a 200-byte unbroken "word" explodes downstream token
  // budgets (and is nothing a person typed).
  std::vector<std::string> words = SplitWhitespace(question);
  double mean_word = words.empty()
                         ? static_cast<double>(question.size())
                         : static_cast<double>(question.size()) /
                               static_cast<double>(words.size());

  // Class entropy collapse: every natural question mixes letters, spaces
  // and punctuation (normalized entropy >= ~0.4); single-class floods
  // collapse toward 0.
  double entropy = 0.0;
  for (size_t c : counts) {
    if (c == 0) continue;
    double p = static_cast<double>(c) / static_cast<double>(units);
    entropy -= p * std::log(p);
  }
  double entropy_norm = entropy / std::log(static_cast<double>(kNumClasses));

  auto clamp01 = [](double v) { return std::clamp(v, 0.0, 1.0); };
  // Short fragments have degenerate run/entropy statistics; only the
  // blowup and density components apply to them.
  bool long_enough = question.size() >= 8;
  double comp_repeat =
      long_enough ? clamp01((repeat_frac - 0.2) * 2.5) : 0.0;
  double comp_entropy =
      long_enough ? clamp01((0.35 - entropy_norm) / 0.35) : 0.0;
  double comp_blowup = clamp01((mean_word - 12.0) / 28.0);
  double comp_nonascii =
      clamp01((static_cast<double>(counts[kNonAscii]) /
                   static_cast<double>(units) -
               0.3) /
              0.7);

  return clamp01(0.5 * comp_repeat + 0.45 * comp_entropy +
                 0.45 * comp_blowup + 0.25 * comp_nonascii);
}

HardenResult HardenQuestion(std::string_view question) {
  HardenResult result;

  // --- Tier 1: sanitize (what the pipeline serves) ---------------------

  std::string sanitized = RepairUtf8(question);
  if (sanitized != question) result.flags |= kHardenRepairedUtf8;

  if (sanitized.size() > kMaxQuestionBytes) {
    size_t cut = kMaxQuestionBytes;
    // Never cut mid-sequence: back up over continuation bytes.
    while (cut > 0 &&
           (static_cast<unsigned char>(sanitized[cut]) & 0xC0) == 0x80) {
      --cut;
    }
    sanitized.resize(cut);
    result.flags |= kHardenTruncated;
  }

  {
    std::string stripped;
    stripped.reserve(sanitized.size());
    for (char ch : sanitized) {
      unsigned char c = static_cast<unsigned char>(ch);
      if (c == '\t' || c == '\n' || c == '\r') {
        stripped += ' ';  // benign whitespace controls normalize to space
      } else if (c < 0x20 || c == 0x7F) {
        result.flags |= kHardenStrippedControl;  // C0 / DEL: dropped
      } else {
        stripped += ch;
      }
    }
    sanitized = std::move(stripped);
  }

  // --- Tier 2: canonicalize (held in reserve for the suspect retry) ----

  std::string folded;
  folded.reserve(sanitized.size());
  for (size_t i = 0; i < sanitized.size();) {
    size_t len = 1;
    uint32_t cp = DecodeUtf8(sanitized, i, &len);
    i += len;
    if (IsZeroWidth(cp)) {
      result.flags |= kHardenStrippedZeroWidth;
      continue;
    }
    uint32_t ascii = FoldConfusable(cp);
    if (ascii != 0) {
      result.flags |= kHardenFoldedConfusable;
      EncodeUtf8(ascii, &folded);
    } else {
      EncodeUtf8(cp, &folded);
    }
  }
  std::string canonical;
  canonical.reserve(folded.size());
  bool pending_space = false;
  for (char c : folded) {
    if (c == ' ') {
      pending_space = !canonical.empty();
      continue;
    }
    if (pending_space) {
      canonical += ' ';
      pending_space = false;
    }
    canonical += c;
  }
  if (canonical != folded) result.flags |= kHardenCollapsedWhitespace;

  result.anomaly = AnomalyScore(sanitized);
  if (result.anomaly >= kAnomalyThreshold) {
    result.flags |= kHardenAnomalous;
  }
  // Suspect = any structural repair fired, or the score crossed the
  // threshold. Collapsed whitespace alone is not suspicion — double
  // spaces are something people type.
  constexpr uint32_t kStructural = kHardenRepairedUtf8 | kHardenTruncated |
                                   kHardenStrippedControl |
                                   kHardenStrippedZeroWidth |
                                   kHardenFoldedConfusable;
  result.suspect =
      (result.flags & (kStructural | kHardenAnomalous)) != 0;
  result.sanitized = std::move(sanitized);
  result.canonical = std::move(canonical);
  return result;
}

}  // namespace serve
}  // namespace codes
