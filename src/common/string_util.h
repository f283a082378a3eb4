#ifndef CODES_COMMON_STRING_UTIL_H_
#define CODES_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace codes {

/// One byte, lowercased if it is an ASCII letter. Locale-independent:
/// bytes >= 0x80 pass through untouched.
inline char AsciiLower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Returns `s` with ASCII letters lowercased. Locale-independent: bytes
/// >= 0x80 pass through untouched, so UTF-8 text stays byte-exact (the
/// value retriever's LCS matching depends on this).
std::string ToLower(std::string_view s);

/// Returns `s` with ASCII letters uppercased (locale-independent; bytes
/// >= 0x80 untouched).
std::string ToUpper(std::string_view s);

/// Returns `s` without leading/trailing ASCII whitespace.
std::string Trim(std::string_view s);

/// Splits `s` on the single character `sep`. Empty pieces are kept.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits `s` on runs of ASCII whitespace. Empty pieces are dropped.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Replaces every occurrence of `from` (non-empty) in `s` with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// True if `a` and `b` are equal ignoring ASCII case (bytes >= 0x80 must
/// match exactly).
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// True if `needle` occurs in `haystack` ignoring ASCII case.
bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle);

/// Formats a double with `digits` digits after the decimal point.
std::string FormatDouble(double value, int digits);

/// Strict numeric parsing for flag/spec values: the whole string must be a
/// single number (no trailing junk, no empty input) that fits the output
/// type, otherwise the function returns false and leaves `*out` untouched.
/// Unlike std::atoi/atof these never silently map garbage to 0, which is
/// how a mistyped --queries flag once ran a 0-query campaign "green".
bool ParseInt(std::string_view s, int* out);
bool ParseUint64(std::string_view s, uint64_t* out);
bool ParseSize(std::string_view s, size_t* out);
/// Finite decimal doubles only ("0.25", "1e-3"); rejects inf/nan.
bool ParseFiniteDouble(std::string_view s, double* out);

/// Matches one command-line argument against the flag `name` ("--seed").
/// "--seed" matches with an empty value and "--seed=V" with value V;
/// anything else, including a longer flag that only starts with `name`,
/// does not match and leaves `*value` untouched.
bool ParseFlag(std::string_view arg, std::string_view name,
               std::string* value);

/// True when `s` is well-formed UTF-8. Strict: truncated sequences,
/// stray continuation bytes, overlong encodings, UTF-16 surrogates, and
/// code points above U+10FFFF all fail. ASCII is trivially valid.
bool IsValidUtf8(std::string_view s);

/// Returns `s` with every ill-formed byte replaced by U+FFFD (the
/// replacement character), deterministically: one U+FFFD per bad byte, so
/// the same input always repairs to the same output and a truncated
/// 3-byte sequence yields exactly as many replacements as it has bytes.
/// Well-formed input comes back byte-identical. This is the ingest gate
/// in front of the ASCII-only case folds above: those pass bytes >= 0x80
/// through untouched, which is only safe once the sequence structure has
/// been validated here.
std::string RepairUtf8(std::string_view s);

/// Turns an identifier like "stu_id" or "StudentName" into a lowercase
/// word sequence: "stu id", "student name". Used to render schema names as
/// natural-language phrases.
std::string IdentifierToPhrase(std::string_view identifier);

}  // namespace codes

#endif  // CODES_COMMON_STRING_UTIL_H_
