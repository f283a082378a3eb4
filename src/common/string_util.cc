#include "common/string_util.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>

namespace codes {

namespace {

// Case folding must be ASCII-only and locale-independent: these strings
// are UTF-8, and std::tolower/std::toupper consult the global C locale,
// where a byte >= 0x80 (half of every multi-byte code point) may be
// remapped as if it were a Latin-1 letter — silently corrupting the
// sequence and breaking the byte-exact LCS matching the value retriever
// relies on. Bytes >= 0x80 always pass through untouched.
inline char AsciiUpper(char c) {
  return (c >= 'a' && c <= 'z') ? static_cast<char>(c - 'a' + 'A') : c;
}

}  // namespace

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = AsciiLower(c);
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = AsciiUpper(c);
  return out;
}

std::string Trim(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  return std::string(s.substr(begin, end - begin));
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t hit = s.find(from, pos);
    if (hit == std::string_view::npos) {
      out += s.substr(pos);
      break;
    }
    out += s.substr(pos, hit - pos);
    out += to;
    pos = hit + from.size();
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (AsciiLower(a[i]) != AsciiLower(b[i])) return false;
  }
  return true;
}

bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  std::string h = ToLower(haystack);
  std::string n = ToLower(needle);
  return h.find(n) != std::string::npos;
}

std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

namespace {

/// from_chars-style strict wrapper over strto*: `s` must be non-empty and
/// consumed in full. strtol/strtod are used (not std::from_chars<double>,
/// which libstdc++ gained late) with an explicit end-pointer check.
template <typename T, typename Fn>
bool ParseFull(std::string_view s, T* out, Fn&& convert) {
  if (s.empty()) return false;
  // strto* skips leading whitespace; a flag value with spaces is garbage.
  if (std::isspace(static_cast<unsigned char>(s.front()))) return false;
  std::string buf(s);  // strto* needs a NUL terminator
  char* end = nullptr;
  errno = 0;
  T value = convert(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) return false;
  *out = value;
  return true;
}

}  // namespace

bool ParseInt(std::string_view s, int* out) {
  long value = 0;
  if (!ParseFull<long>(s, &value,
                       [](const char* p, char** e) { return std::strtol(p, e, 10); })) {
    return false;
  }
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

bool ParseUint64(std::string_view s, uint64_t* out) {
  // strtoull accepts "-1" by wrapping; reject any sign explicitly.
  if (!s.empty() && (s.front() == '-' || s.front() == '+')) return false;
  unsigned long long value = 0;
  return ParseFull<unsigned long long>(
             s, &value,
             [](const char* p, char** e) { return std::strtoull(p, e, 10); }) &&
         (*out = value, true);
}

bool ParseSize(std::string_view s, size_t* out) {
  uint64_t value = 0;
  if (!ParseUint64(s, &value)) return false;
  if (value > std::numeric_limits<size_t>::max()) return false;
  *out = static_cast<size_t>(value);
  return true;
}

bool ParseFiniteDouble(std::string_view s, double* out) {
  double value = 0.0;
  if (!ParseFull<double>(s, &value, [](const char* p, char** e) {
        return std::strtod(p, e);
      })) {
    return false;
  }
  if (!std::isfinite(value)) return false;  // rejects "inf", "nan"
  *out = value;
  return true;
}

bool ParseFlag(std::string_view arg, std::string_view name,
               std::string* value) {
  if (!StartsWith(arg, name)) return false;
  std::string_view rest = arg.substr(name.size());
  if (!rest.empty() && rest.front() != '=') return false;
  value->assign(rest.empty() ? rest : rest.substr(1));
  return true;
}

namespace {

/// Length (1-4) of the well-formed UTF-8 sequence starting at `s[i]`, or
/// 0 when the bytes there are ill-formed: a stray continuation byte, a
/// 0xC0/0xC1/0xF5+ lead byte, a truncated tail, an overlong encoding, a
/// UTF-16 surrogate, or a code point past U+10FFFF.
size_t Utf8SequenceLength(std::string_view s, size_t i) {
  unsigned char b0 = static_cast<unsigned char>(s[i]);
  if (b0 < 0x80) return 1;
  size_t len;
  uint32_t cp;
  if (b0 >= 0xC2 && b0 <= 0xDF) {
    len = 2;
    cp = b0 & 0x1Fu;
  } else if (b0 >= 0xE0 && b0 <= 0xEF) {
    len = 3;
    cp = b0 & 0x0Fu;
  } else if (b0 >= 0xF0 && b0 <= 0xF4) {
    len = 4;
    cp = b0 & 0x07u;
  } else {
    return 0;  // continuation byte or invalid lead (0xC0/0xC1 are overlong)
  }
  if (i + len > s.size()) return 0;  // truncated at end of input
  for (size_t k = 1; k < len; ++k) {
    unsigned char b = static_cast<unsigned char>(s[i + k]);
    if ((b & 0xC0) != 0x80) return 0;  // truncated mid-sequence
    cp = (cp << 6) | (b & 0x3Fu);
  }
  if (len == 3 && cp < 0x800) return 0;    // overlong 3-byte form
  if (len == 4 && cp < 0x10000) return 0;  // overlong 4-byte form
  if (cp >= 0xD800 && cp <= 0xDFFF) return 0;  // UTF-16 surrogate half
  if (cp > 0x10FFFF) return 0;
  return len;
}

}  // namespace

bool IsValidUtf8(std::string_view s) {
  size_t i = 0;
  while (i < s.size()) {
    size_t len = Utf8SequenceLength(s, i);
    if (len == 0) return false;
    i += len;
  }
  return true;
}

std::string RepairUtf8(std::string_view s) {
  if (IsValidUtf8(s)) return std::string(s);
  static constexpr char kReplacement[] = "\xEF\xBF\xBD";  // U+FFFD
  std::string out;
  out.reserve(s.size());
  size_t i = 0;
  while (i < s.size()) {
    size_t len = Utf8SequenceLength(s, i);
    if (len == 0) {
      out += kReplacement;
      ++i;
    } else {
      out.append(s.substr(i, len));
      i += len;
    }
  }
  return out;
}

std::string IdentifierToPhrase(std::string_view identifier) {
  std::string out;
  for (size_t i = 0; i < identifier.size(); ++i) {
    char c = identifier[i];
    if (c == '_' || c == '-' || c == '.') {
      if (!out.empty() && out.back() != ' ') out += ' ';
      continue;
    }
    // ASCII-only camelCase boundary: multi-byte UTF-8 identifiers keep
    // their bytes intact and never split mid-code-point.
    if (c >= 'A' && c <= 'Z' && i > 0 && identifier[i - 1] >= 'a' &&
        identifier[i - 1] <= 'z') {
      out += ' ';
    }
    out += AsciiLower(c);
  }
  return Trim(out);
}

}  // namespace codes
