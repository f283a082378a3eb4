#include "text/tokenize.h"

#include <cctype>
#include <unordered_set>

#include "common/string_util.h"

namespace codes {

std::vector<std::string> WordTokens(std::string_view text) {
  std::vector<std::string> out;
  ForEachWordPiece(text, [&out](std::string_view piece) {
    out.push_back(ToLower(piece));
  });
  return out;
}

std::vector<std::string> CodeTokens(std::string_view text) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (IsWordChar(c)) {
      size_t start = i;
      while (i < text.size() && IsWordChar(text[i])) ++i;
      out.push_back(ToLower(text.substr(start, i - start)));
      continue;
    }
    // Two-character operators first.
    if (i + 1 < text.size()) {
      std::string_view two = text.substr(i, 2);
      if (two == "<=" || two == ">=" || two == "!=" || two == "<>" ||
          two == "||") {
        out.emplace_back(two);
        i += 2;
        continue;
      }
    }
    out.push_back(std::string(1, c));
    ++i;
  }
  return out;
}

bool IsNumberToken(std::string_view token) {
  if (token.empty()) return false;
  bool seen_digit = false;
  bool seen_dot = false;
  size_t start = (token[0] == '-' || token[0] == '+') ? 1 : 0;
  if (start == token.size()) return false;
  for (size_t i = start; i < token.size(); ++i) {
    char c = token[i];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      seen_digit = true;
    } else if (c == '.' && !seen_dot) {
      seen_dot = true;
    } else {
      return false;
    }
  }
  return seen_digit;
}

bool IsStopWord(std::string_view token) {
  static const std::unordered_set<std::string>* const kStopWords =
      new std::unordered_set<std::string>{
          "the", "a",    "an",   "of",   "in",   "on",    "for", "to",
          "and", "or",   "is",   "are",  "was",  "were",  "be",  "by",
          "at",  "as",   "that", "this", "with", "from",  "all", "each",
          "me",  "show", "list", "what", "which", "who",  "how", "many",
          "much", "do",  "does", "did",  "have", "has",   "it",  "its",
          "their", "there", "than", "then", "also", "please", "give",
          "find", "return", "tell", "i", "we", "you", "they", "them"};
  return kStopWords->count(std::string(token)) > 0;
}

StemEdit StemEditOf(std::string_view token) {
  const size_t n = token.size();
  auto strips = [token, n](std::string_view suffix) {
    return n > suffix.size() + 2 && token.ends_with(suffix);
  };
  if (strips("ies")) return StemEdit{n - 3, "y"};
  if (strips("sses")) return StemEdit{n - 2, ""};  // "-sses" -> "-ss"
  if (strips("ing")) return StemEdit{n - 3, ""};
  if (strips("ed")) return StemEdit{n - 2, ""};
  if (n > 3 && token.ends_with('s') && !token.ends_with("ss") &&
      !token.ends_with("us")) {
    return StemEdit{n - 1, ""};
  }
  return StemEdit{n, ""};
}

std::string StemToken(std::string_view token) {
  const StemEdit edit = StemEditOf(token);
  std::string stem(token.substr(0, edit.keep));
  if (!edit.append.empty()) stem += edit.append;
  return stem;
}

}  // namespace codes
