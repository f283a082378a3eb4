#ifndef CODES_TEXT_TOKENIZE_H_
#define CODES_TEXT_TOKENIZE_H_

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

namespace codes {

/// True for the bytes a word token is made of: ASCII alphanumerics and '_'.
inline bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// The word splitter behind WordTokens and the BM25 analyzer: calls
/// `emit(piece)` for each word piece of `text`, in order, without
/// allocating. Words are maximal runs of IsWordChar bytes, split on '_' so
/// "stu_id" gives "stu", "id"; a word of only '_' gives one "_" (a
/// mask/slot placeholder, see text/pattern.h, kept so embeddings see the
/// slot). Pieces are views into
/// `text` (or of a static "_") and keep its case; lowercase first for
/// lowercase pieces.
template <typename Emit>
void ForEachWordPiece(std::string_view text, Emit&& emit) {
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && !IsWordChar(text[i])) ++i;
    const size_t start = i;
    bool all_underscore = true;
    while (i < text.size() && IsWordChar(text[i])) {
      if (text[i] != '_') all_underscore = false;
      ++i;
    }
    if (i == start) continue;
    if (all_underscore) {
      emit(std::string_view("_"));
      continue;
    }
    size_t piece = start;
    for (size_t j = start; j <= i; ++j) {
      if (j == i || text[j] == '_') {
        if (j > piece) emit(text.substr(piece, j - piece));
        piece = j + 1;
      }
    }
  }
}

/// Splits `text` into lowercase word tokens (ForEachWordPiece, lowercased).
/// Punctuation is dropped.
/// "List the singer's name, age" -> {"list","the","singer","s","name","age"}.
std::vector<std::string> WordTokens(std::string_view text);

/// Like WordTokens but keeps punctuation marks as single-character tokens.
/// Used by the language model, where operators like '=' and ',' carry
/// distributional signal.
std::vector<std::string> CodeTokens(std::string_view text);

/// True if the token is a number literal (integer or decimal).
bool IsNumberToken(std::string_view token);

/// English "stop words" ignored by retrieval scoring.
bool IsStopWord(std::string_view token);

/// The stemmer's rule for one token, as an edit of its tail: the stem is
/// the first `keep` bytes of the token followed by `append`.
struct StemEdit {
  size_t keep = 0;
  std::string_view append;
};

/// The one copy of the suffix rules (-ies, -sses, -ing, -ed, plural -s),
/// each applied only to tokens longer than the suffix plus two bytes.
StemEdit StemEditOf(std::string_view token);

/// Crude suffix-stripping stemmer (plural/-ing/-ed) so that "singers"
/// matches "singer". Operates on a lowercase token; applies StemEditOf.
std::string StemToken(std::string_view token);

}  // namespace codes

#endif  // CODES_TEXT_TOKENIZE_H_
