// Small string utilities shared across modules: splitting, joining, case
// folding, identifier tokenization (camelCase / snake_case aware), character
// n-grams for TF-IDF features, and strict number parsing for command-line
// flags.
#ifndef FBDETECT_SRC_COMMON_STRINGS_H_
#define FBDETECT_SRC_COMMON_STRINGS_H_

#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fbdetect {

// Splits on any occurrence of `delimiter`; empty pieces are dropped.
std::vector<std::string> SplitString(std::string_view input, char delimiter);

// Joins pieces with the given separator.
std::string JoinStrings(const std::vector<std::string>& pieces, std::string_view separator);

// ASCII lower-casing.
std::string ToLowerAscii(std::string_view input);

// True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

// Tokenizes an identifier or free text into lower-case word tokens.
// Understands camelCase, snake_case, ::, ., /, and whitespace boundaries, so
// "TaoClient::fetchUserById" -> {"tao", "client", "fetch", "user", "by", "id"}.
std::vector<std::string> TokenizeIdentifier(std::string_view text);

// Character n-grams of the lower-cased input (used for metric-ID TF-IDF with
// 2- and 3-gram lengths, per §5.5.1). Inputs shorter than `n` yield the whole
// string as a single gram.
std::vector<std::string> CharNgrams(std::string_view input, int n);

// Parses the whole of `text` as a base-10 number of type T that is at least
// `min`. Returns nullopt for empty input, leading or trailing characters
// (whitespace included), a '+' sign, a '-' sign on an unsigned type, a value
// outside T's range (overflow included) or below `min`, and, for double, a
// non-finite value. Instantiated for int, uint16_t, uint64_t and double.
template <typename T>
std::optional<T> ParseNumber(std::string_view text, T min = std::numeric_limits<T>::lowest());

}  // namespace fbdetect

#endif  // FBDETECT_SRC_COMMON_STRINGS_H_
