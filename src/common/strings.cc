#include "src/common/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <system_error>
#include <type_traits>

namespace fbdetect {

std::vector<std::string> SplitString(std::string_view input, char delimiter) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (start <= input.size()) {
    const size_t end = input.find(delimiter, start);
    const size_t len = (end == std::string_view::npos ? input.size() : end) - start;
    if (len > 0) {
      pieces.emplace_back(input.substr(start, len));
    }
    if (end == std::string_view::npos) {
      break;
    }
    start = end + 1;
  }
  return pieces;
}

std::string JoinStrings(const std::vector<std::string>& pieces, std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) {
      out.append(separator);
    }
    out.append(pieces[i]);
  }
  return out;
}

std::string ToLowerAscii(std::string_view input) {
  std::string out(input);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::vector<std::string> TokenizeIdentifier(std::string_view text) {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&tokens, &current]() {
    if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
  };
  for (size_t i = 0; i < text.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (std::isalpha(c)) {
      // A transition from lower to upper case starts a new camelCase token.
      if (std::isupper(c) && !current.empty() &&
          std::islower(static_cast<unsigned char>(current.back()))) {
        flush();
      }
      current.push_back(static_cast<char>(std::tolower(c)));
    } else if (std::isdigit(c)) {
      current.push_back(static_cast<char>(c));
    } else {
      flush();
    }
  }
  flush();
  return tokens;
}

std::vector<std::string> CharNgrams(std::string_view input, int n) {
  std::vector<std::string> grams;
  const std::string lowered = ToLowerAscii(input);
  if (lowered.empty()) {
    return grams;
  }
  if (static_cast<int>(lowered.size()) <= n) {
    grams.push_back(lowered);
    return grams;
  }
  grams.reserve(lowered.size() - static_cast<size_t>(n) + 1);
  for (size_t i = 0; i + static_cast<size_t>(n) <= lowered.size(); ++i) {
    grams.push_back(lowered.substr(i, static_cast<size_t>(n)));
  }
  return grams;
}

template <typename T>
std::optional<T> ParseNumber(std::string_view text, T min) {
  // std::from_chars already refuses leading whitespace and a '+' sign, and a
  // '-' sign for unsigned T; it reports overflow as result_out_of_range.
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) {
    return std::nullopt;
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) {
      return std::nullopt;
    }
  }
  if (value < min) {
    return std::nullopt;
  }
  return value;
}

template std::optional<int> ParseNumber<int>(std::string_view, int);
template std::optional<uint16_t> ParseNumber<uint16_t>(std::string_view, uint16_t);
template std::optional<uint64_t> ParseNumber<uint64_t>(std::string_view, uint64_t);
template std::optional<double> ParseNumber<double>(std::string_view, double);

}  // namespace fbdetect
