// Every-prefix and every-single-byte-mutation harness for the text
// readers. A reader that accepts each value in its writer's spelling
// only must answer every cut or mutated input with a typed error, or
// with a value whose writer gives back exactly the tokens it was read
// from: a mutation may change a value, never read as a different one.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tevot::test {

/// What each byte is replaced with: digits, hex and exponent
/// characters, signs, separators and a NUL.
inline constexpr char kMutationBytes[] = {'0', '1', '7', 'f', 'x', 'p', '-',
                                          '+', '.', ' ', '\n', '\t', '\0'};

/// The whitespace-separated tokens of `text`.
inline std::vector<std::string> tokensOf(std::string_view text) {
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  std::vector<std::string> tokens;
  for (std::size_t at = text.find_first_not_of(kSpace);
       at != std::string_view::npos;
       at = text.find_first_not_of(kSpace, at)) {
    const std::size_t end = std::min(text.find_first_of(kSpace, at),
                                     text.size());
    tokens.emplace_back(text.substr(at, end - at));
    at = end;
  }
  return tokens;
}

/// Calls fn(prefix, label) for every proper prefix of `text`.
template <typename Fn>
void forEachPrefix(const std::string& text, Fn fn) {
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    fn(text.substr(0, cut),
       "cut at " + std::to_string(cut) + " of " + std::to_string(text.size()));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Calls fn(mutated, label) for every replacement of one byte of
/// `text` by a different kMutationBytes entry.
template <typename Fn>
void forEachMutation(const std::string& text, Fn fn) {
  for (std::size_t at = 0; at < text.size(); ++at) {
    for (const char replacement : kMutationBytes) {
      if (text[at] == replacement) continue;
      std::string mutated = text;
      mutated[at] = replacement;
      fn(mutated, "byte " + std::to_string(at) + " -> " +
                      std::to_string(int{replacement}));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// Feeds `read` every prefix and every mutation of `text`. read(input)
/// returns std::nullopt when it rejected the input with a typed error
/// (checking the type itself), and otherwise what the writer gives back
/// for the value it read, which must have exactly the input's tokens.
/// Returns how many inputs were accepted.
template <typename Read>
std::size_t expectTypedErrorOrReadBack(const std::string& text, Read read) {
  std::size_t accepted = 0;
  const auto check = [&](const std::string& input, const std::string& label) {
    const std::optional<std::string> written = read(input);
    if (!written.has_value()) return;
    ++accepted;
    ASSERT_EQ(tokensOf(*written), tokensOf(input)) << label;
  };
  forEachPrefix(text, check);
  forEachMutation(text, check);
  return accepted;
}

}  // namespace tevot::test
