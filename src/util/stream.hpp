// Input-stream helpers shared by the text loaders.
#pragma once

#include <cstdint>
#include <istream>
#include <string>

namespace tevot::util {

/// Bytes left in `is`, or 0 when the stream cannot tell. Loaders bound
/// reserve() by it, so a corrupt count fails as truncation, never as
/// bad_alloc or length_error.
inline std::uint64_t bytesLeft(std::istream& is) {
  const std::streampos here = is.tellg();
  if (here < 0) return 0;
  is.seekg(0, std::ios::end);
  const std::streampos end = is.tellg();
  is.clear();
  is.seekg(here);
  return end > here ? static_cast<std::uint64_t>(end - here) : 0;
}

/// The rest of `is`, read in one piece when the stream can tell its
/// size (a file) and to its end otherwise (a pipe). Check is.bad()
/// after for a read error.
inline std::string readAll(std::istream& is) {
  std::string text(bytesLeft(is), '\0');
  is.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<std::size_t>(is.gcount()));
  char chunk[4096];
  while (is.read(chunk, sizeof(chunk)) || is.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(is.gcount()));
  }
  return text;
}

}  // namespace tevot::util
