// Input-stream helpers shared by the text loaders.
#pragma once

#include <cstdint>
#include <istream>

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

}  // namespace tevot::util
