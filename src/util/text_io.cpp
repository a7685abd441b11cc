#include "util/text_io.hpp"

#include <cmath>

#include "util/status.hpp"

namespace tevot::util {
namespace {

bool isSpace(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
         c == '\f';
}

}  // namespace

TextWriter::TextWriter(std::ostream& os)
    : os_(os), buf_(std::make_unique<char[]>(kChunk)) {}

char* TextWriter::room(std::size_t n) {
  if (kChunk - used_ < n) flush();
  return buf_.get() + used_;
}

TextWriter& TextWriter::text(std::string_view s) {
  if (s.size() > kChunk) {
    flush();
    os_.write(s.data(), static_cast<std::streamsize>(s.size()));
    return *this;
  }
  s.copy(room(s.size()), s.size());
  used_ += s.size();
  return *this;
}

TextWriter& TextWriter::number(float value) {
  char* at = room(kMaxNumber);
  used_ = static_cast<std::size_t>(
      std::to_chars(at, at + kMaxNumber, value, std::chars_format::general,
                    9)
          .ptr -
      buf_.get());
  return *this;
}

void TextWriter::flush() {
  if (used_ == 0) return;
  os_.write(buf_.get(), static_cast<std::streamsize>(used_));
  used_ = 0;
}

void TextReader::skipSpace() {
  while (pos_ < text_.size() && isSpace(text_[pos_])) ++pos_;
}

std::string_view TextReader::word() {
  skipSpace();
  const std::size_t start = pos_;
  while (pos_ < text_.size() && !isSpace(text_[pos_])) ++pos_;
  return text_.substr(start, pos_ - start);
}

void TextReader::expect(std::string_view expected) {
  skipSpace();
  const std::size_t start = pos_;
  if (word() != expected) {
    pos_ = start;
    fail("expected '" + std::string(expected) + "'");
  }
}

float TextReader::finiteFloat(const char* what) {
  float value = 0.0f;
  skipSpace();
  const std::from_chars_result result =
      std::from_chars(here(), end(), value, std::chars_format::general);
  // from_chars reads "nan" and "inf"; no saved model holds them.
  if (result.ec == std::errc() && !std::isfinite(value)) {
    fail(std::string("non-finite ") + what);
  }
  finishNumber(result, what);
  return value;
}

void TextReader::finishNumber(const std::from_chars_result& result,
                              const char* what) {
  if (pos_ == text_.size()) fail(std::string("truncated: expected ") + what);
  if (result.ec != std::errc() ||
      (result.ptr != end() && !isSpace(*result.ptr))) {
    fail(std::string("bad ") + what);
  }
  pos_ = static_cast<std::size_t>(result.ptr - text_.data());
}

void TextReader::expectEnd(const char* after) {
  skipSpace();
  if (pos_ != text_.size()) {
    const std::size_t start = pos_;
    const std::string_view junk = word().substr(0, 16);
    pos_ = start;
    fail(std::string("trailing bytes after ") + after + " ('" +
         std::string(junk) + "')");
  }
}

void TextReader::fail(const std::string& what) const {
  throw StatusError(
      Status::parseError(what + " at byte " + std::to_string(pos_)));
}

}  // namespace tevot::util
