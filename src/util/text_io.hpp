// Number-exact text I/O for the saved-model formats.
//
// TextWriter formats numbers with std::to_chars into one fixed-size
// chunk and hands the chunk to an ostream whenever it fills, so a
// writer costs no per-number stream formatting and its memory does not
// grow with the model. Integers are written exactly; a float is written
// as printf's "%.9g" of its value, nine significant digits, which every
// float parses back from bit for bit.
//
// TextReader is a bounded cursor over one in-memory buffer. Tokens are
// separated by whitespace (space, \t, \n, \v, \f, \r). A number is
// parsed with std::from_chars and must fill its whole token: "1x" or a
// leading '+' is an error, not a 1. Floats must be finite and in range
// ("nan", "inf" and "1e50" are rejected). Every failure throws
// util::StatusError (kParseError) naming what was expected and the byte
// offset, so a truncated file says where it broke off.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>

namespace tevot::util {

class TextWriter {
 public:
  explicit TextWriter(std::ostream& os);
  TextWriter(const TextWriter&) = delete;
  TextWriter& operator=(const TextWriter&) = delete;
  /// Flushes what is still buffered (stream errors stay on the stream).
  ~TextWriter() { flush(); }

  TextWriter& text(std::string_view s);
  TextWriter& number(float value);
  template <std::integral Int>
  TextWriter& number(Int value) {
    char* at = room(kMaxNumber);
    used_ = static_cast<std::size_t>(
        std::to_chars(at, at + kMaxNumber, value).ptr - buf_.get());
    return *this;
  }

  /// Writes the buffered bytes to the stream; check the stream after.
  void flush();

 private:
  static constexpr std::size_t kChunk = 64 * 1024;
  /// Longest number either overload writes ("-1.17549435e-38", or a
  /// 64-bit integer with its sign).
  static constexpr std::size_t kMaxNumber = 24;

  /// Start of `n` free bytes in the chunk, flushing it first if needed.
  char* room(std::size_t n);

  std::ostream& os_;
  std::unique_ptr<char[]> buf_;
  std::size_t used_ = 0;
};

class TextReader {
 public:
  explicit TextReader(std::string_view text) : text_(text) {}

  /// The next token; empty at the end of the input.
  std::string_view word();
  /// Throws unless the next token is exactly `expected`.
  void expect(std::string_view expected);

  /// The next token as an Int. `what` names it in the error.
  template <std::integral Int>
  Int integer(const char* what) {
    Int value{};
    skipSpace();
    finishNumber(std::from_chars(here(), end(), value), what);
    return value;
  }
  /// The next token as a finite float.
  float finiteFloat(const char* what);

  /// Throws unless nothing but whitespace is left; `after` names what
  /// the input should have ended with.
  void expectEnd(const char* after);

  std::size_t bytesLeft() const { return text_.size() - pos_; }

  /// Throws util::StatusError (kParseError): "<what> at byte <pos>".
  [[noreturn]] void fail(const std::string& what) const;

 private:
  const char* here() const { return text_.data() + pos_; }
  const char* end() const { return text_.data() + text_.size(); }
  void skipSpace();
  /// Checks a from_chars result covers a whole token and moves past it.
  void finishNumber(const std::from_chars_result& result, const char* what);

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace tevot::util
