// Number-exact text I/O: the one number rule, the one path every saved
// model and sweep checkpoint is written and read through, and the one
// cursor the SDF, Liberty, Verilog and VCD loaders read with.
//
// The number rule reads one whole token with std::from_chars, never a
// valid prefix of it. parseInteger takes digits with '-' for signed
// types only, no '+' and no leading zero ("007", "-0"), in range;
// parseDecimal a finite decimal in range ("nan", "+1", "1e999" and
// "1e-999", which would read as 0, are rejected); parseHexDouble a
// finite double in TextWriter::hexDouble's "%a" spelling only. The
// wire, the metrics line, flags, env knobs, fault specs and JSON call
// these; TextReader is their cursor front end.
//
// TextWriter formats numbers with std::to_chars into one fixed-size
// chunk and hands the chunk to an ostream whenever it fills, so a
// writer costs no per-number stream formatting and its memory does not
// grow with the file. Integers are written exactly; a float is written
// as printf's "%.9g" of its value, nine significant digits, which every
// float parses back from bit for bit; a double is written exactly as
// printf's "%a" hexfloat.
//
// TextReader is a bounded cursor over one in-memory buffer. Tokens are
// separated by whitespace (space, \t, \n, \v, \f, \r). token() splits
// the source-language formats (SDF, Liberty, Verilog) the same way,
// with punctuation, quoted strings and comments on top, and decimal()
// reads their "%.17g" numbers. Every failure throws util::StatusError
// (kParseError) naming what was expected and the byte offset, so a
// truncated file says where it broke off.
//
// readFile and writeFileAtomic are the file ends of the two: one read
// into one buffer, and one write that no reader ever sees half done.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <functional>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>

namespace tevot::util {

class FaultInjector;

/// The core of the number rule, which the whole-token parse functions
/// below and TextReader both read through: reads the Int in base `base`
/// at the start of [first, last) and returns the end of what it read,
/// or nullptr (leaving `*out` unspecified) when no number in the rule's
/// spelling starts there.
template <std::integral Int>
const char* readInteger(const char* first, const char* last, Int* out,
                        int base = 10) {
  const std::from_chars_result result =
      std::from_chars(first, last, *out, base);
  if (result.ec != std::errc()) return nullptr;
  const char* const digits = first + (*first == '-');
  // One spelling per integer: "007" and "-0" are not numbers.
  if (*digits == '0' && (digits != first || result.ptr - digits > 1)) {
    return nullptr;
  }
  return result.ptr;
}

/// The finite, in-range decimal float or double at `first`.
template <std::floating_point Float>
const char* readDecimal(const char* first, const char* last, Float* out) {
  const std::from_chars_result result =
      std::from_chars(first, last, *out, std::chars_format::general);
  // from_chars reads "nan" and "inf"; it fails on underflow to 0.
  return result.ec == std::errc() && std::isfinite(*out) ? result.ptr
                                                          : nullptr;
}

/// `token` as an Int in base `base`; false, with `*out` untouched, when
/// it is not exactly one. So for every parse function below.
template <std::integral Int>
bool parseInteger(std::string_view token, Int* out, int base = 10) {
  Int value{};
  const char* const last = token.data() + token.size();
  if (token.empty() ||
      readInteger(token.data(), last, &value, base) != last) {
    return false;
  }
  *out = value;
  return true;
}

/// `token` as a decimal float or double ("0.9", "-1.5e-3", "25").
template <std::floating_point Float>
bool parseDecimal(std::string_view token, Float* out) {
  Float value{};
  const char* const last = token.data() + token.size();
  if (token.empty() || readDecimal(token.data(), last, &value) != last) {
    return false;
  }
  *out = value;
  return true;
}

/// `token` as a double in TextWriter::hexDouble's spelling; every other
/// spelling of the value ("0X1P0", "0x1.80p+1", "0x3p+0") is rejected.
bool parseHexDouble(std::string_view token, double* out);

/// `token` as a UInt in decimal or as "0x" and hex digits, each by
/// parseInteger: how operand words are spelled on the wire and the
/// command line.
template <std::unsigned_integral UInt>
bool parseIntegerOrHex(std::string_view token, UInt* out) {
  return token.starts_with("0x") ? parseInteger(token.substr(2), out, 16)
                                 : parseInteger(token, out);
}

/// `token` by parseDecimal or by parseHexDouble.
inline bool parseReal(std::string_view token, double* out) {
  return parseDecimal(token, out) || parseHexDouble(token, out);
}

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
  /// `value` as printf's "%a" ("0x1.8p+1", "-0x0p+0"), which parses
  /// back to the same bits.
  TextWriter& hexDouble(double value);

  /// Writes the buffered bytes to the stream; check the stream after.
  void flush();

 private:
  static constexpr std::size_t kChunk = 64 * 1024;
  /// Longest number any overload writes: "-1.17549435e-38", a 64-bit
  /// integer with its sign, or "-0x1.fffffffffffffp+1023".
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
  /// The bytes after the cursor up to the end of their line (or of the
  /// input); the newline is consumed, not returned.
  std::string_view restOfLine();
  /// The next token of a source-language text (SDF, Liberty,
  /// Verilog): each character of `punct` is a token of its own and
  /// ends a word, a "..." string is one token (quotes included), and
  /// // and /* */ comments are skipped like whitespace. Throws at the
  /// end of the input (`what` names the token) and on an unterminated
  /// string or comment.
  std::string_view token(std::string_view punct, const char* what);

  /// The next token as an Int. `what` names it in the error.
  template <std::integral Int>
  Int integer(const char* what) {
    return number<Int>(what, [](const char* first, const char* last,
                                Int* out) {
      return readInteger(first, last, out);
    });
  }
  /// The next token as an Int in [lo, hi].
  template <std::integral Int>
  Int integer(const char* what, Int lo, Int hi) {
    const std::size_t start = pos_;
    const Int value = integer<Int>(what);
    if (value < lo || value > hi) {
      pos_ = start;
      fail(std::string("out-of-range ") + what);
    }
    return value;
  }
  /// The next token as a finite float.
  float finiteFloat(const char* what) {
    return number<float>(what, readDecimal<float>);
  }
  /// The next token as a finite double written by TextWriter::hexDouble.
  double hexDouble(const char* what);
  /// The next token(punct) as a finite decimal double ("0.9",
  /// "-1.5e-3"); the number must be the whole token.
  double decimal(std::string_view punct, const char* what);

  /// Throws unless nothing but whitespace is left; `after` names what
  /// the input should have ended with.
  void expectEnd(const char* after);
  /// Throws unless the input ends with the line `last` (trailing
  /// whitespace allowed, the newline required): a cut anywhere before
  /// it misses the line, and bytes after it mean a corrupt or
  /// concatenated file.
  void expectLastLine(std::string_view last);

  std::size_t bytesLeft() const { return text_.size() - pos_; }

  /// Throws util::StatusError (kParseError): "<what> at byte <pos>".
  [[noreturn]] void fail(const std::string& what) const;

 private:
  static bool isSpace(char c) {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
           c == '\f';
  }
  void skipSpace();
  /// Skips whitespace and // and /* */ comments.
  void skipSpaceAndComments();
  /// The next token as a T: `read` (a core of the number rule) must
  /// read a number at the cursor that ends at whitespace or the end of
  /// the input. Throws naming `what` otherwise.
  template <typename T, typename Read>
  T number(const char* what, Read read) {
    skipSpace();
    const char* const first = text_.data() + pos_;
    const char* const last = text_.data() + text_.size();
    T value{};
    const char* const end = read(first, last, &value);
    if (end != nullptr && (end == last || isSpace(*end))) {
      pos_ = static_cast<std::size_t>(end - text_.data());
      return value;
    }
    fail((first == last ? "truncated: expected " : "bad ") +
         std::string(what));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// The rest of `is`, read in one piece when the stream can tell its
/// size (a file) and to its end otherwise (a pipe). Check is.bad()
/// after for a read error.
std::string readAll(std::istream& is);

/// The whole file at `path`. Throws util::StatusError (kIoError, with
/// the path and errno text, prefixed by `who`) when it cannot be
/// opened or read.
std::string readFile(const std::string& path, std::string_view who);

/// Writes `path` so that no reader ever sees part of it: `write` fills
/// a TextWriter over the temp file `<path>.tmp.<pid>` (per process, so
/// concurrent writers never share one), which is flushed and renamed
/// onto `path`. When `faults` is armed, the io.open and io.write fault
/// points fire with `fault_key`. Throws util::StatusError (kIoError,
/// prefixed by `who`; errno text when the system failed) on failure,
/// and then `path` keeps its previous contents and no temp file is
/// left behind.
void writeFileAtomic(const std::string& path, std::string_view who,
                     const std::function<void(TextWriter&)>& write,
                     FaultInjector* faults = nullptr,
                     std::string_view fault_key = {});

}  // namespace tevot::util
