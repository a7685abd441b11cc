#include "util/text_io.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/fault_injection.hpp"
#include "util/status.hpp"

namespace tevot::util {
namespace {

/// Longest hex digit string to_chars writes for a double
/// ("0.0000000000001p-1022", "1.fffffffffffffp+1023").
constexpr std::size_t kMaxHexDigits = 24;

/// The digits "%a" prints for a non-negative finite `magnitude` after
/// its "0x" ("1.8p+1", "0.0000000000001p-1022"), written from `first`;
/// returns their end. libstdc++ releases disagree on subnormals (GCC 12
/// prints "%a"'s form, later ones "1p-1074"), so those take printf.
char* hexDigits(char* first, char* last, double magnitude) {
  if (magnitude == 0.0 || magnitude >= DBL_MIN) {
    return std::to_chars(first, last, magnitude, std::chars_format::hex).ptr;
  }
  char buf[kMaxHexDigits + 3];
  const int n = std::snprintf(buf, sizeof(buf), "%a", magnitude);
  return std::copy(buf + 2, buf + n, first);
}

}  // namespace

bool parseHexDouble(std::string_view token, double* out) {
  // Reformatting what from_chars read and comparing rejects every
  // other spelling of the same value along with malformed tokens.
  const bool negative = token.starts_with('-');
  const std::string_view magnitude = token.substr(negative ? 1 : 0);
  if (!magnitude.starts_with("0x")) return false;
  const std::string_view digits = magnitude.substr(2);
  if (digits.starts_with('-')) return false;
  double value = 0.0;
  const char* const last = digits.data() + digits.size();
  const std::from_chars_result result =
      std::from_chars(digits.data(), last, value, std::chars_format::hex);
  char canonical[kMaxHexDigits];
  if (result.ec != std::errc() || result.ptr != last ||
      !std::isfinite(value) ||
      std::string_view(canonical, hexDigits(canonical,
                                            canonical + kMaxHexDigits,
                                            value)) != digits) {
    return false;
  }
  *out = negative ? -value : value;
  return true;
}

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

TextWriter& TextWriter::hexDouble(double value) {
  char* const start = room(kMaxNumber);
  char* at = start;
  if (std::signbit(value)) *at++ = '-';
  *at++ = '0';
  *at++ = 'x';
  used_ = static_cast<std::size_t>(
      hexDigits(at, start + kMaxNumber, std::fabs(value)) - buf_.get());
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

void TextReader::skipSpaceAndComments() {
  while (true) {
    skipSpace();
    const std::string_view rest = text_.substr(pos_);
    if (rest.starts_with("//")) {
      pos_ = std::min(text_.find('\n', pos_), text_.size());
    } else if (rest.starts_with("/*")) {
      const std::size_t close = text_.find("*/", pos_ + 2);
      if (close == std::string_view::npos) fail("unterminated comment");
      pos_ = close + 2;
    } else {
      return;
    }
  }
}

std::string_view TextReader::token(std::string_view punct,
                                   const char* what) {
  skipSpaceAndComments();
  if (pos_ == text_.size()) fail(std::string("truncated: expected ") + what);
  const std::size_t start = pos_;
  if (text_[pos_] == '"') {
    const std::size_t close = text_.find('"', pos_ + 1);
    if (close == std::string_view::npos) fail("unterminated string");
    pos_ = close + 1;
  } else if (punct.find(text_[pos_]) != std::string_view::npos) {
    ++pos_;
  } else {
    while (pos_ < text_.size() && !isSpace(text_[pos_]) &&
           punct.find(text_[pos_]) == std::string_view::npos) {
      ++pos_;
    }
  }
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

std::string_view TextReader::restOfLine() {
  const std::size_t start = pos_;
  const std::size_t newline = text_.find('\n', start);
  pos_ = newline == std::string_view::npos ? text_.size() : newline + 1;
  return text_.substr(start, newline - start);
}

double TextReader::hexDouble(const char* what) {
  return number<double>(
      what, [](const char* first, const char* last, double* out) {
        const char* const end = std::find_if(first, last, isSpace);
        return parseHexDouble({first, end}, out) ? end : nullptr;
      });
}

double TextReader::decimal(std::string_view punct, const char* what) {
  const std::string_view token = this->token(punct, what);
  double value = 0.0;
  if (parseDecimal(token, &value)) return value;
  pos_ = static_cast<std::size_t>(token.data() - text_.data());
  fail("bad " + std::string(what) + " '" + std::string(token.substr(0, 24)) +
       "'");
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

void TextReader::expectLastLine(std::string_view last) {
  expect(last);
  const std::string line = std::string(last) + " line";
  expectEnd(line.c_str());
  if (text_.back() != '\n') fail(line + " without its newline");
}

void TextReader::fail(const std::string& what) const {
  throw StatusError(
      Status::parseError(what + " at byte " + std::to_string(pos_)));
}

std::string readAll(std::istream& is) {
  // Size the buffer from the stream when it can tell (a file).
  std::string text;
  if (const std::streampos here = is.tellg(); here >= 0) {
    is.seekg(0, std::ios::end);
    const std::streampos end = is.tellg();
    is.clear();
    is.seekg(here);
    if (end > here) text.resize(static_cast<std::size_t>(end - here));
  }
  is.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<std::size_t>(is.gcount()));
  char chunk[4096];
  while (is.read(chunk, sizeof(chunk)) || is.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(is.gcount()));
  }
  return text;
}

std::string readFile(const std::string& path, std::string_view who) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw StatusError(
        ioErrorFor(std::string(who) + ": cannot open", path, errno));
  }
  std::string text = readAll(is);
  if (is.bad()) {
    throw StatusError(
        ioErrorFor(std::string(who) + ": cannot read", path, errno));
  }
  return text;
}

void writeFileAtomic(const std::string& path, std::string_view who,
                     const std::function<void(TextWriter&)>& write,
                     FaultInjector* faults, std::string_view fault_key) {
  const std::string op(who);
  const std::string tmp_path = path + ".tmp." + std::to_string(::getpid());
  if (faults != nullptr && faults->shouldFail("io.open", fault_key)) {
    throw StatusError(
        Status::ioError(op + " " + path + ": injected io.open fault"));
  }
  std::ofstream os(tmp_path, std::ios::binary | std::ios::trunc);
  if (!os) {
    throw StatusError(ioErrorFor(op + ": cannot open", path, errno));
  }
  try {
    {
      TextWriter out(os);
      write(out);
    }
    os.close();  // flushes; a full disk fails here at the latest
    if (!os) {
      throw StatusError(ioErrorFor(op + ": write failed for", path, errno));
    }
    if (faults != nullptr && faults->shouldFail("io.write", fault_key)) {
      throw StatusError(
          Status::ioError(op + " " + path + ": injected io.write fault"));
    }
    if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
      throw StatusError(ioErrorFor(op + ": cannot rename", path, errno));
    }
  } catch (...) {
    std::remove(tmp_path.c_str());
    throw;
  }
}

}  // namespace tevot::util
