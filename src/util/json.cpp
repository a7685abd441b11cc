#include "util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/text_io.hpp"

namespace tevot::util::json {

std::string escape(std::string_view text) {
  // Bytes with a two-character escape, and the letter after the '\'.
  constexpr std::string_view kShort = "\"\\\n\t\r";
  constexpr std::string_view kLetter = "\"\\ntr";
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const std::size_t at = kShort.find(c);
    if (at != std::string_view::npos) {
      out += '\\';
      out += kLetter[at];
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

Writer& Writer::token(std::string_view text) {
  if (need_comma_) out_ += ',';
  out_ += text;
  need_comma_ = true;
  return *this;
}

Writer& Writer::open(char bracket) {
  token(std::string_view(&bracket, 1));
  need_comma_ = false;
  return *this;
}

Writer& Writer::close(char bracket) {
  out_ += bracket;
  need_comma_ = true;
  return *this;
}

Writer& Writer::key(std::string_view name) {
  value(name).out_ += ':';
  need_comma_ = false;
  return *this;
}

Writer& Writer::value(std::string_view text) {
  const std::string escaped = escape(text);
  std::string quoted;
  quoted.reserve(escaped.size() + 2);
  quoted.append(1, '"').append(escaped).append(1, '"');
  return token(quoted);
}

Writer& Writer::value(bool flag) { return token(flag ? "true" : "false"); }

Writer& Writer::real(double v, const char* format) {
  if (!std::isfinite(v)) return null();
  char buf[32];
  std::snprintf(buf, sizeof(buf), format, v);
  return token(buf);
}

const Value* Value::find(std::string_view name) const {
  for (const auto& [key, member] : object) {
    if (key == name) return &member;
  }
  return nullptr;
}

namespace {

// Recursive descent over one document; errors throw StatusError with
// the byte offset so a truncated document names where it broke off.
class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  Value parseDocument() {
    Value value = parseValue();
    skipSpace();
    if (pos_ != input_.size()) {
      fail("trailing bytes after the JSON document");
    }
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw StatusError(Status::parseError(
        "JSON: " + what + " at byte " + std::to_string(pos_)));
  }

  /// Moves past the first byte not in `set` (or to the end).
  void skipAll(std::string_view set) {
    pos_ = std::min(input_.find_first_not_of(set, pos_), input_.size());
  }

  void skipSpace() { skipAll(" \t\n\r"); }

  char peek() {
    if (pos_ >= input_.size()) fail("unexpected end of input");
    return input_[pos_];
  }

  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  void expect(char c) {
    if (!consume(c)) {
      fail(std::string("expected '") + c + "', got '" + peek() + "'");
    }
  }

  bool consumeLiteral(std::string_view literal) {
    if (input_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Value parseValue() {
    skipSpace();
    const std::size_t start = pos_;
    const char c = peek();
    Value value;
    if (c == '{' || c == '[') {
      value = parseContainer(c == '{');
    } else if (c == '"') {
      value.kind = Value::Kind::kString;
      value.text = parseString();
    } else if (consumeLiteral("true") || consumeLiteral("false")) {
      value.kind = Value::Kind::kBool;
      value.boolean = c == 't';
    } else if (!consumeLiteral("null")) {
      value.kind = Value::Kind::kNumber;
      value.number = parseNumber();
    }
    value.raw = std::string(input_.substr(start, pos_ - start));
    return value;
  }

  /// An object or array, one nesting level below the current one.
  Value parseContainer(bool is_object) {
    if (depth_ == kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    }
    ++depth_;
    ++pos_;
    const char close = is_object ? '}' : ']';
    Value value;
    value.kind = is_object ? Value::Kind::kObject : Value::Kind::kArray;
    skipSpace();
    for (bool more = peek() != close; more; more = consume(',')) {
      if (!is_object) {
        value.array.push_back(parseValue());
      } else {
        skipSpace();
        const std::size_t key_at = pos_;
        std::string key = parseString();
        if (value.find(key) != nullptr) {
          pos_ = key_at;
          fail("duplicate key '" + key + "'");
        }
        skipSpace();
        expect(':');
        value.object.emplace_back(std::move(key), parseValue());
      }
      skipSpace();
    }
    expect(close);
    --depth_;
    return value;
  }

  std::string parseString() {
    constexpr std::string_view kEscaped = "\"\\/bfnrt";
    constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= input_.size()) fail("unterminated string");
      const char c = input_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= input_.size()) fail("unterminated escape");
      const char escape = input_[pos_++];
      const std::size_t simple = kEscaped.find(escape);
      if (simple != std::string_view::npos) {
        out.push_back(kDecoded[simple]);
        continue;
      }
      // The writer only emits \u00XX control escapes; decode the low
      // byte and reject anything wider than Latin-1.
      const char* hex = input_.data() + pos_;
      const std::size_t digits = std::min<std::size_t>(4, input_.size() - pos_);
      unsigned code = 0;
      const auto parsed = std::from_chars(hex, hex + digits, code, 16);
      if (escape != 'u' || parsed.ptr != hex + 4 || code > 0xff) {
        fail("unsupported escape");
      }
      pos_ += 4;
      out.push_back(static_cast<char>(code));
    }
  }

  double parseNumber() {
    const std::size_t start = pos_;
    skipAll("0123456789+-.eE");
    if (pos_ == start) fail("expected a value");
    const std::string_view text = input_.substr(start, pos_ - start);
    double value = 0.0;
    if (!parseDecimal(text, &value)) {
      pos_ = start;
      fail("malformed number '" + std::string(text) + "'");
    }
    return value;
  }

  std::string_view input_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Status parse(std::string_view input, Value* out) {
  try {
    *out = Parser(input).parseDocument();
    return Status::okStatus();
  } catch (const StatusError& error) {
    return error.status();
  }
}

}  // namespace tevot::util::json
