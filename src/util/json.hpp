// The one JSON implementation: every report, certificate and bench
// record the system writes goes through Writer, and every JSON
// document it reads goes through parse().
//
// Layout is compact (no whitespace) and there is no option for another.
// Number rule: integers are written exactly, a double with %.17g and a
// float with %.9g, so parse(write(x)) == x bit for bit; a non-finite
// value is written as null. Strings are escaped by escape().
//
// The reader is strict: numbers go through util::parseDecimal (the
// text_io number rule), and malformed input, trailing bytes, nesting
// deeper than kMaxDepth or a repeated object key is a kParseError
// naming the byte offset, never a half-built Value.
#pragma once

#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.hpp"

namespace tevot::util::json {

/// Deepest array/object nesting parse() accepts. The deepest document
/// the system writes (a certificate) nests 4 levels.
inline constexpr int kMaxDepth = 64;

/// `text` escaped for a JSON string literal (quotes not included):
/// `"` `\` and control bytes are escaped, other bytes pass through.
std::string escape(std::string_view text);

/// Compact streaming writer. Commas and colons are placed by the
/// writer; callers only open, name and close. Call sequences must be
/// well formed (a key before every object member, closes matching
/// opens); the writer does not check them.
class Writer {
 public:
  Writer& beginObject() { return open('{'); }
  Writer& endObject() { return close('}'); }
  Writer& beginArray() { return open('['); }
  Writer& endArray() { return close(']'); }
  /// Member name inside an object; the next call writes its value.
  Writer& key(std::string_view name);

  Writer& value(std::string_view text);
  Writer& value(const char* text) { return value(std::string_view(text)); }
  Writer& value(bool flag);
  Writer& value(double v) { return real(v, "%.17g"); }
  Writer& value(float v) { return real(v, "%.9g"); }
  /// Any integer, exactly (bool takes the overload above).
  template <std::integral Int>
  Writer& value(Int v) { return token(std::to_string(v)); }
  Writer& null() { return token("null"); }
  /// Embeds an already-valid JSON document verbatim.
  Writer& raw(std::string_view json) { return token(json); }

  /// key(name).value(v).
  template <typename T>
  Writer& field(std::string_view name, const T& v) {
    return key(name).value(v);
  }

  const std::string& str() const { return out_; }

 private:
  Writer& token(std::string_view text);
  Writer& open(char bracket);
  Writer& close(char bracket);
  /// A finite `v` printed with `format`, else null.
  Writer& real(double v, const char* format);

  std::string out_;
  bool need_comma_ = false;
};

/// One parsed JSON value.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  /// Members in source order; keys are unique.
  std::vector<std::pair<std::string, Value>> object;
  std::vector<Value> array;
  /// Source bytes of this value, so an embedded document survives
  /// verbatim.
  std::string raw;

  /// The member named `name`, or nullptr (also for non-objects).
  const Value* find(std::string_view name) const;
};

/// Parses exactly one document (surrounding whitespace allowed) into
/// `out`. Errors are kParseError "JSON: <what> at byte <offset>";
/// `out` is untouched on failure. A \u escape above 0xff is
/// rejected: the writer never emits one.
Status parse(std::string_view input, Value* out);

}  // namespace tevot::util::json
