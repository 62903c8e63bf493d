// Minimal JSON reader for tooling that consumes the repo's own artifacts.
//
// The bench harness and the sweep API write JSON with hand-rolled fprintf
// (no third-party serializer, by design); papdctl's `fleet` subcommand
// needs to read those artifacts back.  This is a small recursive-descent
// parser for exactly that job: strict enough for well-formed documents,
// with position-carrying error messages, and nothing else — no SAX
// interface, no mutation, no writer (writers stay printf at the producers,
// through Appendf below, and write every string that can hold caller text
// through Quote, so a name never breaks the document).  Documents it did not
// produce (NaN/Infinity literals, comments, trailing commas) are rejected.

#ifndef SRC_COMMON_JSON_H_
#define SRC_COMMON_JSON_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace papd {
namespace json {

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  // Object members keep document order (the artifacts are written in a
  // deliberate order; tools echo it back).
  using Member = std::pair<std::string, Value>;

  Value() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // Typed accessors; calling the wrong one returns the type's zero value
  // rather than asserting, so lookup chains over partially-missing
  // documents stay linear (check is_*() when the distinction matters).
  bool AsBool() const { return is_bool() ? bool_ : false; }
  double AsNumber() const { return is_number() ? number_ : 0.0; }
  const std::string& AsString() const { return string_; }
  const std::vector<Value>& AsArray() const { return array_; }
  const std::vector<Member>& AsObject() const { return object_; }

  // Object lookup; nullptr when absent or this is not an object.
  const Value* Find(const std::string& key) const;

  // Conveniences for "key, or default" reads on objects.
  double NumberOr(const std::string& key, double fallback) const;
  std::string StringOr(const std::string& key, const std::string& fallback) const;

  // Construction is via Parse(); these are for the parser and tests.
  static Value MakeNull() { return Value(); }
  static Value MakeBool(bool v);
  static Value MakeNumber(double v);
  static Value MakeString(std::string v);
  static Value MakeArray(std::vector<Value> v);
  static Value MakeObject(std::vector<Member> v);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<Member> object_;
};

struct ParseResult {
  bool ok = false;
  Value value;
  // On failure: "line L:C: message".
  std::string error;
};

// Parses one complete JSON document (trailing whitespace allowed, trailing
// garbage rejected).
ParseResult Parse(const std::string& text);

// Appends printf-formatted text to *out, however long it formats to.
void Appendf(std::string* out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

// `s` as a JSON string, quotes included (RFC 8259 §7): `"` and `\` are
// escaped, as are `\n`, `\r`, `\t`, `\b` and `\f`; any other byte below 0x20
// is written `\u00XX`, and every other byte is copied.
std::string Quote(std::string_view s);

}  // namespace json
}  // namespace papd

#endif  // SRC_COMMON_JSON_H_
