#include "src/common/json.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/check.h"

namespace papd {
namespace json {

void Appendf(std::string* out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list measure;
  va_copy(measure, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, measure);
  va_end(measure);
  PAPD_CHECK_GE(n, 0) << " bad format: " << fmt;
  const size_t start = out->size();
  out->resize(start + static_cast<size_t>(n));
  // vsnprintf's terminator overwrites the string's own, with '\0'.
  std::vsnprintf(out->data() + start, static_cast<size_t>(n) + 1, fmt, args);
  va_end(args);
}

std::string Quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          Appendf(&out, "\\u%04X", static_cast<unsigned>(c));
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

const Value* Value::Find(const std::string& key) const {
  if (!is_object()) {
    return nullptr;
  }
  for (const Member& m : object_) {
    if (m.first == key) {
      return &m.second;
    }
  }
  return nullptr;
}

double Value::NumberOr(const std::string& key, double fallback) const {
  const Value* v = Find(key);
  return v != nullptr && v->is_number() ? v->AsNumber() : fallback;
}

std::string Value::StringOr(const std::string& key, const std::string& fallback) const {
  const Value* v = Find(key);
  return v != nullptr && v->is_string() ? v->AsString() : fallback;
}

Value Value::MakeBool(bool v) {
  Value out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}

Value Value::MakeNumber(double v) {
  Value out;
  out.kind_ = Kind::kNumber;
  out.number_ = v;
  return out;
}

Value Value::MakeString(std::string v) {
  Value out;
  out.kind_ = Kind::kString;
  out.string_ = std::move(v);
  return out;
}

Value Value::MakeArray(std::vector<Value> v) {
  Value out;
  out.kind_ = Kind::kArray;
  out.array_ = std::move(v);
  return out;
}

Value Value::MakeObject(std::vector<Member> v) {
  Value out;
  out.kind_ = Kind::kObject;
  out.object_ = std::move(v);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  ParseResult Run() {
    ParseResult result;
    SkipWhitespace();
    if (!ParseValue(&result.value)) {
      result.error = error_;
      return result;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      Fail("trailing characters after document");
      result.error = error_;
      return result;
    }
    result.ok = true;
    return result;
  }

 private:
  bool ParseValue(Value* out) {
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        return ParseString(out);
      case 't':
      case 'f':
        return ParseBool(out);
      case 'n':
        return ParseNull(out);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(Value* out) {
    pos_++;  // '{'
    std::vector<Value::Member> members;
    SkipWhitespace();
    if (Peek() == '}') {
      pos_++;
      *out = Value::MakeObject(std::move(members));
      return true;
    }
    while (true) {
      SkipWhitespace();
      if (Peek() != '"') {
        return Fail("expected object key string");
      }
      Value key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWhitespace();
      if (Peek() != ':') {
        return Fail("expected ':' after object key");
      }
      pos_++;
      SkipWhitespace();
      Value value;
      if (!ParseValue(&value)) {
        return false;
      }
      members.emplace_back(key.AsString(), std::move(value));
      SkipWhitespace();
      if (Peek() == ',') {
        pos_++;
        continue;
      }
      if (Peek() == '}') {
        pos_++;
        *out = Value::MakeObject(std::move(members));
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(Value* out) {
    pos_++;  // '['
    std::vector<Value> elements;
    SkipWhitespace();
    if (Peek() == ']') {
      pos_++;
      *out = Value::MakeArray(std::move(elements));
      return true;
    }
    while (true) {
      SkipWhitespace();
      Value element;
      if (!ParseValue(&element)) {
        return false;
      }
      elements.push_back(std::move(element));
      SkipWhitespace();
      if (Peek() == ',') {
        pos_++;
        continue;
      }
      if (Peek() == ']') {
        pos_++;
        *out = Value::MakeArray(std::move(elements));
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseString(Value* out) {
    pos_++;  // '"'
    std::string s;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        pos_++;
        *out = Value::MakeString(std::move(s));
        return true;
      }
      if (c == '\\') {
        pos_++;
        if (pos_ >= text_.size()) {
          break;
        }
        switch (text_[pos_]) {
          case '"': s += '"'; break;
          case '\\': s += '\\'; break;
          case '/': s += '/'; break;
          case 'b': s += '\b'; break;
          case 'f': s += '\f'; break;
          case 'n': s += '\n'; break;
          case 'r': s += '\r'; break;
          case 't': s += '\t'; break;
          case 'u': {
            if (pos_ + 4 >= text_.size()) {
              return Fail("truncated \\u escape");
            }
            unsigned code = 0;
            for (int k = 1; k <= 4; k++) {
              const char h = text_[pos_ + static_cast<size_t>(k)];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Fail("bad hex digit in \\u escape");
              }
            }
            pos_ += 4;
            // UTF-8 encode (surrogate pairs are not combined — the repo's
            // writers never emit them; a lone surrogate round-trips as its
            // 3-byte encoding, which is good enough for diagnostics).
            if (code < 0x80) {
              s += static_cast<char>(code);
            } else if (code < 0x800) {
              s += static_cast<char>(0xC0 | (code >> 6));
              s += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              s += static_cast<char>(0xE0 | (code >> 12));
              s += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              s += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Fail("unknown escape character");
        }
        pos_++;
        continue;
      }
      s += c;
      pos_++;
    }
    return Fail("unterminated string");
  }

  bool ParseBool(Value* out) {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      *out = Value::MakeBool(true);
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      *out = Value::MakeBool(false);
      return true;
    }
    return Fail("expected 'true' or 'false'");
  }

  bool ParseNull(Value* out) {
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      *out = Value::MakeNull();
      return true;
    }
    return Fail("expected 'null'");
  }

  bool ParseNumber(Value* out) {
    // JSON numbers are a strict subset of strtod's grammar; pre-validate
    // the first character so "nan", "+1", ".5" are rejected up front.
    const char first = text_[pos_];
    if (first != '-' && (first < '0' || first > '9')) {
      return Fail("expected a value");
    }
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) {
      return Fail("malformed number");
    }
    pos_ += static_cast<size_t>(end - start);
    *out = Value::MakeNumber(v);
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      pos_++;
    }
  }

  bool Fail(const char* message) {
    size_t line = 1;
    size_t column = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); i++) {
      if (text_[i] == '\n') {
        line++;
        column = 1;
      } else {
        column++;
      }
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "line %zu:%zu: %s", line, column, message);
    error_ = buf;
    return false;
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

ParseResult Parse(const std::string& text) { return Parser(text).Run(); }

}  // namespace json
}  // namespace papd
