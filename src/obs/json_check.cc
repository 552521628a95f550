#include "src/obs/json_check.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace nestsim {

namespace {

// Validates, and — when constructed with a sink — also builds the JsonValue
// tree. A null sink keeps the original validation-only behaviour.
class Parser {
 public:
  explicit Parser(const std::string& text, JsonValue* sink = nullptr)
      : text_(text), sink_(sink) {}

  bool Run(std::string* error) {
    SkipWs();
    if (!Value(sink_)) {
      Report(error);
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      fail_ = "trailing characters after the top-level value";
      Report(error);
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 128;

  void Report(std::string* error) const {
    if (error != nullptr) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s (at byte %zu)",
                    fail_ != nullptr ? fail_ : "invalid JSON", pos_);
      *error = buf;
    }
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool Eat(char c) {
    if (Peek() != c) {
      return false;
    }
    ++pos_;
    return true;
  }
  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  bool Fail(const char* why) {
    if (fail_ == nullptr) {
      fail_ = why;
    }
    return false;
  }

  bool Literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (!Eat(*p)) {
        return Fail("invalid literal");
      }
    }
    return true;
  }

  static void AppendUtf8(std::string& out, unsigned code_point) {
    if (code_point < 0x80) {
      out += static_cast<char>(code_point);
    } else if (code_point < 0x800) {
      out += static_cast<char>(0xC0 | (code_point >> 6));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    } else if (code_point < 0x10000) {
      out += static_cast<char>(0xE0 | (code_point >> 12));
      out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code_point >> 18));
      out += static_cast<char>(0x80 | ((code_point >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    }
  }

  // `decoded` (optional) receives the string with escapes resolved.
  bool String(std::string* decoded = nullptr) {
    if (!Eat('"')) {
      return Fail("expected string");
    }
    unsigned pending_high_surrogate = 0;
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') {
        if (decoded != nullptr && pending_high_surrogate != 0) {
          AppendUtf8(*decoded, 0xFFFD);
        }
        return true;
      }
      if (c < 0x20) {
        --pos_;
        return Fail("unescaped control character in string");
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          break;
        }
        const char esc = text_[pos_++];
        if (esc == 'u') {
          unsigned code_point = 0;
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size() || !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return Fail("bad \\u escape");
            }
            const char h = text_[pos_++];
            code_point = code_point * 16 +
                         static_cast<unsigned>(h <= '9'   ? h - '0'
                                               : h <= 'F' ? h - 'A' + 10
                                                          : h - 'a' + 10);
          }
          if (decoded != nullptr) {
            if (pending_high_surrogate != 0) {
              if (code_point >= 0xDC00 && code_point <= 0xDFFF) {
                AppendUtf8(*decoded, 0x10000 + ((pending_high_surrogate - 0xD800) << 10) +
                                         (code_point - 0xDC00));
              } else {
                AppendUtf8(*decoded, 0xFFFD);
                AppendUtf8(*decoded, code_point);
              }
              pending_high_surrogate = 0;
            } else if (code_point >= 0xD800 && code_point <= 0xDBFF) {
              pending_high_surrogate = code_point;
            } else {
              AppendUtf8(*decoded, code_point);
            }
          }
          continue;
        }
        if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' && esc != 'f' && esc != 'n' &&
            esc != 'r' && esc != 't') {
          --pos_;
          return Fail("bad escape character");
        }
        if (decoded != nullptr) {
          if (pending_high_surrogate != 0) {
            AppendUtf8(*decoded, 0xFFFD);
            pending_high_surrogate = 0;
          }
          switch (esc) {
            case 'b':
              *decoded += '\b';
              break;
            case 'f':
              *decoded += '\f';
              break;
            case 'n':
              *decoded += '\n';
              break;
            case 'r':
              *decoded += '\r';
              break;
            case 't':
              *decoded += '\t';
              break;
            default:
              *decoded += esc;  // '"', '\\', '/'
          }
        }
        continue;
      }
      if (decoded != nullptr) {
        if (pending_high_surrogate != 0) {
          AppendUtf8(*decoded, 0xFFFD);
          pending_high_surrogate = 0;
        }
        *decoded += static_cast<char>(c);
      }
    }
    return Fail("unterminated string");
  }

  bool Number() {
    const size_t start = pos_;
    Eat('-');
    if (Eat('0')) {
      // no further integer digits allowed
    } else {
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) {
        pos_ = start;
        return Fail("expected number");
      }
      while (std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    if (Eat('.')) {
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Fail("digit required after decimal point");
      }
      while (std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') {
        ++pos_;
      }
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Fail("digit required in exponent");
      }
      while (std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    return true;
  }

  bool Object(JsonValue* out) {
    ++pos_;  // '{'
    SkipWs();
    if (Eat('}')) {
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!String(out != nullptr ? &key : nullptr)) {
        return false;
      }
      SkipWs();
      if (!Eat(':')) {
        return Fail("expected ':' after object key");
      }
      JsonValue* slot = nullptr;
      if (out != nullptr) {
        out->members.emplace_back(std::move(key), JsonValue{});
        slot = &out->members.back().second;
      }
      if (!Value(slot)) {
        return false;
      }
      SkipWs();
      if (Eat(',')) {
        continue;
      }
      if (Eat('}')) {
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool Array(JsonValue* out) {
    ++pos_;  // '['
    SkipWs();
    if (Eat(']')) {
      return true;
    }
    while (true) {
      JsonValue* slot = nullptr;
      if (out != nullptr) {
        out->items.emplace_back();
        slot = &out->items.back();
      }
      if (!Value(slot)) {
        return false;
      }
      SkipWs();
      if (Eat(',')) {
        continue;
      }
      if (Eat(']')) {
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool Value(JsonValue* out) {
    SkipWs();
    if (++depth_ > kMaxDepth) {
      return Fail("nesting too deep");
    }
    bool ok = false;
    switch (Peek()) {
      case '{':
        if (out != nullptr) {
          out->type = JsonValue::Type::kObject;
        }
        ok = Object(out);
        break;
      case '[':
        if (out != nullptr) {
          out->type = JsonValue::Type::kArray;
        }
        ok = Array(out);
        break;
      case '"':
        if (out != nullptr) {
          out->type = JsonValue::Type::kString;
        }
        ok = String(out != nullptr ? &out->string : nullptr);
        break;
      case 't':
        ok = Literal("true");
        if (ok && out != nullptr) {
          out->type = JsonValue::Type::kBool;
          out->boolean = true;
        }
        break;
      case 'f':
        ok = Literal("false");
        if (ok && out != nullptr) {
          out->type = JsonValue::Type::kBool;
          out->boolean = false;
        }
        break;
      case 'n':
        ok = Literal("null");
        break;
      default: {
        const size_t start = pos_;
        ok = Number();
        if (ok && out != nullptr) {
          out->type = JsonValue::Type::kNumber;
          out->number = std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
        }
        break;
      }
    }
    --depth_;
    return ok;
  }

  const std::string& text_;
  JsonValue* sink_;
  size_t pos_ = 0;
  int depth_ = 0;
  const char* fail_ = nullptr;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& [k, v] : members) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

const char* JsonTypeName(JsonValue::Type type) {
  switch (type) {
    case JsonValue::Type::kNull:
      return "null";
    case JsonValue::Type::kBool:
      return "bool";
    case JsonValue::Type::kNumber:
      return "number";
    case JsonValue::Type::kString:
      return "string";
    case JsonValue::Type::kObject:
      return "object";
    case JsonValue::Type::kArray:
      return "array";
  }
  return "?";
}

bool JsonValid(const std::string& text, std::string* error) {
  return Parser(text).Run(error);
}

bool JsonParse(const std::string& text, JsonValue* out, std::string* error) {
  *out = JsonValue{};
  if (!Parser(text, out).Run(error)) {
    *out = JsonValue{};
    return false;
  }
  return true;
}

void AppendJsonQuoted(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
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
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", u);
          out += buf;
        } else {
          out += c;  // UTF-8 passes through byte for byte
        }
    }
  }
  out += '"';
}

std::string JsonDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {

void SerializeNumber(double number, std::string& out) {
  char buf[32];
  if (number == static_cast<double>(static_cast<long long>(number)) &&
      std::fabs(number) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(number));
  } else {
    // Shortest precision that still round-trips, so 0.539 prints as "0.539"
    // and not "0.53900000000000003".
    for (int precision = 15; precision <= 17; ++precision) {
      std::snprintf(buf, sizeof(buf), "%.*g", precision, number);
      if (std::strtod(buf, nullptr) == number) {
        break;
      }
    }
  }
  out += buf;
}

void SerializeValue(const JsonValue& value, int indent, int depth, std::string& out) {
  const bool pretty = indent > 0;
  const auto newline_pad = [&](int levels) {
    if (pretty) {
      out += '\n';
      out.append(static_cast<size_t>(levels * indent), ' ');
    }
  };
  switch (value.type) {
    case JsonValue::Type::kNull:
      out += "null";
      break;
    case JsonValue::Type::kBool:
      out += value.boolean ? "true" : "false";
      break;
    case JsonValue::Type::kNumber:
      SerializeNumber(value.number, out);
      break;
    case JsonValue::Type::kString:
      AppendJsonQuoted(out, value.string);
      break;
    case JsonValue::Type::kObject: {
      if (value.members.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, member] : value.members) {
        if (!first) {
          out += ',';
        }
        first = false;
        newline_pad(depth + 1);
        AppendJsonQuoted(out, key);
        out += pretty ? ": " : ":";
        SerializeValue(member, indent, depth + 1, out);
      }
      newline_pad(depth);
      out += '}';
      break;
    }
    case JsonValue::Type::kArray: {
      if (value.items.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      bool first = true;
      for (const JsonValue& item : value.items) {
        if (!first) {
          out += ',';
        }
        first = false;
        newline_pad(depth + 1);
        SerializeValue(item, indent, depth + 1, out);
      }
      newline_pad(depth);
      out += ']';
      break;
    }
  }
}

}  // namespace

std::string JsonSerialize(const JsonValue& value, int indent) {
  std::string out;
  SerializeValue(value, indent, 0, out);
  return out;
}

void JsonWriter::Separate() {
  if (need_comma_) {
    *out_ += ',';
  }
}

JsonWriter& JsonWriter::Open(char bracket) {
  Separate();
  *out_ += bracket;
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  *out_ += bracket;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  Separate();
  AppendJsonQuoted(*out_, key);
  *out_ += ':';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view s) {
  Separate();
  AppendJsonQuoted(*out_, s);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  Separate();
  *out_ += json;
  need_comma_ = true;
  return *this;
}

}  // namespace nestsim
