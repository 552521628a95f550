// The project's one JSON module (src/obs/): a dependency-free checker,
// parser and writer.
//
// The test suite uses JsonValid to parse back everything the observability
// layer emits (Perfetto traces, counter objects, campaign JSONL records)
// without pulling in an external JSON library. JsonParse additionally builds
// a JsonValue tree from the same grammar; the scenario engine
// (src/scenario/) reads experiment-spec files through it. JsonWriter renders
// every record the project writes (goldens, campaign JSONL, counter objects,
// bench reports, decision exports), so string escaping and number format
// live here alone.

#ifndef NESTSIM_SRC_OBS_JSON_CHECK_H_
#define NESTSIM_SRC_OBS_JSON_CHECK_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nestsim {

// True when `text` is exactly one valid JSON value (RFC 8259 grammar;
// duplicate keys allowed). On failure, `error` (if non-null) describes the
// first problem and its byte offset.
bool JsonValid(const std::string& text, std::string* error = nullptr);

// A parsed JSON value. Objects keep their members in file order (duplicate
// keys are kept; lookups return the first).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;  // decoded (escapes resolved)
  std::vector<std::pair<std::string, JsonValue>> members;  // objects
  std::vector<JsonValue> items;                            // arrays

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }

  // First member with `key`, or nullptr. Objects only.
  const JsonValue* Find(const std::string& key) const;
};

// Human-readable type name ("object", "string", ...), for error messages.
const char* JsonTypeName(JsonValue::Type type);

// Parses `text` (same grammar as JsonValid) into `*out`. On failure returns
// false and describes the first problem in `error` (if non-null).
bool JsonParse(const std::string& text, JsonValue* out, std::string* error = nullptr);

// Serialises a JsonValue back to JSON text. Integral numbers print without a
// decimal point, other numbers with enough digits to round-trip (%.17g).
// `indent` > 0 pretty-prints with that many spaces per level (objects and
// arrays one member per line, the style of the committed scenario files);
// 0 emits the compact single-line form. The output always re-parses to an
// equal tree, so generated scenarios are standard scenario files.
std::string JsonSerialize(const JsonValue& value, int indent = 0);

// Appends `s` as a quoted JSON string: `"` and `\` escaped, \b \f \n \r \t
// as short escapes, other control bytes as \u00XX, UTF-8 byte for byte.
void AppendJsonQuoted(std::string& out, std::string_view s);

// `v` as %.17g: every finite double round-trips exactly through the text.
std::string JsonDouble(double v);

// Streaming writer for compact JSON: appends to `*out` and places the commas
// itself. Calls chain: w.BeginObject().Key("seed").U64(7).EndObject().
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out) : out_(out) {}

  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  // The next value is this key's.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view s);
  JsonWriter& U64(uint64_t v) { return Raw(std::to_string(v)); }
  JsonWriter& I64(int64_t v) { return Raw(std::to_string(v)); }
  JsonWriter& Double(double v) { return Raw(JsonDouble(v)); }
  JsonWriter& Bool(bool v) { return Raw(v ? "true" : "false"); }
  // An already-rendered JSON value, embedded verbatim.
  JsonWriter& Raw(std::string_view json);

 private:
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);
  void Separate();

  std::string* out_;
  bool need_comma_ = false;
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_OBS_JSON_CHECK_H_
