#pragma once
// Minimal recursive-descent JSON reader for every JSON input of the repo:
// its own outputs (Chrome traces, BENCH_*.json, JSONL reports) and repro
// files (sim/repro). Full-document DOM, no dependencies (it is compiled
// into lra_obs, next to the writer in obs/json); numbers parse via strtod,
// so %.17g doubles written by JsonObj round-trip bitwise, and integer
// literals also keep their exact value. Not a
// general-purpose validator: it accepts the JSON this repo writes and
// rejects the rest, duplicate object keys included, with a position-tagged
// error.

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace lra::obs {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
// std::map keeps keys ordered; the parser rejects duplicate keys.
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  explicit JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit JsonValue(double d) : kind_(Kind::kNumber), num_(d) {}
  explicit JsonValue(std::string s)
      : kind_(Kind::kString), str_(std::move(s)) {}
  explicit JsonValue(JsonArray a)
      : kind_(Kind::kArray), arr_(std::make_shared<JsonArray>(std::move(a))) {}
  explicit JsonValue(JsonObject o)
      : kind_(Kind::kObject),
        obj_(std::make_shared<JsonObject>(std::move(o))) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const {
    require(Kind::kBool, "bool");
    return bool_;
  }
  double as_double() const {
    require(Kind::kNumber, "number");
    return num_;
  }
  std::int64_t as_int() const {
    return static_cast<std::int64_t>(as_double());
  }
  std::uint64_t as_uint() const {
    require(Kind::kNumber, "number");
    // %.17g round-trips uint64 below 2^53 exactly; flow ids pack 32+32 bits
    // so they can exceed that — they are written as integer literals and
    // reparsed through the integer fast path in the parser (see num_i_).
    return int_ == IntLiteral::kNonNegative ? num_i_
                                            : static_cast<std::uint64_t>(num_);
  }
  /// The exact value of an integer literal (no fraction, no exponent) that
  /// fits the target type; false for any other value.
  bool exact_int64(std::int64_t* out) const {
    if (int_ == IntLiteral::kNone ||
        (int_ == IntLiteral::kNonNegative && num_i_ > INT64_MAX))
      return false;
    *out = static_cast<std::int64_t>(num_i_);
    return true;
  }
  bool exact_uint64(std::uint64_t* out) const {
    if (int_ != IntLiteral::kNonNegative) return false;
    *out = num_i_;
    return true;
  }
  const std::string& as_string() const {
    require(Kind::kString, "string");
    return str_;
  }
  const JsonArray& as_array() const {
    require(Kind::kArray, "array");
    return *arr_;
  }
  const JsonObject& as_object() const {
    require(Kind::kObject, "object");
    return *obj_;
  }

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const {
    if (kind_ != Kind::kObject) return nullptr;
    auto it = obj_->find(key);
    return it == obj_->end() ? nullptr : &it->second;
  }
  /// `find` with a default for scalar conveniences.
  double number_or(const std::string& key, double dflt) const {
    const JsonValue* v = find(key);
    return v && v->is_number() ? v->as_double() : dflt;
  }
  std::string string_or(const std::string& key, std::string dflt) const {
    const JsonValue* v = find(key);
    return v && v->is_string() ? v->as_string() : std::move(dflt);
  }

  /// Parser hook: attach the exact payload of an integer literal, two's
  /// complement if negative (the double path loses precision above 2^53,
  /// e.g. for flow ids and seeds).
  void set_exact_int(std::uint64_t bits, bool negative) {
    num_i_ = bits;
    int_ = negative ? IntLiteral::kNegative : IntLiteral::kNonNegative;
  }

 private:
  void require(Kind k, const char* what) const {
    if (kind_ != k)
      throw std::runtime_error(std::string("json: expected ") + what);
  }

  enum class IntLiteral { kNone, kNonNegative, kNegative };

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::uint64_t num_i_ = 0;             // an integer literal's exact value
  IntLiteral int_ = IntLiteral::kNone;  // whether num_i_ holds one
  std::string str_;
  std::shared_ptr<JsonArray> arr_;
  std::shared_ptr<JsonObject> obj_;
};

/// Parse one JSON document (trailing whitespace allowed). Throws
/// std::runtime_error with a byte offset on malformed input.
JsonValue parse_json(const std::string& text);

/// Parse a whole file. Throws on open failure or malformed JSON.
JsonValue parse_json_file(const std::string& path);

/// Parse JSON-lines: one document per non-empty line.
std::vector<JsonValue> parse_jsonl_file(const std::string& path);

}  // namespace lra::obs
