// Minimal JSON reader for observability artifacts. The emit side lives in
// obs/json.hpp (JsonWriter); this is the matching parse side, grown for the
// consumers of those artifacts: bgpsim-perfdiff loads BENCH_*.json run
// reports, and the event-log tests round-trip every NDJSON record. Strict
// where it matters (structure, escapes, numbers), deliberately small
// otherwise: no \uXXXX surrogate pairing, no streaming — observability
// documents are bounded.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace bgpsim::obs {

/// One parsed JSON value. Objects and arrays own their children; lookup
/// helpers return nullptr / fallbacks instead of throwing so report readers
/// can treat missing optional fields as schema defaults.
class JsonValue {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  bool as_bool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  double as_number(double fallback = 0.0) const {
    return is_number() ? number_ : fallback;
  }
  /// The number truncated toward zero; `fallback` for a non-number, a
  /// negative number or one >= 2^64.
  std::uint64_t as_u64(std::uint64_t fallback = 0) const;
  const std::string& as_string() const { return string_; }

  const std::vector<JsonValue>& items() const { return items_; }
  const std::map<std::string, JsonValue>& members() const { return members_; }

  /// Object member by key; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  /// Nested lookup: find("a")->find("b") with nullptr propagation.
  const JsonValue* find_path(std::initializer_list<std::string_view> keys) const;

  /// Convenience: numeric member or fallback when absent / wrong type.
  double number_at(std::string_view key, double fallback = 0.0) const;

  /// Parse one JSON document; trailing non-whitespace is an error.
  /// Throws bgpsim::ParseError with an offset-annotated message.
  static JsonValue parse(std::string_view text);

 private:
  friend class JsonParser;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::map<std::string, JsonValue> members_;
};

/// Parse a whole file. Throws bgpsim::ParseError (bad JSON) or
/// bgpsim::ConfigError (unreadable file).
JsonValue parse_json_file(const std::string& path);

}  // namespace bgpsim::obs
