#pragma once
// Minimal JSON document model + recursive-descent parser.
//
// The repo emits several machine-readable JSON artifacts (tl-verify reports,
// tl-report-1 run reports, the tl-bench-1 BENCH_*.json artifacts,
// tl-models-1 catalogs) and its tools read them back: tl_report for analysis
// and regression checking, tl_plan for model fitting.
// This is a deliberately small, strict parser: UTF-8 pass-through, doubles
// for all numbers, objects keep their key order (so a parse -> serialize
// roundtrip of our own deterministic writers is stable). It rejects
// trailing garbage, comments, and unterminated constructs with a
// std::runtime_error carrying the byte offset.

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tl::util {

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included). Shared by every JSON writer in the repo.
std::string json_escape(std::string_view s);

/// `s` as a JSON string literal, quotes included.
std::string json_quote(std::string_view s);

/// `v` at full double precision; non-finite values, which JSON cannot
/// represent, become the strings "inf", "-inf" and "nan".
std::string json_number(double v);

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  // null

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  /// Typed accessors; throw std::runtime_error on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::vector<std::pair<std::string, JsonValue>>& as_object() const;

  /// Object member lookup (first match); nullptr when absent or not an
  /// object. `get_or` conveniences default on absence AND on kind mismatch.
  const JsonValue* find(std::string_view key) const;
  double get_number_or(std::string_view key, double fallback) const;
  std::string get_string_or(std::string_view key,
                            std::string_view fallback) const;
  bool get_bool_or(std::string_view key, bool fallback) const;

  /// Mutable counterparts, for doctoring a parsed document (negative-control
  /// tests); same absence and kind rules as the const versions.
  JsonValue* find(std::string_view key) {
    return const_cast<JsonValue*>(std::as_const(*this).find(key));
  }
  std::vector<JsonValue>& as_array() {
    return const_cast<std::vector<JsonValue>&>(std::as_const(*this).as_array());
  }
  std::vector<std::pair<std::string, JsonValue>>& as_object() {
    return const_cast<std::vector<std::pair<std::string, JsonValue>>&>(
        std::as_const(*this).as_object());
  }

  // -- Construction (used by tests and doctoring helpers) -------------------
  static JsonValue make_null();
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double v);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parses one complete JSON document; throws std::runtime_error (with byte
/// offset) on malformed input or trailing non-whitespace.
JsonValue parse_json(std::string_view text);

}  // namespace tl::util
