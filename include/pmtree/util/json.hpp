// Minimal JSON value type with serializer and parser.
//
// Every machine-readable artifact pmtree emits goes through this one type:
// metrics snapshots (engine/metrics.hpp), bench trajectory files and serve
// reports — and the property tests
// re-parse those exports to prove the round trip is lossless. Scope is
// exactly the JSON those producers emit: objects, arrays, strings, finite
// numbers, booleans, null; numbers are stored as double (exact for the
// uint64 magnitudes pmtree records, which stay below 2^53) with integral
// values serialized without a decimal point. Object key order is preserved
// so exports diff cleanly.
//
// The type lives in util (namespace pmtree) so that every layer — fault
// plans, engine metrics, memory stats, serve reports — exports JSON
// without a dependency cycle.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace pmtree {

class Json {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Json() noexcept : type_(Type::kNull) {}
  Json(bool b) noexcept : type_(Type::kBool), bool_(b) {}
  Json(double v) noexcept : type_(Type::kNumber), number_(v) {}
  Json(std::uint64_t v) noexcept
      : type_(Type::kNumber), number_(static_cast<double>(v)) {}
  Json(int v) noexcept : type_(Type::kNumber), number_(v) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}

  [[nodiscard]] static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  [[nodiscard]] static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }

  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  [[nodiscard]] double as_number() const noexcept { return number_; }
  [[nodiscard]] std::uint64_t as_uint() const noexcept {
    return static_cast<std::uint64_t>(number_);
  }
  [[nodiscard]] const std::string& as_string() const noexcept { return string_; }
  [[nodiscard]] const std::vector<Json>& items() const noexcept { return items_; }
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const noexcept {
    return members_;
  }

  /// Array append. Precondition: type() == kArray.
  void push_back(Json value) { items_.push_back(std::move(value)); }

  /// Object insert/overwrite (linear scan; objects here are small).
  /// Precondition: type() == kObject.
  void set(const std::string& key, Json value);

  /// Object lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(const std::string& key) const noexcept;

  /// Serializes; `indent` > 0 pretty-prints with that many spaces.
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Parses a complete JSON document; nullopt on any syntax error or
  /// trailing garbage.
  [[nodiscard]] static std::optional<Json> parse(const std::string& text);

  friend bool operator==(const Json& a, const Json& b);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace pmtree
