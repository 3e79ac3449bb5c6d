// Minimal recursive-descent JSON parser: full value trees (objects,
// arrays, strings, numbers, bools, null), no external dependency.
//
// The repo's only JSON reader: JSONL traces (telemetry::readTrace),
// experiment journals and structured run exports all come back through
// it. Malformed input of any shape yields nullopt plus an error, never a
// crash: nesting is bounded by kMaxJsonDepth so a hostile line cannot
// exhaust the stack, and asInteger converts numbers to integers only when
// they fit. \uXXXX escapes are preserved verbatim rather than decoded.
#pragma once

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace manet::util {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
/// std::map keeps object keys ordered, making round-trips deterministic.
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  explicit JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit JsonValue(double d) : kind_(Kind::kNumber), num_(d) {}
  explicit JsonValue(std::string s)
      : kind_(Kind::kString), str_(std::move(s)) {}
  explicit JsonValue(JsonArray a);
  explicit JsonValue(JsonObject o);

  Kind kind() const { return kind_; }
  bool isNull() const { return kind_ == Kind::kNull; }
  bool isBool() const { return kind_ == Kind::kBool; }
  bool isNumber() const { return kind_ == Kind::kNumber; }
  bool isString() const { return kind_ == Kind::kString; }
  bool isArray() const { return kind_ == Kind::kArray; }
  bool isObject() const { return kind_ == Kind::kObject; }

  bool asBool(bool fallback = false) const {
    return isBool() ? bool_ : fallback;
  }
  double asNumber(double fallback = 0.0) const {
    return isNumber() ? num_ : fallback;
  }
  const std::string& asString() const;
  const JsonArray& asArray() const;
  const JsonObject& asObject() const;

  /// Object member lookup; nullptr when not an object or key absent.
  const JsonValue* find(std::string_view key) const;
  /// Chained convenience: find(key) as a number/string, or fallback.
  double numberAt(std::string_view key, double fallback = 0.0) const;
  std::string stringAt(std::string_view key,
                       const std::string& fallback = {}) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  // Indirection keeps JsonValue movable while recursive.
  std::shared_ptr<JsonArray> arr_;
  std::shared_ptr<JsonObject> obj_;
};

/// `v` as a T when it is a whole number inside T's range. A non-number, a
/// fraction, NaN, an infinity or an out-of-range value (1e300, or -1 for
/// an unsigned T) gives nullopt: static_cast from such a double is
/// undefined behaviour, so untrusted numbers convert only through here.
template <typename T>
std::optional<T> asInteger(const JsonValue& v) {
  static_assert(std::is_integral_v<T>);
  const double d = v.isNumber() ? v.asNumber() : std::nan("");
  // max + 1.0 rounds to exactly 2^digits for 32- and 64-bit T, so `d < hi`
  // admits every double that fits.
  constexpr double lo = static_cast<double>(std::numeric_limits<T>::min());
  constexpr double hi =
      static_cast<double>(std::numeric_limits<T>::max()) + 1.0;
  if (!(d >= lo && d < hi && d == std::trunc(d))) return std::nullopt;
  return static_cast<T>(d);
}

/// Store `obj[key]`, when present, in `out` through asInteger. False, with
/// `out` untouched, when the member is present but not such an integer;
/// an absent member leaves `out` at the caller's default.
template <typename T>
bool readIntegerField(const JsonValue& obj, std::string_view key, T& out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  const std::optional<T> n = asInteger<T>(*v);
  if (!n) return false;
  out = *n;
  return true;
}

/// Deepest array/object nesting parseJson accepts. The repo's own
/// documents nest at most a handful of levels; the bound exists so the
/// recursive descent cannot overflow the stack on untrusted input.
inline constexpr int kMaxJsonDepth = 256;

/// Parse a complete JSON document. Returns nullopt on malformed input and
/// sets `err` (if non-null) to a message with the byte offset.
std::optional<JsonValue> parseJson(std::string_view text,
                                   std::string* err = nullptr);

}  // namespace manet::util
