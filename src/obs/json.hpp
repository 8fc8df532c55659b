// Minimal recursive-descent JSON parser for the telemetry toolchain
// (tools/now_obs and the obs tests). Parses the subset the OBS_*.json
// files use — objects, arrays, strings with the common escapes, numbers,
// true/false/null — into an owning tree. Not a general-purpose library;
// the runtime emits JSON with hand-rolled writers, this is only the read
// side.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace now::obs::json {

class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Value;
using ValuePtr = std::unique_ptr<Value>;

enum class Kind : std::uint8_t {
  kNull,
  kBool,
  kNumber,
  kString,
  kArray,
  kObject
};

class Value {
 public:
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  // Number literals keep their source token so 64-bit integers (digests,
  // packed args) survive re-serialization without double rounding.
  std::string raw;
  std::string string;
  std::vector<ValuePtr> array;
  // std::map keeps object iteration deterministic for the tools' output.
  std::map<std::string, ValuePtr> object;

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* get(std::string_view key) const;

  /// Typed accessors that throw ParseError on kind mismatch.
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] std::uint64_t as_u64() const;
};

/// Deepest array/object nesting parse() accepts. The parser recurses once
/// per level, so deeper input would overflow the stack; the OBS_*.json
/// writers nest at most a handful of levels.
inline constexpr std::size_t kMaxDepth = 512;

/// Parses one JSON document; throws ParseError (with offset) on malformed
/// input, trailing non-whitespace, or nesting deeper than kMaxDepth.
[[nodiscard]] ValuePtr parse(std::string_view text);

/// Reads and parses a JSON file; throws ParseError if unreadable.
[[nodiscard]] ValuePtr parse_file(const std::string& path);

}  // namespace now::obs::json
