#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

// Minimal JSON document model + strict parser: the tests' reference reader,
// which parses the emitted metrics/trace files to validate them against
// their schemas (tests/test_obs.cpp; support/metrics_parse.h reads the
// metrics document on it). The program writes JSON and never reads it back
// (obs/json.h). Deliberately small: UTF-8 passes through untouched (\uXXXX
// escapes are decoded for the BMP), numbers keep an exact u64 fast path
// because metric counters (nanosecond totals, byte counts) can exceed the
// 2^53 double-exact range.

namespace mram::obs {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::uint64_t u64 = 0;     ///< exact value when is_u64
  bool is_u64 = false;       ///< number was a non-negative integer literal
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  ///< insertion order

  bool is(Kind k) const { return kind == k; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* get(std::string_view key) const;

  /// Typed accessors that throw util::ConfigError (naming `what`) on a kind
  /// mismatch -- the schema-validation primitive.
  const JsonValue& expect(std::string_view key, const char* what) const;
  double as_number(const char* what) const;
  std::uint64_t as_u64(const char* what) const;
  const std::string& as_string(const char* what) const;
};

/// Parses a complete JSON document (trailing whitespace allowed, anything
/// else after the value is an error). Throws util::ConfigError with a
/// byte-offset diagnostic on malformed input.
JsonValue json_parse(std::string_view text);

}  // namespace mram::obs
