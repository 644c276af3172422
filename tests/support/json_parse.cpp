#include "support/json_parse.h"

#include <cctype>
#include <charconv>

#include "util/error.h"

namespace mram::obs {

namespace {

struct Parser {
  /// Object/array nesting limit. The parser recurses once per level, so a
  /// hostile document fails here instead of overflowing the stack; every
  /// document this repository emits nests fewer than ten levels deep.
  static constexpr std::size_t kMaxDepth = 256;

  std::string_view text;
  std::size_t pos = 0;
  std::size_t depth = 0;

  [[noreturn]] void fail(const std::string& msg) const {
    throw util::ConfigError("JSON parse error at byte " +
                            std::to_string(pos) + ": " + msg);
  }

  bool at_end() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }

  void skip_ws() {
    while (!at_end() && (text[pos] == ' ' || text[pos] == '\t' ||
                         text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    if (!at_end() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) {
      fail(std::string("expected '") + c + "'");
    }
  }

  void expect_literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) {
      fail("expected '" + std::string(lit) + "'");
    }
    pos += lit.size();
  }

  JsonValue parse_value() {
    skip_ws();
    if (at_end()) fail("unexpected end of input");
    switch (peek()) {
      case '{':
      case '[': {
        if (++depth > kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) +
               " levels");
        }
        JsonValue v = (peek() == '{') ? parse_object() : parse_array();
        --depth;
        return v;
      }
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't': {
        expect_literal("true");
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        expect_literal("false");
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        return v;
      }
      case 'n': {
        expect_literal("null");
        return JsonValue{};
      }
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (consume('}')) return v;
    for (;;) {
      skip_ws();
      if (at_end() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (consume(']')) return v;
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (at_end()) fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (at_end()) fail("unterminated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos + 4 > text.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // BMP-only UTF-8 encoding; surrogate pairs are not produced by
          // any emitter in this repository.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos;
    consume('-');
    const std::size_t int_start = pos;
    while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
      ++pos;
    }
    if (pos == int_start) fail("invalid number");
    bool has_frac_or_exp = false;
    if (consume('.')) {
      has_frac_or_exp = true;
      const std::size_t frac = pos;
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos;
      }
      if (pos == frac) fail("invalid number fraction");
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      has_frac_or_exp = true;
      ++pos;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos;
      const std::size_t ex = pos;
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos;
      }
      if (pos == ex) fail("invalid number exponent");
    }
    const std::string_view tok = text.substr(start, pos - start);
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    // Exact u64 fast path for non-negative integer literals (nanosecond and
    // byte counters exceed 2^53); everything else goes through double.
    if (!has_frac_or_exp && tok[0] != '-') {
      std::uint64_t u = 0;
      const auto [p, ec] =
          std::from_chars(tok.data(), tok.data() + tok.size(), u);
      if (ec == std::errc{} && p == tok.data() + tok.size()) {
        v.u64 = u;
        v.is_u64 = true;
        v.number = static_cast<double>(u);
        return v;
      }
    }
    double d = 0.0;
    const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (ec != std::errc{} || p != tok.data() + tok.size()) {
      fail("invalid number '" + std::string(tok) + "'");
    }
    v.number = d;
    return v;
  }
};

}  // namespace

const JsonValue* JsonValue::get(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::expect(std::string_view key,
                                   const char* what) const {
  const JsonValue* v = get(key);
  if (!v) {
    throw util::ConfigError(std::string(what) + ": missing key '" +
                            std::string(key) + "'");
  }
  return *v;
}

double JsonValue::as_number(const char* what) const {
  if (kind != Kind::kNumber) {
    throw util::ConfigError(std::string(what) + ": expected a number");
  }
  return number;
}

std::uint64_t JsonValue::as_u64(const char* what) const {
  if (kind != Kind::kNumber) {
    throw util::ConfigError(std::string(what) + ": expected an integer");
  }
  if (is_u64) return u64;
  if (number < 0.0 || number != static_cast<double>(
                                    static_cast<std::uint64_t>(number))) {
    throw util::ConfigError(std::string(what) +
                            ": expected a non-negative integer");
  }
  return static_cast<std::uint64_t>(number);
}

const std::string& JsonValue::as_string(const char* what) const {
  if (kind != Kind::kString) {
    throw util::ConfigError(std::string(what) + ": expected a string");
  }
  return string;
}

JsonValue json_parse(std::string_view text) {
  Parser p{text};
  JsonValue v = p.parse_value();
  p.skip_ws();
  if (!p.at_end()) p.fail("trailing characters after the document");
  return v;
}

}  // namespace mram::obs
