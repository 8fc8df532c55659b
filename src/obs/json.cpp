#include "obs/json.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace now::obs::json {

const Value* Value::get(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object.find(std::string(key));
  return it == object.end() ? nullptr : it->second.get();
}

const std::string& Value::as_string() const {
  if (kind != Kind::kString) throw ParseError("JSON value is not a string");
  return string;
}

double Value::as_number() const {
  if (kind != Kind::kNumber) throw ParseError("JSON value is not a number");
  return number;
}

std::uint64_t Value::as_u64() const {
  if (kind != Kind::kNumber) throw ParseError("JSON value is not a number");
  // Prefer the source token: u64 values above 2^53 are exact there.
  if (!raw.empty() && raw.find_first_of(".eE-") == std::string::npos) {
    return std::strtoull(raw.c_str(), nullptr, 10);
  }
  const double n = number;
  if (n < 0 || std::floor(n) != n) {
    throw ParseError("JSON number is not a non-negative integer");
  }
  return static_cast<std::uint64_t>(n);
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  ValuePtr parse_document() {
    ValuePtr value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("JSON parse error at offset " + std::to_string(pos_) +
                     ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  ValuePtr parse_value() {
    skip_ws();
    auto value = std::make_unique<Value>();
    const char c = peek();
    switch (c) {
      case '{':
      case '[':
        // The only recursion: bound it before descending.
        if (++depth_ > kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth));
        }
        if (c == '{') {
          parse_object(*value);
        } else {
          parse_array(*value);
        }
        --depth_;
        break;
      case '"':
        value->kind = Kind::kString;
        value->string = parse_string();
        break;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        value->kind = Kind::kBool;
        value->boolean = true;
        break;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        value->kind = Kind::kBool;
        value->boolean = false;
        break;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        value->kind = Kind::kNull;
        break;
      default:
        parse_number(*value);
    }
    return value;
  }

  void parse_object(Value& value) {
    value.kind = Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      value.object[std::move(key)] = parse_value();
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  void parse_array(Value& value) {
    value.kind = Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      value.array.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported;
          // the telemetry writers never emit them).
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
        default:
          fail("unknown escape");
      }
    }
  }

  void parse_number(Value& value) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) fail("expected number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("expected fraction digits");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) fail("expected exponent digits");
    }
    value.kind = Kind::kNumber;
    value.raw = std::string(text_.substr(start, pos_ - start));
    value.number = std::strtod(value.raw.c_str(), nullptr);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // open arrays/objects around pos_
};

}  // namespace

ValuePtr parse(std::string_view text) {
  return Parser(text).parse_document();
}

ValuePtr parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ParseError("cannot open JSON file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

}  // namespace now::obs::json
