#include "common/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>

namespace ivory::json {

namespace {

const char* kind_name(Value::Kind k) {
  switch (k) {
    case Value::Kind::Null: return "null";
    case Value::Kind::Bool: return "bool";
    case Value::Kind::Number: return "number";
    case Value::Kind::String: return "string";
    case Value::Kind::Array: return "array";
    case Value::Kind::Object: return "object";
  }
  return "?";
}

[[noreturn]] void kind_error(Value::Kind want, Value::Kind got) {
  throw InvalidParameter(std::string("json: expected ") + kind_name(want) + ", value is " +
                         kind_name(got));
}


void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

// The end of the run of characters a JSON string holds unescaped: the first
// '"', '\\' or control character at or after `p`, or `end`. Eight bytes a
// step while none of them is one.
const char* plain_run_end(const char* p, const char* end) {
  constexpr std::uint64_t ones = 0x0101010101010101ULL, high = ones << 7;
  for (std::uint64_t w, q, b; end - p >= 8; p += 8) {
    std::memcpy(&w, p, sizeof w);
    q = w ^ (ones * '"');
    b = w ^ (ones * '\\');
    if ((((q - ones) & ~q) | ((b - ones) & ~b) | ((w - ones * 0x20) & ~w)) & high) break;
  }
  while (p != end && *p != '"' && *p != '\\' && static_cast<unsigned char>(*p) >= 0x20) ++p;
  return p;
}

// The characters with a one-letter escape, and their letters.
constexpr char kEscaped[] = "\"\\/\b\f\n\r\t", kEscapeLetter[] = "\"\\/bfnrt";

// Appends `s` as a JSON string literal, quotes included, each plain run in
// one append; control characters without a letter go out as \u00XX.
void append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char *p = s.data(), *end = p + s.size(), *run = p;; run = ++p) {
    out.append(run, p = plain_run_end(p, end));
    if (p == end) break;
    out.push_back('\\');
    if (const char* k = *p ? std::strchr(kEscaped, *p) : nullptr) {
      out.push_back(kEscapeLetter[k - kEscaped]);
    } else {
      out += "u00";
      out.push_back("0123456789abcdef"[(*p >> 4) & 0xF]);
      out.push_back("0123456789abcdef"[*p & 0xF]);
    }
  }
  out.push_back('"');
}

void write_value(std::string& out, const Value& v, bool canonical);

void write_object(std::string& out, const Value::Object& o, bool canonical) {
  out.push_back('{');
  if (canonical) {
    std::vector<std::size_t> idx(o.size());
    for (std::size_t i = 0; i < o.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t a, std::size_t b) { return o[a].first < o[b].first; });
    for (std::size_t k = 0; k < idx.size(); ++k) {
      if (k) out.push_back(',');
      append_escaped(out, o[idx[k]].first);
      out.push_back(':');
      write_value(out, o[idx[k]].second, canonical);
    }
  } else {
    for (std::size_t k = 0; k < o.size(); ++k) {
      if (k) out.push_back(',');
      append_escaped(out, o[k].first);
      out.push_back(':');
      write_value(out, o[k].second, canonical);
    }
  }
  out.push_back('}');
}

void write_value(std::string& out, const Value& v, bool canonical) {
  switch (v.kind()) {
    case Value::Kind::Null: out += "null"; return;
    case Value::Kind::Bool: out += v.as_bool() ? "true" : "false"; return;
    case Value::Kind::Number: append_number(out, v.as_number()); return;
    case Value::Kind::String: append_escaped(out, v.as_string()); return;
    case Value::Kind::Array: {
      out.push_back('[');
      const auto& a = v.as_array();
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i) out.push_back(',');
        write_value(out, a[i], canonical);
      }
      out.push_back(']');
      return;
    }
    case Value::Kind::Object: write_object(out, v.as_object(), canonical); return;
  }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class Parser {
 public:
  Parser(std::string_view text, std::size_t max_depth) : s_(text), max_depth_(max_depth) {}

  Value run() {
    skip_ws();
    Value v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing garbage after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const { throw ParseError(what, pos_); }

  bool eof() const { return pos_ >= s_.size(); }
  char peek() const { return s_[pos_]; }
  char get() {
    if (eof()) fail("unexpected end of input");
    return s_[pos_++];
  }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else break;
    }
  }

  void expect_literal(std::string_view lit) {
    if (s_.compare(pos_, lit.size(), lit) != 0)
      fail("invalid literal (expected '" + std::string(lit) + "')");
    pos_ += lit.size();
  }

  Value parse_value() {
    if (eof()) fail("unexpected end of input");
    switch (peek()) {
      case 'n': expect_literal("null"); return Value(nullptr);
      case 't': expect_literal("true"); return Value(true);
      case 'f': expect_literal("false"); return Value(false);
      case '"': return Value(parse_string());
      case '[': return parse_array();
      case '{': return parse_object();
      default: return parse_number();
    }
  }

  Value parse_array() {
    enter();
    ++pos_;  // '['
    Value::Array a;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      leave();
      return Value(std::move(a));
    }
    while (true) {
      skip_ws();
      a.push_back(parse_value());
      skip_ws();
      const char c = get();
      if (c == ']') break;
      if (c != ',') { --pos_; fail("expected ',' or ']' in array"); }
    }
    leave();
    return Value(std::move(a));
  }

  Value parse_object() {
    enter();
    ++pos_;  // '{'
    Value::Object o;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      leave();
      return Value(std::move(o));
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected string key in object");
      std::string key = parse_string();
      for (const auto& m : o)
        if (m.first == key) fail("duplicate object key '" + key + "'");
      skip_ws();
      if (get() != ':') { --pos_; fail("expected ':' after object key"); }
      skip_ws();
      o.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = get();
      if (c == '}') break;
      if (c != ',') { --pos_; fail("expected ',' or '}' in object"); }
    }
    leave();
    return Value(std::move(o));
  }

  std::uint32_t parse_hex4() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = get();
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint32_t>(c - 'A' + 10);
      else { --pos_; fail("invalid hex digit in \\u escape"); }
    }
    return v;
  }

  std::string parse_string() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      // A run of plain characters goes in with one append.
      const char* run = s_.data() + pos_;
      const char* run_end = plain_run_end(run, s_.data() + s_.size());
      out.append(run, run_end);
      pos_ += static_cast<std::size_t>(run_end - run);
      const char c = get();
      if (c == '"') return out;
      if (c != '\\') { --pos_; fail("raw control character in string"); }
      const char e = get();
      if (const char* k = e ? std::strchr(kEscapeLetter, e) : nullptr) {
        out.push_back(kEscaped[k - kEscapeLetter]);
        continue;
      }
      if (e != 'u') { --pos_; fail("invalid escape character in string"); }
      const std::uint32_t hi = parse_hex4();
      if (hi >= 0xDC00 && hi <= 0xDFFF) fail("lone low surrogate in \\u escape");
      if (hi >= 0xD800 && hi <= 0xDBFF) {
        if (get() != '\\' || get() != 'u')
          { --pos_; fail("high surrogate not followed by \\u escape"); }
        const std::uint32_t lo = parse_hex4();
        if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate in \\u escape");
        append_utf8(out, 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00));
      } else {
        append_utf8(out, hi);
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    // Integer part: 0 | [1-9][0-9]*
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) fail("invalid number");
    if (peek() == '0') {
      ++pos_;
      if (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
        fail("leading zero in number");
    } else {
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
        fail("expected digit after decimal point");
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
        fail("expected digit in exponent");
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    double d = 0.0;
    const auto r = std::from_chars(s_.data() + start, s_.data() + pos_, d);
    if (r.ec == std::errc::result_out_of_range || !std::isfinite(d))
      fail("number out of range for double");
    if (r.ec != std::errc() || r.ptr != s_.data() + pos_) fail("invalid number");
    return Value(d);
  }

  void enter() {
    if (++depth_ > max_depth_)
      fail("nesting deeper than " + std::to_string(max_depth_) + " levels");
  }
  void leave() { --depth_; }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  std::size_t max_depth_;
};

}  // namespace

bool Value::as_bool() const {
  if (!is_bool()) kind_error(Kind::Bool, kind());
  return std::get<bool>(v_);
}
double Value::as_number() const {
  if (!is_number()) kind_error(Kind::Number, kind());
  return std::get<double>(v_);
}
const std::string& Value::as_string() const {
  if (!is_string()) kind_error(Kind::String, kind());
  return std::get<std::string>(v_);
}
const Value::Array& Value::as_array() const {
  if (!is_array()) kind_error(Kind::Array, kind());
  return std::get<Array>(v_);
}
const Value::Object& Value::as_object() const {
  if (!is_object()) kind_error(Kind::Object, kind());
  return std::get<Object>(v_);
}
Value::Array& Value::as_array() {
  if (!is_array()) kind_error(Kind::Array, kind());
  return std::get<Array>(v_);
}
Value::Object& Value::as_object() {
  if (!is_object()) kind_error(Kind::Object, kind());
  return std::get<Object>(v_);
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& m : std::get<Object>(v_))
    if (m.first == key) return &m.second;
  return nullptr;
}

void Value::set(std::string key, Value v) {
  Object& o = as_object();
  for (auto& m : o)
    if (m.first == key) {
      m.second = std::move(v);
      return;
    }
  o.emplace_back(std::move(key), std::move(v));
}

std::string Value::write() const {
  std::string out;
  write_value(out, *this, /*canonical=*/false);
  return out;
}

std::string Value::write_canonical() const {
  std::string out;
  write_value(out, *this, /*canonical=*/true);
  return out;
}

Value Value::parse(std::string_view text, std::size_t max_depth) {
  return Parser(text, max_depth).run();
}

void append_number(std::string& out, double d) {
  if (!std::isfinite(d))
    throw NumericalError("json: cannot serialize non-finite number");
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, d);
  out.append(buf, r.ptr);
}

std::string escape_string(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_escaped(out, s);
  return out;
}

}  // namespace ivory::json
