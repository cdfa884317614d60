// Tests for the strict JSON codec (src/common/json.*): round-trip fixpoint,
// rejection of every malformed class the service must never accept, and the
// canonical form the result cache hashes.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace ivory::json {
namespace {

// ---------------------------------------------------------------------------
// Basics
// ---------------------------------------------------------------------------

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Value::parse("null").is_null());
  EXPECT_EQ(Value::parse("true").as_bool(), true);
  EXPECT_EQ(Value::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Value::parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(Value::parse("-0.5e2").as_number(), -50.0);
  EXPECT_EQ(Value::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesContainersAndWhitespace) {
  const Value v = Value::parse(" { \"a\" : [ 1 , 2 , 3 ] , \"b\" : { } } ");
  ASSERT_TRUE(v.is_object());
  const Value* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(a->as_array()[1].as_number(), 2.0);
  ASSERT_NE(v.find("b"), nullptr);
  EXPECT_TRUE(v.find("b")->as_object().empty());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, WriteIsCompactAndInsertionOrdered) {
  Value obj{Value::Object{}};
  obj.set("zeta", 1);
  obj.set("alpha", Value::Array{Value(true), Value(nullptr)});
  EXPECT_EQ(obj.write(), "{\"zeta\":1,\"alpha\":[true,null]}");
  EXPECT_EQ(obj.write_canonical(), "{\"alpha\":[true,null],\"zeta\":1}");
}

TEST(Json, NumbersUseShortestRoundTrip) {
  EXPECT_EQ(Value(3.0).write(), "3");
  EXPECT_EQ(Value(0.1).write(), "0.1");
  EXPECT_EQ(Value(-0.0).write(), "-0");
  EXPECT_EQ(Value(1e22).write(), "1e+22");
  // The two spellings of the same double normalize to identical bytes —
  // the property the cache key depends on.
  EXPECT_EQ(Value::parse("4e-06").write(), Value::parse("0.000004").write());
  EXPECT_EQ(Value::parse("10.0").write(), Value::parse("1e1").write());
}

// ---------------------------------------------------------------------------
// Round-trip fixpoint property: parse(write(v)) == v and the bytes are a
// fixpoint (write(parse(write(v))) == write(v)), over randomized documents.
// ---------------------------------------------------------------------------

Value random_value(std::mt19937& rng, int depth) {
  std::uniform_int_distribution<int> pick(0, depth <= 0 ? 3 : 5);
  switch (pick(rng)) {
    case 0:
      return Value(nullptr);
    case 1:
      return Value(rng() % 2 == 0);
    case 2: {
      // Mix of integers, small reals and harsh exponents.
      std::uniform_int_distribution<int> kind(0, 2);
      switch (kind(rng)) {
        case 0:
          return Value(static_cast<int>(rng() % 20000) - 10000);
        case 1:
          return Value(std::uniform_real_distribution<double>(-1e3, 1e3)(rng));
        default:
          return Value(std::uniform_real_distribution<double>(-1.0, 1.0)(rng) * 1e-18);
      }
    }
    case 3: {
      std::string s;
      const std::size_t n = rng() % 12;
      for (std::size_t i = 0; i < n; ++i) {
        // Includes characters that must be escaped.
        static const char alphabet[] = "ab\"\\\n\t/\x01 é€";
        s.push_back(alphabet[rng() % (sizeof alphabet - 1)]);
      }
      return Value(std::move(s));
    }
    case 4: {
      Value::Array a;
      const std::size_t n = rng() % 4;
      for (std::size_t i = 0; i < n; ++i) a.push_back(random_value(rng, depth - 1));
      return Value(std::move(a));
    }
    default: {
      Value::Object o;
      const std::size_t n = rng() % 4;
      for (std::size_t i = 0; i < n; ++i)
        o.emplace_back("k" + std::to_string(i), random_value(rng, depth - 1));
      return Value(std::move(o));
    }
  }
}

TEST(Json, RoundTripFixpointProperty) {
  std::mt19937 rng(20260807);
  for (int trial = 0; trial < 500; ++trial) {
    const Value v = random_value(rng, 4);
    const std::string bytes = v.write();
    const Value back = Value::parse(bytes);
    EXPECT_EQ(back, v) << bytes;
    EXPECT_EQ(back.write(), bytes);
    // Canonicalization is idempotent too.
    const std::string canon = v.write_canonical();
    EXPECT_EQ(Value::parse(canon).write_canonical(), canon);
  }
}

// ---------------------------------------------------------------------------
// Strictness: everything the service must reject.
// ---------------------------------------------------------------------------

TEST(Json, RejectsNonFiniteLiterals) {
  EXPECT_THROW(Value::parse("NaN"), ParseError);
  EXPECT_THROW(Value::parse("nan"), ParseError);
  EXPECT_THROW(Value::parse("Infinity"), ParseError);
  EXPECT_THROW(Value::parse("-Infinity"), ParseError);
  EXPECT_THROW(Value::parse("inf"), ParseError);
  // Literals that overflow double are NOT silently clamped to inf.
  EXPECT_THROW(Value::parse("1e999"), ParseError);
  EXPECT_THROW(Value::parse("-1e999"), ParseError);
}

TEST(Json, RejectsNonFiniteOnWrite) {
  EXPECT_THROW(Value(std::numeric_limits<double>::quiet_NaN()).write(), NumericalError);
  EXPECT_THROW(Value(std::numeric_limits<double>::infinity()).write_canonical(),
               NumericalError);
}

TEST(Json, RejectsDuplicateKeys) {
  EXPECT_THROW(Value::parse("{\"a\":1,\"a\":2}"), ParseError);
  EXPECT_THROW(Value::parse("{\"x\":{\"a\":1,\"a\":1}}"), ParseError);
  // Distinct keys are fine even when one prefixes the other.
  EXPECT_NO_THROW(Value::parse("{\"a\":1,\"ab\":2}"));
}

TEST(Json, RejectsExcessiveDepth) {
  std::string deep;
  for (int i = 0; i < 80; ++i) deep += "[";
  deep += "1";
  for (int i = 0; i < 80; ++i) deep += "]";
  EXPECT_THROW(Value::parse(deep), ParseError);       // default max_depth = 64
  EXPECT_NO_THROW(Value::parse(deep, 128));           // explicit allowance
  std::string ok(40, '[');
  ok += "1";
  ok += std::string(40, ']');
  EXPECT_NO_THROW(Value::parse(ok));
}

TEST(Json, RejectsTrailingGarbage) {
  EXPECT_THROW(Value::parse("1 2"), ParseError);
  EXPECT_THROW(Value::parse("{} x"), ParseError);
  EXPECT_THROW(Value::parse("truefalse"), ParseError);
  EXPECT_THROW(Value::parse(""), ParseError);
  EXPECT_NO_THROW(Value::parse("{}  "));  // trailing whitespace is not garbage
}

TEST(Json, RejectsMalformedSyntax) {
  EXPECT_THROW(Value::parse("{"), ParseError);
  EXPECT_THROW(Value::parse("[1,]"), ParseError);
  EXPECT_THROW(Value::parse("{\"a\":}"), ParseError);
  EXPECT_THROW(Value::parse("{'a':1}"), ParseError);
  EXPECT_THROW(Value::parse("[01]"), ParseError);    // leading zero
  EXPECT_THROW(Value::parse("[+1]"), ParseError);    // leading plus
  EXPECT_THROW(Value::parse("[1.]"), ParseError);    // bare decimal point
  EXPECT_THROW(Value::parse("[.5]"), ParseError);
}

TEST(Json, ParseErrorCarriesOffset) {
  try {
    Value::parse("[1, oops]");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.offset(), 4u);
  }
}

// ---------------------------------------------------------------------------
// Strings: escapes, UTF-8, surrogate pairs, control characters.
// ---------------------------------------------------------------------------

TEST(Json, HandlesStandardEscapes) {
  EXPECT_EQ(Value::parse("\"a\\n\\t\\\"\\\\b\\/\"").as_string(), "a\n\t\"\\b/");
  EXPECT_EQ(Value::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(Value("line\nbreak").write(), "\"line\\nbreak\"");
  EXPECT_EQ(Value(std::string(1, '\x01')).write(), "\"\\u0001\"");
}

TEST(Json, DecodesUnicodeEscapesToUtf8) {
  EXPECT_EQ(Value::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");          // é
  EXPECT_EQ(Value::parse("\"\\u20ac\"").as_string(), "\xe2\x82\xac");      // €
  // Surrogate pair -> U+1D11E (musical G clef), 4-byte UTF-8.
  EXPECT_EQ(Value::parse("\"\\ud834\\udd1e\"").as_string(), "\xf0\x9d\x84\x9e");
}

TEST(Json, RawUtf8PassesThroughUnchanged) {
  const std::string s = "caf\xc3\xa9 \xe2\x82\xac";
  EXPECT_EQ(Value::parse(Value(s).write()).as_string(), s);
}

TEST(Json, RejectsBadStrings) {
  EXPECT_THROW(Value::parse("\"\\ud834\""), ParseError);         // lone high surrogate
  EXPECT_THROW(Value::parse("\"\\udd1e\""), ParseError);         // lone low surrogate
  EXPECT_THROW(Value::parse("\"\\ud834\\u0041\""), ParseError);  // pair broken
  EXPECT_THROW(Value::parse("\"\\uZZZZ\""), ParseError);
  EXPECT_THROW(Value::parse("\"\\q\""), ParseError);             // unknown escape
  EXPECT_THROW(Value::parse("\"unterminated"), ParseError);
  EXPECT_THROW(Value::parse(std::string("\"a\nb\"")), ParseError);  // raw control char
}

// ---------------------------------------------------------------------------
// String edges: the parser takes plain characters a run at a time and the
// writer escapes straight into its output, so runs that are long, that end
// at the end of the buffer, or that hold any byte value must behave exactly
// as a character at a time would.
// ---------------------------------------------------------------------------

// The character-at-a-time escaper the writer must match byte for byte.
std::string reference_escape(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out.push_back(hex[(c >> 4) & 0xF]);
          out.push_back(hex[c & 0xF]);
        } else {
          out.push_back(c);
        }
    }
  }
  return out + "\"";
}

// Seeded strings: every byte value, long plain runs, escapes at either end.
std::vector<std::string> edge_strings() {
  std::vector<std::string> out = {"", "a", "\"", "\\", std::string(1, '\0'), "\x1f", "\x7f",
                                  "\xff", std::string(4096, 'p'), std::string(4096, 'p') + "\n",
                                  "\n" + std::string(4096, 'p')};
  std::string all;
  for (int b = 0; b < 256; ++b) all.push_back(static_cast<char>(b));
  out.push_back(all);
  std::mt19937_64 rng(0x6a736f6e72756e73ULL);
  for (int k = 0; k < 300; ++k) {
    std::string s;
    const std::size_t pieces = rng() % 8;
    for (std::size_t p = 0; p < pieces; ++p) {
      if (rng() % 2)
        s.append(rng() % 200, static_cast<char>('!' + rng() % 90));  // a plain run
      else
        s.push_back(static_cast<char>(rng() % 256));  // any byte
    }
    out.push_back(s);
  }
  return out;
}

TEST(JsonStrings, EscapeParseRoundTripsEveryByte) {
  for (const std::string& s : edge_strings()) {
    EXPECT_EQ(Value::parse(Value(s).write()).as_string(), s);
    Value::Object o;
    o.emplace_back(s, Value(s));
    const Value doc(std::move(o));
    EXPECT_EQ(Value::parse(doc.write()), doc);
    EXPECT_EQ(Value::parse(doc.write_canonical()), doc);
  }
}

TEST(JsonStrings, WriterMatchesCharacterAtATimeEscaper) {
  for (const std::string& s : edge_strings()) {
    const std::string want = reference_escape(s);
    EXPECT_EQ(escape_string(s), want);
    EXPECT_EQ(Value(s).write(), want);
    EXPECT_EQ(Value(s).write_canonical(), want);
    Value::Object o;
    o.emplace_back(s, Value(Value::Array{Value(s)}));
    o.emplace_back(s + "z", Value(1));
    EXPECT_EQ(Value(o).write(), "{" + want + ":[" + want + "]," + reference_escape(s + "z") + ":1}");
    EXPECT_EQ(Value(o).write_canonical(), Value(o).write());  // already in key order
  }
}

TEST(JsonStrings, ErrorsAfterALongPlainRunKeepMessageAndOffset) {
  const std::string run(5000, 'x');
  const std::size_t n = run.size();
  struct Case {
    std::string text;
    std::string what;
    std::size_t offset;
  };
  const Case cases[] = {
      {"\"" + run + "\x01\"", "raw control character in string", 1 + n},
      {"\"" + run + "\\q\"", "invalid escape character in string", 2 + n},
      {"\"" + run + "\\uZZZZ\"", "invalid hex digit in \\u escape", 3 + n},
      {"\"" + run + "\\udd1e\"", "lone low surrogate in \\u escape", 7 + n},
      {"\"" + run + "\\ud834x\"", "high surrogate not followed by \\u escape", 7 + n},
      {"\"" + run, "unexpected end of input", 1 + n},
      {"\"" + run + "\\", "unexpected end of input", 2 + n},
  };
  for (const Case& c : cases) {
    try {
      Value::parse(c.text);
      ADD_FAILURE() << "accepted: " << c.what;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.offset(), c.offset) << c.what;
      EXPECT_EQ(std::string(e.what()),
                "json: " + c.what + " (at offset " + std::to_string(c.offset) + ")");
    }
  }
}

// ---------------------------------------------------------------------------
// Canonical form: recursive key sorting.
// ---------------------------------------------------------------------------

TEST(Json, CanonicalSortsKeysRecursively) {
  const Value v = Value::parse("{\"b\":{\"y\":1,\"x\":2},\"a\":[{\"q\":0,\"p\":1}]}");
  EXPECT_EQ(v.write_canonical(), "{\"a\":[{\"p\":1,\"q\":0}],\"b\":{\"x\":2,\"y\":1}}");
  // Same document with different spelling -> identical canonical bytes.
  const Value w = Value::parse("{ \"a\": [ {\"p\": 1.0, \"q\": 0} ], \"b\": {\"x\":2,\"y\":1} }");
  EXPECT_EQ(w.write_canonical(), v.write_canonical());
}

TEST(Json, AccessorsThrowOnKindMismatch) {
  EXPECT_THROW(Value(1.5).as_string(), InvalidParameter);
  EXPECT_THROW(Value("x").as_number(), InvalidParameter);
  EXPECT_THROW(Value(nullptr).as_array(), InvalidParameter);
}

}  // namespace
}  // namespace ivory::json
