// Golden-file regression: shells the real `ivory batch` binary over a fixed
// NDJSON request set and diffs stdout *bytes* against the checked-in
// expectation. Any change to number formatting, canonicalization, response
// envelopes, field order or model arithmetic shows up here first.
//
// When an intentional model change shifts the numbers, regenerate with
//   tools/update_golden.sh
// and review the diff like any other code change.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.hpp"

#ifndef IVORY_CLI_BIN
#error "IVORY_CLI_BIN must point at the ivory binary"
#endif
#ifndef IVORY_GOLDEN_DIR
#error "IVORY_GOLDEN_DIR must point at tests/golden"
#endif

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

std::string run_stdout(const std::string& cmd) {
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  std::string out;
  std::array<char, 4096> buf;
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) out.append(buf.data(), n);
  const int status = pclose(pipe);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << cmd;
  return out;
}

// First member path at which two JSON values differ, with both values
// ("" when equal).
std::string json_difference(const ivory::json::Value& e, const ivory::json::Value& a,
                            const std::string& path) {
  using ivory::json::Value;
  if (e == a) return "";
  const std::string at = path.empty() ? "(root)" : path;
  if (e.is_object() && a.is_object()) {
    for (const Value::Member& m : e.as_object()) {
      const Value* other = a.find(m.first);
      if (other == nullptr) return path + "." + m.first + " is missing";
      const std::string d = json_difference(m.second, *other, path + "." + m.first);
      if (!d.empty()) return d;
    }
    for (const Value::Member& m : a.as_object())
      if (e.find(m.first) == nullptr) return path + "." + m.first + " is unexpected";
    return at + ": members are reordered";
  }
  if (e.is_array() && a.is_array()) {
    const Value::Array& ea = e.as_array();
    const Value::Array& aa = a.as_array();
    for (std::size_t i = 0; i < std::min(ea.size(), aa.size()); ++i) {
      const std::string d = json_difference(ea[i], aa[i], path + "[" + std::to_string(i) + "]");
      if (!d.empty()) return d;
    }
    return at + ": expected " + std::to_string(ea.size()) + " elements, got " +
           std::to_string(aa.size());
  }
  std::string out = at + ": expected " + e.write() + ", got " + a.write();
  if (e.is_number() && a.is_number() && e.as_number() != 0.0) {
    char rel[48];
    std::snprintf(rel, sizeof rel, " (relative change %.3g)",
                  (a.as_number() - e.as_number()) / std::fabs(e.as_number()));
    out += rel;
  }
  return out;
}

// Names the first differing line and, when both sides of it are JSON, the
// first differing member path with both values, so a deliberate model
// change reviews as numbers rather than byte offsets.
std::string diff_hint(const std::string& expected, const std::string& actual) {
  std::istringstream e(expected), a(actual);
  std::string le, la;
  for (std::size_t line = 1;; ++line) {
    const bool more_e = static_cast<bool>(std::getline(e, le));
    const bool more_a = static_cast<bool>(std::getline(a, la));
    if (!more_e && !more_a) return "outputs differ only in their final newline";
    const std::string at = "first difference at line " + std::to_string(line);
    if (!more_e) return at + ": unexpected extra output";
    if (!more_a) return at + ": output ends early";
    if (le == la) continue;
    try {
      return at + ": " +
             json_difference(ivory::json::Value::parse(le), ivory::json::Value::parse(la), "");
    } catch (const std::exception&) {
      return at + " (not JSON)";
    }
  }
}

TEST(Golden, BatchSmokeOutputIsByteIdentical) {
  const std::string dir = IVORY_GOLDEN_DIR;
  const std::string expected = read_file(dir + "/batch_smoke.expected");
  ASSERT_FALSE(expected.empty());
  // --threads 2 on purpose: responses must come back in submission order and
  // with identical bytes regardless of pool parallelism.
  const std::string actual = run_stdout(std::string(IVORY_CLI_BIN) +
                                        " batch --threads 2 < " + dir +
                                        "/batch_smoke.ndjson 2>/dev/null");
  EXPECT_EQ(expected, actual) << diff_hint(expected, actual)
                              << "\nif the change is intentional, regenerate with "
                                 "tools/update_golden.sh and review the diff";
}

TEST(Golden, RepeatAndThreadCountDoNotChangeBytes) {
  const std::string dir = IVORY_GOLDEN_DIR;
  const std::string expected = read_file(dir + "/batch_smoke.expected");
  // --repeat 2 re-submits the same set; the second pass is served from the
  // result cache and must produce the same bytes again.
  const std::string twice = run_stdout(std::string(IVORY_CLI_BIN) + " batch --repeat 2 < " +
                                       dir + "/batch_smoke.ndjson 2>/dev/null");
  EXPECT_EQ(twice, expected + expected);
  const std::string serial = run_stdout(std::string(IVORY_CLI_BIN) +
                                        " batch --threads 1 < " + dir +
                                        "/batch_smoke.ndjson 2>/dev/null");
  EXPECT_EQ(serial, expected);
}

}  // namespace
