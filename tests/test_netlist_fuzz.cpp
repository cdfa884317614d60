// Seeded differential fuzzer for the SPICE netlist reader.
//
// parse_netlist reads untrusted text: serve's "netlist" field. The oracle
// below is the earlier reader (an istringstream, a vector<string> of
// lower-cased tokens per line and std::stod per number), kept verbatim.
// Generated netlists over every card form, their byte flips, truncations
// and line swaps, and mutations of perfbench's 64x64 grid text must give the
// same Circuit on both sides (node names in id order; per kind the same
// elements in order with names, terminals and values equal bit for bit;
// every source's wave(t) equal bit for bit at fixed times), or the same
// exception type with the same what(). parse_spice_value is checked against
// the oracle's on its own too, over the number tokens where std::stod and
// std::from_chars part ways. Every failure names the seed and the input.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "perfbench_grid.hpp"
#include "spice/parser.hpp"
#include "spice/phase_clock.hpp"

namespace ivory::spice {
namespace {

// ---------------------------------------------------------------------------
// Oracle: the previous reader, verbatim.
// ---------------------------------------------------------------------------
namespace oracle {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char ch) { return static_cast<char>(std::tolower(ch)); });
  return s;
}

[[noreturn]] void fail(int line, const std::string& msg) {
  throw StructuralError("netlist line " + std::to_string(line) + ": " + msg);
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : line) {
    if (std::isspace(static_cast<unsigned char>(ch)) || ch == '(' || ch == ')' || ch == ',' ||
        ch == '=') {
      if (!cur.empty()) {
        out.push_back(lower(cur));
        cur.clear();
      }
    } else {
      cur.push_back(ch);
    }
  }
  if (!cur.empty()) out.push_back(lower(cur));
  return out;
}

double parse_spice_value(const std::string& token) {
  require(!token.empty(), "parse_spice_value: empty token");
  const std::string t = lower(token);
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(t, &pos);
  } catch (const std::exception&) {
    throw InvalidParameter("parse_spice_value: unparseable value '" + token + "'");
  }
  const std::string suffix = t.substr(pos);
  if (suffix.empty()) return value;
  if (suffix.rfind("meg", 0) == 0) return value * 1e6;
  switch (suffix[0]) {
    case 'f': return value * 1e-15;
    case 'p': return value * 1e-12;
    case 'n': return value * 1e-9;
    case 'u': return value * 1e-6;
    case 'm': return value * 1e-3;
    case 'k': return value * 1e3;
    case 'g': return value * 1e9;
    case 't': return value * 1e12;
    default:
      throw InvalidParameter("parse_spice_value: unknown suffix in '" + token + "'");
  }
}

double value_at(const std::vector<std::string>& tok, std::size_t i, int line, const char* what) {
  if (i >= tok.size()) fail(line, std::string("missing ") + what + " token (line has only " +
                                      std::to_string(tok.size()) + " tokens)");
  try {
    return parse_spice_value(tok[i]);
  } catch (const std::exception& e) {
    fail(line, std::string("bad ") + what + " token '" + tok[i] + "': " + e.what());
  }
}

Waveform parse_source(const std::vector<std::string>& tok, std::size_t i, int line) {
  if (i >= tok.size()) fail(line, "missing source value");
  const std::string& kind = tok[i];
  if (kind == "dc") {
    if (i + 1 >= tok.size()) fail(line, "DC needs a value");
    return Waveform::dc(value_at(tok, i + 1, line, "DC value"));
  }
  if (kind == "pulse") {
    if (i + 7 >= tok.size())
      fail(line, "PULSE needs 7 values, got " + std::to_string(tok.size() - i - 1));
    double v[7];
    for (int k = 0; k < 7; ++k)
      v[k] = value_at(tok, i + 1 + static_cast<std::size_t>(k), line, "PULSE value");
    return Waveform::pulse(v[0], v[1], v[2], v[3], v[4], v[5], v[6]);
  }
  if (kind == "sin") {
    if (i + 3 >= tok.size())
      fail(line, "SIN needs at least 3 values, got " + std::to_string(tok.size() - i - 1));
    const double off = value_at(tok, i + 1, line, "SIN offset");
    const double amp = value_at(tok, i + 2, line, "SIN amplitude");
    const double freq = value_at(tok, i + 3, line, "SIN frequency");
    const double td = i + 4 < tok.size() ? value_at(tok, i + 4, line, "SIN delay") : 0.0;
    const double ph = i + 5 < tok.size() ? value_at(tok, i + 5, line, "SIN phase") : 0.0;
    return Waveform::sine(off, amp, freq, td, ph);
  }
  if (kind == "pwl") {
    const std::size_t nvals = tok.size() - (i + 1);
    if (nvals < 2 || nvals % 2 != 0)
      fail(line,
           "PWL needs an even number of values (>= 2), got " + std::to_string(nvals));
    std::vector<std::pair<double, double>> pts;
    for (std::size_t k = i + 1; k + 1 < tok.size(); k += 2)
      pts.emplace_back(value_at(tok, k, line, "PWL time"),
                       value_at(tok, k + 1, line, "PWL value"));
    return Waveform::pwl(std::move(pts));
  }
  // Bare value: treat as DC.
  return Waveform::dc(value_at(tok, i, line, "source value"));
}

Circuit parse_netlist(const std::string& text) {
  Circuit c;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::vector<std::string> tok = tokenize(raw);
    if (tok.empty() || tok[0][0] == '*') continue;
    if (tok[0] == ".end") break;
    if (tok[0][0] == '.') continue;  // Other directives are ignored.
    if (tok.size() < 4)
      fail(line_no, "element needs name, two nodes, and a value (got " +
                        std::to_string(tok.size()) + " tokens, first '" + tok[0] + "')");

    const std::string& name = tok[0];
    const NodeId a = c.node(tok[1]);
    const NodeId b = c.node(tok[2]);

    // Optional trailing IC= clause for C and L cards.
    double ic = 0.0;
    bool has_ic = false;
    for (std::size_t i = 3; i + 1 < tok.size(); ++i) {
      if (tok[i] == "ic") {
        ic = value_at(tok, i + 1, line_no, "IC value");
        has_ic = true;
      }
    }

    switch (name[0]) {
      case 'r':
        c.add_resistor(name, a, b, value_at(tok, 3, line_no, "resistance"));
        break;
      case 'c':
        if (has_ic)
          c.add_capacitor_ic(name, a, b, value_at(tok, 3, line_no, "capacitance"), ic);
        else
          c.add_capacitor(name, a, b, value_at(tok, 3, line_no, "capacitance"));
        break;
      case 'l':
        if (has_ic)
          c.add_inductor_ic(name, a, b, value_at(tok, 3, line_no, "inductance"), ic);
        else
          c.add_inductor(name, a, b, value_at(tok, 3, line_no, "inductance"));
        break;
      case 'v':
        c.add_vsource(name, a, b, parse_source(tok, 3, line_no));
        break;
      case 'i':
        c.add_isource(name, a, b, parse_source(tok, 3, line_no));
        break;
      case 's': {
        const double ron = value_at(tok, 3, line_no, "on-resistance");
        const double roff = value_at(tok, 4, line_no, "off-resistance");
        if (tok.size() < 6 || tok[5] != "clock")
          fail(line_no, "switch needs a CLOCK(fsw nphases duty [phase]) drive");
        const double fsw = value_at(tok, 6, line_no, "CLOCK frequency");
        const double nph_raw = value_at(tok, 7, line_no, "CLOCK phase count");
        const int nph = static_cast<int>(nph_raw);
        if (nph < 1 || static_cast<double>(nph) != nph_raw)
          fail(line_no, "CLOCK phase count must be a positive integer");
        const double duty = value_at(tok, 8, line_no, "CLOCK duty");
        const double k_raw =
            tok.size() > 9 ? value_at(tok, 9, line_no, "CLOCK phase index") : 0.0;
        const int k = static_cast<int>(k_raw);
        if (k < 0 || k >= nph || static_cast<double>(k) != k_raw)
          fail(line_no, "CLOCK phase index must be an integer in [0, nphases)");
        try {
          c.add_switch(name, a, b, ron, roff, PhaseClock(fsw, nph, duty).phase(k));
        } catch (const std::exception& e) {
          fail(line_no, std::string("bad CLOCK drive: ") + e.what());
        }
        break;
      }
      default:
        fail(line_no, "unsupported element '" + name + "'");
    }
  }
  return c;
}

}  // namespace oracle

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

constexpr std::uint64_t kSeed = 0x5b1ce0de7a11fe55ULL;
// The grid cases take the first 160 ms (at least one case, which alone runs
// longer in a sanitizer build), the generated netlists the next 240 ms.
constexpr auto kGridBox = std::chrono::milliseconds(160);
constexpr auto kNetlistBox = std::chrono::milliseconds(240);

// Times at which every source's waveform is compared, bit for bit.
constexpr double kWaveTimes[] = {-1e-9, 0.0,  1e-12, 0.5e-9, 1e-9, 2.1e-9, 3.7e-9,
                                 1e-8,  1e-7, 1e-6,  1e-3,   1.0,  3.3};

std::string bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(u));
  return buf;
}

void describe_wave(std::string& out, const Waveform& w) {
  for (const double t : kWaveTimes) out += " " + bits(w(t));
  out += " ac=" + bits(w.ac_magnitude());
}

// One line per node and element, every double as its bit pattern: two
// circuits are equal exactly when their descriptions are.
std::vector<std::string> describe(const Circuit& c) {
  std::vector<std::string> out;
  for (NodeId n = 0; n < c.node_count(); ++n) out.push_back("node " + c.node_name(n));
  auto head = [](const char* kind, const std::string& name, NodeId a, NodeId b) {
    return std::string(kind) + " " + name + " " + std::to_string(a) + " " + std::to_string(b);
  };
  for (const Resistor& r : c.resistors()) out.push_back(head("R", r.name, r.a, r.b) + " " + bits(r.ohms));
  for (const Capacitor& x : c.capacitors())
    out.push_back(head("C", x.name, x.a, x.b) + " " + bits(x.farads) + " " + bits(x.v0) +
                  (x.use_ic ? " ic" : ""));
  for (const Inductor& x : c.inductors())
    out.push_back(head("L", x.name, x.a, x.b) + " " + bits(x.henries) + " " + bits(x.i0) +
                  (x.use_ic ? " ic" : ""));
  for (const VSource& v : c.vsources()) {
    std::string line = head("V", v.name, v.pos, v.neg);
    describe_wave(line, v.wave);
    out.push_back(line);
  }
  for (const ISource& i : c.isources()) {
    std::string line = head("I", i.name, i.pos, i.neg);
    describe_wave(line, i.wave);
    out.push_back(line);
  }
  for (const Switch& s : c.switches()) {
    std::string line = head("S", s.name, s.a, s.b) + " " + bits(s.ron) + " " + bits(s.roff) +
                       " kind=" + std::to_string(static_cast<int>(s.kind)) + " cp=" +
                       std::to_string(s.cp) + " cn=" + std::to_string(s.cn) + " " +
                       bits(s.vth) + " " + bits(s.vhyst);
    if (s.drive)
      line += " clock " + bits(s.drive->clock.period()) + " " +
              std::to_string(s.drive->clock.phases()) + " " + bits(s.drive->clock.duty()) +
              " phase=" + std::to_string(s.drive->phase) +
              (s.drive->inverted ? " inverted" : "");
    out.push_back(line);
  }
  return out;
}

struct Outcome {
  std::vector<std::string> circuit;  ///< describe() of the parsed circuit
  std::string error;                 ///< "<type>: <what>" when parsing threw
};

template <class Parse>
Outcome outcome(Parse parse, const std::string& text) {
  Outcome o;
  try {
    o.circuit = describe(parse(text));
  } catch (const std::exception& e) {
    o.error = std::string(typeid(e).name()) + ": " + e.what();
  }
  return o;
}

// Empty when both readers agree; otherwise the first difference. `parsed`
// tells whether the oracle accepted the text.
std::string difference(const std::string& text, bool& parsed) {
  const Outcome want = outcome(oracle::parse_netlist, text);
  parsed = want.error.empty();
  const Outcome got = outcome([](const std::string& t) { return parse_netlist(t); }, text);
  if (want.error != got.error)
    return "error: oracle '" + want.error + "', reader '" + got.error + "'";
  const std::size_t n = std::min(want.circuit.size(), got.circuit.size());
  for (std::size_t i = 0; i < n; ++i)
    if (want.circuit[i] != got.circuit[i])
      return "circuit line " + std::to_string(i) + ": oracle '" + want.circuit[i] +
             "', reader '" + got.circuit[i] + "'";
  if (want.circuit.size() != got.circuit.size())
    return "circuit sizes " + std::to_string(want.circuit.size()) + " vs " +
           std::to_string(got.circuit.size());
  return "";
}

// Input as a C string literal, so a failure can be pasted back as a test.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto u = static_cast<unsigned char>(ch);
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (ch == '\n') {
      out += "\\n";
    } else if (u >= 0x20 && u < 0x7f) {
      out += ch;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x\"\"", u);
      out += buf;
    }
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

// Number tokens where std::stod and std::from_chars part ways or meet at an
// edge, then ordinary spellings with every suffix.
const std::vector<std::string>& edge_numbers() {
  static const std::vector<std::string> v = {
      "+5", "0x1p3", "0x10", "0X1P-2", "-0x10", "1e-310", "5e-324", "2.2250738585072011e-308",
      "2.2250738585072013e-308", "2.2250738585072014e-308", "-1e-320", "inf", "infinity",
      "-inf", "nan", "nan(0x1)", "NaN", ".5", "5.", "-.5", "1e400", "-1e400", "1e-400", "1e",
      "1e+", "1.e5", ".e5", ".", "-", "0", "-0", "00", "0e-400", "0.000e99999999999999999999",
      "1e99999999999999999999", "1x", "abc", "k", "1meg", "1mega", "1MEG", "1Meg", "2me",
      "3mil", "4.7K", "1E3", "1e-9f", std::string("5\0", 2), std::string("\0", 1),
      "\x80", "1\xff"};
  return v;
}

const std::vector<std::string>& plain_numbers() {
  static const std::vector<std::string> v = {
      "1",   "4.7k", "100meg", "2.2n", "10p",  "3m",   "1.5",  "2G",   "1t",    "0.5u", "1f",
      "1e-9", "1E3", "0.01",   "50p",  "0.05", "3.3",  "1.65", "1e8",  "100n",  "1u",   "20meg",
      "1n",  "0.2n", "2n",     "1e-7", "10",   "0.48", "330",  "1e12", "-2.5m", "7.5e-3"};
  return v;
}

std::string number(Pcg32& rng) {
  if (rng.bernoulli(0.12)) return edge_numbers()[rng.next_u32() % edge_numbers().size()];
  return plain_numbers()[rng.next_u32() % plain_numbers().size()];
}

std::string node(Pcg32& rng) {
  static const std::vector<std::string> v = {
      "0", "gnd", "GND", "a", "b", "n1", "Out", "in", "x_1", "fly", "\x80\xfe", std::string("n\0z", 3)};
  // Mostly a handful of names, so elements share nodes.
  return v[rng.next_u32() % (rng.bernoulli(0.9) ? 8 : v.size())];
}

std::string sep(Pcg32& rng) {
  static const char* v[] = {" ", " ", " ", "  ", "\t", ",", "=", " (", ")", " , ", "\v", "\f", "\r"};
  return v[rng.next_u32() % (sizeof v / sizeof v[0])];
}

// Flips the case of some letters: the reader is case-insensitive.
std::string mixed_case(Pcg32& rng, std::string s) {
  for (char& ch : s)
    if (std::isalpha(static_cast<unsigned char>(ch)) && rng.bernoulli(0.3))
      ch = static_cast<char>(ch ^ 0x20);
  return s;
}

std::string source(Pcg32& rng) {
  switch (rng.next_u32() % 6) {
    case 0: return "DC " + number(rng);
    case 1:
      return rng.bernoulli(0.7) ? "PULSE(0 1 1n 0.1n 0.1n 1n 3n)"
                                : "PULSE(" + number(rng) + " " + number(rng) + " " +
                                      number(rng) + " " + number(rng) + " " + number(rng) +
                                      " " + number(rng) + " " + number(rng) + ")";
    case 2: {
      std::string s = "SIN(" + number(rng) + " " + number(rng) + " " + number(rng);
      const std::uint32_t extra = rng.next_u32() % 3;
      for (std::uint32_t k = 0; k < extra; ++k) s += " " + number(rng);
      return s + ")";
    }
    case 3: {
      std::string s = "PWL(";
      const std::uint32_t pts = 1 + rng.next_u32() % 4;
      for (std::uint32_t k = 0; k < pts; ++k)
        s += std::to_string(k) + "n " + number(rng) + (k + 1 < pts ? " " : "");
      return s + (rng.bernoulli(0.1) ? " 9n)" : ")");
    }
    case 4: return number(rng);
    default: return rng.bernoulli(0.5) ? "DC" : "PULSE(0 1 2)";
  }
}

std::string card(Pcg32& rng, int id) {
  const std::string n = std::to_string(id);
  std::vector<std::string> tok;
  switch (rng.next_u32() % 16) {
    case 0: return "* comment " + number(rng);
    case 1: return "  *indented comment, with (separators)";
    case 2: return "";
    case 3: return ".tran 1n 1u";
    case 4: return rng.bernoulli(0.3) ? ".end" : ".option reltol=1e-3";
    case 5: return "(,=)";
    case 6: tok = {"q" + n, node(rng), node(rng), number(rng)}; break;  // unsupported
    case 7: tok = {"r" + n, node(rng)}; break;                           // too short
    case 8: tok = {"c" + n, node(rng), node(rng), number(rng)};
      if (rng.bernoulli(0.5)) tok.insert(tok.end(), {"IC", number(rng)});
      break;
    case 9: tok = {"l" + n, node(rng), node(rng), number(rng)};
      if (rng.bernoulli(0.5)) tok.insert(tok.end(), {"ic", number(rng)});
      break;
    case 10: tok = {"v" + n, node(rng), node(rng), source(rng)}; break;
    case 11: tok = {"i" + n, node(rng), node(rng), source(rng)}; break;
    case 12: {
      const bool two = rng.bernoulli(0.6);
      tok = {"s" + n, node(rng), node(rng), rng.bernoulli(0.8) ? "0.01" : number(rng),
             rng.bernoulli(0.8) ? "1e8" : number(rng),
             "CLOCK(" + (rng.bernoulli(0.8) ? std::string("20meg") : number(rng)) + " " +
                 (two ? "2" : "1") + " " + (rng.bernoulli(0.8) ? "0.48" : number(rng))};
      if (rng.bernoulli(0.6)) tok.back() += " " + std::string(two && rng.bernoulli(0.5) ? "1" : "0");
      tok.back() += ")";
      break;
    }
    default: tok = {"r" + n, node(rng), node(rng), number(rng)}; break;
  }
  std::string line = rng.bernoulli(0.1) ? sep(rng) : "";
  for (std::size_t k = 0; k < tok.size(); ++k) line += (k ? sep(rng) : "") + tok[k];
  return mixed_case(rng, line);
}

std::string netlist(Pcg32& rng) {
  std::string text;
  const int lines = 1 + static_cast<int>(rng.next_u32() % 12);
  for (int k = 0; k < lines; ++k)
    text += card(rng, k) + (rng.bernoulli(0.2) ? "\r\n" : "\n");
  if (rng.bernoulli(0.2)) text.pop_back();  // no final newline
  return text;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t at = 0;
  while (at <= text.size()) {
    const std::size_t end = std::min(text.find('\n', at), text.size());
    lines.push_back(text.substr(at, end - at));
    at = end + 1;
  }
  return lines;
}

// One byte flip, truncation, line swap or inserted byte; `what` names it.
std::string mutate(Pcg32& rng, std::string text, std::string& what) {
  if (text.empty()) return text;
  const std::size_t at = rng.next_u32() % text.size();
  switch (rng.next_u32() % 4) {
    case 0:
      text[at] = static_cast<char>(text[at] ^ (1u << (rng.next_u32() & 7u)));
      what = "flip at " + std::to_string(at);
      break;
    case 1:
      text.resize(at);
      what = "truncate to " + std::to_string(at);
      break;
    case 2: {
      std::vector<std::string> lines = split_lines(text);
      const std::size_t i = rng.next_u32() % lines.size(), j = rng.next_u32() % lines.size();
      std::swap(lines[i], lines[j]);
      text.clear();
      for (std::size_t k = 0; k < lines.size(); ++k) text += (k ? "\n" : "") + lines[k];
      what = "swap lines " + std::to_string(i) + " and " + std::to_string(j);
      break;
    }
    default: {
      static const char bytes[] = {'\0', '\r', '\n', '(', '=', '*', '.', 'e', '\x80', '\xff'};
      text.insert(text.begin() + static_cast<long>(at), bytes[rng.next_u32() % sizeof bytes]);
      what = "insert at " + std::to_string(at);
    }
  }
  return text;
}

TEST(NetlistFuzz, ReaderMatchesTheOracle) {
  Pcg32 rng(kSeed);
  bool ok = false;

  // perfbench's grid text as sent, then mutated.
  const std::string grid = perfbench_grid_netlist(64);
  std::string what = "unmutated";
  std::string text = grid;
  const auto t0 = std::chrono::steady_clock::now();
  for (int n = 0; n == 0 || std::chrono::steady_clock::now() - t0 < kGridBox; ++n) {
    const std::string diff = difference(text, ok);
    EXPECT_EQ(diff, "") << "seed " << kSeed << " grid case " << n << " (" << what
                        << " of perfbench_grid_netlist(64)): " << diff;
    text = mutate(rng, grid, what);
  }

  // Generated netlists, as generated and mutated.
  std::size_t cases = 0, parsed = 0;
  const auto t1 = std::chrono::steady_clock::now();
  for (; std::chrono::steady_clock::now() - t1 < kNetlistBox; ++cases) {
    text = netlist(rng);
    what = "generated";
    if (rng.bernoulli(0.4)) text = mutate(rng, text, what);
    const std::string diff = difference(text, ok);
    EXPECT_EQ(diff, "") << "seed " << kSeed << " case " << cases << " (" << what
                        << "): input " << quoted(text) << ": " << diff;
    parsed += ok ? 1 : 0;
  }
  // Both outcomes must be exercised: a generator whose netlists all fail
  // (or all pass) would compare only half the reader.
  EXPECT_GT(cases, 50u) << "seed " << kSeed;
  EXPECT_GT(parsed, cases / 10) << "seed " << kSeed;
  EXPECT_LT(parsed, cases) << "seed " << kSeed;
}

TEST(NetlistFuzz, SpiceValueMatchesTheOracle) {
  // parse_spice_value also reads serve's string-valued fields, whose tokens
  // carry case, spaces, '(' and signs that no netlist token does.
  const std::uint64_t seed = kSeed ^ 0x9e3779b97f4a7c15ULL;
  Pcg32 rng(seed);
  std::vector<std::string> tokens = edge_numbers();
  for (const std::string& t : plain_numbers()) tokens.push_back(t);
  for (const char* t : {" 5", "\t1k", "5 ", "1e5(", "nan(", "nan(x-y)", "NAN(abc_9)", "1E+3K",
                        "0x", "0xg", "-0x1.8p1", "1_000", "--5", "+-5", "+.5e-3MEG", "Inf",
                        "INFINITY", "infinit", "1e-307", "4.4501477170144023e-308",
                        "1.7976931348623157e308", "1.7976931348623159e308", ""})
    tokens.push_back(t);
  static const char kAlphabet[] = "0123456789..eE+-xXpPkKmMgGunftaif() \t\v";
  for (int k = 0; k < 4000; ++k) {
    std::string t;
    const std::uint32_t len = 1 + rng.next_u32() % 12;
    for (std::uint32_t i = 0; i < len; ++i)
      t += rng.bernoulli(0.02) ? static_cast<char>(rng.next_u32() & 0xff)
                               : kAlphabet[rng.next_u32() % (sizeof kAlphabet - 1)];
    tokens.push_back(t);
  }
  for (const std::string& t : tokens) {
    std::string want, got;
    try {
      want = bits(oracle::parse_spice_value(t));
    } catch (const std::exception& e) {
      want = std::string(typeid(e).name()) + ": " + e.what();
    }
    try {
      got = bits(parse_spice_value(t));
    } catch (const std::exception& e) {
      got = std::string(typeid(e).name()) + ": " + e.what();
    }
    EXPECT_EQ(want, got) << "seed " << seed << ": token " << quoted(t);
  }
}

}  // namespace
}  // namespace ivory::spice
