#include "spice/parser.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "spice/phase_clock.hpp"

namespace ivory::spice {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char ch) { return static_cast<char>(std::tolower(ch)); });
  return s;
}

[[noreturn]] void fail(int line, const std::string& msg) {
  throw StructuralError("netlist line " + std::to_string(line) + ": " + msg);
}

// Splits a line into tokens, treating '(' ')' ',' '=' as separators that are
// themselves dropped (so "PULSE(0 1 0 ...)" and "IC=1.2" tokenize cleanly —
// IC becomes the token "ic" followed by its value).
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

// Wraps parse_spice_value so a bad token surfaces as a StructuralError that
// names the line, the role of the value, and the offending token itself —
// "netlist line 7: bad resistance token '1x5': ...".
double value_at(const std::vector<std::string>& tok, std::size_t i, int line, const char* what) {
  if (i >= tok.size()) fail(line, std::string("missing ") + what + " token (line has only " +
                                      std::to_string(tok.size()) + " tokens)");
  try {
    return parse_spice_value(tok[i]);
  } catch (const std::exception& e) {
    fail(line, std::string("bad ") + what + " token '" + tok[i] + "': " + e.what());
  }
}

}  // namespace

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

namespace {

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

}  // namespace

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
        // S<name> n+ n- ron roff CLOCK(fsw nphases duty [phase])
        // Time-controlled switch driven by a multi-phase clock: closed while
        // its phase slot is active. The transient engine lands steps on the
        // phase's edges (and the keyed LU cache sees recurring steps).
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

}  // namespace ivory::spice
