// Circuit netlist for the MNA simulator.
//
// A Circuit is a flat netlist of two-terminal elements over named nodes.
// Node 0 is ground ("0" or "gnd"). Elements are appended through the add_*
// functions; the analyses in dcop/transient/ac consume the netlist read-only.
//
// Supported elements: resistors, capacitors (optional initial voltage),
// inductors (optional initial current), independent voltage/current sources
// with arbitrary waveforms, time-controlled switches (for converter phase
// clocks) and voltage-controlled switches with hysteresis (for feedback
// comparators built at circuit level).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "spice/phase_clock.hpp"
#include "spice/waveform.hpp"

namespace ivory::spice {

using NodeId = int;
inline constexpr NodeId kGround = 0;

struct Resistor {
  std::string name;
  NodeId a, b;
  double ohms;
};

struct Capacitor {
  std::string name;
  NodeId a, b;
  double farads;
  double v0 = 0.0;   ///< Initial voltage (a relative to b) when `use_ic`.
  bool use_ic = false;
};

struct Inductor {
  std::string name;
  NodeId a, b;
  double henries;
  double i0 = 0.0;   ///< Initial current (flowing a -> b) when `use_ic`.
  bool use_ic = false;
};

struct VSource {
  std::string name;
  NodeId pos, neg;
  Waveform wave;
};

/// Positive current flows from `pos` through the source to `neg` (SPICE
/// convention): a load drawing I from node n is `add_isource(n, gnd, I)`.
struct ISource {
  std::string name;
  NodeId pos, neg;
  Waveform wave;
};

struct Switch {
  enum class Kind { Time, Voltage, TimeVoltage };
  std::string name;
  NodeId a, b;
  double ron, roff;
  Kind kind;

  // Time-controlled (Time, TimeVoltage): closed while its clock phase is.
  // The transient engine lands steps exactly on the phase's edges.
  std::optional<ClockPhase> drive;

  // Voltage-controlled: closes when v(cp)-v(cn) > vth + vhyst/2, opens when
  // it falls below vth - vhyst/2 (evaluated from the previous accepted step).
  NodeId cp = kGround, cn = kGround;
  double vth = 0.0, vhyst = 0.0;
};

class Circuit {
 public:
  /// Returns the id for `name`, creating the node on first use. "0" and
  /// "gnd" map to ground.
  NodeId node(std::string_view name);
  /// Number of nodes including ground.
  int node_count() const { return static_cast<int>(names_.size()); }
  const std::string& node_name(NodeId n) const { return names_.at(static_cast<size_t>(n)); }
  /// Throws InvalidParameter if `name` is unknown.
  NodeId find_node(std::string_view name) const;

  void add_resistor(const std::string& name, NodeId a, NodeId b, double ohms);
  void add_capacitor(const std::string& name, NodeId a, NodeId b, double farads);
  void add_capacitor_ic(const std::string& name, NodeId a, NodeId b, double farads, double v0);
  void add_inductor(const std::string& name, NodeId a, NodeId b, double henries);
  void add_inductor_ic(const std::string& name, NodeId a, NodeId b, double henries, double i0);
  void add_vsource(const std::string& name, NodeId pos, NodeId neg, Waveform wave);
  void add_isource(const std::string& name, NodeId pos, NodeId neg, Waveform wave);
  /// Time-controlled switch, closed while `drive` is (see PhaseClock::phase).
  void add_switch(const std::string& name, NodeId a, NodeId b, double ron, double roff,
                  const ClockPhase& drive);
  void add_vcswitch(const std::string& name, NodeId a, NodeId b, NodeId cp, NodeId cn, double vth,
                    double vhyst, double ron, double roff);
  /// Gated switch: conducts when `drive` is closed AND the hysteretic
  /// voltage condition v(cp)-v(cn) < vth holds (note the inverted sense
  /// versus add_vcswitch: this is an *enable-below* gate, the shape feedback
  /// comparators take in hysteretic converters — fire while the output is
  /// under the reference).
  void add_gated_switch(const std::string& name, NodeId a, NodeId b, double ron, double roff,
                        const ClockPhase& drive, NodeId cp, NodeId cn, double vth,
                        double vhyst);

  const std::vector<Resistor>& resistors() const { return resistors_; }
  const std::vector<Capacitor>& capacitors() const { return capacitors_; }
  const std::vector<Inductor>& inductors() const { return inductors_; }
  const std::vector<VSource>& vsources() const { return vsources_; }
  const std::vector<ISource>& isources() const { return isources_; }
  const std::vector<Switch>& switches() const { return switches_; }

  /// MNA system size: (nodes - 1) voltage unknowns + one current unknown per
  /// voltage source and per inductor.
  int mna_size() const;
  /// Index of the current unknown of voltage source / inductor `k`.
  int vsource_current_index(int k) const { return node_count() - 1 + k; }
  int inductor_current_index(int k) const {
    return node_count() - 1 + static_cast<int>(vsources_.size()) + k;
  }

 private:
  // Transparent hashing, so a lookup by string_view builds no std::string.
  struct NameHash : std::hash<std::string_view> { using is_transparent = void; };

  std::vector<std::string> names_{"0"};
  std::unordered_map<std::string, NodeId, NameHash, std::equal_to<>> by_name_{{"0", 0},
                                                                              {"gnd", 0}};

  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<Inductor> inductors_;
  std::vector<VSource> vsources_;
  std::vector<ISource> isources_;
  std::vector<Switch> switches_;
};

}  // namespace ivory::spice
