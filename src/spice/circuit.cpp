#include "spice/circuit.hpp"

#include "common/error.hpp"

namespace ivory::spice {

NodeId Circuit::node(const std::string& name) {
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(names_.size());
  names_.push_back(name);
  by_name_.emplace(name, id);
  return id;
}

NodeId Circuit::find_node(const std::string& name) const {
  const auto it = by_name_.find(name);
  require(it != by_name_.end(), "Circuit: unknown node '" + name + "'");
  return it->second;
}

namespace {
void check_terminals(const Circuit& c, NodeId a, NodeId b, const std::string& name) {
  require(a >= 0 && a < c.node_count() && b >= 0 && b < c.node_count(),
          "Circuit: element '" + name + "' references an unknown node");
  require(a != b, "Circuit: element '" + name + "' has both terminals on the same node");
}
}  // namespace

void Circuit::add_resistor(const std::string& name, NodeId a, NodeId b, double ohms) {
  check_terminals(*this, a, b, name);
  require(ohms > 0.0, "Circuit: resistor '" + name + "' must have positive resistance");
  resistors_.push_back({name, a, b, ohms});
}

void Circuit::add_capacitor(const std::string& name, NodeId a, NodeId b, double farads) {
  check_terminals(*this, a, b, name);
  require(farads > 0.0, "Circuit: capacitor '" + name + "' must have positive capacitance");
  capacitors_.push_back({name, a, b, farads, 0.0, false});
}

void Circuit::add_capacitor_ic(const std::string& name, NodeId a, NodeId b, double farads,
                               double v0) {
  add_capacitor(name, a, b, farads);
  capacitors_.back().v0 = v0;
  capacitors_.back().use_ic = true;
}

void Circuit::add_inductor(const std::string& name, NodeId a, NodeId b, double henries) {
  check_terminals(*this, a, b, name);
  require(henries > 0.0, "Circuit: inductor '" + name + "' must have positive inductance");
  inductors_.push_back({name, a, b, henries, 0.0, false});
}

void Circuit::add_inductor_ic(const std::string& name, NodeId a, NodeId b, double henries,
                              double i0) {
  add_inductor(name, a, b, henries);
  inductors_.back().i0 = i0;
  inductors_.back().use_ic = true;
}

void Circuit::add_vsource(const std::string& name, NodeId pos, NodeId neg, Waveform wave) {
  check_terminals(*this, pos, neg, name);
  vsources_.push_back({name, pos, neg, std::move(wave)});
}

void Circuit::add_isource(const std::string& name, NodeId pos, NodeId neg, Waveform wave) {
  check_terminals(*this, pos, neg, name);
  isources_.push_back({name, pos, neg, std::move(wave)});
}

void Circuit::add_switch(const std::string& name, NodeId a, NodeId b, double ron, double roff,
                         const ClockPhase& drive) {
  check_terminals(*this, a, b, name);
  require(ron > 0.0 && roff > ron, "Circuit: switch '" + name + "' needs 0 < ron < roff");
  Switch s;
  s.name = name;
  s.a = a;
  s.b = b;
  s.ron = ron;
  s.roff = roff;
  s.kind = Switch::Kind::Time;
  s.drive = drive;
  switches_.push_back(std::move(s));
}

void Circuit::add_vcswitch(const std::string& name, NodeId a, NodeId b, NodeId cp, NodeId cn,
                           double vth, double vhyst, double ron, double roff) {
  check_terminals(*this, a, b, name);
  require(ron > 0.0 && roff > ron, "Circuit: switch '" + name + "' needs 0 < ron < roff");
  require(vhyst >= 0.0, "Circuit: switch '" + name + "' needs non-negative hysteresis");
  Switch s;
  s.name = name;
  s.a = a;
  s.b = b;
  s.ron = ron;
  s.roff = roff;
  s.kind = Switch::Kind::Voltage;
  s.cp = cp;
  s.cn = cn;
  s.vth = vth;
  s.vhyst = vhyst;
  switches_.push_back(std::move(s));
}

void Circuit::add_gated_switch(const std::string& name, NodeId a, NodeId b, double ron,
                               double roff, const ClockPhase& drive, NodeId cp, NodeId cn,
                               double vth, double vhyst) {
  check_terminals(*this, a, b, name);
  require(ron > 0.0 && roff > ron, "Circuit: switch '" + name + "' needs 0 < ron < roff");
  require(vhyst >= 0.0, "Circuit: switch '" + name + "' needs non-negative hysteresis");
  Switch s;
  s.name = name;
  s.a = a;
  s.b = b;
  s.ron = ron;
  s.roff = roff;
  s.kind = Switch::Kind::TimeVoltage;
  s.drive = drive;
  s.cp = cp;
  s.cn = cn;
  s.vth = vth;
  s.vhyst = vhyst;
  switches_.push_back(std::move(s));
}

int Circuit::mna_size() const {
  return node_count() - 1 + static_cast<int>(vsources_.size()) +
         static_cast<int>(inductors_.size());
}

int Circuit::vsource_current_index(int k) const { return node_count() - 1 + k; }

int Circuit::inductor_current_index(int k) const {
  return node_count() - 1 + static_cast<int>(vsources_.size()) + k;
}

}  // namespace ivory::spice
