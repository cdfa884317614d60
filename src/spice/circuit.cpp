#include "spice/circuit.hpp"

#include "common/error.hpp"

namespace ivory::spice {

NodeId Circuit::node(std::string_view name) {
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(names_.size());
  names_.emplace_back(name);
  by_name_.emplace(names_.back(), id);
  return id;
}

NodeId Circuit::find_node(std::string_view name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end())
    throw InvalidParameter("Circuit: unknown node '" + std::string(name) + "'");
  return it->second;
}

namespace {
void check_terminals(const Circuit& c, NodeId a, NodeId b, const std::string& name) {
  if (!(a >= 0 && a < c.node_count() && b >= 0 && b < c.node_count()))
    throw InvalidParameter("Circuit: element '" + name + "' references an unknown node");
  if (a == b)
    throw InvalidParameter("Circuit: element '" + name +
                           "' has both terminals on the same node");
}
}  // namespace

void Circuit::add_resistor(const std::string& name, NodeId a, NodeId b, double ohms) {
  check_terminals(*this, a, b, name);
  if (!(ohms > 0.0))
    throw InvalidParameter("Circuit: resistor '" + name + "' must have positive resistance");
  resistors_.push_back({name, a, b, ohms});
}

void Circuit::add_capacitor(const std::string& name, NodeId a, NodeId b, double farads) {
  check_terminals(*this, a, b, name);
  if (!(farads > 0.0))
    throw InvalidParameter("Circuit: capacitor '" + name + "' must have positive capacitance");
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
  if (!(henries > 0.0))
    throw InvalidParameter("Circuit: inductor '" + name + "' must have positive inductance");
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

namespace {
// A switch's terminal, resistance and hysteresis checks (an ungated switch
// carries vhyst 0).
Switch checked(const Circuit& c, Switch s) {
  check_terminals(c, s.a, s.b, s.name);
  if (!(s.ron > 0.0 && s.roff > s.ron))
    throw InvalidParameter("Circuit: switch '" + s.name + "' needs 0 < ron < roff");
  if (!(s.vhyst >= 0.0))
    throw InvalidParameter("Circuit: switch '" + s.name + "' needs non-negative hysteresis");
  return s;
}
}  // namespace

void Circuit::add_switch(const std::string& name, NodeId a, NodeId b, double ron, double roff,
                         const ClockPhase& drive) {
  switches_.push_back(checked(
      *this, {name, a, b, ron, roff, Switch::Kind::Time, drive, kGround, kGround, 0.0, 0.0}));
}

void Circuit::add_vcswitch(const std::string& name, NodeId a, NodeId b, NodeId cp, NodeId cn,
                           double vth, double vhyst, double ron, double roff) {
  switches_.push_back(checked(
      *this, {name, a, b, ron, roff, Switch::Kind::Voltage, std::nullopt, cp, cn, vth, vhyst}));
}

void Circuit::add_gated_switch(const std::string& name, NodeId a, NodeId b, double ron,
                               double roff, const ClockPhase& drive, NodeId cp, NodeId cn,
                               double vth, double vhyst) {
  switches_.push_back(checked(
      *this, {name, a, b, ron, roff, Switch::Kind::TimeVoltage, drive, cp, cn, vth, vhyst}));
}

int Circuit::mna_size() const {
  return node_count() - 1 + static_cast<int>(vsources_.size()) +
         static_cast<int>(inductors_.size());
}

}  // namespace ivory::spice
