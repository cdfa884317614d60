// Minimal SPICE-netlist text parser.
//
// Supports the element cards Ivory's tests and examples use:
//
//   R<name> n+ n- value
//   C<name> n+ n- value [IC=v0]
//   L<name> n+ n- value [IC=i0]
//   V<name> n+ n- DC value | PULSE(v1 v2 td tr tf pw per) |
//                 SIN(off amp freq [td [phase]]) | PWL(t1 v1 t2 v2 ...)
//   I<name> n+ n- (same source forms)
//   S<name> n+ n- ron roff CLOCK(fsw nphases duty [phase])
//
// '*' comment lines, blank lines, and a trailing '.end' are accepted. Values
// take SPICE suffixes (f p n u m k meg g t). Parsing is case-insensitive.
#pragma once

#include <string_view>

#include "spice/circuit.hpp"

namespace ivory::spice {

/// Parses `text` into a Circuit; throws StructuralError with a line number on
/// malformed input.
Circuit parse_netlist(std::string_view text);

/// Parses a single SPICE value literal like "4.7k" or "100meg": a number as
/// std::stod reads it (so "+5" and "0x10" too, while subnormals, overflow
/// and a missing number are refused) and then an optional suffix.
double parse_spice_value(std::string_view token);

}  // namespace ivory::spice
