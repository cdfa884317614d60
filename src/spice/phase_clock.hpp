// Multi-phase switching clocks for converter netlists.
//
// A PhaseClock divides the switching period into `n_phases` slots. Phase k is
// active during [k/n, k/n + duty) of every period. A time-controlled switch is
// driven by one phase of one clock (a ClockPhase), optionally inverted: the
// complement switch of a buck power stage is the inverted phase, and an
// always-on switch is a duty-1 phase. The transient engine reads each drive's
// edges as in-period offsets, so every period repeats the same step sizes.
#pragma once

#include <cmath>

#include "common/error.hpp"

namespace ivory::spice {

struct ClockPhase;

class PhaseClock {
 public:
  /// `duty` is the fraction of the period each phase is active; it must fit
  /// in a slot (duty <= 1/n_phases) so phases never overlap.
  PhaseClock(double freq_hz, int n_phases, double duty)
      : period_(1.0 / freq_hz), n_(n_phases), duty_(duty) {
    require(freq_hz > 0.0, "PhaseClock: frequency must be positive");
    require(n_phases >= 1, "PhaseClock: need at least one phase");
    require(duty > 0.0 && duty <= 1.0 / n_phases + 1e-12,
            "PhaseClock: duty must be in (0, 1/n_phases]");
  }

  double period() const { return period_; }
  double frequency() const { return 1.0 / period_; }
  int phases() const { return n_; }
  double duty() const { return duty_; }

  /// True while phase `k` is active at time t.
  bool active(int k, double t) const {
    double frac = t / period_;
    frac -= std::floor(frac);
    return frac >= on_fraction(k) && frac < off_fraction(k);
  }

  /// Phase `k`'s on and off edges as fractions of the period (the off edge
  /// of the last phase may round to just past 1).
  double on_fraction(int k) const { return static_cast<double>(k) / n_; }
  double off_fraction(int k) const { return on_fraction(k) + duty_; }

  /// The drive of a switch closed while phase `k` is active, or while it is
  /// not when `inverted`.
  ClockPhase phase(int k, bool inverted = false) const;

 private:
  double period_;
  int n_;
  double duty_;
};

struct ClockPhase {
  PhaseClock clock;
  int phase = 0;
  bool inverted = false;

  /// Closed state at time t.
  bool closed(double t) const { return clock.active(phase, t) != inverted; }
};

inline ClockPhase PhaseClock::phase(int k, bool inverted) const {
  require(k >= 0 && k < n_, "PhaseClock: phase out of range");
  return ClockPhase{*this, k, inverted};
}

}  // namespace ivory::spice
