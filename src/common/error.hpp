// Error handling for Ivory.
//
// Per the C++ Core Guidelines (E.2) we throw exceptions to signal that a
// function cannot perform its task. Every throwing site in Ivory uses one of
// the domain exception types below so callers can distinguish bad user input
// from numerical failure.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ivory {

/// Invalid user-supplied parameters (negative capacitance, Vout > Vin for a
/// step-down converter, empty trace, ...).
class InvalidParameter : public std::invalid_argument {
 public:
  explicit InvalidParameter(const std::string& what) : std::invalid_argument(what) {}
};

/// A numerical routine failed to produce a usable answer (singular matrix,
/// non-convergent transient, ...).
class NumericalError : public std::runtime_error {
 public:
  explicit NumericalError(const std::string& what) : std::runtime_error(what) {}
};

/// A netlist or model is structurally malformed (dangling node, unknown
/// element, phase graph without a path to the output, ...).
class StructuralError : public std::runtime_error {
 public:
  explicit StructuralError(const std::string& what) : std::runtime_error(what) {}
};

/// LU factorization hit a zero (or non-finite) pivot. Carries the matrix
/// dimension and the offending pivot column (in the caller's original index
/// space) so the analysis layer can name the MNA unknown behind it.
class SingularMatrixError : public NumericalError {
 public:
  SingularMatrixError(const std::string& what, std::size_t dim, std::size_t pivot_col)
      : NumericalError(what), dim_(dim), pivot_col_(pivot_col) {}

  std::size_t dim() const { return dim_; }
  std::size_t pivot_col() const { return pivot_col_; }

 private:
  std::size_t dim_;
  std::size_t pivot_col_;
};

/// A NaN or Inf crossed a guarded model boundary. Distinguished from the
/// general NumericalError so sweep reports can separate "solver gave up"
/// from "a model silently produced garbage".
class NonFiniteError : public NumericalError {
 public:
  explicit NonFiniteError(const std::string& what) : NumericalError(what) {}
};

namespace detail {
// The throwing halves of require() and check_finite(), kept out of the
// checks so a passing check inlines to a compare and a branch.
[[noreturn]] void throw_invalid_parameter(std::string_view msg);
[[noreturn]] void throw_non_finite(double v, const char* site);
}  // namespace detail

/// Throws InvalidParameter with `msg` when `cond` is false. The message is
/// taken as a view and copied only on failure, so a passing check costs a
/// branch and never allocates.
inline void require(bool cond, std::string_view msg) {
  if (!cond) [[unlikely]] detail::throw_invalid_parameter(msg);
}

/// Returns `v` unchanged when finite; otherwise throws NonFiniteError naming
/// `site`. Placed at model boundaries so NaN/Inf surfaces as a contextful
/// error instead of silently poisoning downstream rankings.
inline double check_finite(double v, const char* site) {
  if (!std::isfinite(v)) [[unlikely]] detail::throw_non_finite(v, site);
  return v;
}

inline std::complex<double> check_finite(std::complex<double> v, const char* site) {
  if (!std::isfinite(v.real()) || !std::isfinite(v.imag()))
    throw NonFiniteError(std::string(site) + ": non-finite complex value");
  return v;
}

/// Vector overload: names the first offending index.
inline const std::vector<double>& check_finite(const std::vector<double>& v,
                                               const char* site) {
  for (std::size_t i = 0; i < v.size(); ++i)
    if (!std::isfinite(v[i]))
      throw NonFiniteError(std::string(site) + ": non-finite value (" +
                           (std::isnan(v[i]) ? "NaN" : "Inf") + ") at index " +
                           std::to_string(i) + " of " + std::to_string(v.size()));
  return v;
}

/// Boundary-guard macro: annotates the site string with the guarded
/// expression, e.g. IVORY_CHECK_FINITE(a.rout_ohm, "analyze_sc") throws
/// "analyze_sc [a.rout_ohm]: non-finite value (NaN)".
#define IVORY_CHECK_FINITE(expr, site) ::ivory::check_finite((expr), site " [" #expr "]")

}  // namespace ivory
