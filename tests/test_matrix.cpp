// Unit tests for the dense matrix, LU, and least-squares solvers.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/matrix.hpp"

namespace ivory {
namespace {

TEST(Matrix, IdentitySolveReturnsRhs) {
  const auto eye = Matrix<double>::identity(4);
  const std::vector<double> b{1.0, -2.0, 3.5, 0.0};
  EXPECT_EQ(solve_linear(eye, b), b);
}

TEST(Matrix, SolvesKnown3x3System) {
  Matrix<double> a(3, 3);
  a(0, 0) = 2;  a(0, 1) = 1;  a(0, 2) = -1;
  a(1, 0) = -3; a(1, 1) = -1; a(1, 2) = 2;
  a(2, 0) = -2; a(2, 1) = 1;  a(2, 2) = 2;
  const std::vector<double> b{8.0, -11.0, -3.0};
  const std::vector<double> x = solve_linear(a, b);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
  EXPECT_NEAR(x[2], -1.0, 1e-12);
}

TEST(Matrix, PivotingHandlesZeroDiagonal) {
  Matrix<double> a(2, 2);
  a(0, 0) = 0.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 0.0;
  const std::vector<double> x = solve_linear(a, {3.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-14);
  EXPECT_NEAR(x[1], 3.0, 1e-14);
}

TEST(Matrix, SingularMatrixThrows) {
  Matrix<double> a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 2.0; a(1, 1) = 4.0;
  EXPECT_THROW(solve_linear(a, {1.0, 2.0}), NumericalError);
}

TEST(Matrix, FactorizationReusableAcrossRhs) {
  Matrix<double> a(2, 2);
  a(0, 0) = 4.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 3.0;
  const LuFactorization<double> lu(a);
  const std::vector<double> x1 = lu.solve({1.0, 2.0});
  const std::vector<double> x2 = lu.solve({0.0, 1.0});
  EXPECT_NEAR(4.0 * x1[0] + x1[1], 1.0, 1e-12);
  EXPECT_NEAR(x1[0] + 3.0 * x1[1], 2.0, 1e-12);
  EXPECT_NEAR(4.0 * x2[0] + x2[1], 0.0, 1e-12);
  EXPECT_NEAR(x2[0] + 3.0 * x2[1], 1.0, 1e-12);
}

TEST(Matrix, ComplexSolve) {
  using C = std::complex<double>;
  Matrix<C> a(2, 2);
  a(0, 0) = C(1, 1); a(0, 1) = C(0, 0);
  a(1, 0) = C(0, 0); a(1, 1) = C(0, 2);
  const std::vector<C> x = solve_linear(a, {C(2, 0), C(4, 0)});
  EXPECT_NEAR(std::abs(x[0] - C(1, -1)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(x[1] - C(0, -2)), 0.0, 1e-12);
}

TEST(Matrix, MulMatchesHandComputation) {
  Matrix<double> a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  const std::vector<double> y = a.mul(std::vector<double>{1.0, 0.0, -1.0});
  EXPECT_NEAR(y[0], -2.0, 1e-15);
  EXPECT_NEAR(y[1], -2.0, 1e-15);
}

TEST(LeastSquares, ExactSystemRecovered) {
  // Overdetermined but consistent: y = 2x + 1 at four points.
  Matrix<double> a(4, 2);
  std::vector<double> b(4);
  const double xs[] = {0.0, 1.0, 2.0, 3.0};
  for (int i = 0; i < 4; ++i) {
    a(static_cast<std::size_t>(i), 0) = 1.0;
    a(static_cast<std::size_t>(i), 1) = xs[i];
    b[static_cast<std::size_t>(i)] = 2.0 * xs[i] + 1.0;
  }
  const std::vector<double> coef = solve_least_squares(a, b);
  EXPECT_NEAR(coef[0], 1.0, 1e-10);
  EXPECT_NEAR(coef[1], 2.0, 1e-10);
  EXPECT_NEAR(residual_norm(a, coef, b), 0.0, 1e-10);
}

TEST(LeastSquares, MinimizesResidualOfInconsistentSystem) {
  // x = argmin ||Ax - b||: for A = [1;1;1], b = (0, 3, 6), x = mean = 3.
  Matrix<double> a(3, 1);
  a(0, 0) = a(1, 0) = a(2, 0) = 1.0;
  const std::vector<double> x = solve_least_squares(a, {0.0, 3.0, 6.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
}

TEST(LeastSquares, RankDeficientThrows) {
  Matrix<double> a(3, 2);
  for (int i = 0; i < 3; ++i) {
    a(static_cast<std::size_t>(i), 0) = 1.0;
    a(static_cast<std::size_t>(i), 1) = 2.0;  // Column 2 = 2 * column 1.
  }
  EXPECT_THROW(solve_least_squares(a, {1.0, 1.0, 1.0}), NumericalError);
}

TEST(Matrix, DimensionMismatchThrows) {
  const auto a = Matrix<double>::identity(2);
  EXPECT_THROW(a.mul(std::vector<double>{1.0}), InvalidParameter);
  EXPECT_THROW(solve_linear(a, {1.0, 2.0, 3.0}), InvalidParameter);
}

// ---------------------------------------------------------------------------
// The fixed-size solve (n <= 16) against the loop solve it unrolls. The
// oracle is the loop solve as it stood before the fixed-size one, verbatim
// but for reading the factors through factors()/pivots() and taking the
// fault probe's value as an argument; every solution must match it byte for
// byte, and every non-finite one must raise its error text.
// ---------------------------------------------------------------------------

std::vector<double> loop_solve(const LuFactorization<double>& f, const std::vector<double>& b,
                               double injected) {
  using T = double;
  const Matrix<T>& lu_ = f.factors();
  const std::vector<std::size_t>& piv_ = f.pivots();
  std::vector<T> x;
  const std::size_t n = lu_.rows();
  x.resize(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[piv_[i]];
  if (n > 0) x[0] += T{injected};
  // Forward substitution (unit lower triangular).
  for (std::size_t i = 1; i < n; ++i) {
    T acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
    x[i] = acc;
  }
  // Back substitution.
  for (std::size_t ii = n; ii-- > 0;) {
    T acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * x[j];
    x[ii] = acc / lu_(ii, ii);
  }
  for (std::size_t i = 0; i < n; ++i)
    if (!detail::is_finite_val(x[i]))
      throw NonFiniteError("LuFactorization::solve: non-finite solution component " +
                           std::to_string(i) + " (ill-conditioned or non-finite system)");
  return x;
}

/// The oracle's error text, or "" when it solves.
std::string loop_error(const LuFactorization<double>& f, const std::vector<double>& b,
                       double injected) {
  try {
    loop_solve(f, b, injected);
  } catch (const NonFiniteError& e) {
    return e.what();
  }
  return "";
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// A nonsingular n x n matrix with ~40% exact zeros (so L and U hold exact
// zeros) and entries of both signs spanning 1e-6..1e6 (so partial pivoting
// swaps rows).
LuFactorization<double> random_factorization(std::size_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (;;) {
    Matrix<double> a(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        if (i == j || u(rng) > 0.4)
          a(i, j) = (u(rng) < 0.5 ? -1.0 : 1.0) * std::pow(10.0, -6.0 + 12.0 * u(rng));
    try {
      return LuFactorization<double>(std::move(a));
    } catch (const SingularMatrixError&) {
    }
  }
}

// Right-hand sides: mixed magnitudes, exact +0 and -0 mixed in, and all -0.
std::vector<std::vector<double>> random_rhs(std::size_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<std::vector<double>> out;
  for (int k = 0; k < 4; ++k) {
    std::vector<double> b(n);
    for (double& v : b) {
      const double r = u(rng);
      const double sign = u(rng) < 0.5 ? -1.0 : 1.0;
      v = r < 0.2 ? 0.0 : r < 0.4 ? -0.0 : sign * std::pow(10.0, -20.0 + 40.0 * u(rng));
    }
    out.push_back(b);
  }
  out.emplace_back(n, -0.0);
  return out;
}

TEST(FixedSolve, MatchesTheLoopSolveByteForByte) {
  for (std::size_t n = 1; n <= 17; ++n) {
    std::mt19937_64 rng(0x5eed0000u + n);
    int swapped = 0, zero_in_l = 0, zero_in_u = 0;
    for (int draw = 0; draw < 60; ++draw) {
      const LuFactorization<double> lu = random_factorization(n, rng);
      const Matrix<double>& f = lu.factors();
      for (std::size_t i = 0; i < n; ++i) {
        swapped += lu.pivots()[i] != i;
        for (std::size_t j = 0; j < n; ++j) {
          if (f(i, j) != 0.0) continue;
          if (j < i) ++zero_in_l;
          else ++zero_in_u;
        }
      }
      std::vector<double> x;
      for (const std::vector<double>& b : random_rhs(n, rng)) {
        const std::string want = loop_error(lu, b, 0.0);
        if (!want.empty()) {
          try {
            lu.solve_into(b, x);
            ADD_FAILURE() << "n=" << n << " draw " << draw << ": expected " << want;
          } catch (const NonFiniteError& e) {
            EXPECT_EQ(std::string(e.what()), want) << "n=" << n << " draw " << draw;
          }
          continue;
        }
        lu.solve_into(b, x);
        EXPECT_TRUE(same_bytes(x, loop_solve(lu, b, 0.0))) << "n=" << n << " draw " << draw;
      }
    }
    if (n >= 2) {
      EXPECT_GT(swapped, 0) << "n=" << n << ": no draw swapped rows";
      EXPECT_GT(zero_in_l, 0) << "n=" << n << ": no draw put an exact zero in L";
    }
    if (n >= 3) {
      EXPECT_GT(zero_in_u, 0) << "n=" << n << ": no draw put an exact zero in U";
    }
  }
}

TEST(FixedSolve, NonFiniteRhsRaisesTheLoopSolvesError) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (std::size_t n = 1; n <= 17; ++n) {
    std::mt19937_64 rng(0xbad00000u + n);
    const LuFactorization<double> lu = random_factorization(n, rng);
    std::vector<double> x;
    for (const double v : bad)
      for (std::size_t at = 0; at < n; ++at) {
        std::vector<double> b(n, 1.0);
        b[at] = v;
        const std::string want = loop_error(lu, b, 0.0);
        ASSERT_FALSE(want.empty()) << "n=" << n;
        try {
          lu.solve_into(b, x);
          ADD_FAILURE() << "n=" << n << " at " << at << ": expected " << want;
        } catch (const NonFiniteError& e) {
          EXPECT_EQ(std::string(e.what()), want) << "n=" << n << " at " << at;
        }
      }
  }
}

TEST(FixedSolve, FaultSiteFiresOnTheKthSolve) {
  for (const std::size_t n : {5u, 17u}) {
    std::mt19937_64 rng(0xfa000000u + n);
    const LuFactorization<double> lu = random_factorization(n, rng);
    const std::vector<double> b(n, 1.0);
    std::vector<double> x;

    fault::arm_on_hit("lu_solve", fault::Action::Throw, 3);
    EXPECT_NO_THROW(lu.solve_into(b, x)) << n;
    EXPECT_NO_THROW(lu.solve_into(b, x)) << n;
    try {
      lu.solve_into(b, x);
      ADD_FAILURE() << "n=" << n << ": the third solve did not throw";
    } catch (const NumericalError& e) {
      EXPECT_NE(std::string(e.what()).find("lu_solve"), std::string::npos) << e.what();
    }
    EXPECT_NO_THROW(lu.solve_into(b, x)) << n;
    EXPECT_EQ(fault::trip_count("lu_solve"), 1u) << n;

    fault::arm_on_hit("lu_solve", fault::Action::EmitNan, 2);
    EXPECT_NO_THROW(lu.solve_into(b, x)) << n;
    const std::string want = loop_error(lu, b, std::numeric_limits<double>::quiet_NaN());
    ASSERT_FALSE(want.empty());
    try {
      lu.solve_into(b, x);
      ADD_FAILURE() << "n=" << n << ": the second solve did not throw";
    } catch (const NonFiniteError& e) {
      EXPECT_EQ(std::string(e.what()), want) << n;
    }
    EXPECT_NO_THROW(lu.solve_into(b, x)) << n;
    EXPECT_EQ(fault::trip_count("lu_solve"), 1u) << n;
    fault::disarm_all();
  }
}

}  // namespace
}  // namespace ivory
