// Dense matrix with LU factorization and least-squares solves.
//
// Ivory's linear-algebra needs are modest: MNA systems of a few hundred
// unknowns (real for DC/transient, complex for AC) and small least-squares
// systems for the charge-multiplier solver and polynomial fitting. A dense
// matrix with partial-pivoted LU and Householder QR covers all of them with
// no external dependencies.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"

namespace ivory {

template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  T& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const T& operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Accumulating store: the MNA stamp helpers call this so the same
  /// templated stamping code drives both the dense matrix and the sparse
  /// triplet accumulator.
  void add(std::size_t r, std::size_t c, T v) { data_[r * cols_ + c] += v; }

  /// Matrix-vector product.
  std::vector<T> mul(const std::vector<T>& x) const {
    require(x.size() == cols_, "Matrix::mul: dimension mismatch");
    std::vector<T> y(rows_, T{});
    for (std::size_t r = 0; r < rows_; ++r) {
      T acc{};
      for (std::size_t c = 0; c < cols_; ++c) acc += (*this)(r, c) * x[c];
      y[r] = acc;
    }
    return y;
  }

  Matrix mul(const Matrix& b) const {
    require(b.rows() == cols_, "Matrix::mul: dimension mismatch");
    Matrix y(rows_, b.cols());
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t k = 0; k < cols_; ++k) {
        const T a = (*this)(r, k);
        if (a == T{}) continue;
        for (std::size_t c = 0; c < b.cols(); ++c) y(r, c) += a * b(k, c);
      }
    return y;
  }

  Matrix transposed() const {
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
    return t;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

namespace detail {
inline double abs_val(double x) { return std::fabs(x); }
inline double abs_val(const std::complex<double>& x) { return std::abs(x); }
inline bool is_finite_val(double x) { return std::isfinite(x); }
inline bool is_finite_val(const std::complex<double>& x) {
  return std::isfinite(x.real()) && std::isfinite(x.imag());
}
}  // namespace detail

/// LU factorization with partial pivoting. Factorizes once; solves many
/// right-hand sides (the transient integrator reuses the factorization for
/// every accepted step with an unchanged conductance matrix).
template <typename T>
class LuFactorization {
 public:
  explicit LuFactorization(Matrix<T> a) : lu_(std::move(a)), piv_(lu_.rows()) {
    require(lu_.rows() == lu_.cols(), "LuFactorization: matrix must be square");
    const std::size_t n = lu_.rows();
    for (std::size_t i = 0; i < n; ++i) piv_[i] = i;
    for (std::size_t k = 0; k < n; ++k) {
      // Pivot selection.
      std::size_t p = k;
      double best = detail::abs_val(lu_(k, k));
      for (std::size_t i = k + 1; i < n; ++i) {
        const double v = detail::abs_val(lu_(i, k));
        if (v > best) {
          best = v;
          p = i;
        }
      }
      // Negated comparison so a NaN pivot column (non-finite input matrix)
      // is reported here instead of propagating NaN through the solve.
      if (!(best >= 1e-300))
        throw SingularMatrixError(
            "LuFactorization: singular or non-finite matrix (n=" + std::to_string(n) +
                ", pivot column " + std::to_string(k) + ")",
            n, k);
      if (p != k) {
        for (std::size_t c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(p, c));
        std::swap(piv_[k], piv_[p]);
      }
      const T pivot = lu_(k, k);
      for (std::size_t i = k + 1; i < n; ++i) {
        const T m = lu_(i, k) / pivot;
        lu_(i, k) = m;
        if (m == T{}) continue;
        for (std::size_t c = k + 1; c < n; ++c) lu_(i, c) -= m * lu_(k, c);
      }
    }
    if constexpr (std::is_same_v<T, double>) fixed_ = fixed_solve(n);
  }

  std::vector<T> solve(const std::vector<T>& b) const {
    std::vector<T> x(lu_.rows());
    solve_into(b, x);
    return x;
  }

  /// L (unit, below the diagonal) and U packed; row i of L*U is row pivots()[i].
  const Matrix<T>& factors() const { return lu_; }
  const std::vector<std::size_t>& pivots() const { return piv_; }

  /// Allocation-free solve: writes the solution into `x` (resized on first
  /// use, reused afterwards). `b` and `x` must not alias — the row
  /// permutation is applied while reading `b`. The transient integrator calls
  /// this once per step with hoisted buffers, keeping the inner loop free of
  /// heap traffic. Real systems of n <= kMaxFixedN take solve_fixed<n>.
  void solve_into(const std::vector<T>& b, std::vector<T>& x) const {
    const std::size_t n = lu_.rows();
    require(b.size() == n, "LuFactorization::solve: dimension mismatch");
    require(&b != &x, "LuFactorization::solve_into: b and x must not alias");
    const double injected = fault::inject("lu_solve");
    x.resize(n);
    if (fixed_ != nullptr) {
      fixed_(&lu_(0, 0), piv_.data(), b.data(), injected, x.data());
    } else {
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
    }
    for (std::size_t i = 0; i < n; ++i)
      if (!detail::is_finite_val(x[i]))
        throw NonFiniteError("LuFactorization::solve: non-finite solution component " +
                             std::to_string(i) + " (ill-conditioned or non-finite system)");
  }

 private:
  /// The loop above at a compile-time n = N, unrolled so the solution stays
  /// in registers. Same operations in the same order, so the same bits: a
  /// division, never a reciprocal; no skipped zero of L or U (0*x can be -0,
  /// and -0 - -0 = +0); `injected` added even when +0 (it turns -0 into +0).
  /// The backward loop counts up: GCC ignores the unroll pragma on `ii-- > 0`.
  template <std::size_t N>
  static void solve_fixed(const T* lu, const std::size_t* piv, const T* b, double injected,
                          T* out) {
    T x[N];
#pragma GCC unroll 16
    for (std::size_t i = 0; i < N; ++i) x[i] = b[piv[i]];
    x[0] += T{injected};
#pragma GCC unroll 16
    for (std::size_t i = 1; i < N; ++i)
#pragma GCC unroll 16
      for (std::size_t j = 0; j < i; ++j) x[i] -= lu[i * N + j] * x[j];
#pragma GCC unroll 16
    for (std::size_t k = 1; k <= N; ++k) {
      const std::size_t ii = N - k;
#pragma GCC unroll 16
      for (std::size_t j = ii + 1; j < N; ++j) x[ii] -= lu[ii * N + j] * x[j];
      x[ii] /= lu[ii * N + ii];
    }
#pragma GCC unroll 16
    for (std::size_t i = 0; i < N; ++i) out[i] = x[i];
  }

  /// Largest n that solve_fixed takes (DESIGN.md, "Small-system solve").
  static constexpr std::size_t kMaxFixedN = 16;
  using FixedSolve = void (*)(const T*, const std::size_t*, const T*, double, T*);
  template <std::size_t N = kMaxFixedN>
  static FixedSolve fixed_solve(std::size_t n) {
    if constexpr (N == 0) return nullptr;
    else return n == N ? &solve_fixed<N> : fixed_solve<N - 1>(n);
  }

  Matrix<T> lu_;
  std::vector<std::size_t> piv_;
  FixedSolve fixed_ = nullptr;  ///< solve_fixed<n>, or the loop when null.
};

/// Solves the square system a*x = b via LU.
template <typename T>
std::vector<T> solve_linear(Matrix<T> a, const std::vector<T>& b) {
  return LuFactorization<T>(std::move(a)).solve(b);
}

/// Minimum-residual solution of the (possibly overdetermined) system a*x = b
/// via Householder QR. For rank-deficient systems the caller gets a
/// NumericalError; Ivory's charge-flow systems are full rank for well-posed
/// switched-capacitor topologies.
std::vector<double> solve_least_squares(const Matrix<double>& a, const std::vector<double>& b);

/// Residual 2-norm ||a*x - b||.
double residual_norm(const Matrix<double>& a, const std::vector<double>& x,
                     const std::vector<double>& b);

/// Minimum-norm least-squares solution of a*x = b, tolerant of rank
/// deficiency (ridge-regularized normal equations with iterative
/// refinement). Used by the charge-multiplier solver, where topologies with
/// capacitors in parallel produce structurally rank-deficient charge-flow
/// systems whose physical solution (equal split among equal capacitors) is
/// exactly the minimum-norm one.
std::vector<double> solve_min_norm(const Matrix<double>& a, const std::vector<double>& b);

}  // namespace ivory
