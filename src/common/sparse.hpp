// Sparse and banded MNA factorization kernels.
//
// Stamped MNA matrices for PDN ladders and on-chip power grids are
// overwhelmingly sparse (a handful of nonzeros per row) and, after a
// bandwidth-reducing permutation, near-banded. Dense LU (O(n^3) factor,
// O(n^2) solve) makes a 100x100 on-chip grid (~10k unknowns) intractable;
// the kernels here bring that to interactive speed while staying
// byte-deterministic, allocation-free on the solve path, and behind the same
// `solve_into` interface the transient integrator already uses.
//
// Pieces:
//
//  - SparseStamp: triplet accumulator filled directly by the MNA stamp
//    helpers — no dense intermediate is ever built.
//  - CscMatrix: compressed-sparse-column form with duplicates summed in
//    insertion order (so a dense matrix assembled from it is bit-identical
//    to one stamped directly — the dense kernel reproduces the legacy path
//    byte for byte).
//  - analyze(): one-time structural analysis per sparsity pattern — kernel
//    selection (density/bandwidth heuristic with an explicit override),
//    reverse-Cuthill-McKee ordering for the banded kernel, minimum-degree
//    ordering for the general sparse kernel. The returned Symbolic is
//    immutable and shared (shared_ptr) across every numeric factorization
//    with the same pattern, so a switch-state change refactorizes
//    numerically without re-running symbolic analysis.
//  - BandedLu: LAPACK-style band-storage LU with partial pivoting
//    (dgbtf2/dgbtrs shape). Inner elimination and substitution loops run
//    over contiguous band columns — stride-1, SIMD-amenable.
//  - SparseLu: left-looking Gilbert-Peierls LU with partial pivoting and
//    diagonal preference, over a fill-reducing column order.
//  - MnaFactorization: the kernel-dispatching factorization the transient
//    LU cache stores; `solve_into` matches LuFactorization's contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/matrix.hpp"

namespace ivory::sparse {

enum class Kernel { Auto, Dense, Banded, Sparse };

/// Lower-case kernel name ("auto", "dense", "banded", "sparse").
const char* kernel_name(Kernel k);
/// Inverse of kernel_name; throws InvalidParameter for any other name.
Kernel kernel_from_string(const std::string& name);

/// Triplet (COO) accumulator for MNA stamping. `add` appends; duplicates are
/// summed at compression time in insertion order, matching the accumulation
/// order of stamping straight into a dense matrix.
class SparseStamp {
 public:
  explicit SparseStamp(std::size_t n) : n_(n) {}

  std::size_t n() const { return n_; }
  std::size_t triplet_count() const { return row_.size(); }

  void add(std::size_t r, std::size_t c, double v) {
    row_.push_back(static_cast<std::int32_t>(r));
    col_.push_back(static_cast<std::int32_t>(c));
    val_.push_back(v);
  }

  /// Clears the triplets (capacity retained) for re-stamping.
  void reset() {
    row_.clear();
    col_.clear();
    val_.clear();
  }

  const std::vector<std::int32_t>& rows() const { return row_; }
  const std::vector<std::int32_t>& cols() const { return col_; }
  const std::vector<double>& vals() const { return val_; }

 private:
  std::size_t n_;
  std::vector<std::int32_t> row_, col_;
  std::vector<double> val_;
};

/// Compressed sparse column matrix. Row indices are sorted within each
/// column; duplicate stamps have been summed in insertion order.
struct CscMatrix {
  std::size_t n = 0;
  std::vector<std::int32_t> col_ptr;  ///< n + 1 entries.
  std::vector<std::int32_t> row_ind;  ///< nnz entries.
  std::vector<double> val;            ///< nnz entries.

  std::size_t nnz() const { return row_ind.size(); }

  /// FNV-1a over (n, col_ptr, row_ind): identifies the sparsity pattern, not
  /// the values — the key for sharing Symbolic analyses.
  std::uint64_t pattern_hash() const;
};

/// Compresses `s` into `out`, reusing `out`'s storage.
void compress(const SparseStamp& s, CscMatrix& out);

/// Immutable structural analysis of one sparsity pattern: the selected
/// kernel plus the orderings it needs. Shared across all numeric
/// factorizations with the same pattern (the symbolic/numeric split).
struct Symbolic {
  Kernel kernel = Kernel::Dense;
  std::size_t n = 0;
  std::size_t nnz = 0;
  std::uint64_t pattern_hash = 0;

  /// Banded kernel: symmetric permutation (perm[new] = old) and half
  /// bandwidths of the permuted matrix.
  std::vector<std::int32_t> perm;
  int kl = 0, ku = 0;

  /// Sparse kernel: fill-reducing column order (colperm[k] = original
  /// column eliminated at step k).
  std::vector<std::int32_t> colperm;

  /// RCM bandwidth observed during selection (0 when the dense shortcut
  /// skipped the ordering work).
  int rcm_bandwidth = 0;
};

/// One-time structural analysis. `request` = Kernel::Auto applies the
/// density/bandwidth heuristic; any other value forces that kernel.
///
/// Heuristic: dense for small or dense systems (n <= 48 or density >= 25%,
/// where dense LU's constant factors win and the legacy byte-exact path is
/// preserved); banded when the RCM bandwidth b satisfies b <= max(8, n/8)
/// (covers PDN ladders and regular grids); general sparse otherwise.
std::shared_ptr<const Symbolic> analyze(const CscMatrix& a, Kernel request);

/// Band-storage LU with partial pivoting on the symmetrically permuted
/// matrix A(p,p). Storage is the LAPACK band layout: ldab = 2*kl + ku + 1
/// rows per column, diagonal at row kl + ku, with kl extra superdiagonals
/// absorbing pivoting fill.
class BandedLu {
 public:
  BandedLu(const CscMatrix& a, const std::vector<std::int32_t>& perm, int kl, int ku);

  /// Allocation-free after first use; `b` and `x` must not alias.
  void solve_into(const std::vector<double>& b, std::vector<double>& x) const;

  /// Occupied band-storage entries (the banded analogue of nnz(L+U)).
  std::size_t factor_nnz() const { return static_cast<std::size_t>(ldab_) * n_; }

 private:
  std::size_t n_ = 0;
  int kl_ = 0, ku_ = 0, kv_ = 0, ldab_ = 0;
  std::vector<double> ab_;             ///< Column-major band storage.
  std::vector<std::int32_t> piv_;      ///< Row pivot at each elimination step.
  std::vector<std::int32_t> perm_;     ///< perm[new] = old.
  mutable std::vector<double> pb_;     ///< Permuted-RHS scratch.
};

/// Left-looking Gilbert-Peierls sparse LU with partial pivoting (diagonal
/// preference with a relative threshold, so structurally dominant diagonals
/// keep their pivot and the row permutation stays stable across same-pattern
/// refactorizations).
class SparseLu {
 public:
  SparseLu(const CscMatrix& a, const std::vector<std::int32_t>& colperm);

  void solve_into(const std::vector<double>& b, std::vector<double>& x) const;

  /// nnz(L) + nnz(U) + n diagonal entries: the fill-in the ordering bought.
  std::size_t factor_nnz() const { return li_.size() + ui_.size() + n_; }

 private:
  std::size_t n_ = 0;
  // L (strictly lower, unit diagonal) and U (strictly upper) in CSC over
  // pivotal indices; d_ is the diagonal of U.
  std::vector<std::int32_t> lp_, li_;
  std::vector<double> lx_;
  std::vector<std::int32_t> up_, ui_;
  std::vector<double> ux_;
  std::vector<double> d_;
  std::vector<std::int32_t> pinv_;     ///< original row -> pivotal position.
  std::vector<std::int32_t> q_;        ///< colperm[k] = original column.
  mutable std::vector<double> y_;      ///< Solve scratch.
};

/// Kernel-dispatching factorization: dense LuFactorization, BandedLu, or
/// SparseLu per the shared Symbolic. This is what the transient keyed LU
/// cache stores; `solve_into` has the same contract as LuFactorization's.
class MnaFactorization {
 public:
  MnaFactorization(const CscMatrix& a, std::shared_ptr<const Symbolic> sym);

  void solve_into(const std::vector<double>& b, std::vector<double>& x) const;

  std::vector<double> solve(const std::vector<double>& b) const {
    std::vector<double> x;
    solve_into(b, x);
    return x;
  }

  Kernel kernel() const { return sym_->kernel; }
  const Symbolic& symbolic() const { return *sym_; }
  std::size_t factor_nnz() const;

 private:
  std::shared_ptr<const Symbolic> sym_;
  std::optional<LuFactorization<double>> dense_;
  std::optional<BandedLu> banded_;
  std::optional<SparseLu> sparse_;
};

}  // namespace ivory::sparse
