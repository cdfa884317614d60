#include "common/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "common/fault.hpp"
#include "common/hash.hpp"

namespace ivory::sparse {

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::Auto: return "auto";
    case Kernel::Dense: return "dense";
    case Kernel::Banded: return "banded";
    case Kernel::Sparse: return "sparse";
  }
  return "unknown";
}

Kernel kernel_from_string(const std::string& name) {
  for (const Kernel k : {Kernel::Auto, Kernel::Dense, Kernel::Banded, Kernel::Sparse})
    if (name == kernel_name(k)) return k;
  throw InvalidParameter("unknown kernel '" + name + "' (auto|dense|banded|sparse)");
}

// ---------------------------------------------------------------------------
// Compression
// ---------------------------------------------------------------------------

void compress(const SparseStamp& s, CscMatrix& out) {
  const std::size_t n = s.n();
  const std::size_t nt = s.triplet_count();
  out.n = n;
  out.col_ptr.assign(n + 1, 0);

  // Counting sort by column, preserving triplet order within each column so
  // duplicate stamps later sum in insertion order (bit-identical to
  // accumulating into a dense matrix directly).
  std::vector<std::int32_t> count(n, 0);
  for (std::size_t t = 0; t < nt; ++t) ++count[static_cast<std::size_t>(s.cols()[t])];
  std::vector<std::size_t> start(n + 1, 0);
  for (std::size_t c = 0; c < n; ++c) start[c + 1] = start[c] + static_cast<std::size_t>(count[c]);
  std::vector<std::int32_t> rtmp(nt);
  std::vector<double> vtmp(nt);
  {
    std::vector<std::size_t> next(start.begin(), start.end() - 1);
    for (std::size_t t = 0; t < nt; ++t) {
      const std::size_t slot = next[static_cast<std::size_t>(s.cols()[t])]++;
      rtmp[slot] = s.rows()[t];
      vtmp[slot] = s.vals()[t];
    }
  }

  out.row_ind.clear();
  out.val.clear();
  out.row_ind.reserve(nt);
  out.val.reserve(nt);
  std::vector<std::size_t> order;
  for (std::size_t c = 0; c < n; ++c) {
    const std::size_t b = start[c], e = start[c + 1];
    order.resize(e - b);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = b + i;
    // Stable by row: equal rows keep insertion order for the merge below.
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) { return rtmp[x] < rtmp[y]; });
    for (std::size_t i = 0; i < order.size();) {
      const std::int32_t r = rtmp[order[i]];
      double sum = vtmp[order[i]];
      for (++i; i < order.size() && rtmp[order[i]] == r; ++i) sum += vtmp[order[i]];
      out.row_ind.push_back(r);
      out.val.push_back(sum);
    }
    out.col_ptr[c + 1] = static_cast<std::int32_t>(out.row_ind.size());
  }
}

std::uint64_t CscMatrix::pattern_hash() const {
  const std::uint64_t n64 = n;
  std::uint64_t h = fnv1a64({reinterpret_cast<const char*>(&n64), sizeof n64});
  h = fnv1a64({reinterpret_cast<const char*>(col_ptr.data()),
               col_ptr.size() * sizeof(std::int32_t)},
              h);
  h = fnv1a64({reinterpret_cast<const char*>(row_ind.data()),
               row_ind.size() * sizeof(std::int32_t)},
              h);
  return h;
}

// ---------------------------------------------------------------------------
// Orderings
// ---------------------------------------------------------------------------

namespace {

// Sorted adjacency of the symmetric pattern of A + A^T, diagonal dropped.
std::vector<std::vector<std::int32_t>> symmetric_adjacency(const CscMatrix& a) {
  const std::size_t n = a.n;
  std::vector<std::vector<std::int32_t>> adj(n);
  for (std::size_t c = 0; c < n; ++c)
    for (std::int32_t k = a.col_ptr[c]; k < a.col_ptr[c + 1]; ++k) {
      const std::int32_t r = a.row_ind[static_cast<std::size_t>(k)];
      if (static_cast<std::size_t>(r) == c) continue;
      adj[static_cast<std::size_t>(r)].push_back(static_cast<std::int32_t>(c));
      adj[c].push_back(r);
    }
  for (auto& nb : adj) {
    std::sort(nb.begin(), nb.end());
    nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
  }
  return adj;
}

// Breadth-first levels from `root` over unvisited nodes; returns the nodes
// reached in BFS order and the index of a farthest node among them.
std::vector<std::int32_t> bfs_component(const std::vector<std::vector<std::int32_t>>& adj,
                                        std::int32_t root, std::vector<char>& seen,
                                        std::int32_t* farthest) {
  std::vector<std::int32_t> order{root};
  seen[static_cast<std::size_t>(root)] = 1;
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const std::int32_t nb : adj[static_cast<std::size_t>(order[head])])
      if (!seen[static_cast<std::size_t>(nb)]) {
        seen[static_cast<std::size_t>(nb)] = 1;
        order.push_back(nb);
      }
  }
  *farthest = order.back();
  return order;
}

// Reverse Cuthill-McKee over the symmetric pattern: per connected component,
// start from a pseudo-peripheral node (double BFS), append neighbours in
// (degree, id) order, reverse at the end. Deterministic. perm[new] = old.
std::vector<std::int32_t> rcm_order(const std::vector<std::vector<std::int32_t>>& adj) {
  const std::size_t n = adj.size();
  std::vector<std::int32_t> perm;
  perm.reserve(n);
  std::vector<char> seen(n, 0);
  const auto degree_less = [&](std::int32_t x, std::int32_t y) {
    const std::size_t dx = adj[static_cast<std::size_t>(x)].size();
    const std::size_t dy = adj[static_cast<std::size_t>(y)].size();
    return dx != dy ? dx < dy : x < y;
  };
  for (std::size_t s = 0; s < n; ++s) {
    if (seen[s]) continue;
    // Pseudo-peripheral start: BFS twice from the component's first node.
    std::vector<char> tmp(n, 0);
    std::int32_t far1 = 0, far2 = 0;
    bfs_component(adj, static_cast<std::int32_t>(s), tmp, &far1);
    std::fill(tmp.begin(), tmp.end(), 0);
    bfs_component(adj, far1, tmp, &far2);
    const std::int32_t root = far2;

    // Cuthill-McKee: BFS with neighbours appended in (degree, id) order.
    const std::size_t comp_begin = perm.size();
    perm.push_back(root);
    seen[static_cast<std::size_t>(root)] = 1;
    std::vector<std::int32_t> nbr;
    for (std::size_t head = comp_begin; head < perm.size(); ++head) {
      nbr.clear();
      for (const std::int32_t nb : adj[static_cast<std::size_t>(perm[head])])
        if (!seen[static_cast<std::size_t>(nb)]) {
          seen[static_cast<std::size_t>(nb)] = 1;
          nbr.push_back(nb);
        }
      std::sort(nbr.begin(), nbr.end(), degree_less);
      perm.insert(perm.end(), nbr.begin(), nbr.end());
    }
    std::reverse(perm.begin() + static_cast<std::ptrdiff_t>(comp_begin), perm.end());
  }
  return perm;
}

// Half bandwidth of A under the symmetric permutation perm (perm[new]=old).
int bandwidth_under(const CscMatrix& a, const std::vector<std::int32_t>& perm) {
  std::vector<std::int32_t> inv(a.n);
  for (std::size_t i = 0; i < a.n; ++i) inv[static_cast<std::size_t>(perm[i])] =
      static_cast<std::int32_t>(i);
  int bw = 0;
  for (std::size_t c = 0; c < a.n; ++c)
    for (std::int32_t k = a.col_ptr[c]; k < a.col_ptr[c + 1]; ++k) {
      const int d = std::abs(inv[static_cast<std::size_t>(
                        a.row_ind[static_cast<std::size_t>(k)])] -
                    inv[c]);
      bw = std::max(bw, d);
    }
  return bw;
}

// Greedy minimum-degree ordering on the symmetric fill graph (sorted-vector
// clique merge). Deterministic: ties break toward the lower node id. Bails
// out (empty result) if fill-graph storage exceeds `storage_cap` — the
// caller falls back to the RCM order, whose fill is bounded by the band
// profile.
std::vector<std::int32_t> min_degree_order(std::vector<std::vector<std::int32_t>> adj,
                                           std::size_t storage_cap) {
  const std::size_t n = adj.size();
  std::vector<std::int32_t> order;
  order.reserve(n);
  std::vector<char> dead(n, 0);
  // Degree buckets: bucket[d] holds candidate nodes of (possibly stale)
  // degree d; nodes are re-checked against their live degree when popped.
  std::size_t storage = 0;
  for (const auto& nb : adj) storage += nb.size();
  std::vector<std::vector<std::int32_t>> bucket(n + 1);
  for (std::size_t v = 0; v < n; ++v)
    bucket[adj[v].size()].push_back(static_cast<std::int32_t>(v));
  std::vector<std::int32_t> merged, tmp;
  std::size_t d = 0;
  while (order.size() < n) {
    while (d <= n && bucket[d].empty()) ++d;
    if (d > n) break;  // Defensive; every live node sits in some bucket.
    // Lowest id among this bucket's live, degree-accurate entries.
    std::int32_t v = -1;
    auto& bk = bucket[d];
    for (std::size_t i = 0; i < bk.size(); ++i) {
      const std::int32_t u = bk[i];
      if (!dead[static_cast<std::size_t>(u)] &&
          adj[static_cast<std::size_t>(u)].size() == d && (v < 0 || u < v))
        v = u;
    }
    if (v < 0) {
      bk.clear();  // All entries stale or dead; d stays (lazy re-check).
      d = 0;
      continue;
    }
    dead[static_cast<std::size_t>(v)] = 1;
    order.push_back(v);
    // Merge v's neighbourhood into a clique.
    const std::vector<std::int32_t> nv = std::move(adj[static_cast<std::size_t>(v)]);
    adj[static_cast<std::size_t>(v)] = {};
    for (const std::int32_t u : nv) {
      if (dead[static_cast<std::size_t>(u)]) continue;
      auto& au = adj[static_cast<std::size_t>(u)];
      storage -= au.size();
      merged.clear();
      // au ∪ nv, minus u, v, and dead nodes.
      tmp.clear();
      std::set_union(au.begin(), au.end(), nv.begin(), nv.end(), std::back_inserter(tmp));
      for (const std::int32_t w : tmp)
        if (w != u && w != v && !dead[static_cast<std::size_t>(w)]) merged.push_back(w);
      au = merged;
      storage += au.size();
      bucket[au.size()].push_back(u);
      if (au.size() < d) d = au.size();
    }
    if (storage > storage_cap) return {};
    d = 0;
  }
  return order;
}

}  // namespace

// ---------------------------------------------------------------------------
// Structural analysis / kernel selection
// ---------------------------------------------------------------------------

std::shared_ptr<const Symbolic> analyze(const CscMatrix& a, Kernel request) {
  require(a.n > 0, "sparse::analyze: empty system");
  auto sym = std::make_shared<Symbolic>();
  sym->n = a.n;
  sym->nnz = a.nnz();
  sym->pattern_hash = a.pattern_hash();

  const double density =
      static_cast<double>(a.nnz()) / (static_cast<double>(a.n) * static_cast<double>(a.n));
  Kernel k = request;
  if (k == Kernel::Auto && (a.n <= 48 || density >= 0.25)) {
    // Small or genuinely dense systems: dense LU's constant factors win, and
    // the legacy byte-exact dense path is preserved for the converter-scale
    // circuits every existing test and bench pins down.
    k = Kernel::Dense;
  }
  if (k == Kernel::Dense) {
    sym->kernel = Kernel::Dense;
    return sym;
  }

  const auto adj = symmetric_adjacency(a);
  const std::vector<std::int32_t> rcm = rcm_order(adj);
  const int bw = bandwidth_under(a, rcm);
  sym->rcm_bandwidth = bw;

  if (k == Kernel::Auto)
    k = bw <= std::max<int>(8, static_cast<int>(a.n / 8)) ? Kernel::Banded : Kernel::Sparse;

  sym->kernel = k;
  if (k == Kernel::Banded) {
    sym->perm = rcm;
    sym->kl = sym->ku = bw;
  } else {
    // Fill-reducing column order; RCM fallback when the fill-graph merge
    // exceeds its storage budget (profile fill is then the bound anyway).
    std::vector<std::int32_t> md = min_degree_order(adj, 64 * (a.nnz() + a.n));
    sym->colperm = md.empty() ? rcm : std::move(md);
  }
  return sym;
}

// ---------------------------------------------------------------------------
// Banded LU (dgbtf2 / dgbtrs shape)
// ---------------------------------------------------------------------------

BandedLu::BandedLu(const CscMatrix& a, const std::vector<std::int32_t>& perm, int kl, int ku)
    : n_(a.n),
      kl_(kl),
      ku_(ku),
      kv_(kl + ku),
      ldab_(2 * kl + ku + 1),
      ab_(static_cast<std::size_t>(2 * kl + ku + 1) * a.n, 0.0),
      piv_(a.n),
      perm_(perm) {
  require(perm.size() == n_, "BandedLu: permutation size mismatch");
  std::vector<std::int32_t> inv(n_);
  for (std::size_t i = 0; i < n_; ++i) inv[static_cast<std::size_t>(perm_[i])] =
      static_cast<std::int32_t>(i);
  // Scatter A(p,p) into band storage: entry (i,j) at ab(kv + i - j, j).
  for (std::size_t c = 0; c < n_; ++c) {
    const std::int32_t j = inv[c];
    for (std::int32_t k = a.col_ptr[c]; k < a.col_ptr[c + 1]; ++k) {
      const std::int32_t i = inv[static_cast<std::size_t>(a.row_ind[static_cast<std::size_t>(k)])];
      require(i - j <= kl_ && j - i <= ku_, "BandedLu: entry outside declared band");
      ab_[static_cast<std::size_t>(j) * ldab_ + static_cast<std::size_t>(kv_ + i - j)] +=
          a.val[static_cast<std::size_t>(k)];
    }
  }

  const std::int32_t n = static_cast<std::int32_t>(n_);
  for (std::int32_t j = 0; j < n; ++j) {
    double* colj = &ab_[static_cast<std::size_t>(j) * ldab_];
    const std::int32_t km = std::min<std::int32_t>(kl_, n - 1 - j);
    // Partial pivot within the column's subdiagonal window.
    std::int32_t p = 0;
    double best = std::fabs(colj[kv_]);
    for (std::int32_t i = 1; i <= km; ++i) {
      const double v = std::fabs(colj[kv_ + i]);
      if (v > best) {
        best = v;
        p = i;
      }
    }
    // Negated comparison: a NaN pivot column is reported here, not solved
    // through. The offending column is reported in original indices.
    if (!(best >= 1e-300))
      throw SingularMatrixError(
          "BandedLu: singular or non-finite matrix (n=" + std::to_string(n_) +
              ", pivot column " + std::to_string(perm_[static_cast<std::size_t>(j)]) + ")",
          n_, static_cast<std::size_t>(perm_[static_cast<std::size_t>(j)]));
    piv_[static_cast<std::size_t>(j)] = j + p;
    const std::int32_t ju = std::min<std::int32_t>(j + kv_, n - 1);
    if (p != 0) {
      for (std::int32_t jj = j; jj <= ju; ++jj) {
        double* cj = &ab_[static_cast<std::size_t>(jj) * ldab_];
        std::swap(cj[kv_ + j - jj], cj[kv_ + j + p - jj]);
      }
    }
    const double pivot = colj[kv_];
    for (std::int32_t i = 1; i <= km; ++i) colj[kv_ + i] /= pivot;
    for (std::int32_t jj = j + 1; jj <= ju; ++jj) {
      double* cj = &ab_[static_cast<std::size_t>(jj) * ldab_];
      const double f = cj[kv_ + j - jj];
      if (f == 0.0) continue;
      double* dst = &cj[kv_ + j - jj];  // dst[i] = entry (j + i, jj).
      // Stride-1 AXPY over the column slice: SIMD-amenable.
      for (std::int32_t i = 1; i <= km; ++i) dst[i] -= colj[kv_ + i] * f;
    }
  }
}

void BandedLu::solve_into(const std::vector<double>& b, std::vector<double>& x) const {
  require(b.size() == n_, "BandedLu::solve_into: dimension mismatch");
  require(&b != &x, "BandedLu::solve_into: b and x must not alias");
  const double injected = fault::inject("lu_solve");
  pb_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) pb_[i] = b[static_cast<std::size_t>(perm_[i])];
  if (n_ > 0) pb_[0] += injected;

  const std::int32_t n = static_cast<std::int32_t>(n_);
  // Forward: apply row interchanges and the unit-lower multipliers.
  for (std::int32_t j = 0; j < n; ++j) {
    const std::int32_t pj = piv_[static_cast<std::size_t>(j)];
    if (pj != j) std::swap(pb_[static_cast<std::size_t>(j)], pb_[static_cast<std::size_t>(pj)]);
    const double* colj = &ab_[static_cast<std::size_t>(j) * ldab_];
    const std::int32_t km = std::min<std::int32_t>(kl_, n - 1 - j);
    const double yj = pb_[static_cast<std::size_t>(j)];
    if (yj == 0.0) continue;
    double* y = &pb_[static_cast<std::size_t>(j)];
    for (std::int32_t i = 1; i <= km; ++i) y[i] -= colj[kv_ + i] * yj;
  }
  // Backward over U (bandwidth kv_).
  for (std::int32_t j = n - 1; j >= 0; --j) {
    const double* colj = &ab_[static_cast<std::size_t>(j) * ldab_];
    const double xj = pb_[static_cast<std::size_t>(j)] / colj[kv_];
    pb_[static_cast<std::size_t>(j)] = xj;
    if (xj == 0.0) continue;
    const std::int32_t lm = std::min<std::int32_t>(kv_, j);
    double* y = &pb_[static_cast<std::size_t>(j)];
    for (std::int32_t i = 1; i <= lm; ++i) y[-i] -= colj[kv_ - i] * xj;
  }

  x.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) x[static_cast<std::size_t>(perm_[i])] = pb_[i];
  for (std::size_t i = 0; i < n_; ++i)
    if (!std::isfinite(x[i]))
      throw NonFiniteError("BandedLu::solve: non-finite solution component " +
                           std::to_string(i) + " (ill-conditioned or non-finite system)");
}

// ---------------------------------------------------------------------------
// Gilbert-Peierls sparse LU
// ---------------------------------------------------------------------------

SparseLu::SparseLu(const CscMatrix& a, const std::vector<std::int32_t>& colperm)
    : n_(a.n), pinv_(a.n, -1), q_(colperm) {
  require(q_.size() == n_, "SparseLu: column order size mismatch");
  const std::int32_t n = static_cast<std::int32_t>(n_);

  // Columns of L and U built incrementally with ORIGINAL row indices for L
  // (remapped to pivotal indices once factorization completes).
  std::vector<std::vector<std::int32_t>> lcols_i(n_), ucols_i(n_);
  std::vector<std::vector<double>> lcols_x(n_), ucols_x(n_);
  d_.assign(n_, 0.0);

  std::vector<double> x(n_, 0.0);
  std::vector<std::int32_t> mark(n_, -1);
  std::vector<std::int32_t> reach;       // Topological post-order (reversed).
  std::vector<std::int32_t> stack, edge; // Iterative DFS state.
  reach.reserve(64);

  for (std::int32_t k = 0; k < n; ++k) {
    const std::int32_t col = q_[static_cast<std::size_t>(k)];
    reach.clear();
    // DFS over the L-column DAG from the nonzero rows of A(:, col); nodes
    // are original row indices, pivotal nodes expand to their L column.
    for (std::int32_t t = a.col_ptr[static_cast<std::size_t>(col)];
         t < a.col_ptr[static_cast<std::size_t>(col) + 1]; ++t) {
      const std::int32_t r0 = a.row_ind[static_cast<std::size_t>(t)];
      if (mark[static_cast<std::size_t>(r0)] == k) continue;
      stack.assign(1, r0);
      edge.assign(1, 0);
      mark[static_cast<std::size_t>(r0)] = k;
      while (!stack.empty()) {
        const std::int32_t r = stack.back();
        const std::int32_t pr = pinv_[static_cast<std::size_t>(r)];
        const auto& children = pr >= 0 ? lcols_i[static_cast<std::size_t>(pr)] : lcols_i[0];
        const std::int32_t nchild = pr >= 0 ? static_cast<std::int32_t>(children.size()) : 0;
        bool descended = false;
        while (edge.back() < nchild) {
          const std::int32_t c = children[static_cast<std::size_t>(edge.back()++)];
          if (mark[static_cast<std::size_t>(c)] != k) {
            mark[static_cast<std::size_t>(c)] = k;
            stack.push_back(c);
            edge.push_back(0);
            descended = true;
            break;
          }
        }
        if (!descended && !stack.empty() && stack.back() == r && edge.back() >= nchild) {
          reach.push_back(r);
          stack.pop_back();
          edge.pop_back();
        }
      }
    }
    // reach is in post-order: reversed it is topological (parents first).
    for (auto it = reach.begin(); it != reach.end(); ++it) x[static_cast<std::size_t>(*it)] = 0.0;
    for (std::int32_t t = a.col_ptr[static_cast<std::size_t>(col)];
         t < a.col_ptr[static_cast<std::size_t>(col) + 1]; ++t)
      x[static_cast<std::size_t>(a.row_ind[static_cast<std::size_t>(t)])] =
          a.val[static_cast<std::size_t>(t)];
    for (auto it = reach.rbegin(); it != reach.rend(); ++it) {
      const std::int32_t r = *it;
      const std::int32_t pr = pinv_[static_cast<std::size_t>(r)];
      if (pr < 0) continue;
      const double xr = x[static_cast<std::size_t>(r)];
      if (xr == 0.0) continue;
      const auto& li = lcols_i[static_cast<std::size_t>(pr)];
      const auto& lx = lcols_x[static_cast<std::size_t>(pr)];
      for (std::size_t e = 0; e < li.size(); ++e)
        x[static_cast<std::size_t>(li[e])] -= lx[e] * xr;
    }

    // Pivot: max |x| over non-pivotal rows, with diagonal preference — if the
    // structural diagonal is within 1e-3 of the best it keeps the pivot, so
    // same-pattern refactorizations see a stable row permutation.
    std::int32_t prow = -1;
    double best = 0.0;
    for (auto it = reach.rbegin(); it != reach.rend(); ++it) {
      const std::int32_t r = *it;
      if (pinv_[static_cast<std::size_t>(r)] >= 0) continue;
      const double v = std::fabs(x[static_cast<std::size_t>(r)]);
      if (v > best) {
        best = v;
        prow = r;
      }
    }
    if (mark[static_cast<std::size_t>(col)] == k && pinv_[static_cast<std::size_t>(col)] < 0 &&
        std::fabs(x[static_cast<std::size_t>(col)]) >= 1e-3 * best)
      prow = col;
    if (prow < 0 || !(std::fabs(x[static_cast<std::size_t>(prow)]) >= 1e-300))
      throw SingularMatrixError(
          "SparseLu: singular or non-finite matrix (n=" + std::to_string(n_) +
              ", pivot column " + std::to_string(col) + ")",
          n_, static_cast<std::size_t>(col));

    pinv_[static_cast<std::size_t>(prow)] = k;
    const double pivot = x[static_cast<std::size_t>(prow)];
    d_[static_cast<std::size_t>(k)] = pivot;
    auto& ui = ucols_i[static_cast<std::size_t>(k)];
    auto& ux = ucols_x[static_cast<std::size_t>(k)];
    auto& li = lcols_i[static_cast<std::size_t>(k)];
    auto& lx = lcols_x[static_cast<std::size_t>(k)];
    for (auto it = reach.rbegin(); it != reach.rend(); ++it) {
      const std::int32_t r = *it;
      if (r == prow) continue;
      const std::int32_t pr = pinv_[static_cast<std::size_t>(r)];
      if (pr >= 0 && pr != k) {
        ui.push_back(pr);
        ux.push_back(x[static_cast<std::size_t>(r)]);
      } else if (pr < 0) {
        li.push_back(r);
        lx.push_back(x[static_cast<std::size_t>(r)] / pivot);
      }
    }
  }

  // Flatten to CSC, remapping L's row indices to pivotal positions.
  lp_.assign(n_ + 1, 0);
  up_.assign(n_ + 1, 0);
  std::size_t lnnz = 0, unnz = 0;
  for (std::size_t k = 0; k < n_; ++k) {
    lnnz += lcols_i[k].size();
    unnz += ucols_i[k].size();
  }
  li_.reserve(lnnz);
  lx_.reserve(lnnz);
  ui_.reserve(unnz);
  ux_.reserve(unnz);
  for (std::size_t k = 0; k < n_; ++k) {
    for (std::size_t e = 0; e < lcols_i[k].size(); ++e) {
      li_.push_back(pinv_[static_cast<std::size_t>(lcols_i[k][e])]);
      lx_.push_back(lcols_x[k][e]);
    }
    lp_[k + 1] = static_cast<std::int32_t>(li_.size());
    ui_.insert(ui_.end(), ucols_i[k].begin(), ucols_i[k].end());
    ux_.insert(ux_.end(), ucols_x[k].begin(), ucols_x[k].end());
    up_[k + 1] = static_cast<std::int32_t>(ui_.size());
  }
}

void SparseLu::solve_into(const std::vector<double>& b, std::vector<double>& x) const {
  require(b.size() == n_, "SparseLu::solve_into: dimension mismatch");
  require(&b != &x, "SparseLu::solve_into: b and x must not alias");
  const double injected = fault::inject("lu_solve");
  y_.resize(n_);
  for (std::size_t r = 0; r < n_; ++r) y_[static_cast<std::size_t>(pinv_[r])] = b[r];
  if (n_ > 0) y_[0] += injected;

  const std::int32_t n = static_cast<std::int32_t>(n_);
  for (std::int32_t k = 0; k < n; ++k) {
    const double yk = y_[static_cast<std::size_t>(k)];
    if (yk == 0.0) continue;
    for (std::int32_t e = lp_[static_cast<std::size_t>(k)];
         e < lp_[static_cast<std::size_t>(k) + 1]; ++e)
      y_[static_cast<std::size_t>(li_[static_cast<std::size_t>(e)])] -=
          lx_[static_cast<std::size_t>(e)] * yk;
  }
  for (std::int32_t k = n - 1; k >= 0; --k) {
    const double xk = y_[static_cast<std::size_t>(k)] / d_[static_cast<std::size_t>(k)];
    y_[static_cast<std::size_t>(k)] = xk;
    if (xk == 0.0) continue;
    for (std::int32_t e = up_[static_cast<std::size_t>(k)];
         e < up_[static_cast<std::size_t>(k) + 1]; ++e)
      y_[static_cast<std::size_t>(ui_[static_cast<std::size_t>(e)])] -=
          ux_[static_cast<std::size_t>(e)] * xk;
  }

  x.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) x[static_cast<std::size_t>(q_[k])] = y_[k];
  for (std::size_t i = 0; i < n_; ++i)
    if (!std::isfinite(x[i]))
      throw NonFiniteError("SparseLu::solve: non-finite solution component " +
                           std::to_string(i) + " (ill-conditioned or non-finite system)");
}

// ---------------------------------------------------------------------------
// Kernel dispatch
// ---------------------------------------------------------------------------

MnaFactorization::MnaFactorization(const CscMatrix& a, std::shared_ptr<const Symbolic> sym)
    : sym_(std::move(sym)) {
  require(sym_ != nullptr, "MnaFactorization: null symbolic");
  require(sym_->n == a.n, "MnaFactorization: symbolic/matrix size mismatch");
  switch (sym_->kernel) {
    case Kernel::Auto:
      throw InvalidParameter("MnaFactorization: symbolic carries unresolved Auto kernel");
    case Kernel::Dense: {
      // CSC holds each entry once, summed in insertion order — assembling the
      // dense matrix from it is bit-identical to stamping it directly.
      Matrix<double> m(a.n, a.n);
      for (std::size_t c = 0; c < a.n; ++c)
        for (std::int32_t k = a.col_ptr[c]; k < a.col_ptr[c + 1]; ++k)
          m(static_cast<std::size_t>(a.row_ind[static_cast<std::size_t>(k)]), c) =
              a.val[static_cast<std::size_t>(k)];
      dense_.emplace(std::move(m));
      break;
    }
    case Kernel::Banded:
      banded_.emplace(a, sym_->perm, sym_->kl, sym_->ku);
      break;
    case Kernel::Sparse:
      sparse_.emplace(a, sym_->colperm);
      break;
  }
}

void MnaFactorization::solve_into(const std::vector<double>& b, std::vector<double>& x) const {
  if (dense_) dense_->solve_into(b, x);
  else if (banded_) banded_->solve_into(b, x);
  else sparse_->solve_into(b, x);
}

std::size_t MnaFactorization::factor_nnz() const {
  if (dense_) return sym_->n * sym_->n;
  if (banded_) return banded_->factor_nnz();
  return sparse_->factor_nnz();
}

}  // namespace ivory::sparse
