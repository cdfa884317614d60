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
  std::vector<char> tmp(n, 0);
  for (std::size_t s = 0; s < n; ++s) {
    if (seen[s]) continue;
    // Pseudo-peripheral start: BFS twice from the component's first node
    // (clearing only what each BFS marked, so many components stay linear).
    std::int32_t far1 = 0, far2 = 0;
    for (const std::int32_t v : bfs_component(adj, static_cast<std::int32_t>(s), tmp, &far1))
      tmp[static_cast<std::size_t>(v)] = 0;
    for (const std::int32_t v : bfs_component(adj, far1, tmp, &far2))
      tmp[static_cast<std::size_t>(v)] = 0;
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

// ---------------------------------------------------------------------------
// Nested dissection and the multifrontal front tree
// ---------------------------------------------------------------------------

using Graph = std::vector<std::vector<std::int32_t>>;

inline std::size_t ix(std::int32_t i) { return static_cast<std::size_t>(i); }

// A region at or below this many unknowns becomes one leaf front. Dense
// leaves store more than their sparse fill; on the 64 x 64 grid, leaves of 8
// store 173,682 factor entries against 300,968 for leaves of 32, and factor
// and solve ~40% faster.
constexpr std::int64_t kLeafUnknowns = 8;

// Largest separator the multifrontal path accepts, in unknowns. A 2-D
// grid's BFS separators stay near sqrt(n) (an anti-diagonal of the N x N
// mesh); irregular netlists (random trees with chords and hubs) have
// separators proportional to n, where dense fronts cost O(n^3) and minimum
// degree keeps the factor far smaller.
std::int64_t max_separator(std::size_t n) {
  return std::max<std::int64_t>(
      64, static_cast<std::int64_t>(3.0 * std::sqrt(static_cast<double>(n))));
}

// Zero-diagonal unknowns (voltage-source and DC inductor branch currents,
// nodes held only by sources and capacitors) cannot pivot on their own
// diagonal, and a front pivots only over its fully-summed rows. So each is
// paired with a neighbour — a terminal with a diagonal first, else another
// zero-diagonal unknown — into one supervariable, which the dissection never
// splits: the pair is eliminated inside one front, where the off-diagonal
// pivot is a fully-summed row. Returns the group representative per unknown,
// or nothing when some zero-diagonal unknown finds every neighbour already
// paired: a group of three could hold two rows reaching only one column
// inside its front, and the pattern stays off the multifrontal path.
std::vector<std::int32_t> pivot_groups(const CscMatrix& a, const Graph& adj) {
  const std::size_t n = a.n;
  std::vector<char> zero_diag(n, 1);
  for (std::size_t c = 0; c < n; ++c)
    for (std::int32_t k = a.col_ptr[c]; k < a.col_ptr[c + 1]; ++k)
      if (ix(a.row_ind[ix(k)]) == c) zero_diag[c] = 0;
  std::vector<std::int32_t> group(n);
  for (std::size_t v = 0; v < n; ++v) group[v] = static_cast<std::int32_t>(v);
  std::vector<char> taken(n, 0);
  const auto first_free = [&](std::size_t z, bool need_diag) {
    for (const std::int32_t u : adj[z])
      if (!taken[ix(u)] && !(need_diag && zero_diag[ix(u)])) return u;
    return std::int32_t{-1};
  };
  for (std::size_t z = 0; z < n; ++z) {
    if (!zero_diag[z] || taken[z]) continue;
    std::int32_t partner = first_free(z, true);
    if (partner < 0) partner = first_free(z, false);
    if (partner < 0 && !adj[z].empty()) return {};
    taken[z] = 1;
    if (partner >= 0) {
      taken[ix(partner)] = 1;
      group[z] = partner;
    }
  }
  return group;
}

// Recursive BFS level-set bisection of a weighted graph (the supervariable
// graph). A connected region above the leaf size is split at a BFS level
// from a pseudo-peripheral node: the level where the weight passes half,
// thinned to the vertices with a neighbour beyond it. Both sides are
// dissected before their separator is emitted, so tree nodes come out in
// postorder.
class Dissection {
 public:
  Dissection(const Graph& adj, const std::vector<std::int32_t>& weight,
             std::int64_t max_sep)
      : adj_(adj), weight_(weight), region_(adj.size(), 0), max_sep_(max_sep) {}

  /// Dissects the whole graph; false when a separator exceeded the bound.
  bool run() {
    std::vector<std::int32_t> all(adj_.size());
    for (std::size_t v = 0; v < all.size(); ++v) all[v] = static_cast<std::int32_t>(v);
    std::vector<std::int32_t> roots;
    dissect(std::move(all), 0, roots);
    return ok_;
  }

  /// Tree node t holds vertices node_v[node_ptr[t] .. node_ptr[t+1]).
  std::vector<std::size_t> node_ptr{0};
  std::vector<std::int32_t> node_v;
  std::vector<std::int32_t> parent;  ///< -1 for roots.

 private:
  std::int32_t emit(const std::vector<std::int32_t>& verts) {
    node_v.insert(node_v.end(), verts.begin(), verts.end());
    node_ptr.push_back(node_v.size());
    parent.push_back(-1);
    return static_cast<std::int32_t>(parent.size() - 1);
  }

  void relabel(const std::vector<std::int32_t>& verts, std::int32_t rid) {
    for (const std::int32_t v : verts) region_[ix(v)] = rid;
  }

  // BFS over region `rid` from `root`: order_ in BFS order, level l at
  // order_[lvl_[l] .. lvl_[l+1]).
  void bfs(std::int32_t root, std::int32_t rid) {
    order_.assign(1, root);
    lvl_.assign(1, 0);
    const std::int32_t mark = --stamp_;
    region_[ix(root)] = mark;
    for (std::size_t head = 0; head < order_.size();) {
      const std::size_t end = order_.size();
      for (; head < end; ++head)
        for (const std::int32_t u : adj_[ix(order_[head])])
          if (region_[ix(u)] == rid) {
            region_[ix(u)] = mark;
            order_.push_back(u);
          }
      lvl_.push_back(end);
    }
    relabel(order_, rid);
  }

  void dissect(std::vector<std::int32_t> verts, std::int32_t rid,
               std::vector<std::int32_t>& roots) {
    if (!ok_) return;
    std::int64_t total = 0;
    for (const std::int32_t v : verts) total += weight_[ix(v)];
    if (total <= kLeafUnknowns) {
      roots.push_back(emit(verts));
      return;
    }
    bfs(verts.front(), rid);
    if (order_.size() < verts.size()) {
      // Disconnected: each component is dissected on its own.
      std::vector<std::pair<std::vector<std::int32_t>, std::int32_t>> comps;
      for (const std::int32_t v : verts) {
        if (region_[ix(v)] != rid) continue;
        bfs(v, rid);
        comps.emplace_back(order_, --stamp_);
        relabel(comps.back().first, comps.back().second);
      }
      for (auto& [comp, id] : comps) dissect(std::move(comp), id, roots);
      return;
    }
    bfs(order_.back(), rid);  // From the farthest vertex: a pseudo-peripheral root.
    const std::size_t nlev = lvl_.size() - 1;
    if (nlev <= 2) {  // No level separates anything: one dense front.
      roots.push_back(emit(verts));
      return;
    }
    // Separator level: where the cumulative weight passes half, kept off the
    // first and last level so both sides are non-empty.
    std::size_t sep = 0;
    for (std::int64_t cum = 0; sep < nlev; ++sep) {
      for (std::size_t i = lvl_[sep]; i < lvl_[sep + 1]; ++i) cum += weight_[ix(order_[i])];
      if (2 * cum >= total) break;
    }
    sep = std::clamp<std::size_t>(sep, 1, nlev - 2);
    const std::int32_t beyond = --stamp_;
    for (std::size_t i = lvl_[sep + 1]; i < order_.size(); ++i) region_[ix(order_[i])] = beyond;
    std::vector<std::int32_t> lo(order_.begin(), order_.begin() + lvl_[sep]);
    std::vector<std::int32_t> hi(order_.begin() + lvl_[sep + 1], order_.end());
    std::vector<std::int32_t> separator;
    std::int64_t sep_weight = 0;
    for (std::size_t i = lvl_[sep]; i < lvl_[sep + 1]; ++i) {
      const std::int32_t v = order_[i];
      const auto& nb = adj_[ix(v)];
      if (std::none_of(nb.begin(), nb.end(),
                       [&](std::int32_t u) { return region_[ix(u)] == beyond; })) {
        lo.push_back(v);  // Thinning: no neighbour beyond, so it separates nothing.
        continue;
      }
      separator.push_back(v);
      sep_weight += weight_[ix(v)];
    }
    if (sep_weight > max_sep_) {
      ok_ = false;
      return;
    }
    relabel(separator, 1);  // Placed: no region id is positive.
    const std::int32_t lo_id = --stamp_, hi_id = --stamp_;
    relabel(lo, lo_id);
    relabel(hi, hi_id);
    std::vector<std::int32_t> kids;
    dissect(std::move(lo), lo_id, kids);
    dissect(std::move(hi), hi_id, kids);
    if (!ok_) return;
    const std::int32_t node = emit(separator);
    for (const std::int32_t k : kids) parent[ix(k)] = node;
    roots.push_back(node);
  }

  const Graph& adj_;
  const std::vector<std::int32_t>& weight_;
  std::vector<std::int32_t> region_;  ///< Region id per vertex (ids count down from 0).
  std::vector<std::int32_t> order_;
  std::vector<std::size_t> lvl_;
  std::int32_t stamp_ = 0;
  std::int64_t max_sep_;
  bool ok_ = true;
};

// Nested-dissection front tree of A's symmetric pattern, or an empty tree
// when some separator is larger than `max_sep` unknowns (the pattern is not
// grid-like) or a zero-diagonal unknown finds no pivot partner; the caller
// then keeps its other kernels.
Symbolic::FrontTree front_tree(const CscMatrix& a, const Graph& adj, std::int64_t max_sep) {
  const std::size_t n = a.n;
  // Supervariable graph over the pivot groups.
  const std::vector<std::int32_t> group = pivot_groups(a, adj);
  if (group.empty()) return {};
  std::vector<std::int32_t> sv_of(n, -1), weight;
  Graph members;
  for (std::size_t v = 0; v < n; ++v) {
    std::int32_t& g = sv_of[ix(group[v])];
    if (g < 0) {
      g = static_cast<std::int32_t>(members.size());
      members.emplace_back();
      weight.push_back(0);
    }
    sv_of[v] = g;
    members[ix(g)].push_back(static_cast<std::int32_t>(v));
    ++weight[ix(g)];
  }
  Graph sadj(members.size());
  for (std::size_t s = 0; s < members.size(); ++s) {
    for (const std::int32_t v : members[s])
      for (const std::int32_t u : adj[ix(v)])
        if (ix(sv_of[ix(u)]) != s) sadj[s].push_back(sv_of[ix(u)]);
    std::sort(sadj[s].begin(), sadj[s].end());
    sadj[s].erase(std::unique(sadj[s].begin(), sadj[s].end()), sadj[s].end());
  }
  Dissection nd(sadj, weight, max_sep);
  if (!nd.run()) return {};

  // Fronts are the dissection's tree nodes, each eliminating its
  // supervariables' unknowns contiguously.
  Symbolic::FrontTree ft;
  const std::size_t nf = nd.parent.size();
  ft.var_ptr.assign(1, 0);
  for (std::size_t f = 0; f < nf; ++f) {
    for (std::size_t i = nd.node_ptr[f]; i < nd.node_ptr[f + 1]; ++i)
      for (const std::int32_t v : members[ix(nd.node_v[i])]) ft.vars.push_back(v);
    ft.var_ptr.push_back(ft.vars.size());
  }
  std::vector<std::size_t> step(n);
  std::vector<std::int32_t> front_of(n);
  for (std::size_t f = 0; f < nf; ++f)
    for (std::size_t i = ft.var_ptr[f]; i < ft.var_ptr[f + 1]; ++i) {
      step[ix(ft.vars[i])] = i;
      front_of[ix(ft.vars[i])] = static_cast<std::int32_t>(f);
    }

  // Boundary of front f: the A-neighbours of its pivots and its children's
  // boundaries, whichever are eliminated after f, in elimination order.
  Graph kids(nf);
  for (std::size_t f = 0; f < nf; ++f)
    if (nd.parent[f] >= 0) kids[ix(nd.parent[f])].push_back(static_cast<std::int32_t>(f));
  ft.nchild.resize(nf);
  ft.bnd_ptr.assign(1, 0);
  std::vector<std::size_t> mark(n, nf);
  std::vector<std::int32_t> bnd;
  for (std::size_t f = 0; f < nf; ++f) {
    ft.nchild[f] = static_cast<std::int32_t>(kids[f].size());
    bnd.clear();
    const auto add = [&](std::int32_t u) {
      if (step[ix(u)] >= ft.var_ptr[f + 1] && mark[ix(u)] != f) {
        mark[ix(u)] = f;
        bnd.push_back(u);
      }
    };
    for (std::size_t i = ft.var_ptr[f]; i < ft.var_ptr[f + 1]; ++i)
      for (const std::int32_t u : adj[ix(ft.vars[i])]) add(u);
    for (const std::int32_t c : kids[f])
      for (std::size_t i = ft.bnd_ptr[ix(c)]; i < ft.bnd_ptr[ix(c) + 1]; ++i) add(ft.bnd[i]);
    std::sort(bnd.begin(), bnd.end(),
              [&](std::int32_t x, std::int32_t y) { return step[ix(x)] < step[ix(y)]; });
    ft.bnd.insert(ft.bnd.end(), bnd.begin(), bnd.end());
    ft.bnd_ptr.push_back(ft.bnd.size());
  }

  // Front-local positions: pivots first, then the boundary. A child's
  // boundary lies inside its parent's front (a dissection subtree touches
  // only its ancestors' separators), so extend-add is a scatter.
  std::vector<std::int32_t> local(n, -1);
  const auto place = [&](std::size_t f) {
    std::int32_t pos = 0;
    for (std::size_t i = ft.var_ptr[f]; i < ft.var_ptr[f + 1]; ++i) local[ix(ft.vars[i])] = pos++;
    for (std::size_t i = ft.bnd_ptr[f]; i < ft.bnd_ptr[f + 1]; ++i) local[ix(ft.bnd[i])] = pos++;
    return static_cast<std::size_t>(pos);
  };
  ft.bnd_in_parent.assign(ft.bnd.size(), -1);
  ft.lu_off.assign(1, 0);
  std::vector<std::size_t> cb_size(nf);
  std::size_t stack = 0;
  for (std::size_t f = 0; f < nf; ++f) {
    const std::size_t m = place(f);
    const std::size_t k = ft.var_ptr[f + 1] - ft.var_ptr[f], b = m - k;
    for (const std::int32_t c : kids[f]) {
      for (std::size_t i = ft.bnd_ptr[ix(c)]; i < ft.bnd_ptr[ix(c) + 1]; ++i)
        ft.bnd_in_parent[i] = local[ix(ft.bnd[i])];
      stack -= cb_size[ix(c)];
    }
    cb_size[f] = b * b;
    stack += cb_size[f];
    ft.max_stack = std::max(ft.max_stack, stack);
    ft.max_front = std::max(ft.max_front, m);
    ft.lu_off.push_back(ft.lu_off.back() + m * k + k * b);
  }
  // Front offsets are int32 (asm_dst): a front this large is not grid-like.
  if (ft.max_front > 46340) return {};

  // Assembly map: entry (r, c) belongs to the front that eliminates the
  // earlier of r and c; the other is a pivot or boundary of that front.
  std::vector<std::int32_t> owner(a.nnz());
  ft.asm_ptr.assign(nf + 1, 0);
  for (std::size_t c = 0; c < n; ++c)
    for (std::int32_t p = a.col_ptr[c]; p < a.col_ptr[c + 1]; ++p) {
      const std::size_t r = ix(a.row_ind[ix(p)]);
      owner[ix(p)] = front_of[step[r] < step[c] ? r : c];
      ++ft.asm_ptr[ix(owner[ix(p)]) + 1];
    }
  for (std::size_t f = 0; f < nf; ++f) ft.asm_ptr[f + 1] += ft.asm_ptr[f];
  ft.asm_src.resize(a.nnz());
  ft.asm_dst.resize(a.nnz());
  std::vector<std::size_t> next(ft.asm_ptr.begin(), ft.asm_ptr.end() - 1);
  std::vector<std::int32_t> col_of(a.nnz());
  for (std::size_t c = 0; c < n; ++c)
    for (std::int32_t p = a.col_ptr[c]; p < a.col_ptr[c + 1]; ++p) {
      ft.asm_src[next[ix(owner[ix(p)])]++] = p;
      col_of[ix(p)] = static_cast<std::int32_t>(c);
    }
  for (std::size_t f = 0; f < nf; ++f) {
    const auto m = static_cast<std::int32_t>(place(f));
    for (std::size_t e = ft.asm_ptr[f]; e < ft.asm_ptr[f + 1]; ++e) {
      const std::size_t p = ix(ft.asm_src[e]);
      ft.asm_dst[e] = local[ix(a.row_ind[p])] + local[ix(col_of[p])] * m;
    }
  }
  return ft;
}

}  // namespace

// ---------------------------------------------------------------------------
// Structural analysis / kernel selection
// ---------------------------------------------------------------------------

std::shared_ptr<const Symbolic> analyze(const CscMatrix& a, Kernel request) {
  require(a.n > 0, "sparse::analyze: empty system");
  if (request == Kernel::Dense && a.n > kMaxDenseUnknowns)
    throw InvalidParameter("kernel: 'dense' refuses n=" + std::to_string(a.n) +
                           " unknowns; its matrix alone would take " +
                           std::to_string(a.n * a.n * sizeof(double)) + " bytes (limit n=" +
                           std::to_string(kMaxDenseUnknowns) +
                           "); use 'auto', 'banded' or 'sparse'");
  auto sym = std::make_shared<Symbolic>();
  sym->n = a.n;
  sym->nnz = a.nnz();
  sym->pattern_hash = a.pattern_hash();

  const double density =
      static_cast<double>(a.nnz()) / (static_cast<double>(a.n) * static_cast<double>(a.n));
  Kernel k = request;
  if (k == Kernel::Auto && (a.n <= 48 || (density >= 0.25 && a.n <= kMaxDenseUnknowns))) {
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

  // Nested dissection is tried only on narrow bands (grids, ladders), the
  // patterns `auto` would otherwise band; wide ones (irregular netlists)
  // keep minimum degree. RCM numbers BFS levels consecutively, so its
  // bandwidth is under twice the widest level: above twice the separator
  // bound some level is wider than the bound, and dissection is not tried.
  const bool narrow = bw <= std::max<int>(8, static_cast<int>(a.n / 8));
  Symbolic::FrontTree fronts;
  const std::int64_t max_sep = max_separator(a.n);
  if (k != Kernel::Banded && narrow && bw <= 2 * max_sep) fronts = front_tree(a, adj, max_sep);
  if (k == Kernel::Auto) {
    // Banded for narrow bands unless the front tree stores at most a third
    // of the band's entries (ldab = 3 bw + 1 per column): 24 x 24 grids and
    // up cross over, 16 x 16 grids (0.40) and ladders stay banded.
    const std::size_t band = a.n * (3 * static_cast<std::size_t>(bw) + 1);
    k = narrow && !(fronts.size() > 0 && 3 * fronts.factor_nnz() <= band) ? Kernel::Banded
                                                                          : Kernel::Sparse;
  }

  sym->kernel = k;
  if (k == Kernel::Banded) {
    sym->perm = rcm;
    sym->kl = sym->ku = bw;
  } else if (fronts.size() > 0) {
    sym->fronts = std::move(fronts);
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
// Multifrontal LU over the nested-dissection front tree
// ---------------------------------------------------------------------------

MultifrontalLu::MultifrontalLu(const CscMatrix& a, const Symbolic& sym)
    : lu_(sym.fronts.factor_nnz()), prow_(a.n) {
  const Symbolic::FrontTree& ft = sym.fronts;
  require(ft.vars.size() == a.n, "MultifrontalLu: front tree size mismatch");
  std::vector<double> front(ft.max_front * ft.max_front);
  std::vector<double> stack(ft.max_stack);
  // Schur complements awaiting their parent front: a child's block sits on
  // the stack until the parent assembles, so a front's children are the
  // top nchild entries, in child order.
  std::vector<std::size_t> cb_front, cb_off;
  std::size_t top = 0;
  for (std::size_t f = 0; f < ft.size(); ++f) {
    const std::int32_t* vars = ft.vars.data() + ft.var_ptr[f];
    const std::size_t k = ft.var_ptr[f + 1] - ft.var_ptr[f];
    const std::size_t b = ft.bnd_ptr[f + 1] - ft.bnd_ptr[f];
    const std::size_t m = k + b;
    double* F = front.data();  // Column-major m x m frontal matrix.
    std::fill(F, F + m * m, 0.0);
    for (std::size_t e = ft.asm_ptr[f]; e < ft.asm_ptr[f + 1]; ++e)
      F[ft.asm_dst[e]] += a.val[ix(ft.asm_src[e])];
    const std::size_t first = cb_front.size() - ix(ft.nchild[f]);
    for (std::size_t i = first; i < cb_front.size(); ++i) {  // Extend-add.
      const std::size_t c = cb_front[i];
      const std::size_t bc = ft.bnd_ptr[c + 1] - ft.bnd_ptr[c];
      const std::int32_t* rel = ft.bnd_in_parent.data() + ft.bnd_ptr[c];
      const double* cb = stack.data() + cb_off[i];
      for (std::size_t jj = 0; jj < bc; ++jj) {
        double* dst = F + ix(rel[jj]) * m;
        for (std::size_t ii = 0; ii < bc; ++ii) dst[rel[ii]] += cb[jj * bc + ii];
      }
    }
    if (first < cb_front.size()) top = cb_off[first];
    cb_front.resize(first);
    cb_off.resize(first);

    // Partial LU of the first k columns. Rows swap only among the k
    // fully-summed rows, so the boundary keeps its order for the parent.
    std::int32_t* pr = prow_.data() + ft.var_ptr[f];
    for (std::size_t i = 0; i < k; ++i) pr[i] = static_cast<std::int32_t>(i);
    for (std::size_t j = 0; j < k; ++j) {
      double* colj = F + j * m;
      std::size_t p = k;
      double best = 0.0;
      for (std::size_t i = j; i < k; ++i)
        if (std::fabs(colj[i]) > best) {
          best = std::fabs(colj[i]);
          p = i;
        }
      // Diagonal preference, as in SparseLu: the unknown's own equation
      // keeps the pivot within 1e-3 of the best.
      std::size_t d = j;
      while (d < k && ix(pr[d]) != j) ++d;
      if (d < k && std::fabs(colj[d]) >= 1e-3 * best) p = d;
      // Negated comparison: a NaN column is reported, not solved through.
      if (p == k || !(std::fabs(colj[p]) >= 1e-300))
        throw SingularMatrixError(
            "MultifrontalLu: singular or non-finite matrix (n=" + std::to_string(a.n) +
                ", pivot column " + std::to_string(vars[j]) + ")",
            a.n, ix(vars[j]));
      if (p != j) {
        for (std::size_t c = 0; c < m; ++c) std::swap(F[c * m + j], F[c * m + p]);
        std::swap(pr[j], pr[p]);
      }
      const double pivot = colj[j];
      for (std::size_t i = j + 1; i < m; ++i) colj[i] /= pivot;
      for (std::size_t c = j + 1; c < m; ++c) {
        double* cc = F + c * m;
        const double g = cc[j];
        if (g == 0.0) continue;
        // Stride-1 AXPY over the column: SIMD-amenable.
        for (std::size_t i = j + 1; i < m; ++i) cc[i] -= colj[i] * g;
      }
    }

    // Keep L11\U11 over L21 and U12; push the Schur complement.
    double* out = lu_.data() + ft.lu_off[f];
    std::memcpy(out, F, m * k * sizeof(double));
    for (std::size_t c = 0; c < b; ++c) {
      std::memcpy(out + m * k + c * k, F + (k + c) * m, k * sizeof(double));
      std::memcpy(stack.data() + top + c * b, F + (k + c) * m + k, b * sizeof(double));
    }
    cb_front.push_back(f);
    cb_off.push_back(top);
    top += b * b;
  }
}

void MultifrontalLu::solve_into(const Symbolic& sym, const std::vector<double>& b,
                                std::vector<double>& x) const {
  const Symbolic::FrontTree& ft = sym.fronts;
  const std::size_t n = prow_.size();
  require(b.size() == n, "MultifrontalLu::solve_into: dimension mismatch");
  require(&b != &x, "MultifrontalLu::solve_into: b and x must not alias");
  const double injected = fault::inject("lu_solve");
  w_.assign(b.begin(), b.end());
  if (n > 0) w_[0] += injected;
  y_.resize(ft.max_front);
  t_.resize(ft.max_front);
  double* y = y_.data();
  double* t = t_.data();

  // Forward, children first: each front's permuted pivot rows through
  // unit-lower L11, then L21 updates its boundary rows.
  for (std::size_t f = 0; f < ft.size(); ++f) {
    const std::int32_t* vars = ft.vars.data() + ft.var_ptr[f];
    const std::int32_t* bnd = ft.bnd.data() + ft.bnd_ptr[f];
    const std::int32_t* pr = prow_.data() + ft.var_ptr[f];
    const std::size_t k = ft.var_ptr[f + 1] - ft.var_ptr[f];
    const std::size_t nb = ft.bnd_ptr[f + 1] - ft.bnd_ptr[f];
    const std::size_t m = k + nb;
    const double* L = lu_.data() + ft.lu_off[f];
    for (std::size_t i = 0; i < k; ++i) y[i] = w_[ix(vars[ix(pr[i])])];
    std::fill(t, t + nb, 0.0);
    for (std::size_t j = 0; j < k; ++j) {
      const double yj = y[j];
      if (yj == 0.0) continue;
      const double* col = L + j * m;
      for (std::size_t i = j + 1; i < k; ++i) y[i] -= col[i] * yj;
      for (std::size_t r = 0; r < nb; ++r) t[r] += col[k + r] * yj;
    }
    for (std::size_t i = 0; i < k; ++i) w_[ix(vars[i])] = y[i];
    for (std::size_t r = 0; r < nb; ++r) w_[ix(bnd[r])] -= t[r];
  }
  // Backward, parents first: U12 against the solved boundary, then U11.
  for (std::size_t f = ft.size(); f-- > 0;) {
    const std::int32_t* vars = ft.vars.data() + ft.var_ptr[f];
    const std::int32_t* bnd = ft.bnd.data() + ft.bnd_ptr[f];
    const std::size_t k = ft.var_ptr[f + 1] - ft.var_ptr[f];
    const std::size_t nb = ft.bnd_ptr[f + 1] - ft.bnd_ptr[f];
    const std::size_t m = k + nb;
    const double* U = lu_.data() + ft.lu_off[f];
    for (std::size_t i = 0; i < k; ++i) y[i] = w_[ix(vars[i])];
    for (std::size_t c = 0; c < nb; ++c) {
      const double xc = w_[ix(bnd[c])];
      if (xc == 0.0) continue;
      const double* col = U + m * k + c * k;
      for (std::size_t i = 0; i < k; ++i) y[i] -= col[i] * xc;
    }
    for (std::size_t j = k; j-- > 0;) {
      const double* col = U + j * m;
      const double xj = y[j] / col[j];
      y[j] = xj;
      if (xj == 0.0) continue;
      for (std::size_t i = 0; i < j; ++i) y[i] -= col[i] * xj;
    }
    for (std::size_t i = 0; i < k; ++i) w_[ix(vars[i])] = y[i];
  }

  x.assign(w_.begin(), w_.end());
  for (std::size_t i = 0; i < n; ++i)
    if (!std::isfinite(x[i]))
      throw NonFiniteError("MultifrontalLu::solve: non-finite solution component " +
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
      if (sym_->multifrontal())
        multifrontal_.emplace(a, *sym_);
      else
        sparse_.emplace(a, sym_->colperm);
      break;
  }
}

void MnaFactorization::solve_into(const std::vector<double>& b, std::vector<double>& x) const {
  if (dense_) dense_->solve_into(b, x);
  else if (banded_) banded_->solve_into(b, x);
  else if (multifrontal_) multifrontal_->solve_into(*sym_, b, x);
  else sparse_->solve_into(b, x);
}

std::size_t MnaFactorization::factor_nnz() const {
  if (dense_) return sym_->n * sym_->n;
  if (banded_) return banded_->factor_nnz();
  if (multifrontal_) return multifrontal_->factor_nnz();
  return sparse_->factor_nnz();
}

}  // namespace ivory::sparse
