#pragma once
// Immutable simple undirected graph in CSR form. Vertices are dense ids
// 0..n-1; adjacency lists are sorted ascending, enabling O(log d) edge
// queries and linear-time sorted-intersection (the workhorse of clique
// enumeration and of the two-hop exchange in Lemma 35). A graph is plain
// data with no lazy state: every query is a pure read of the CSR arrays.

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "support/simd.hpp"

namespace dcl {

using vertex = std::int32_t;

/// Undirected edge with u < v canonical order.
struct edge {
  vertex u;
  vertex v;

  friend bool operator==(const edge&, const edge&) = default;
  friend auto operator<=>(const edge&, const edge&) = default;
};

/// Canonicalizes an unordered endpoint pair.
constexpr edge make_edge(vertex a, vertex b) {
  return a < b ? edge{a, b} : edge{b, a};
}

using edge_list = std::vector<edge>;

/// Non-owning CSR adjacency view: n vertices, offsets of size n+1, flat
/// ascending adjacency. The enumeration kernel orients over views, so a
/// full `graph` (which also owns a canonical edge list) never has to be
/// materialized for a scratch subproblem like a cluster's learned edges.
struct csr_view {
  vertex n = 0;
  std::span<const std::int64_t> offsets;
  std::span<const vertex> adj;

  std::int32_t degree(vertex v) const {
    return std::int32_t(offsets[size_t(v) + 1] - offsets[size_t(v)]);
  }

  std::span<const vertex> neighbors(vertex v) const {
    return {adj.data() + offsets[size_t(v)],
            adj.data() + offsets[size_t(v) + 1]};
  }

  /// Directed-arc id of (u -> v): the position of v in the flat adjacency,
  /// i.e. offsets[u] + index of v within the sorted row. -1 when (u, v) is
  /// not an edge. O(log deg(u)).
  std::int64_t arc_id(vertex u, vertex v) const {
    const auto nb = neighbors(u);
    const auto it = std::lower_bound(nb.begin(), nb.end(), v);
    if (it == nb.end() || *it != v) return -1;
    return offsets[size_t(u)] + (it - nb.begin());
  }
};

class graph {
 public:
  graph() = default;

  /// Builds from an edge list over vertices [0, n). Self-loops and duplicate
  /// edges are rejected (DCL_EXPECTS) — the CONGEST model assumes a simple
  /// graph and silent dedup would skew message accounting.
  graph(vertex n, const edge_list& edges);

  /// Convenience: builds after canonicalizing/deduplicating the input.
  static graph from_unsorted(vertex n, edge_list edges);

  vertex num_vertices() const { return n_; }
  std::int64_t num_edges() const { return std::int64_t(edges_.size()); }

  std::int32_t degree(vertex v) const {
    return std::int32_t(offsets_[size_t(v) + 1] - offsets_[size_t(v)]);
  }

  std::span<const vertex> neighbors(vertex v) const {
    return {adj_.data() + offsets_[size_t(v)],
            adj_.data() + offsets_[size_t(v) + 1]};
  }

  bool has_edge(vertex u, vertex v) const { return arc_id(u, v) >= 0; }

  /// Total number of directed arcs (2|E|). Arc ids index the flat CSR
  /// adjacency: arc a points from its row's vertex to adj()[a].
  std::int64_t num_arcs() const { return std::int64_t(adj_.size()); }

  /// Directed-arc id of (u -> v), as csr_view::arc_id, or -1 when (u, v)
  /// is not an edge (out-of-range endpoints included). O(log deg(u)).
  std::int64_t arc_id(vertex u, vertex v) const {
    if (std::uint32_t(u) >= std::uint32_t(n_) ||
        std::uint32_t(v) >= std::uint32_t(n_))
      return -1;
    return view().arc_id(u, v);
  }

  /// CSR view of the adjacency (valid while the graph is alive).
  csr_view view() const { return {n_, offsets_, adj_}; }

  /// All edges in canonical (u < v), lexicographic order.
  const edge_list& edges() const { return edges_; }

  /// Sum of degrees of the given vertex set (2|E| when given all of V).
  std::int64_t volume(std::span<const vertex> vs) const;

  /// Number of neighbors of v inside the sorted vertex set `into`.
  std::int32_t degree_into(vertex v, std::span<const vertex> into) const;

 private:
  vertex n_ = 0;
  std::vector<std::int64_t> offsets_ = {0};
  std::vector<vertex> adj_;
  edge_list edges_;
};

/// When one range is at least this many times longer than the other, the
/// intersection routines switch from the linear merge walk to a galloping
/// (exponential-search) walk over the longer range — O(s·log(l/s)) instead
/// of O(s + l), a measurable win on skewed egonets and two-hop exchanges.
/// This is the default for the `gallop_factor` parameter below; pass 0 to
/// disable galloping entirely (pure merge walk — the baseline the factor
/// is benched against in bench_enum_kernel's intersection rows).
inline constexpr std::size_t kGallopFactor = 32;

// The intersection routines take strictly-ascending (duplicate-free)
// ranges — what every adjacency list in this codebase is by construction.
// `ops` is the resolved vector backend for the balanced merge walk (the
// 8x8 block-compare kernel relies on strict ascent); skewed pairs gallop
// first regardless of tier, and the result — an exact set intersection —
// is identical for every (gallop_factor, ops) pair.

/// Size of the intersection of two strictly-ascending ranges.
std::int64_t sorted_intersection_size(
    std::span<const vertex> a, std::span<const vertex> b,
    std::size_t gallop_factor = kGallopFactor,
    const simd::simd_ops* ops = simd::detected_ops());

/// Intersection of two strictly-ascending ranges.
std::vector<vertex> sorted_intersection(
    std::span<const vertex> a, std::span<const vertex> b,
    std::size_t gallop_factor = kGallopFactor,
    const simd::simd_ops* ops = simd::detected_ops());

/// Intersection into a caller-provided buffer (cleared first). The hot-path
/// variant: repeated calls on one warm buffer are allocation-free, which is
/// how the kernel-adjacent call sites (two-hop listing, K_p delivery)
/// stream intersections without a fresh std::vector per call.
void sorted_intersection_into(std::span<const vertex> a,
                              std::span<const vertex> b,
                              std::vector<vertex>& out,
                              std::size_t gallop_factor = kGallopFactor,
                              const simd::simd_ops* ops =
                                  simd::detected_ops());

}  // namespace dcl
