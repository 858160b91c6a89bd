#pragma once
// DAG orientation for k-clique listing (kClist; Danisch, Balalau, Sozio —
// WWW'18). Orienting each edge from lower to higher rank in a degeneracy
// (or degree) order turns the undirected input into an acyclic digraph
// whose maximum out-degree is the degeneracy c(G); every k-clique then
// appears exactly once, rooted at its lowest-rank vertex (or edge), which
// is what makes the kernel's DFS enumerator duplicate-free.
//
// The core entry point (orient_into) works on a csr_view and writes into a
// caller-owned dag, so repeated orientations — one per cluster task, say —
// reuse their buffers instead of reallocating.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace dcl::enumkernel {

/// Vertex-order rule used to direct the edges.
enum class orientation_policy {
  degeneracy,  ///< core-number peeling order; out-degree <= degeneracy
  degree,      ///< ascending degree (ties by id); cheaper, looser bound
};

/// Acyclic orientation of a graph: CSR over out-neighbors only.
/// rank[u] < rank[v] for every arc u -> v; out-lists are ascending by
/// vertex id so sorted intersections stay available.
struct dag {
  vertex n = 0;
  std::vector<std::int64_t> offsets = {0};  ///< size n+1
  std::vector<vertex> adj;                  ///< out-neighbors, id-ascending
  std::vector<vertex> rank;  ///< arcs run from lower to higher rank
  std::int32_t max_out_degree = 0;  ///< = degeneracy under the peeling order

  std::int32_t out_degree(vertex v) const {
    return std::int32_t(offsets[size_t(v) + 1] - offsets[size_t(v)]);
  }

  std::span<const vertex> out_neighbors(vertex v) const {
    return {adj.data() + offsets[size_t(v)],
            adj.data() + offsets[size_t(v) + 1]};
  }

  std::int64_t num_arcs() const { return std::int64_t(adj.size()); }
};

/// Reusable workspace for orient_into (peeling buckets, cursors). One per
/// enum_scratch; all buffers keep their capacity across calls.
struct orient_scratch {
  std::vector<std::int32_t> deg;
  std::vector<std::int64_t> bin;
  std::vector<std::int64_t> pos;
  std::vector<std::int64_t> next;
  std::vector<vertex> order;  ///< the policy's order (order[r] = vertex)
  std::vector<vertex> rank;   ///< its inverse, handed to orient_by_rank
};

/// The first half of an orientation: rank[v] = position of v in the
/// policy's order over `g`. O(n + m) for the degeneracy policy (bucket
/// peeling); the degree policy sorts. A shard coordinator computes it once
/// and ships it, so every slice orients by the same global order
/// (DESIGN.md §14).
std::vector<vertex> vertex_rank(const graph& g, orientation_policy policy);

/// The second half: orients every edge low-rank -> high-rank into `out`,
/// reusing its storage. Only the order of the ranks matters, so any values
/// that differ across every edge will do (a shard worker passes its slice
/// vertices' global ranks as they are).
void orient_by_rank(const csr_view& g, std::span<const vertex> rank,
                    dag& out);

/// Both halves: the policy's ranks, then orient_by_rank.
void orient_into(const csr_view& g, orientation_policy policy,
                 orient_scratch& ws, dag& out);

/// Convenience wrapper allocating fresh storage.
dag orient(const graph& g, orientation_policy policy);

/// Core numbers (max k such that v survives in the k-core); by-product of
/// the degeneracy order, exposed for diagnostics and tests.
std::vector<std::int32_t> core_numbers(const graph& g);

}  // namespace dcl::enumkernel
