#pragma once
// Deterministic workload generators. Random families take an explicit seed;
// structured families are fully deterministic. These are the workloads of
// every benchmark, including the paper experiments in BENCH_paper.json.

#include <cstdint>

#include "graph/graph.hpp"

namespace dcl::gen {

/// Erdős–Rényi G(n, p): each pair independently an edge.
graph gnp(vertex n, double p, std::uint64_t seed);

/// Erdős–Rényi G(n, m): exactly m distinct edges.
graph gnm(vertex n, std::int64_t m, std::uint64_t seed);

/// Chung–Lu power-law: expected degree of vertex i proportional to
/// (i+1)^(-1/(gamma-1)) scaled to average degree `avg_deg`. Produces the
/// skewed-degree inputs on which unbalanced load balancing degrades.
graph power_law(vertex n, double gamma, double avg_deg, std::uint64_t seed);

/// Planted partition: `parts` groups of `part_size`, intra-group edge
/// probability p_in, inter-group p_out. Natural expander-decomposition
/// workload (clusters ≈ groups).
graph planted_partition(vertex parts, vertex part_size, double p_in,
                        double p_out, std::uint64_t seed);

/// `count` disjoint K_size cliques joined in a ring by single bridge edges.
graph ring_of_cliques(vertex count, vertex size);

/// Complete graph K_n.
graph complete(vertex n);

/// Complete bipartite K_{a,b} (clique-free beyond edges; useful negative
/// control: it contains no triangles).
graph complete_bipartite(vertex a, vertex b);

/// d-dimensional hypercube (2^d vertices); a classic sparse expander.
graph hypercube(int d);

/// 2-D grid (rows x cols), a low-conductance control.
graph grid(vertex rows, vertex cols);

/// Circulant graph on n vertices with the given offsets; offsets like
/// {1, 2, 5, 11, ...} give deterministic constant-degree expanders.
graph circulant(vertex n, const std::vector<vertex>& offsets);

/// G(n, p) plus `count` planted cliques of `size` random vertices each.
graph planted_cliques(vertex n, double p, vertex count, vertex size,
                      std::uint64_t seed);

/// Barabási–Albert preferential attachment, m edges per new vertex.
graph barabasi_albert(vertex n, vertex m, std::uint64_t seed);

/// Kneser graph K(n, k): vertices are the k-subsets of [n] in ascending
/// bitmask (colex) order, edges join disjoint subsets. K(5, 2) is the
/// Petersen graph; c-cliques exist iff c*k <= n, making the family a sharp
/// structured control for clique listers. Requires 1 <= k, 2k <= n, and
/// C(n, k) <= 20000 (edge construction is all-pairs).
graph kneser(int n, int k);

}  // namespace dcl::gen
