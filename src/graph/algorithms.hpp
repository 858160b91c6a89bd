#pragma once
// Classical graph algorithms used by the decomposition, the communication
// layer, and the test suite.

#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace dcl {

/// Component id per vertex (ids dense, 0-based) plus component count.
struct components {
  std::vector<vertex> id;
  vertex count = 0;
};
components connected_components(const graph& g);

/// BFS tree from `root`: parent[v] (= -1 for root and unreachable),
/// dist[v] (= -1 unreachable), depth = max reached distance.
struct bfs_tree {
  std::vector<vertex> parent;
  std::vector<std::int32_t> dist;
  std::int32_t depth = 0;
};
bfs_tree bfs_from(const graph& g, vertex root);

/// Exact eccentricity-based diameter of the (connected) graph; returns the
/// max over components otherwise. O(n·m) — test/bench sizes only.
std::int32_t diameter(const graph& g);

/// Conductance of the cut (S, V\S) in g. S given as sorted vertex list;
/// returns nullopt for trivial cuts (S empty or S = V or zero volume).
std::optional<double> conductance(const graph& g, std::span<const vertex> s);

/// Exact minimum conductance over all nontrivial cuts; brute force, requires
/// n <= 20. Used to validate the spectral machinery in tests.
std::optional<double> min_conductance_exact(const graph& g);

/// The subgraph induced by an edge set: vertices = endpoints (renumbered
/// densely, sorted by original id), with the mapping back to g's ids.
struct edge_induced_subgraph {
  graph g;
  std::vector<vertex> to_parent;  // local id -> parent id
  std::vector<vertex> to_local;   // parent id -> local id, -1 if absent
};
edge_induced_subgraph induce_by_edges(const graph& parent,
                                      const edge_list& edges);

}  // namespace dcl
