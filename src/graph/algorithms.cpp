#include "graph/algorithms.hpp"

#include <algorithm>
#include <queue>

#include "support/check.hpp"

namespace dcl {

components connected_components(const graph& g) {
  const vertex n = g.num_vertices();
  components c;
  c.id.assign(size_t(n), -1);
  std::vector<vertex> stack;
  for (vertex s = 0; s < n; ++s) {
    if (c.id[size_t(s)] != -1) continue;
    stack.push_back(s);
    c.id[size_t(s)] = c.count;
    while (!stack.empty()) {
      const vertex v = stack.back();
      stack.pop_back();
      for (vertex u : g.neighbors(v)) {
        if (c.id[size_t(u)] == -1) {
          c.id[size_t(u)] = c.count;
          stack.push_back(u);
        }
      }
    }
    ++c.count;
  }
  return c;
}

bfs_tree bfs_from(const graph& g, vertex root) {
  const vertex n = g.num_vertices();
  DCL_EXPECTS(root >= 0 && root < n, "root out of range");
  bfs_tree t;
  t.parent.assign(size_t(n), -1);
  t.dist.assign(size_t(n), -1);
  std::queue<vertex> q;
  q.push(root);
  t.dist[size_t(root)] = 0;
  while (!q.empty()) {
    const vertex v = q.front();
    q.pop();
    for (vertex u : g.neighbors(v)) {
      if (t.dist[size_t(u)] == -1) {
        t.dist[size_t(u)] = t.dist[size_t(v)] + 1;
        t.parent[size_t(u)] = v;
        t.depth = std::max(t.depth, t.dist[size_t(u)]);
        q.push(u);
      }
    }
  }
  return t;
}

std::int32_t diameter(const graph& g) {
  std::int32_t best = 0;
  for (vertex v = 0; v < g.num_vertices(); ++v) {
    best = std::max(best, bfs_from(g, v).depth);
  }
  return best;
}

std::optional<double> conductance(const graph& g, std::span<const vertex> s) {
  const vertex n = g.num_vertices();
  if (s.empty() || vertex(s.size()) == n) return std::nullopt;
  std::vector<bool> in_s(size_t(n), false);
  for (vertex v : s) in_s[size_t(v)] = true;
  std::int64_t vol_s = 0;
  std::int64_t boundary = 0;
  for (vertex v : s) {
    vol_s += g.degree(v);
    for (vertex u : g.neighbors(v))
      if (!in_s[size_t(u)]) ++boundary;
  }
  const std::int64_t vol_rest = 2 * g.num_edges() - vol_s;
  const std::int64_t denom = std::min(vol_s, vol_rest);
  if (denom == 0) return std::nullopt;
  return double(boundary) / double(denom);
}

std::optional<double> min_conductance_exact(const graph& g) {
  const vertex n = g.num_vertices();
  DCL_EXPECTS(n <= 20, "brute-force conductance limited to n <= 20");
  if (n < 2) return std::nullopt;
  std::optional<double> best;
  // Fix vertex 0 out of S to halve the enumeration (complement symmetry).
  const std::uint32_t limit = 1u << (n - 1);
  std::vector<vertex> s;
  for (std::uint32_t mask = 1; mask < limit; ++mask) {
    s.clear();
    for (vertex v = 0; v < n - 1; ++v)
      if (mask & (1u << v)) s.push_back(v + 1);
    const auto phi = conductance(g, s);
    if (phi && (!best || *phi < *best)) best = *phi;
  }
  return best;
}

edge_induced_subgraph induce_by_edges(const graph& parent,
                                      const edge_list& edges) {
  edge_induced_subgraph out;
  out.to_local.assign(size_t(parent.num_vertices()), -1);
  std::vector<vertex> verts;
  for (const auto& e : edges) {
    verts.push_back(e.u);
    verts.push_back(e.v);
  }
  std::sort(verts.begin(), verts.end());
  verts.erase(std::unique(verts.begin(), verts.end()), verts.end());
  out.to_parent = verts;
  for (vertex local = 0; local < vertex(verts.size()); ++local)
    out.to_local[size_t(verts[size_t(local)])] = local;
  edge_list local_edges;
  local_edges.reserve(edges.size());
  for (const auto& e : edges)
    local_edges.push_back(make_edge(out.to_local[size_t(e.u)],
                                    out.to_local[size_t(e.v)]));
  std::sort(local_edges.begin(), local_edges.end());
  local_edges.erase(std::unique(local_edges.begin(), local_edges.end()),
                    local_edges.end());
  out.g = graph(vertex(verts.size()), local_edges);
  return out;
}

}  // namespace dcl
