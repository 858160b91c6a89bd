#include "enumkernel/kernel.hpp"

#include <algorithm>
#include <numeric>

namespace dcl::enumkernel {

namespace detail {

vertex remap_edges_dense(std::span<const edge> edges, enum_scratch& ws) {
  ws.canon.clear();
  ws.canon.reserve(edges.size());
  for (const auto& e : edges) {
    if (e.u == e.v) continue;
    ws.canon.push_back(make_edge(e.u, e.v));
  }
  std::sort(ws.canon.begin(), ws.canon.end());
  ws.canon.erase(std::unique(ws.canon.begin(), ws.canon.end()),
                 ws.canon.end());

  ws.members.clear();
  ws.members.reserve(ws.canon.size() * 2);
  for (const auto& e : ws.canon) {
    ws.members.push_back(e.u);
    ws.members.push_back(e.v);
  }
  std::sort(ws.members.begin(), ws.members.end());
  ws.members.erase(std::unique(ws.members.begin(), ws.members.end()),
                   ws.members.end());

  // Dense remap by binary search — O(m log n_local), no array sized by the
  // caller's id universe. Monotone, so canonical (u < v, lexicographic)
  // order is preserved verbatim.
  auto local = [&](vertex v) {
    return vertex(std::lower_bound(ws.members.begin(), ws.members.end(), v) -
                  ws.members.begin());
  };
  for (auto& e : ws.canon) e = {local(e.u), local(e.v)};
  return vertex(ws.members.size());
}

csr_view build_local_csr(enum_scratch& ws, vertex n_local) {
  ws.csr_offsets.assign(size_t(n_local) + 1, 0);
  for (const auto& e : ws.canon) {
    ++ws.csr_offsets[size_t(e.u) + 1];
    ++ws.csr_offsets[size_t(e.v) + 1];
  }
  std::partial_sum(ws.csr_offsets.begin(), ws.csr_offsets.end(),
                   ws.csr_offsets.begin());
  ws.csr_adj.resize(size_t(ws.csr_offsets[size_t(n_local)]));
  ws.csr_cursor.assign(ws.csr_offsets.begin(), ws.csr_offsets.end() - 1);
  // Lexicographic edge order fills every adjacency list ascending: vertex x
  // first receives its smaller neighbors (edges (u, x), u ascending), then
  // its larger ones (edges (x, v), v ascending).
  for (const auto& e : ws.canon) {
    ws.csr_adj[size_t(ws.csr_cursor[size_t(e.u)]++)] = e.v;
    ws.csr_adj[size_t(ws.csr_cursor[size_t(e.v)]++)] = e.u;
  }
  return csr_view{n_local, ws.csr_offsets, ws.csr_adj};
}

}  // namespace detail

std::int64_t count_cliques(const graph& g, int p, enum_scratch& ws,
                           exec_config exec) {
  DCL_EXPECTS(p >= 2 && p <= kMaxCliqueArity,
              "clique arity must lie in [2, kMaxCliqueArity]");
  if (p == 2) return g.num_edges();
  orient_into(g.view(), orientation_policy::degeneracy, ws.orient_ws, ws.d);
  arc_enumerator en(ws.d, p, ws, exec);
  return en.count_range(0, ws.d.num_arcs());
}

clique_set cliques_in_edge_set(const edge_list& edges, int p,
                               enum_scratch& ws, exec_config exec) {
  clique_set out(p);
  enumerate_cliques_in_edges(
      edges, p, ws,
      [&](std::span<const vertex> c) { out.add_flat(c); }, exec);
  out.normalize();
  return out;
}

}  // namespace dcl::enumkernel
