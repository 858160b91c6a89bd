#include "enumkernel/orient.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "support/check.hpp"

namespace dcl::enumkernel {

namespace {

/// Bucket-queue core peeling: repeatedly removes a minimum-degree vertex.
/// Writes the removal order into `order_out`; fills core[] with core
/// numbers when requested. All transient buffers live in `ws`.
void peeling_order(const csr_view& g, orient_scratch& ws,
                   std::vector<vertex>& order_out,
                   std::vector<std::int32_t>* core) {
  const vertex n = g.n;
  ws.deg.resize(size_t(n));
  std::int32_t max_deg = 0;
  for (vertex v = 0; v < n; ++v) {
    ws.deg[size_t(v)] = g.degree(v);
    max_deg = std::max(max_deg, ws.deg[size_t(v)]);
  }

  // bin[d] = start of degree-d block in order_out; pos[v] = index of v.
  ws.bin.assign(size_t(max_deg) + 2, 0);
  for (vertex v = 0; v < n; ++v) ++ws.bin[size_t(ws.deg[size_t(v)]) + 1];
  std::partial_sum(ws.bin.begin(), ws.bin.end(), ws.bin.begin());
  order_out.resize(size_t(n));
  ws.pos.resize(size_t(n));
  {
    ws.next.assign(ws.bin.begin(), ws.bin.end() - 1);
    for (vertex v = 0; v < n; ++v) {
      ws.pos[size_t(v)] = ws.next[size_t(ws.deg[size_t(v)])]++;
      order_out[size_t(ws.pos[size_t(v)])] = v;
    }
  }

  if (core) core->assign(size_t(n), 0);
  std::int32_t current_core = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const vertex v = order_out[size_t(i)];
    current_core = std::max(current_core, ws.deg[size_t(v)]);
    if (core) (*core)[size_t(v)] = current_core;
    for (const vertex w : g.neighbors(v)) {
      if (ws.deg[size_t(w)] <= ws.deg[size_t(v)]) continue;  // peeled/equal
      // Move w into the next-lower degree block: swap with the first vertex
      // of its current block, then shift the block boundary right.
      const std::int64_t pw = ws.pos[size_t(w)];
      const std::int64_t start = ws.bin[size_t(ws.deg[size_t(w)])];
      const vertex u = order_out[size_t(start)];
      if (u != w) {
        std::swap(order_out[size_t(pw)], order_out[size_t(start)]);
        ws.pos[size_t(w)] = start;
        ws.pos[size_t(u)] = pw;
      }
      ++ws.bin[size_t(ws.deg[size_t(w)])];
      --ws.deg[size_t(w)];
    }
    // Peeled vertices keep deg as their degree at removal time; mark done by
    // setting it to -1 so later neighbors skip them.
    ws.deg[size_t(v)] = -1;
  }
}

/// The first half of an orientation: the policy's vertex order over `g`
/// (order[r] = vertex of rank r), then its inverse into ws.rank. O(n + m)
/// for the degeneracy policy (bucket peeling); the degree policy sorts.
void policy_rank(const csr_view& g, orientation_policy policy,
                 orient_scratch& ws) {
  std::vector<vertex>& order = ws.order;
  if (policy == orientation_policy::degeneracy) {
    peeling_order(g, ws, order, nullptr);
  } else {
    // Ascending degree, ties broken by id (stable sort over iota keeps the
    // tie-break deterministic).
    order.resize(size_t(g.n));
    std::iota(order.begin(), order.end(), vertex{0});
    std::stable_sort(order.begin(), order.end(), [&](vertex a, vertex b) {
      return g.degree(a) < g.degree(b);
    });
  }
  ws.rank.resize(order.size());
  for (vertex r = 0; r < vertex(order.size()); ++r)
    ws.rank[size_t(order[size_t(r)])] = r;
}

}  // namespace

std::vector<std::int32_t> core_numbers(const graph& g) {
  orient_scratch ws;
  std::vector<vertex> order;
  std::vector<std::int32_t> core;
  peeling_order(g.view(), ws, order, &core);
  return core;
}

void orient_by_rank(const csr_view& g, std::span<const vertex> rank,
                    dag& out) {
  const vertex n = g.n;
  DCL_EXPECTS(vertex(rank.size()) == n,
              "orient_by_rank: one rank per vertex required");
  out.n = n;
  out.max_out_degree = 0;
  out.rank.assign(rank.begin(), rank.end());

  // Arcs point from lower to higher rank. Each out-list inherits the
  // ascending id order of the CSR adjacency it filters, so no per-list sort
  // is needed.
  out.offsets.assign(size_t(n) + 1, 0);
  for (vertex v = 0; v < n; ++v) {
    std::int64_t d = 0;
    for (const vertex w : g.neighbors(v))
      if (out.rank[size_t(v)] < out.rank[size_t(w)]) ++d;
    out.offsets[size_t(v) + 1] = d;
  }
  std::partial_sum(out.offsets.begin(), out.offsets.end(),
                   out.offsets.begin());
  out.adj.resize(size_t(out.offsets[size_t(n)]));
  for (vertex v = 0; v < n; ++v) {
    std::int64_t cursor = out.offsets[size_t(v)];
    for (const vertex w : g.neighbors(v))
      if (out.rank[size_t(v)] < out.rank[size_t(w)])
        out.adj[size_t(cursor++)] = w;
    DCL_ENSURE(cursor == out.offsets[size_t(v) + 1],
               "orientation CSR fill mismatch");
    out.max_out_degree = std::max(
        out.max_out_degree,
        std::int32_t(out.offsets[size_t(v) + 1] - out.offsets[size_t(v)]));
  }
  DCL_EXPECTS(out.num_arcs() * 2 == g.offsets[size_t(n)],
              "orient_by_rank: adjacent vertices must differ in rank");
}

std::vector<vertex> vertex_rank(const graph& g, orientation_policy policy) {
  orient_scratch ws;
  policy_rank(g.view(), policy, ws);
  return std::move(ws.rank);
}

void orient_into(const csr_view& g, orientation_policy policy,
                 orient_scratch& ws, dag& out) {
  policy_rank(g, policy, ws);
  orient_by_rank(g, ws.rank, out);
}

dag orient(const graph& g, orientation_policy policy) {
  orient_scratch ws;
  dag d;
  orient_into(g.view(), policy, ws, d);
  return d;
}

}  // namespace dcl::enumkernel
