#include "baselines/dlp12.hpp"

#include <algorithm>

#include "congest/congested_clique.hpp"
#include "enumkernel/kernel.hpp"
#include "support/check.hpp"
#include "support/math_util.hpp"

namespace dcl::baseline {

dlp12_result dlp12_list_cliques(const graph& g, int p) {
  DCL_EXPECTS(p >= 3 && p <= 6, "supported clique sizes: 3..6");
  const vertex n = g.num_vertices();
  dlp12_result res{clique_set(p), {}, 0, 0};
  if (n < 2 || g.num_edges() == 0) return res;

  congested_clique net(n, res.ledger);
  const std::int64_t x = std::max<std::int64_t>(1, ceil_root(n, p));
  const std::int64_t group_size = ceil_div(n, x);
  auto group_of = [&](vertex v) { return std::int64_t(v) / group_size; };

  // Enumerate all non-decreasing group p-tuples (enough to cover every
  // clique once its vertices are sorted); assign tuple t to vertex t mod n.
  std::vector<std::vector<std::int64_t>> tuples;
  std::vector<std::int64_t> cur(size_t(p), 0);
  const std::int64_t groups = ceil_div(n, group_size);
  for (;;) {
    tuples.push_back(cur);
    int d = p - 1;
    while (d >= 0 && cur[size_t(d)] == groups - 1) --d;
    if (d < 0) break;
    ++cur[size_t(d)];
    for (int t = d + 1; t < p; ++t) cur[size_t(t)] = cur[size_t(d)];
  }
  res.tuples = std::int64_t(tuples.size());

  // Each canonical edge is held by its lower endpoint; ship it to every
  // tuple owner whose tuple contains both endpoint groups; the exchange
  // charges the batch, and each owner's learned edges model its receipt.
  message_batch batch;
  std::vector<edge_list> learned(tuples.size());
  for (const auto& e : g.edges()) {
    const std::int64_t gu = group_of(e.u), gv = group_of(e.v);
    for (std::size_t t = 0; t < tuples.size(); ++t) {
      const auto& tp = tuples[t];
      const bool has_u = std::find(tp.begin(), tp.end(), gu) != tp.end();
      const bool has_v = std::find(tp.begin(), tp.end(), gv) != tp.end();
      if (!has_u || !has_v) continue;
      learned[t].push_back(e);
      const vertex owner = vertex(std::int64_t(t) % n);
      if (owner != e.u) batch.emplace(e.u, owner);
    }
  }
  net.exchange(batch, "dlp12/ship");

  enumkernel::enum_scratch ws;  // one warm kernel workspace across owners
  std::vector<std::int64_t> gs;
  for (std::size_t t = 0; t < tuples.size(); ++t) {
    res.max_edges_per_vertex = std::max(
        res.max_edges_per_vertex, std::int64_t(learned[t].size()));
    enumkernel::enumerate_cliques_in_edges(
        learned[t], p, ws, [&](std::span<const vertex> c) {
          // Emit only if this tuple is the canonical one for the clique
          // (the sorted groups match exactly), so no cross-owner
          // duplicates.
          gs.clear();
          for (vertex v : c) gs.push_back(group_of(v));
          std::sort(gs.begin(), gs.end());
          if (gs == tuples[t]) res.cliques.add(c);
        });
  }
  res.cliques.normalize();
  return res;
}

}  // namespace dcl::baseline
