#include "congest/network.hpp"

#include <algorithm>

#include "congest/trace.hpp"
#include "graph/algorithms.hpp"

namespace dcl {

network::network(const graph& g, cost_ledger& ledger, transport* tp,
                 trace_recorder* rec)
    : g_(&g),
      ledger_(&ledger),
      rec_(rec),
      tp_(tp != nullptr ? tp : &owned_tp_) {}

pair_counts count_pairs(std::span<const message> msgs,
                        std::vector<std::uint64_t>& keys) {
  keys.clear();
  for (const auto& m : msgs)
    keys.push_back((std::uint64_t(std::uint32_t(m.src)) << 32) |
                   std::uint32_t(m.dst));
  std::sort(keys.begin(), keys.end());
  pair_counts c;
  std::int64_t run = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const bool same = i > 0 && keys[i] == keys[i - 1];
    run = same ? run + 1 : 1;
    if (!same) ++c.distinct;
    c.max = std::max(c.max, run);
  }
  return c;
}

void network::charge(std::string_view phase, std::int64_t rounds,
                     std::int64_t messages) {
  ledger_->charge(phase, rounds, messages);
  if (rec_ != nullptr) rec_->record_charge(phase, rounds, messages);
}

std::int64_t network::charge_gather_all_edges(std::string_view phase) {
  const graph& g = *g_;
  const auto comps = connected_components(g);
  // Leader of each component: its minimum-id vertex (first seen).
  std::vector<vertex> leader(size_t(comps.count), -1);
  for (vertex v = 0; v < g.num_vertices(); ++v)
    if (leader[size_t(comps.id[size_t(v)])] == -1)
      leader[size_t(comps.id[size_t(v)])] = v;

  std::int64_t worst_rounds = 0;
  std::int64_t total_messages = 0;
  for (vertex c = 0; c < comps.count; ++c) {
    const auto t = bfs_from(g, leader[size_t(c)]);
    // Each canonical edge (u, v) is reported once, by its lower endpoint.
    // Messages travel to the root; congestion on the tree edge above vertex
    // w equals the number of reports originating in w's subtree. Compute
    // subtree loads by processing vertices in decreasing BFS distance.
    std::vector<std::int64_t> load(size_t(g.num_vertices()), 0);
    for (const auto& e : g.edges())
      if (comps.id[size_t(e.u)] == c) {
        load[size_t(e.u)] += 1;
        total_messages += t.dist[size_t(e.u)];
      }
    std::vector<vertex> order;
    for (vertex v = 0; v < g.num_vertices(); ++v)
      if (comps.id[size_t(v)] == c) order.push_back(v);
    std::sort(order.begin(), order.end(), [&](vertex a, vertex b) {
      return t.dist[size_t(a)] > t.dist[size_t(b)];
    });
    std::int64_t congestion = 0;
    for (vertex v : order) {
      if (t.parent[size_t(v)] != -1) {
        congestion = std::max(congestion, load[size_t(v)]);
        load[size_t(t.parent[size_t(v)])] += load[size_t(v)];
      }
    }
    // Pipelined: bounded by per-edge congestion plus tree depth.
    worst_rounds = std::max(worst_rounds, congestion + t.depth);
  }
  charge(phase, worst_rounds, total_messages);
  return worst_rounds;
}

}  // namespace dcl
