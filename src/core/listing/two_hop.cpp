#include "core/listing/two_hop.hpp"

#include <algorithm>

#include "enumkernel/kernel.hpp"
#include "runtime/scratch.hpp"
#include "support/check.hpp"

namespace dcl {

namespace {

/// Recycled per-worker workspace: kernel scratch plus the learned-edge and
/// tuple staging buffers that used to be reallocated per call.
struct two_hop_scratch {
  enumkernel::enum_scratch enum_ws;
  std::vector<vertex> tuple;
  std::vector<vertex> common;
  edge_list learned;
};

}  // namespace

two_hop_stats two_hop_listing(network& net, const graph& g,
                              std::span<const vertex> targets,
                              std::int64_t alpha, int p,
                              clique_collector& out, std::string_view phase,
                              std::span<const vertex> id_map,
                              runtime::scratch_arena* arena,
                              enumkernel::exec_config exec) {
  DCL_EXPECTS(p >= 3, "clique arity must be at least 3");
  DCL_EXPECTS(id_map.empty() || vertex(id_map.size()) == g.num_vertices(),
              "id_map must cover all vertices");
  two_hop_stats stats;
  if (targets.empty()) return stats;

  std::vector<bool> is_target(size_t(g.num_vertices()), false);
  for (vertex v : targets) {
    DCL_EXPECTS(g.degree(v) <= alpha,
                "two-hop target exceeds the degree cap alpha");
    is_target[size_t(v)] = true;
    stats.max_degree_seen = std::max<std::int64_t>(stats.max_degree_seen,
                                                   g.degree(v));
  }

  // Exchange A: each target v ships N(v) along each incident edge — the
  // load of directed edge (v -> u) is deg(v). Exchange B: u replies with
  // N(u) ∩ N(v) — the load of (u -> v) is the intersection size. Loads are
  // exact per edge; the round cost of each exchange is its max load.
  std::int64_t rounds_a = 0, rounds_b = 0;
  for (vertex v : targets) {
    rounds_a = std::max<std::int64_t>(rounds_a, g.degree(v));
    stats.messages += std::int64_t(g.degree(v)) * g.degree(v);
    for (vertex u : g.neighbors(v)) {
      const auto common = sorted_intersection_size(
          g.neighbors(u), g.neighbors(v), kGallopFactor, exec.ops);
      rounds_b = std::max(rounds_b, common);
      stats.messages += common;
    }
  }
  // A target may also receive replies over one edge from several phases of
  // its own requests; per-edge both directions are independent in CONGEST.
  stats.rounds = rounds_a + rounds_b;
  net.charge(phase, stats.rounds, stats.messages);

  // Local listing at each target: p-cliques inside its learned 2-hop set,
  // enumerated on the shared kernel (one warm scratch across all targets).
  // To avoid emitting the same clique once per contained target, a clique
  // is emitted only by its minimum-id target member.
  two_hop_scratch local_ws;
  two_hop_scratch& ws =
      arena != nullptr ? arena->get<two_hop_scratch>() : local_ws;
  std::vector<vertex>& tuple = ws.tuple;
  edge_list& learned = ws.learned;
  for (vertex v : targets) {
    const auto nv = g.neighbors(v);
    learned.clear();
    for (vertex u : nv) {
      sorted_intersection_into(g.neighbors(u), nv, ws.common,
                               kGallopFactor, exec.ops);
      for (vertex w : ws.common) {
        if (w > u) learned.push_back({u, w});
      }
    }
    enumkernel::enumerate_cliques_in_edges(
        learned, p - 1, ws.enum_ws,
        [&](std::span<const vertex> c) {
          bool v_is_min_target = true;
          for (vertex u : c)
            if (is_target[size_t(u)] && u < v) {
              v_is_min_target = false;
              break;
            }
          if (!v_is_min_target) return;
          tuple.assign(c.begin(), c.end());
          tuple.push_back(v);
          if (!id_map.empty())
            for (auto& z : tuple) z = id_map[size_t(z)];
          out.emit(tuple);
        },
        exec);
  }
  return stats;
}

}  // namespace dcl
