#include "core/listing/two_hop.hpp"

#include <algorithm>

#include "enumkernel/kernel.hpp"
#include "runtime/scratch.hpp"
#include "support/check.hpp"

namespace dcl {

namespace {

/// Recycled per-worker workspace: the target marks, the global -> local
/// map, one target's local DAG and the kernel scratch that walks it.
struct two_hop_scratch {
  std::vector<char> is_target;
  std::vector<std::int32_t> local_id;  ///< global -> local, -1 = not in M
  std::vector<vertex> members;         ///< local id -> g vertex, ascending
  std::vector<vertex> common;
  enumkernel::dag d;
  enumkernel::enum_scratch enum_ws;
};

}  // namespace

two_hop_stats two_hop_listing(network& net, const graph& g,
                              std::span<const vertex> targets,
                              std::int64_t alpha, int p,
                              clique_collector& out, std::string_view phase,
                              std::span<const vertex> id_map,
                              runtime::scratch_arena* arena,
                              enumkernel::exec_config exec) {
  DCL_EXPECTS(p >= 3 && p <= enumkernel::kMaxCliqueArity,
              "clique arity must lie in [3, kMaxCliqueArity]");
  DCL_EXPECTS(id_map.empty() || vertex(id_map.size()) == g.num_vertices(),
              "id_map must cover all vertices");
  two_hop_stats stats;
  if (targets.empty()) return stats;
  for (vertex v : targets)
    DCL_EXPECTS(g.degree(v) <= alpha,
                "two-hop target exceeds the degree cap alpha");

  two_hop_scratch local_ws;
  two_hop_scratch& ws =
      arena != nullptr ? arena->get<two_hop_scratch>() : local_ws;
  const size_t n = size_t(g.num_vertices());
  ws.is_target.assign(n, 0);
  for (vertex v : targets) ws.is_target[size_t(v)] = 1;
  ws.local_id.assign(n, -1);
  enumkernel::dag& d = ws.d;

  // Exchange A: each target v ships N(v) along each incident edge — the
  // load of directed edge (v -> u) is deg(v). Exchange B: u replies with
  // N(u) ∩ N(v) — the load of (u -> v) is the intersection size. Loads are
  // exact per edge; the round cost of each exchange is its max load. The
  // same intersection is what v learns, so one pass charges and lists.
  //
  // A clique is listed only by its minimum-id target member, so v lists
  // the (p-1)-cliques of G[M] with M = N(v) minus every target below v.
  // Local ids follow M's ascending order and arcs run from lower to higher
  // local id, so out-lists come straight out of the ascending
  // intersections: no sort, remap or peeling.
  std::int64_t rounds_a = 0, rounds_b = 0;
  vertex tuple[enumkernel::kMaxCliqueArity];
  const auto emit = [&](std::span<const vertex> local, vertex v) {
    int k = 0;
    for (const vertex a : local) tuple[k++] = ws.members[size_t(a)];
    tuple[k++] = v;
    if (!id_map.empty())
      for (int i = 0; i < k; ++i) tuple[i] = id_map[size_t(tuple[i])];
    out.emit(std::span<const vertex>(tuple, size_t(k)));
  };
  for (vertex v : targets) {
    const auto nv = g.neighbors(v);
    rounds_a = std::max<std::int64_t>(rounds_a, std::int64_t(nv.size()));
    stats.messages += std::int64_t(nv.size()) * std::int64_t(nv.size());

    ws.members.clear();
    for (vertex u : nv)
      if (!(ws.is_target[size_t(u)] && u < v)) {
        ws.local_id[size_t(u)] = std::int32_t(ws.members.size());
        ws.members.push_back(u);
      }
    d.n = vertex(ws.members.size());
    d.offsets.assign(1, 0);
    d.adj.clear();
    for (vertex u : nv) {
      sorted_intersection_into(g.neighbors(u), nv, ws.common, kGallopFactor,
                               exec.ops);
      const auto common = std::int64_t(ws.common.size());
      rounds_b = std::max(rounds_b, common);
      stats.messages += common;
      const std::int32_t a = ws.local_id[size_t(u)];
      if (a < 0) continue;
      for (vertex w : ws.common)
        if (w > u && ws.local_id[size_t(w)] >= 0)
          d.adj.push_back(ws.local_id[size_t(w)]);
      d.offsets.push_back(std::int64_t(d.adj.size()));
    }

    if (p == 3) {
      for (vertex a = 0; a < d.n; ++a)
        for (vertex b : d.out_neighbors(a)) {
          const vertex pair[2] = {a, b};
          emit(pair, v);
        }
    } else if (d.n >= p - 1) {
      d.rank.resize(size_t(d.n));
      for (vertex a = 0; a < d.n; ++a) d.rank[size_t(a)] = a;
      enumkernel::arc_enumerator en(d, p - 1, ws.enum_ws, exec);
      en.list_range(0, d.num_arcs(),
                    [&](std::span<const vertex> c) { emit(c, v); });
    }
    for (vertex u : ws.members) ws.local_id[size_t(u)] = -1;
  }
  // A target may also receive replies over one edge from several phases of
  // its own requests; per-edge both directions are independent in CONGEST.
  stats.rounds = rounds_a + rounds_b;
  net.charge(phase, stats.rounds, stats.messages);
  return stats;
}

}  // namespace dcl
