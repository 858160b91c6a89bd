#include "core/listing/k3_cluster.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "congest/cluster_comm.hpp"
#include "core/listing/balance.hpp"
#include "core/listing/two_hop.hpp"
#include "core/ptree/build_k3.hpp"
#include "enumkernel/kernel.hpp"
#include "support/check.hpp"
#include "support/math_util.hpp"
#include "support/prng.hpp"

namespace dcl {

namespace {

/// Baseline "trees": every layer reuses one equal-size interval partition
/// of the (possibly permuted) pool order. Charged as a broadcast of the
/// O(x) partition endpoints; the leaf assignment still runs Lemma 20.
k3_tree_build build_baseline_tree(cluster_comm& cc,
                                  std::span<const vertex> pool,
                                  std::span<const std::int64_t> comm_deg,
                                  std::string_view phase) {
  const std::int64_t k = std::int64_t(pool.size());
  k3_tree_build out;
  out.x = std::max<std::int64_t>(1, ceil_root(k, 3));
  // Position graph over the given pool order.
  {
    std::vector<vertex> pos_of(size_t(cc.size()), -1);
    for (std::int64_t i = 0; i < k; ++i)
      pos_of[size_t(pool[size_t(i)])] = vertex(i);
    edge_list hedges;
    for (std::int64_t i = 0; i < k; ++i)
      for (vertex nb : cc.local_graph().neighbors(pool[size_t(i)])) {
        const vertex j = pos_of[size_t(nb)];
        if (j >= 0 && j != vertex(i))
          hedges.push_back(make_edge(vertex(i), j));
      }
    std::sort(hedges.begin(), hedges.end());
    hedges.erase(std::unique(hedges.begin(), hedges.end()), hedges.end());
    out.h = graph(vertex(k), hedges);
  }
  std::vector<std::int64_t> breaks;
  for (std::int64_t j = 0; j <= out.x; ++j)
    breaks.push_back(std::min(k, ceil_div(k, out.x) * j));
  breaks.back() = k;
  // Deduplicate possible repeats at the tail (k not divisible by x).
  breaks.erase(std::unique(breaks.begin(), breaks.end()), breaks.end());
  const interval_partition part(breaks);

  cc.charge_broadcast_from_leader(std::int64_t(breaks.size()) * 3,
                                  std::string(phase) + "/partition");
  std::vector<vertex> leaf_holders;
  for (int d = 0; d < 3; ++d) {
    const std::int64_t nodes = d == 0 ? 1
                               : d == 1
                                   ? part.num_parts()
                                   : std::int64_t(part.num_parts()) *
                                         part.num_parts();
    out.tree.push_layer(
        std::vector<interval_partition>(size_t(nodes), part), k);
  }
  for (std::int64_t node = 0; node < out.tree.num_nodes(2); ++node)
    for (int j = 0; j < part.num_parts(); ++j) {
      out.leaf_parts.push_back({2, node, j});
      leaf_holders.push_back(
          vertex(std::int64_t(out.leaf_parts.size() - 1) % k));
    }
  out.leaf_assignment = degree_balanced_assignment(
      cc, pool, comm_deg, leaf_holders, std::string(phase) + "/leafassign");
  return out;
}

}  // namespace

cluster_listing_stats list_k3_in_cluster(network& net_c, const graph&,
                                         const cluster_anatomy& a,
                                         lb_engine engine, std::uint64_t seed,
                                         clique_collector& out,
                                         std::string_view phase,
                                         runtime::scratch_arena* scratch,
                                         enumkernel::exec_config exec) {
  cluster_listing_stats stats;
  cluster_comm cc(net_c, a.v_cluster, a.e_cluster, std::string(phase));

  // ---- Low-degree side: triangles touching V_C \ V−_C (Lemma 35).
  std::vector<vertex> low_local;
  for (vertex v : a.v_cluster)
    if (!a.in_v_minus(v)) low_local.push_back(cc.to_local(v));
  {
    network local_net(cc.local_graph(), net_c.ledger(),
                      &net_c.shared_transport(), net_c.recorder());
    two_hop_listing(local_net, cc.local_graph(), low_local, a.delta, 3, out,
                    std::string(phase) + "/twohop", cc.parent_vertices(),
                    scratch, exec);
  }

  // ---- High-degree side: triangles inside V−_C via a partition tree.
  if (a.v_minus.size() < 3) return stats;
  std::vector<vertex> pool;
  for (vertex v : a.v_minus) pool.push_back(cc.to_local(v));
  std::sort(pool.begin(), pool.end());
  if (engine == lb_engine::randomized) {
    prng rng(seed);
    rng.shuffle(pool);
  }
  std::vector<std::int64_t> comm_deg;
  for (vertex lv : pool)
    comm_deg.push_back(a.comm_degree_of(cc.to_parent(lv)));

  const auto tb =
      engine == lb_engine::deterministic
          ? build_k3_tree(cc, pool, comm_deg, "tree")
          : build_baseline_tree(cc, pool, comm_deg, "tree");
  stats.leaf_parts = std::int64_t(tb.leaf_parts.size());

  // ---- Edge learning (Lemma 34 steps 1-2), then local listing.
  // Step 1: each lister sends the interval endpoints of the other anc parts
  // to every member of every anc part (O(1) words per member).
  // Step 2: members reply with their H-edges into the other parts.
  enumkernel::enum_scratch local_ws;
  enumkernel::enum_scratch& ws =
      scratch != nullptr ? scratch->get<enumkernel::enum_scratch>()
                         : local_ws;
  // Request and reply traffic stage simultaneously, one per outbox.
  message_batch& requests = cc.outbox(0);
  message_batch& replies = cc.outbox(1);
  requests.clear();
  replies.clear();
  std::vector<edge_list> learned(tb.leaf_parts.size());
  std::set<vertex> lister_set;
  std::map<vertex, std::int64_t> recv_words;
  for (std::size_t li = 0; li < tb.leaf_parts.size(); ++li) {
    const auto& leaf = tb.leaf_parts[li];
    const vertex lister_pos = tb.leaf_assignment[li];
    const vertex lister = pool[size_t(lister_pos)];
    lister_set.insert(lister);
    const auto chain = tb.tree.anc(leaf.depth, leaf.node, leaf.part);
    for (std::size_t ui = 0; ui < chain.size(); ++ui) {
      const auto [ulo, uhi] = tb.tree.part_bounds(chain[ui]);
      for (std::int64_t posu = ulo; posu < uhi; ++posu) {
        const vertex u = pool[size_t(posu)];
        if (u != lister) {
          requests.emplace(lister, u);
          requests.emplace(lister, u);  // two interval-endpoint words
        }
        const auto nb = tb.h.neighbors(vertex(posu));
        for (std::size_t wi = 0; wi < chain.size(); ++wi) {
          if (wi == ui) continue;
          const auto [wlo, whi] = tb.tree.part_bounds(chain[wi]);
          const auto lo_it =
              std::lower_bound(nb.begin(), nb.end(), vertex(wlo));
          const auto hi_it =
              std::lower_bound(nb.begin(), nb.end(), vertex(whi));
          for (auto it = lo_it; it != hi_it; ++it) {
            learned[li].push_back(make_edge(vertex(posu), *it));
            ++recv_words[lister];
            if (u != lister) replies.emplace(u, lister);
          }
        }
      }
    }
  }
  stats.listers = std::int64_t(lister_set.size());
  for (const auto& [lister, words] : recv_words) {
    const auto deg = a.comm_degree_of(cc.to_parent(lister));
    if (deg > 0)
      stats.max_normalized_load =
          std::max(stats.max_normalized_load, double(words) / double(deg));
  }
  cc.route_discard(requests, "learn_req");
  cc.route_discard(replies, "learn_rep");

  for (std::size_t li = 0; li < tb.leaf_parts.size(); ++li) {
    auto& le = learned[li];
    std::sort(le.begin(), le.end());
    le.erase(std::unique(le.begin(), le.end()), le.end());
    stats.learned_edges += std::int64_t(le.size());
    // Cluster-local listing on the shared kernel: the learned edges are in
    // position space, so remap each emitted triangle back to parent ids.
    enumkernel::enumerate_cliques_in_edges(
        le, 3, ws,
        [&](std::span<const vertex> c) {
          vertex tri[3];
          for (int z = 0; z < 3; ++z)
            tri[size_t(z)] = cc.to_parent(pool[size_t(c[size_t(z)])]);
          out.emit(std::span<const vertex>(tri, 3));
        },
        exec);
  }
  return stats;
}

}  // namespace dcl
