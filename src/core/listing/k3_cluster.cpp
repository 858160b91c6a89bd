#include "core/listing/k3_cluster.hpp"

#include <algorithm>

#include "congest/cluster_comm.hpp"
#include "core/listing/balance.hpp"
#include "core/listing/two_hop.hpp"
#include "core/ptree/build_k3.hpp"
#include "support/check.hpp"
#include "support/math_util.hpp"
#include "support/prng.hpp"

namespace dcl {

namespace {

/// The members of the ascending list `nb` in [lo, hi); empty if lo >= hi.
std::span<const vertex> in_range(std::span<const vertex> nb, std::int64_t lo,
                                 std::int64_t hi) {
  if (lo >= hi) return {};
  const auto b = std::lower_bound(nb.begin(), nb.end(), vertex(lo));
  return {b, std::lower_bound(b, nb.end(), vertex(hi))};
}

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
  // Request and reply traffic stage simultaneously, one per outbox.
  message_batch& requests = cc.outbox(0);
  message_batch& replies = cc.outbox(1);
  requests.clear();
  replies.clear();
  std::vector<char> is_lister(pool.size(), 0);           // per pool index
  std::vector<std::int64_t> recv_words(pool.size(), 0);  // per pool index
  for (std::size_t li = 0; li < tb.leaf_parts.size(); ++li) {
    const auto& leaf = tb.leaf_parts[li];
    const vertex lister_pos = tb.leaf_assignment[li];
    const vertex lister = pool[size_t(lister_pos)];
    is_lister[size_t(lister_pos)] = 1;
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
          const auto words = std::int64_t(in_range(nb, wlo, whi).size());
          recv_words[size_t(lister_pos)] += words;
          if (u != lister)
            for (std::int64_t w = 0; w < words; ++w)
              replies.emplace(u, lister);
        }
      }
    }
  }
  stats.listers =
      std::int64_t(std::count(is_lister.begin(), is_lister.end(), 1));
  for (std::size_t i = 0; i < pool.size(); ++i)
    if (comm_deg[i] > 0)
      stats.max_normalized_load =
          std::max(stats.max_normalized_load,
                   double(recv_words[i]) / double(comm_deg[i]));
  cc.route(requests, "learn_req");
  cc.route(replies, "learn_rep");

  // Leaf li lists exactly the triangles x < y < z of tb.h (pool positions)
  // with x, y, z in its depth-0, 1, 2 chain parts: Theorem 13's
  // leaf_for_tuple names one such leaf per triangle, so each is emitted
  // once, and every edge of it joins two chain parts, so the leaf learned
  // all three above. Emitted tuples are remapped back to parent ids.
  std::vector<vertex> zs;  // the z candidates of one (x, y)
  for (const auto& leaf : tb.leaf_parts) {
    const auto chain = tb.tree.anc(leaf.depth, leaf.node, leaf.part);
    const auto [lo0, hi0] = tb.tree.part_bounds(chain[0]);
    const auto [lo1, hi1] = tb.tree.part_bounds(chain[1]);
    const auto [lo2, hi2] = tb.tree.part_bounds(chain[2]);
    for (std::int64_t x = lo0; x < hi0; ++x) {
      const auto nx = tb.h.neighbors(vertex(x));
      for (const vertex y : in_range(nx, std::max(lo1, x + 1), hi1)) {
        const std::int64_t zlo = std::max(lo2, std::int64_t(y) + 1);
        sorted_intersection_into(in_range(nx, zlo, hi2),
                                 in_range(tb.h.neighbors(y), zlo, hi2), zs);
        for (const vertex z : zs) {
          const vertex tri[3] = {cc.to_parent(pool[size_t(x)]),
                                 cc.to_parent(pool[size_t(y)]),
                                 cc.to_parent(pool[size_t(z)])};
          out.emit(tri);
        }
      }
    }
  }
  return stats;
}

}  // namespace dcl
