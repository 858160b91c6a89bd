#include "core/listing/kp_cluster.hpp"

#include <algorithm>
#include <numeric>
#include <set>

#include "congest/cluster_comm.hpp"
#include "core/listing/balance.hpp"
#include "core/ptree/build_split.hpp"
#include "enumkernel/kernel.hpp"
#include "support/check.hpp"
#include "support/math_util.hpp"
#include "support/prng.hpp"

namespace dcl {

namespace {

/// All leaf parts whose ancestor chain places `pa` in a layer of kind_a and
/// `pb` in a *different* layer of kind_b (Theorem 23 coverage walk). Layer
/// kinds: depth < pi is a V2 layer, otherwise V1. Returns flattened leaf
/// ids (position in the leaf enumeration order used by the caller).
void leaves_needing_edge(const partition_tree& tree, int pi, bool a_is_v2,
                         std::int64_t pa, bool b_is_v2, std::int64_t pb,
                         std::vector<std::int64_t>& leaf_ids_out,
                         const std::vector<std::int64_t>& leaf_base) {
  const int p = tree.layers();
  for (int ia = 0; ia < p; ++ia) {
    if ((ia < pi) != a_is_v2) continue;
    for (int ib = 0; ib < p; ++ib) {
      if (ib == ia || (ib < pi) != b_is_v2) continue;
      // DFS constrained at layers ia (must contain pa) and ib (pb).
      struct frame {
        int depth;
        std::int64_t node;
      };
      std::vector<frame> stack{{0, 0}};
      while (!stack.empty()) {
        const auto [d, node] = stack.back();
        stack.pop_back();
        const auto& part = tree.partition_at(d, node);
        int lo = 0, hi = part.num_parts();
        if (d == ia) {
          lo = part.part_of(pa);
          hi = lo + 1;
        } else if (d == ib) {
          lo = part.part_of(pb);
          hi = lo + 1;
        }
        for (int j = lo; j < hi; ++j) {
          if (d + 1 < p) {
            stack.push_back({d + 1, tree.child(d, node, j)});
          } else {
            leaf_ids_out.push_back(leaf_base[size_t(node)] + j);
          }
        }
      }
    }
  }
}

}  // namespace

delivery_result deliver_eprime(network& net_c, const graph& g,
                               const cluster_anatomy& a,
                               std::int64_t n_budget,
                               std::string_view phase,
                               enumkernel::exec_config exec) {
  delivery_result res;
  const std::int64_t k = std::int64_t(a.v_minus.size());
  std::vector<vertex> v1_index(size_t(g.num_vertices()), -1);
  for (std::int64_t i = 0; i < k; ++i)
    v1_index[size_t(a.v_minus[size_t(i)])] = vertex(i);

  // deg into V− and outside degree for every outside vertex adjacent to V−.
  // S*_C = outside u with 1 <= deg_{V−}(u) and
  //        deg_{V−}(u) * n^{1-2/p} < deg_{V\V−}(u).
  std::vector<vertex> adjacent_outside;
  std::vector<bool> in_sstar(size_t(g.num_vertices()), false);
  std::vector<bool> seen(size_t(g.num_vertices()), false);
  for (vertex v : a.v_minus)
    for (vertex u : g.neighbors(v)) {
      if (v1_index[size_t(u)] >= 0 || seen[size_t(u)]) continue;
      seen[size_t(u)] = true;
      adjacent_outside.push_back(u);
    }
  for (vertex u : adjacent_outside) {
    std::int64_t into_vm = 0;
    for (vertex w : g.neighbors(u))
      if (v1_index[size_t(w)] >= 0) ++into_vm;
    const std::int64_t outside_deg = g.degree(u) - into_vm;
    if (into_vm >= 1 && into_vm * n_budget < outside_deg)
      in_sstar[size_t(u)] = true;
  }
  // S_C: V− vertices with too many S* neighbors.
  std::vector<bool> is_bad(size_t(g.num_vertices()), false);
  for (vertex v : a.v_minus) {
    std::int64_t cnt = 0;
    for (vertex u : g.neighbors(v))
      if (in_sstar[size_t(u)]) ++cnt;
    if (cnt > n_budget) {
      res.s_bad.push_back(v);
      is_bad[size_t(v)] = true;
    }
  }

  std::set<std::pair<edge, vertex>> delivered;  // (edge, holder index)
  std::int64_t rounds_i = 0, rounds_ii = 0, messages = 0;
  std::vector<vertex> common;  // reused across the case-(i) intersections

  // Case (i): each good v ∈ V−\S learns the induced edges among its S*
  // neighbors. Per-edge loads: |N(v) ∩ S*| out, intersection sizes back.
  for (std::int64_t i = 0; i < k; ++i) {
    const vertex v = a.v_minus[size_t(i)];
    if (is_bad[size_t(v)]) continue;
    std::vector<vertex> star_nbrs;
    for (vertex u : g.neighbors(v))
      if (in_sstar[size_t(u)]) star_nbrs.push_back(u);
    if (star_nbrs.size() < 2) continue;
    rounds_i = std::max(rounds_i, std::int64_t(star_nbrs.size()));
    for (vertex u : star_nbrs) {
      sorted_intersection_into(g.neighbors(u), star_nbrs, common,
                               kGallopFactor, exec.ops);
      messages += std::int64_t(star_nbrs.size()) + std::int64_t(common.size());
      rounds_i = std::max(rounds_i, std::int64_t(common.size()));
      for (vertex w : common)
        if (w > u) delivered.insert({edge{u, w}, vertex(i)});
    }
  }
  // Case (ii): outside u ∉ S* with deg_{V−}(u) >= 1 partitions its outside
  // edges into chunks shipped to its V− neighbors.
  for (vertex u : adjacent_outside) {
    if (in_sstar[size_t(u)]) continue;
    std::vector<vertex> vm_nbrs, out_nbrs;
    for (vertex w : g.neighbors(u)) {
      if (v1_index[size_t(w)] >= 0)
        vm_nbrs.push_back(w);
      else
        out_nbrs.push_back(w);
    }
    if (vm_nbrs.empty() || out_nbrs.empty()) continue;
    const std::int64_t chunk =
        ceil_div(std::int64_t(out_nbrs.size()), std::int64_t(vm_nbrs.size()));
    rounds_ii = std::max(rounds_ii, chunk);
    for (std::size_t t = 0; t < out_nbrs.size(); ++t) {
      const vertex recv = vm_nbrs[t / size_t(chunk)];
      delivered.insert(
          {make_edge(u, out_nbrs[t]), v1_index[size_t(recv)]});
      ++messages;
    }
  }
  res.rounds = rounds_i + rounds_ii;
  net_c.charge(phase, res.rounds, messages);

  // Deduplicate per edge (keep the lowest holder) so |E′| is well-defined.
  edge last{-1, -1};
  for (const auto& [e, h] : delivered) {
    if (e == last) continue;
    last = e;
    res.eprime.edges.push_back(e);
    res.eprime.holder.push_back(h);
  }
  return res;
}

cluster_listing_stats list_kp_in_cluster(
    network& net_c, const graph& g, const cluster_anatomy& a,
    const delivered_edges& eprime, int p, lb_engine engine,
    std::uint64_t seed, clique_collector& out, std::string_view phase,
    runtime::scratch_arena* scratch, enumkernel::exec_config exec) {
  cluster_listing_stats stats;
  if (a.v_minus.size() < 2) return stats;
  cluster_comm cc(net_c, a.v_cluster, a.e_cluster, std::string(phase));

  // Position spaces. V1 = V−_C in id order; V2 = all other graph vertices
  // in id order (outside vertices of cliques can be anywhere in G).
  const std::int64_t k = std::int64_t(a.v_minus.size());
  std::vector<vertex> v1_of(size_t(g.num_vertices()), -1);
  for (std::int64_t i = 0; i < k; ++i)
    v1_of[size_t(a.v_minus[size_t(i)])] = vertex(i);
  std::vector<vertex> v2_list, v2_of(size_t(g.num_vertices()), -1);
  for (vertex v = 0; v < g.num_vertices(); ++v)
    if (v1_of[size_t(v)] == -1) {
      v2_of[size_t(v)] = vertex(v2_list.size());
      v2_list.push_back(v);
    }
  const std::int64_t n2 = std::int64_t(v2_list.size());

  // Pool (cluster-local ids of V−_C, in the same order as positions) and
  // each pool vertex's communication degree.
  std::vector<vertex> pool;
  for (vertex v : a.v_minus) pool.push_back(cc.to_local(v));
  std::vector<std::int64_t> comm_deg;
  for (vertex v : a.v_minus) comm_deg.push_back(a.comm_degree_of(v));

  split_inputs in;
  in.n = g.num_vertices();
  in.n2 = n2;
  for (std::int64_t i = 0; i < k; ++i) {
    const vertex v = a.v_minus[size_t(i)];
    for (vertex u : g.neighbors(v)) {
      if (v1_of[size_t(u)] >= 0) {
        if (v1_of[size_t(u)] > vertex(i))
          in.e1.push_back({vertex(i), v1_of[size_t(u)]});
      } else {
        in.e12.push_back({vertex(i), v2_of[size_t(u)]});
      }
    }
  }
  for (std::size_t j = 0; j < eprime.edges.size(); ++j) {
    const auto& e = eprime.edges[j];
    const vertex pu = v2_of[size_t(e.u)], pv = v2_of[size_t(e.v)];
    DCL_EXPECTS(pu >= 0 && pv >= 0, "E' edge touches V−");
    in.e2.push_back(make_edge(pu, pv));
    in.e2_holder.push_back(eprime.holder[j]);
  }

  for (int p_prime = 2; p_prime <= p; ++p_prime) {
    const int pi = p - p_prime;
    if (pi > 0 && n2 == 0) continue;  // no outside vertices to cover
    const auto tb =
        build_split_tree(cc, pool, comm_deg, in, p, p_prime,
                         "tree" + std::to_string(p_prime));

    // Flatten leaf parts; spread them over V*_C via Lemma 20 (each part is
    // initially kept by one predetermined vertex — Lemma 37).
    const int leaf_depth = p - 1;
    std::vector<std::int64_t> leaf_base(
        size_t(tb.tree.num_nodes(leaf_depth)), 0);
    std::vector<part_ref> leaf_parts;
    for (std::int64_t node = 0; node < tb.tree.num_nodes(leaf_depth);
         ++node) {
      leaf_base[size_t(node)] = std::int64_t(leaf_parts.size());
      const auto& part = tb.tree.partition_at(leaf_depth, node);
      for (int j = 0; j < part.num_parts(); ++j)
        leaf_parts.push_back({leaf_depth, node, j});
    }
    std::vector<vertex> leaf_holder(leaf_parts.size());
    for (std::size_t i = 0; i < leaf_parts.size(); ++i)
      leaf_holder[i] = vertex(std::int64_t(i) % k);
    const std::string assign_phase = "leafassign" + std::to_string(p_prime);
    std::vector<vertex> assignment;
    if (engine == lb_engine::unbalanced) {
      assignment = leaf_holder;  // id-order, no degree awareness
    } else if (engine == lb_engine::randomized) {
      // Lemma 20 over a seeded permutation of the pool: every holder keeps
      // its item, only the order Algorithm 1 walks the pool in changes.
      std::vector<vertex> perm(pool.size()), pos_of(pool.size());
      std::iota(perm.begin(), perm.end(), vertex(0));
      prng rng(seed + std::uint64_t(p_prime));
      rng.shuffle(perm);
      std::vector<vertex> perm_pool(pool.size());
      std::vector<std::int64_t> perm_deg(pool.size());
      for (std::int64_t i = 0; i < k; ++i) {
        const vertex from = perm[size_t(i)];
        pos_of[size_t(from)] = vertex(i);
        perm_pool[size_t(i)] = pool[size_t(from)];
        perm_deg[size_t(i)] = comm_deg[size_t(from)];
      }
      std::vector<vertex> perm_holder(leaf_holder.size());
      for (std::size_t j = 0; j < leaf_holder.size(); ++j)
        perm_holder[j] = pos_of[size_t(leaf_holder[j])];
      assignment = degree_balanced_assignment(cc, perm_pool, perm_deg,
                                              perm_holder, assign_phase);
      for (vertex& x : assignment) x = perm[size_t(x)];
    } else {
      assignment = degree_balanced_assignment(cc, pool, comm_deg,
                                              leaf_holder, assign_phase);
    }
    stats.leaf_parts += std::int64_t(leaf_parts.size());

    // ---- Edge learning: ship every known edge to every lister whose leaf
    // chain it crosses; then list locally.
    std::vector<edge_list> learned(leaf_parts.size());
    enumkernel::enum_scratch local_ws;
    enumkernel::enum_scratch& ws =
        scratch != nullptr ? scratch->get<enumkernel::enum_scratch>()
                           : local_ws;
    message_batch& traffic = cc.outbox(0);
    traffic.clear();
    std::vector<std::int64_t> recv_words(pool.size(), 0);  // per pool index
    std::vector<std::int64_t> hit_leaves;
    auto ship = [&](bool a_is_v2, std::int64_t pa, bool b_is_v2,
                    std::int64_t pb, edge orig, vertex holder_local) {
      hit_leaves.clear();
      leaves_needing_edge(tb.tree, pi, a_is_v2, pa, b_is_v2, pb, hit_leaves,
                          leaf_base);
      std::sort(hit_leaves.begin(), hit_leaves.end());
      hit_leaves.erase(std::unique(hit_leaves.begin(), hit_leaves.end()),
                       hit_leaves.end());
      for (const auto lid : hit_leaves) {
        learned[size_t(lid)].push_back(orig);
        ++recv_words[size_t(assignment[size_t(lid)])];
        const vertex lister = pool[size_t(assignment[size_t(lid)])];
        if (lister != holder_local) traffic.emplace(holder_local, lister);
      }
    };
    for (const auto& e : in.e1)
      ship(false, e.u, false, e.v,
           make_edge(a.v_minus[size_t(e.u)], a.v_minus[size_t(e.v)]),
           pool[size_t(e.u)]);
    for (const auto& e : in.e12)
      ship(false, e.u, true, e.v,
           make_edge(a.v_minus[size_t(e.u)], v2_list[size_t(e.v)]),
           pool[size_t(e.u)]);
    for (std::size_t j = 0; j < in.e2.size(); ++j) {
      const auto& e = in.e2[j];
      ship(true, e.u, true, e.v,
           make_edge(v2_list[size_t(e.u)], v2_list[size_t(e.v)]),
           pool[size_t(tb.v2_owner[size_t(e.u)])]);
    }
    for (std::int64_t i = 0; i < k; ++i)
      if (comm_deg[size_t(i)] > 0)
        stats.max_normalized_load =
            std::max(stats.max_normalized_load,
                     double(recv_words[size_t(i)]) /
                         double(comm_deg[size_t(i)]));
    cc.route(traffic, "learn" + std::to_string(p_prime));

    std::set<vertex> listers;
    for (std::size_t lid = 0; lid < leaf_parts.size(); ++lid) {
      auto& le = learned[lid];
      if (le.empty()) continue;
      listers.insert(assignment[lid]);
      std::sort(le.begin(), le.end());
      le.erase(std::unique(le.begin(), le.end()), le.end());
      // Learned edges already carry parent ids — emit kernel tuples as-is.
      enumkernel::enumerate_cliques_in_edges(
          le, p, ws, [&](std::span<const vertex> c) { out.emit(c); }, exec);
    }
    stats.listers += std::int64_t(listers.size());
  }
  return stats;
}

}  // namespace dcl
