#include "core/ptree/build_split.hpp"

#include <algorithm>

#include "core/ptree/layer_algorithm.hpp"
#include "core/streaming/pp_simulate.hpp"
#include "support/check.hpp"
#include "support/math_util.hpp"

namespace dcl {

namespace {

/// Sorted neighbor lists per position.
std::vector<std::vector<vertex>> adjacency(std::int64_t domain,
                                           const edge_list& edges,
                                           bool directed_from_u) {
  std::vector<std::vector<vertex>> adj(static_cast<std::size_t>(domain));
  for (const auto& e : edges) {
    adj[size_t(e.u)].push_back(e.v);
    if (!directed_from_u) adj[size_t(e.v)].push_back(e.u);
  }
  for (auto& a : adj) std::sort(a.begin(), a.end());
  return adj;
}

std::int64_t count_range(const std::vector<vertex>& sorted, std::int64_t lo,
                         std::int64_t hi) {
  return std::lower_bound(sorted.begin(), sorted.end(), vertex(hi)) -
         std::lower_bound(sorted.begin(), sorted.end(), vertex(lo));
}

struct pending_node {
  std::vector<part_ref> chain;
};

std::vector<pending_node> pending_at_depth(const partition_tree& tree,
                                           int depth) {
  std::vector<pending_node> nodes;
  if (depth == 0) {
    nodes.push_back({});
    return nodes;
  }
  for (std::int64_t node = 0; node < tree.num_nodes(depth - 1); ++node) {
    const auto& part = tree.partition_at(depth - 1, node);
    for (int j = 0; j < part.num_parts(); ++j)
      nodes.push_back({tree.anc(depth - 1, node, j)});
  }
  return nodes;
}

}  // namespace

split_tree_build build_split_tree(cluster_comm& cc,
                                  std::span<const vertex> pool,
                                  std::span<const std::int64_t> comm_deg,
                                  const split_inputs& in, int p, int p_prime,
                                  std::string_view phase) {
  const std::int64_t k = std::int64_t(pool.size());
  DCL_EXPECTS(k >= 1, "empty pool");
  DCL_EXPECTS(p >= 4 && p_prime >= 2 && p_prime <= p, "bad p/p' parameters");
  DCL_EXPECTS(p <= 6, "token capacity supports p <= 6");
  const int pi = p - p_prime;

  split_tree_build out;
  out.a = std::max<std::int64_t>(1, ceil_root(k, p));
  out.b = out.a;  // Theorem 26 uses a = b = ceil(k^{1/p})

  const std::int64_t m1 = std::int64_t(in.e1.size());
  const std::int64_t m2 = std::int64_t(in.e2.size());
  const std::int64_t m12 = std::int64_t(in.e12.size());
  const double mt1 = double(std::max(m1, k * out.a));
  const double mt2 = double(std::max(m2, in.n * out.b));
  const double mt12 = double(std::max(m12, in.n * out.a));
  constexpr double c1 = 8.0, c2 = 36.0;

  const auto adj1 = adjacency(k, in.e1, false);
  const auto adj2 = adjacency(in.n2, in.e2, false);
  std::vector<std::vector<vertex>> adj12_by1(static_cast<std::size_t>(k));   // V1 -> V2 nbrs
  std::vector<std::int64_t> deg12_by2(size_t(in.n2), 0);   // V2 -> #V1 nbrs
  for (const auto& e : in.e12) {
    adj12_by1[size_t(e.u)].push_back(e.v);
    ++deg12_by2[size_t(e.v)];
  }
  for (auto& a : adj12_by1) std::sort(a.begin(), a.end());

  // ---- Theorem 31: deg* spread (Lemma 27) and the vertex chain E.
  std::vector<std::int64_t> tail_mass(size_t(in.n2), 0);
  for (const auto& e : in.e2) {
    ++tail_mass[size_t(e.u)];
    ++tail_mass[size_t(e.v)];
  }
  for (std::int64_t u = 0; u < in.n2; ++u)
    tail_mass[size_t(u)] += deg12_by2[size_t(u)];
  {
    // One deg* report per V2 vertex with edges; reporters spread evenly.
    std::int64_t reports = 0;
    for (std::int64_t u = 0; u < in.n2; ++u)
      if (tail_mass[size_t(u)] > 0) ++reports;
    std::vector<std::int64_t> per_vertex(size_t(cc.size()), 0);
    for (std::int64_t r = 0; r < reports; ++r)
      ++per_vertex[size_t(pool[size_t(r % k)])];
    cc.allgather(per_vertex, std::string(phase) + "/degstar");
  }
  // Chain: V2 positions in order, quota proportional to comm degree.
  out.v2_owner.assign(size_t(in.n2), vertex(k - 1));
  {
    std::int64_t total_mass = 0;
    for (auto w : tail_mass) total_mass += w;
    std::int64_t total_deg = 0;
    for (auto d : comm_deg) total_deg += d;
    std::int64_t pos = 0;
    for (std::int64_t i = 0; i < k && pos < in.n2; ++i) {
      const std::int64_t quota =
          total_deg > 0
              ? ceil_div(std::max<std::int64_t>(total_mass, 1) *
                             std::max<std::int64_t>(comm_deg[size_t(i)], 1),
                         total_deg)
              : ceil_div(in.n2, k);
      std::int64_t used = 0;
      while (pos < in.n2 && (used < quota || i == k - 1)) {
        out.v2_owner[size_t(pos)] = vertex(i);
        used += std::max<std::int64_t>(tail_mass[size_t(pos)], 1);
        ++pos;
      }
    }
    for (; pos < in.n2; ++pos) out.v2_owner[size_t(pos)] = vertex(k - 1);
  }
  // Owner ranges [v2_first[i], v2_first[i+1]) per pool vertex.
  std::vector<std::int64_t> v2_first(size_t(k) + 1, in.n2);
  for (std::int64_t pos = in.n2 - 1; pos >= 0; --pos)
    v2_first[size_t(out.v2_owner[size_t(pos)])] = pos;
  for (std::int64_t i = k - 1; i >= 0; --i)
    if (v2_first[size_t(i)] == in.n2)
      v2_first[size_t(i)] = v2_first[size_t(i) + 1];

  // Route every Ē/E′ edge to the chain owner of its tail (both copies for
  // E′ — Lemma 38 ships both directions).
  {
    // Receipt is modeled (owners read the position-space inputs locally),
    // so the move batch stages in the shared outbox.
    message_batch& moves = cc.outbox(0);
    moves.clear();
    for (std::size_t j = 0; j < in.e2.size(); ++j) {
      const auto& e = in.e2[j];
      const vertex holder = pool[size_t(in.e2_holder[j])];
      for (const auto tail : {e.u, e.v}) {
        const vertex owner = pool[size_t(out.v2_owner[size_t(tail)])];
        if (owner == holder) continue;
        moves.emplace(holder, owner);
      }
    }
    for (const auto& e : in.e12) {
      const vertex holder = pool[size_t(e.u)];  // the V1 head holds Ē
      const vertex owner = pool[size_t(out.v2_owner[size_t(e.v)])];
      if (owner == holder) continue;
      moves.emplace(holder, owner);
    }
    cc.route(moves, std::string(phase) + "/thm31");
  }

  // ---- Layers (Lemma 30): one Algorithm 2 machine per pending node.
  for (int depth = 0; depth < p; ++depth) {
    const bool v2_layer = depth < pi;
    const std::int64_t domain = v2_layer ? in.n2 : k;
    // n2 == 0 with V2 layers cannot happen for clusters produced by the
    // driver (a K_p-compatible cluster always has outside vertices).
    DCL_ENSURE(domain > 0, "empty layer domain in split tree");
    const auto pending = pending_at_depth(out.tree, depth);
    const std::int64_t fanout = v2_layer ? out.b : out.a;

    std::vector<greedy_layer_algorithm> algs;
    algs.reserve(pending.size());
    std::vector<pp_instance> insts;
    insts.reserve(pending.size());
    for (std::size_t nidx = 0; nidx < pending.size(); ++nidx) {
      const auto& chain = pending[nidx].chain;
      std::vector<greedy_layer_algorithm::counter_spec> spec;
      if (v2_layer) {
        // fields: 0 = deg_e2, 1 = deg_e12; 2.. = anc degrees (all V2).
        spec.push_back(
            {{0}, std::int64_t(c1 * double(m2) / double(out.b) + double(in.n))});
        spec.push_back(
            {{1},
             std::int64_t(c1 * double(m12) / double(out.b) + double(in.n))});
        if (depth > 0) {
          std::vector<int> fields;
          for (int t = 0; t < depth; ++t) fields.push_back(2 + t);
          spec.push_back(
              {std::move(fields),
               std::int64_t(c2 * double(depth) * mt2 /
                                double(out.b * out.b) +
                            double(in.n))});
        }
      } else {
        // fields: 0 = deg_e1; 1.. = anc degrees (V2 anc via e12, V1 via e1).
        spec.push_back(
            {{0}, std::int64_t(c1 * double(m1) / double(out.a) + double(k))});
        std::vector<int> f_v1, f_v2;
        for (int t = 0; t < depth; ++t)
          (chain[size_t(t)].depth < pi ? f_v2 : f_v1).push_back(1 + t);
        if (!f_v1.empty())
          spec.push_back(
              {std::move(f_v1),
               std::int64_t(c2 * double(depth - pi) * mt1 /
                                double(out.a * out.a) +
                            double(k))});
        if (!f_v2.empty())
          spec.push_back(
              {std::move(f_v2),
               std::int64_t(c2 * double(pi) * mt12 /
                                double(out.a * out.b) +
                            double(in.n))});
      }
      algs.emplace_back(std::move(spec), domain, fanout + 4);
    }
    for (std::size_t nidx = 0; nidx < pending.size(); ++nidx) {
      const auto& chain = pending[nidx].chain;
      std::vector<std::pair<std::int64_t, std::int64_t>> anc_bounds;
      std::vector<bool> anc_is_v2;
      for (const auto& w : chain) {
        anc_bounds.push_back(out.tree.part_bounds(w));
        anc_is_v2.push_back(w.depth < pi);
      }
      pp_instance inst;
      inst.alg = &algs[nidx];
      if (v2_layer) {
        inst.segment = [&, anc_bounds](vertex i) {
          pp_stream s;
          const std::int64_t lo = v2_first[size_t(i)];
          const std::int64_t hi = v2_first[size_t(i) + 1];
          if (lo >= hi) return s;
          pp_main_entry e;
          e.main.push(std::uint64_t(lo));
          e.main.push(std::uint64_t(hi - 1));
          std::vector<std::uint64_t> sums(2 + anc_bounds.size(), 0);
          for (std::int64_t u = lo; u < hi; ++u) {
            pp_token aux;
            aux.push(std::uint64_t(u));
            const auto d2 = std::uint64_t(adj2[size_t(u)].size());
            const auto d1 = std::uint64_t(deg12_by2[size_t(u)]);
            aux.push(d2);
            aux.push(d1);
            sums[0] += d2;
            sums[1] += d1;
            for (std::size_t t = 0; t < anc_bounds.size(); ++t) {
              const auto cnt = std::uint64_t(count_range(
                  adj2[size_t(u)], anc_bounds[t].first, anc_bounds[t].second));
              aux.push(cnt);
              sums[2 + t] += cnt;
            }
            e.aux.push_back(aux);
          }
          for (auto v : sums) e.main.push(v);
          s.push_back(e);
          return s;
        };
      } else {
        inst.segment = [&, anc_bounds, anc_is_v2](vertex i) {
          pp_stream s;
          pp_main_entry e;
          e.main.push(std::uint64_t(std::uint32_t(i)));
          e.main.push(std::uint64_t(std::uint32_t(i)));
          e.main.push(std::uint64_t(adj1[size_t(i)].size()));
          for (std::size_t t = 0; t < anc_bounds.size(); ++t) {
            const auto& src =
                anc_is_v2[t] ? adj12_by1[size_t(i)] : adj1[size_t(i)];
            e.main.push(std::uint64_t(count_range(
                src, anc_bounds[t].first, anc_bounds[t].second)));
          }
          s.push_back(e);
          return s;
        };
      }
      insts.push_back(std::move(inst));
    }
    const auto rep = pp_simulate(
        cc, pool, insts, 1,
        std::string(phase) + "/layer" + std::to_string(depth));

    std::vector<interval_partition> partitions;
    std::vector<std::int64_t> holder_counts(size_t(cc.size()), 0);
    partitions.reserve(pending.size());
    for (std::size_t nidx = 0; nidx < pending.size(); ++nidx) {
      const auto& o = rep.outputs[nidx];
      std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
      for (std::size_t t = 0; t < o.output.size(); ++t) {
        intervals.emplace_back(std::int64_t(o.output[t].at(0)),
                               std::int64_t(o.output[t].at(1)));
        ++holder_counts[size_t(pool[size_t(o.holder[t])])];
      }
      partitions.push_back(
          interval_partition::from_intervals(intervals, domain));
    }
    out.tree.push_layer(std::move(partitions), domain);
    // Lemma 27: the finished layer becomes known to all of V−_C.
    cc.allgather(holder_counts,
                 std::string(phase) + "/spread" + std::to_string(depth));
  }
  return out;
}

}  // namespace dcl
