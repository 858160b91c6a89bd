#include <algorithm>
#include <chrono>
#include <set>
#include <string>

#include "congest/network.hpp"
#include "core/listing/driver.hpp"
#include "core/listing/driver_detail.hpp"
#include "core/listing/kp_cluster.hpp"
#include "core/listing/two_hop.hpp"
#include "expander/cost_model.hpp"
#include "expander/decomposition.hpp"
#include "runtime/merge.hpp"
#include "runtime/thread_pool.hpp"
#include "support/check.hpp"
#include "support/math_util.hpp"
#include "support/prng.hpp"

namespace dcl {

namespace {

/// Lemma 43 delivery of E′ into one cluster, plus the S*/S classification
/// (§6.1, with the graph-edge communication degrees of DESIGN.md §2.5).
/// Returns the delivered edges and charges the measured exchange loads.
struct delivery_result {
  delivered_edges eprime;
  std::vector<vertex> s_bad;  ///< S_C (current-level graph ids)
  std::int64_t rounds = 0;
};

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

}  // namespace

listing_report list_kp_congest(const graph& g, const listing_query& q,
                               runtime::thread_pool& pool,
                               runtime::query_scratch& scratch,
                               clique_collector& out,
                               const congest_shard_plan* plan,
                               enumkernel::exec_config exec) {
  DCL_EXPECTS(q.p >= 4 && q.p <= kCongestMaxP,
              "list_kp_congest supports 4 <= p <= 6");
  DCL_EXPECTS(q.epsilon < 1.0,
              "epsilon must be below 1 (0 selects the default)");
  listing_report rep;  // fresh per run — never resets caller state
  // Every mutable byte of this run lives in `scratch` (one arena per
  // worker slot) or on this stack frame; the pool and graph stay strictly
  // read-only, which is what lets many runs share them concurrently.
  scratch.ensure_workers(pool.size());

  const double epsilon =
      q.epsilon > 0 ? q.epsilon : (q.p == 4 ? 1.0 / 12.0 : 1.0 / 18.0);
  const std::int64_t n_budget =
      budget_n_1_minus_2_over_p(g.num_vertices(), q.p);
  const bool tracing = q.trace;
  auto tlog = tracing ? std::make_shared<trace_log>()
                      : std::shared_ptr<trace_log>{};
  trace_recorder seq_rec;  // fallback gathers: the run-sequential scope
  trace_recorder* seq = tracing ? &seq_rec : nullptr;
  // Sharded runs: the fallback gathers form one sequential branch owned by
  // exactly one shard (rep vertex 0); charges flow through a local ledger
  // so the owner can export them as a scoped entry (see k3_driver).
  const bool seq_owned =
      plan == nullptr || plan->owns(-1, kTraceBranchSequential, 0);
  const auto run_fallback = [&](const graph& c) {
    const auto t0 = std::chrono::steady_clock::now();
    if (seq_owned) {
      cost_ledger fb;
      detail::central_fallback(c, q.p, out, fb, seq, exec);
      if (plan != nullptr && plan->scoped != nullptr)
        plan->scoped->push_back({-1, kTraceBranchSequential, fb});
      rep.ledger.merge_sequential(fb);
    }
    rep.phase_seconds["fallback"] += detail::seconds_since(t0);
  };
  const auto run_t0 = std::chrono::steady_clock::now();
  graph cur = g;
  bool done = false;

  for (int level = 0; level < q.max_levels && !done; ++level) {
    if (cur.num_edges() == 0) {
      done = true;
      break;
    }
    level_stats ls;
    ls.edges_before = cur.num_edges();
    if (cur.num_edges() <= q.base_case_edges) {
      run_fallback(cur);
      rep.levels.push_back(ls);
      done = true;
      break;
    }

    decomposition_options dopt;
    dopt.epsilon = epsilon;
    const auto dec_t0 = std::chrono::steady_clock::now();
    const auto d = decompose(cur, dopt);
    rep.model_decomposition_rounds +=
        cs20_decomposition_rounds(cur.num_vertices(), epsilon);
    rep.phase_seconds["decompose"] += detail::seconds_since(dec_t0);
    const auto ana_t0 = std::chrono::steady_clock::now();
    const auto anatomy =
        build_anatomy(cur, d, {.p = q.p, .beta = q.beta});
    rep.phase_seconds["anatomy"] += detail::seconds_since(ana_t0);
    ls.clusters = std::int64_t(anatomy.size());

    cost_ledger level_ledger;
    edge_list removed;

    // Lemma 41: exhaustive search around the low-degree open vertices.
    {
      const auto exh_t0 = std::chrono::steady_clock::now();
      cost_ledger exh_ledger;
      trace_recorder exh_rec;
      network exh_net(cur, exh_ledger, nullptr,
                      tracing ? &exh_rec : nullptr);
      std::vector<vertex> targets;
      std::int64_t alpha = 0;
      std::vector<bool> is_low(size_t(cur.num_vertices()), false);
      for (const auto& a : anatomy) {
        for (vertex v : a.v_open)
          if (!a.in_v_minus(v)) {
            targets.push_back(v);
            is_low[size_t(v)] = true;
            alpha = std::max<std::int64_t>(alpha, cur.degree(v));
          }
        ls.low_degree_targets +=
            std::int64_t(a.v_open.size() - a.v_minus.size());
      }
      std::sort(targets.begin(), targets.end());
      // The exhaustive sweep is one parallel branch; its ownership
      // representative is the smallest target. Non-owners still computed
      // targets/is_low above (the retirement below is control plane).
      if (!targets.empty() &&
          (plan == nullptr ||
           plan->owns(level, kTraceBranchExhaustive, targets.front()))) {
        clique_collector exh_out(q.p);
        // Runs sequentially before the cluster fan-out, so slot 0 is free:
        // the exhaustive listing's workspace stays warm across levels and
        // queries instead of being rebuilt call-local.
        two_hop_listing(exh_net, cur, targets, alpha, q.p, exh_out,
                        "exhaustive", {}, &scratch.arena(0), exec);
        const auto found = exh_out.finalize();
        for (std::int64_t t = 0; t < found.size(); ++t) out.emit(found[t]);
        level_ledger.merge_parallel(exh_ledger);
        if (plan != nullptr && plan->scoped != nullptr)
          plan->scoped->push_back({level, kTraceBranchExhaustive,
                                   exh_ledger});
        if (tracing)
          tlog->absorb(exh_rec, level, kTraceBranchExhaustive,
                       std::int64_t(cur.num_vertices()), 0.0);
      }
      // E− edges with a low-degree open endpoint are fully covered.
      for (const auto& a : anatomy)
        for (const auto& e : a.e_minus)
          if (is_low[size_t(e.u)] || is_low[size_t(e.v)])
            removed.push_back(e);
      rep.phase_seconds["exhaustive"] += detail::seconds_since(exh_t0);
    }

    // Per cluster: delivery, overload test, split-tree listing — every
    // cluster of the level simultaneously on the runtime pool. Each task is
    // self-contained (own ledger, own collector, own delivery); outcomes
    // fold back in cluster-index order so the report stays bit-identical
    // for every sim_threads value. A deferred cluster's deliver cost is
    // dropped with its ledger (and its trace), exactly as in the
    // sequential formulation.
    const auto clu_t0 = std::chrono::steady_clock::now();
    const auto outcomes = runtime::run_indexed<detail::cluster_outcome>(
        pool, std::int64_t(anatomy.size()),
        [&](int worker, std::int64_t ci) {
          detail::cluster_outcome oc(q.p);
          const auto& a = anatomy[size_t(ci)];
          if (a.v_minus.size() < 2) return oc;
          oc.considered = true;
          // Sharded: every shard still runs the cluster's control plane —
          // E′ delivery (for S/S* and the overload test) and the removal
          // rule are pure functions of the level graph — but only the
          // owner lists and keeps the ledger/trace. A non-owner's deliver
          // charges die with its dropped ledger.
          const bool owned =
              plan == nullptr ||
              plan->owns(level, std::int64_t(ci), detail::cluster_rep(a));
          // The worker slot's lease-parked transport keeps delivery scratch
          // and staging outboxes capacity-warm across this slot's clusters.
          network net_c(cur, oc.ledger,
                        &scratch.arena(worker).get<transport>(),
                        (tracing && owned) ? &oc.rec : nullptr);
          const std::string cl = "cluster" + std::to_string(ci);

          const auto del = deliver_eprime(net_c, cur, a, n_budget,
                                         cl + "/deliver", exec);
          oc.bad_vertices = std::int64_t(del.s_bad.size());

          // Lemma 44 overload test: defer clusters whose communication
          // volume cannot absorb their E′ share.
          std::int64_t e_vm_vc = 0;
          for (vertex v : a.v_minus) e_vm_vc += a.comm_degree_of(v);
          const bool overloaded =
              double(e_vm_vc) / double(a.v_minus.size()) <=
              double(del.eprime.edges.size()) /
                  (q.gamma * double(cur.num_vertices()));
          if (overloaded) {
            oc.deferred = true;
            return oc;
          }

          // Removal rule (DESIGN.md §2.4/2.5): E− edges inside V− with a
          // good endpoint are fully covered by this cluster's listing.
          // Depends only on the anatomy and S_C, so non-owners retire the
          // same edges without listing.
          std::vector<bool> is_bad(size_t(cur.num_vertices()), false);
          for (vertex v : del.s_bad) is_bad[size_t(v)] = true;
          for (const auto& e : a.e_minus) {
            if (!a.in_v_minus(e.u) || !a.in_v_minus(e.v)) continue;
            if (is_bad[size_t(e.u)] && is_bad[size_t(e.v)]) continue;
            oc.removed.push_back(e);
          }
          if (!owned) return oc;
          oc.listed = true;

          oc.stats = list_kp_in_cluster(
              net_c, cur, a, del.eprime, q.p, q.lb,
              splitmix64(q.seed + std::uint64_t(ci)), oc.cliques, cl,
              &scratch.arena(worker), exec);
          return oc;
        });
    for (std::size_t ci = 0; ci < anatomy.size(); ++ci) {
      const auto& oc = outcomes[ci];
      if (!oc.considered) continue;
      ls.bad_vertices += oc.bad_vertices;
      if (oc.deferred) {
        ++ls.deferred_clusters;
        continue;
      }
      ++ls.clusters_listed;
      removed.insert(removed.end(), oc.removed.begin(), oc.removed.end());
      if (!oc.listed) continue;
      level_ledger.merge_parallel(oc.ledger);
      if (plan != nullptr && plan->scoped != nullptr)
        plan->scoped->push_back({level, std::int64_t(ci), oc.ledger});
      if (tracing)
        tlog->absorb(oc.rec, level, std::int64_t(ci),
                     std::int64_t(anatomy[ci].v_cluster.size()),
                     anatomy[ci].certified_phi);
      out.absorb(oc.cliques);
    }
    rep.ledger.merge_sequential(level_ledger);
    rep.phase_seconds["clusters"] += detail::seconds_since(clu_t0);

    std::sort(removed.begin(), removed.end());
    removed.erase(std::unique(removed.begin(), removed.end()),
                  removed.end());
    ls.edges_removed = std::int64_t(removed.size());
    rep.levels.push_back(ls);

    if (removed.empty()) {
      run_fallback(cur);
      rep.used_fallback = true;
      done = true;
      break;
    }
    cur = detail::remove_edges(cur, removed);
    if (cur.num_edges() == 0) done = true;
  }
  if (!done && cur.num_edges() > 0) {
    run_fallback(cur);
    rep.used_fallback = true;
  }
  if (tracing) {
    if (!seq_rec.empty())
      tlog->absorb(seq_rec, -1, kTraceBranchSequential,
                   std::int64_t(g.num_vertices()), 0.0);
    rep.trace_stats = tlog->summarize();
    rep.trace = std::move(tlog);
  }
  rep.phase_seconds["total"] += detail::seconds_since(run_t0);
  return rep;
}

}  // namespace dcl
