#include <algorithm>
#include <chrono>
#include <string>

#include "core/listing/driver.hpp"
#include "core/listing/driver_detail.hpp"
#include "congest/network.hpp"
#include "enumkernel/kernel.hpp"
#include "expander/cost_model.hpp"
#include "expander/decomposition.hpp"
#include "runtime/merge.hpp"
#include "runtime/thread_pool.hpp"
#include "support/check.hpp"
#include "support/prng.hpp"

namespace dcl {

namespace detail {

/// Shared base-case fallback: gather the residual graph at a per-component
/// leader (cost charged exactly) and list centrally.
void central_fallback(const graph& cur, int p, clique_collector& out,
                      cost_ledger& ledger, trace_recorder* rec,
                      enumkernel::exec_config exec) {
  network net(cur, ledger, nullptr, rec);
  net.charge_gather_all_edges("fallback/gather");
  enumkernel::enum_scratch ws;
  enumkernel::enumerate_cliques(
      cur, p, ws, [&](std::span<const vertex> c) { out.emit(c); },
      enumkernel::orientation_policy::degeneracy, exec);
}

graph remove_edges(const graph& cur, const edge_list& removed) {
  edge_list next;
  next.reserve(cur.edges().size() - removed.size());
  std::size_t ri = 0;
  for (const auto& e : cur.edges()) {
    while (ri < removed.size() && removed[ri] < e) ++ri;
    if (ri < removed.size() && removed[ri] == e) continue;
    next.push_back(e);
  }
  return graph(cur.num_vertices(), next);
}

}  // namespace detail

listing_report list_triangles_congest(const graph& g, const listing_query& q,
                                      runtime::thread_pool& pool,
                                      runtime::query_scratch& scratch,
                                      clique_collector& out,
                                      const congest_shard_plan* plan,
                                      enumkernel::exec_config exec) {
  DCL_EXPECTS(q.p == 3, "use list_kp_congest for p >= 4");
  DCL_EXPECTS(q.epsilon < 1.0,
              "epsilon must be below 1 (0 selects the default)");
  listing_report rep;  // fresh per run — never resets caller state
  // Every mutable byte of this run lives in `scratch` (one arena per
  // worker slot) or on this stack frame; the pool and graph stay strictly
  // read-only, which is what lets many runs share them concurrently.
  scratch.ensure_workers(pool.size());

  const double epsilon = q.epsilon > 0 ? q.epsilon : 1.0 / 18.0;
  const bool tracing = q.trace;
  auto tlog = tracing ? std::make_shared<trace_log>()
                      : std::shared_ptr<trace_log>{};
  trace_recorder seq_rec;  // fallback gathers: the run-sequential scope
  trace_recorder* seq = tracing ? &seq_rec : nullptr;
  // Sharded runs: the fallback gathers are one sequential branch; the plan
  // assigns it to exactly one shard (rep vertex 0 by convention). Solo owns
  // everything. The charges go through a capturable local ledger so the
  // owning worker can export them as a (level -1, sequential) scoped entry.
  const bool seq_owned =
      plan == nullptr || plan->owns(-1, kTraceBranchSequential, 0);
  const auto run_fallback = [&](const graph& c) {
    const auto t0 = std::chrono::steady_clock::now();
    if (seq_owned) {
      cost_ledger fb;
      detail::central_fallback(c, 3, out, fb, seq, exec);
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
    const auto anatomy = build_anatomy(cur, d, {.p = 3});
    rep.phase_seconds["anatomy"] += detail::seconds_since(ana_t0);
    ls.clusters = std::int64_t(anatomy.size());

    cost_ledger level_ledger;
    edge_list removed;
    // All clusters of this level list simultaneously (the paper's
    // within-level parallelism, now also hardware parallelism): each task
    // runs against its own ledger/collector, and outcomes fold back in
    // cluster-index order, so the merged ledger, report, trace and clique
    // set are bit-identical for every sim_threads value.
    const auto clu_t0 = std::chrono::steady_clock::now();
    const auto outcomes = runtime::run_indexed<detail::cluster_outcome>(
        pool, std::int64_t(anatomy.size()),
        [&](int worker, std::int64_t ci) {
          detail::cluster_outcome oc(3);
          const auto& a = anatomy[size_t(ci)];
          if (a.e_minus.empty()) return oc;
          oc.considered = true;
          // Sharded: a cluster another shard owns contributes only its
          // structural outputs here (its E− retirement and level stats);
          // the owner lists it and exports the ledger/trace/cliques.
          if (plan != nullptr &&
              !plan->owns(level, std::int64_t(ci), detail::cluster_rep(a)))
            return oc;
          oc.listed = true;
          // The worker slot's lease-parked transport keeps delivery scratch
          // and staging outboxes capacity-warm across this slot's clusters.
          network net_c(cur, oc.ledger,
                        &scratch.arena(worker).get<transport>(),
                        tracing ? &oc.rec : nullptr);
          oc.stats = list_k3_in_cluster(
              net_c, cur, a, q.lb, splitmix64(q.seed + std::uint64_t(ci)),
              oc.cliques, "cluster" + std::to_string(ci),
              &scratch.arena(worker), exec);
          return oc;
        });
    for (std::size_t ci = 0; ci < anatomy.size(); ++ci) {
      const auto& oc = outcomes[ci];
      if (!oc.considered) continue;
      const auto& a = anatomy[ci];
      removed.insert(removed.end(), a.e_minus.begin(), a.e_minus.end());
      ++ls.clusters_listed;
      ls.low_degree_targets +=
          std::int64_t(a.v_cluster.size() - a.v_minus.size());
      if (!oc.listed) continue;
      rep.max_normalized_load =
          std::max(rep.max_normalized_load, oc.stats.max_normalized_load);
      level_ledger.merge_parallel(oc.ledger);
      if (plan != nullptr && plan->scoped != nullptr)
        plan->scoped->push_back({level, std::int64_t(ci), oc.ledger});
      if (tracing)
        tlog->absorb(oc.rec, level, std::int64_t(ci),
                     std::int64_t(a.v_cluster.size()), a.certified_phi);
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
      // No progress possible through the decomposition (degenerate input);
      // fall back to central listing of the residual graph.
      run_fallback(cur);
      rep.used_fallback = true;
      done = true;
      break;
    }
    cur = detail::remove_edges(cur, removed);
    if (cur.num_edges() == 0) done = true;
  }
  if (!done && cur.num_edges() > 0) {
    // Level budget exhausted: unconditional correctness via the fallback.
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
