#include "core/listing/driver.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <string>

#include "congest/network.hpp"
#include "core/listing/kp_cluster.hpp"
#include "core/listing/two_hop.hpp"
#include "enumkernel/kernel.hpp"
#include "expander/cost_model.hpp"
#include "expander/decomposition.hpp"
#include "runtime/merge.hpp"
#include "runtime/thread_pool.hpp"
#include "support/check.hpp"
#include "support/math_util.hpp"
#include "support/prng.hpp"

namespace dcl {

namespace {

/// Everything one cluster's listing task produces. Tasks run concurrently
/// on the runtime pool, each against its own ledger/collector (the message
/// layer is instance-local, so per-task instances make the level fan-out
/// race-free); the driver then folds outcomes in cluster-index order —
/// merge_parallel for the ledger, absorb for the cliques — so the merged
/// report and clique set are identical for every sim_threads value.
struct cluster_outcome {
  explicit cluster_outcome(int p) : cliques(p) {}

  cost_ledger ledger;
  trace_recorder rec;  ///< filled only when the query enables tracing
  clique_collector cliques;
  cluster_listing_stats stats;
  edge_list removed;              ///< E− edges this cluster retires
  std::int64_t bad_vertices = 0;  ///< |S_C| (p >= 4)
  bool deferred = false;          ///< overloaded, deliver cost dropped (p >= 4)
  /// This run listed the cluster's cliques. Solo: listed == !deferred.
  /// Sharded (congest_shard_plan): false for clusters another
  /// shard owns — their structural outputs (stats, removed edges) still
  /// fold, but ledger, trace, and cliques are dropped here and supplied by
  /// the owning shard instead.
  bool listed = false;
};

/// A parallel branch's ownership representative for congest_shard_plan:
/// the smallest vertex of the cluster — a pure function of the anatomy, so
/// every shard computes the same owner for the same branch.
vertex cluster_rep(const cluster_anatomy& a) {
  return *std::min_element(a.v_cluster.begin(), a.v_cluster.end());
}

/// Wall-clock seconds elapsed since `t0` (listing_report::phase_seconds).
double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Bitwise key equality: a memo key is an exact replay of the query's
/// doubles, never a tolerance match.
bool same_key(const skeleton_memo::key& a, const skeleton_memo::key& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  return a.p == b.p && bits(a.epsilon) == bits(b.epsilon) &&
         bits(a.beta) == bits(b.beta) && bits(a.gamma) == bits(b.gamma);
}

/// Gathers the residual graph at a per-component leader (exact tree-
/// congestion charge) and lists centrally — the unconditional-correctness
/// fallback of DESIGN.md §2.6. `rec`, when given, records the gather
/// charge (the driver absorbs it under the run-sequential trace scope).
void central_fallback(const graph& cur, int p, clique_collector& out,
                      cost_ledger& ledger, trace_recorder* rec,
                      enumkernel::exec_config exec) {
  network net(cur, ledger, nullptr, rec);
  net.charge_gather_all_edges("fallback/gather");
  enumkernel::enum_scratch ws;
  enumkernel::enumerate_cliques(
      cur, p, ws, [&](std::span<const vertex> c) { out.emit(c); }, exec);
}

/// The graph minus a sorted, deduplicated list of removed edges.
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

}  // namespace

skeleton_memo::slot* skeleton_memo::lookup(const key& k) {
  for (auto& s : slots_)
    if (same_key(s.k, k)) return &s;
  return nullptr;
}

skeleton_memo::level_anatomy skeleton_memo::find(const key& k, int level,
                                                 const graph& cur) {
  std::lock_guard<std::mutex> lock(mu_);
  const slot* s = lookup(k);
  if (s == nullptr || std::size_t(level) >= s->levels.size()) return nullptr;
  const level_entry& e = s->levels[std::size_t(level)];
  if (!e.anatomy) return nullptr;
  DCL_ENSURE(e.n == cur.num_vertices() && e.m == cur.num_edges(),
             "skeleton_memo: level graph differs from the one its memoized "
             "anatomy was built from (the key misses a query field)");
  return e.anatomy;
}

void skeleton_memo::publish(const key& k, int level, const graph& cur,
                            level_anatomy anatomy) {
  std::lock_guard<std::mutex> lock(mu_);
  slot* s = lookup(k);
  if (s == nullptr) {
    if (slots_.size() == kMaxKeys) slots_.pop_front();
    s = &slots_.emplace_back();
    s->k = k;
  }
  if (std::size_t(level) >= s->levels.size())
    s->levels.resize(std::size_t(level) + 1);
  level_entry& e = s->levels[std::size_t(level)];
  if (e.anatomy) return;  // first writer wins; a racer built the same bytes
  e = {cur.num_vertices(), cur.num_edges(), std::move(anatomy)};
}

listing_report list_cliques_congest(const graph& g, const listing_query& q,
                                    runtime::thread_pool& pool,
                                    runtime::query_scratch& scratch,
                                    clique_collector& out,
                                    const congest_shard_plan* plan,
                                    enumkernel::exec_config exec,
                                    skeleton_memo* memo) {
  DCL_EXPECTS(q.p >= 3 && q.p <= kCongestMaxP,
              "list_cliques_congest supports 3 <= p <= 6");
  DCL_EXPECTS(q.epsilon < 1.0,
              "epsilon must be below 1 (0 selects the default)");
  listing_report rep;  // fresh per run — never resets caller state
  // Every mutable byte of this run lives in `scratch` (one arena per
  // worker slot) or on this stack frame; the pool and graph stay strictly
  // read-only, which is what lets many runs share them concurrently.
  scratch.ensure_workers(pool.size());

  const double epsilon =
      q.epsilon > 0 ? q.epsilon : (q.p == 4 ? 1.0 / 12.0 : 1.0 / 18.0);
  const skeleton_memo::key memo_key{q.p, epsilon, q.beta, q.gamma};
  const std::int64_t n_budget =
      budget_n_1_minus_2_over_p(g.num_vertices(), q.p);
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
      central_fallback(c, q.p, out, fb, seq, exec);
      if (plan != nullptr && plan->scoped != nullptr)
        plan->scoped->push_back({-1, kTraceBranchSequential, fb});
      rep.ledger.merge_sequential(fb);
    }
    rep.phase_seconds["fallback"] += seconds_since(t0);
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
      ls.edges_removed = ls.edges_before;  // the gather lists every edge
      rep.levels.push_back(ls);
      done = true;
      break;
    }

    // The level's skeleton: memoized (a pure function of the level graph
    // and memo_key), or decomposed and derived here and then published.
    const auto dec_t0 = std::chrono::steady_clock::now();
    skeleton_memo::level_anatomy skeleton =
        memo != nullptr ? memo->find(memo_key, level, cur) : nullptr;
    expander_decomposition d;
    if (!skeleton) {
      decomposition_options dopt;
      dopt.epsilon = epsilon;
      d = decompose(cur, dopt);
    }
    rep.model_decomposition_rounds +=
        cs20_decomposition_rounds(cur.num_vertices(), epsilon);
    rep.phase_seconds["decompose"] += seconds_since(dec_t0);
    const auto ana_t0 = std::chrono::steady_clock::now();
    if (!skeleton) {
      skeleton = std::make_shared<const std::vector<cluster_anatomy>>(
          build_anatomy(cur, d, {.p = q.p, .beta = q.beta}));
      if (memo != nullptr) memo->publish(memo_key, level, cur, skeleton);
    }
    rep.phase_seconds["anatomy"] += seconds_since(ana_t0);
    const std::vector<cluster_anatomy>& anatomy = *skeleton;
    ls.clusters = std::int64_t(anatomy.size());

    cost_ledger level_ledger;
    edge_list removed;

    // Lemma 41 (p >= 4): exhaustive search around the low-degree open
    // vertices.
    if (q.p >= 4) {
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
        // two_hop_listing emits each clique from its minimum-id target
        // only, so the sweep holds no duplicates and absorbing it raw moves
        // neither emitted nor duplicates.
        out.absorb(exh_out);
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
      rep.phase_seconds["exhaustive"] += seconds_since(exh_t0);
    }

    // All clusters of this level list simultaneously (the paper's
    // within-level parallelism, now also hardware parallelism): each task
    // runs against its own ledger/collector, and outcomes fold back in
    // cluster-index order, so the merged ledger, report, trace and clique
    // set are bit-identical for every sim_threads value. A deferred
    // cluster's deliver cost is dropped with its ledger (and its trace),
    // exactly as in the sequential formulation. Only clusters with
    // something to list (an E− at p = 3, two V− vertices at p >= 4 — a
    // pure function of the anatomy) enter the fan-out; the rest add
    // nothing to the fold, and a level without any wakes no pool worker.
    const auto clu_t0 = std::chrono::steady_clock::now();
    std::vector<std::int64_t> active;
    for (std::size_t ci = 0; ci < anatomy.size(); ++ci) {
      const auto& a = anatomy[ci];
      if (q.p == 3 ? !a.e_minus.empty() : a.v_minus.size() >= 2)
        active.push_back(std::int64_t(ci));
    }
    const auto outcomes = runtime::run_indexed<cluster_outcome>(
        pool, std::int64_t(active.size()),
        [&](int worker, std::int64_t k) {
          const std::int64_t ci = active[size_t(k)];
          cluster_outcome oc(q.p);
          const auto& a = anatomy[size_t(ci)];
          // Sharded: a cluster another shard owns contributes only its
          // structural outputs here (its E− retirement and level stats);
          // the owner lists it and exports the ledger/trace/cliques. At
          // p >= 4 every shard still runs the control plane — E′ delivery
          // (for S/S* and the overload test) and the removal rule are pure
          // functions of the level graph — and a non-owner's deliver
          // charges die with its dropped ledger.
          const bool owned =
              plan == nullptr ||
              plan->owns(level, ci, cluster_rep(a));
          // The worker slot's lease-parked transport keeps its staging
          // outboxes capacity-warm across this slot's clusters.
          network net_c(cur, oc.ledger,
                        &scratch.arena(worker).get<transport>(),
                        (tracing && owned) ? &oc.rec : nullptr);
          const std::string cl = "cluster" + std::to_string(ci);
          const std::uint64_t seed = splitmix64(q.seed + std::uint64_t(ci));

          if (q.p == 3) {  // Lemma 34 covers every E− edge of the cluster
            oc.removed = a.e_minus;
            if (!owned) return oc;
            oc.listed = true;
            oc.stats = list_k3_in_cluster(net_c, cur, a, q.lb, seed,
                                          oc.cliques, cl,
                                          &scratch.arena(worker), exec);
            return oc;
          }

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
          oc.stats = list_kp_in_cluster(net_c, cur, a, del.eprime, q.p, q.lb,
                                        seed, oc.cliques, cl,
                                        &scratch.arena(worker), exec);
          return oc;
        });
    for (std::size_t k = 0; k < active.size(); ++k) {
      const std::int64_t ci = active[k];
      const auto& oc = outcomes[k];
      const auto& a = anatomy[size_t(ci)];
      ls.bad_vertices += oc.bad_vertices;
      if (oc.deferred) {
        ++ls.deferred_clusters;
        continue;
      }
      ++ls.clusters_listed;
      if (q.p == 3)
        ls.low_degree_targets +=
            std::int64_t(a.v_cluster.size() - a.v_minus.size());
      removed.insert(removed.end(), oc.removed.begin(), oc.removed.end());
      if (!oc.listed) continue;
      rep.max_normalized_load =
          std::max(rep.max_normalized_load, oc.stats.max_normalized_load);
      level_ledger.merge_parallel(oc.ledger);
      if (plan != nullptr && plan->scoped != nullptr)
        plan->scoped->push_back({level, ci, oc.ledger});
      if (tracing)
        tlog->absorb(oc.rec, level, ci,
                     std::int64_t(a.v_cluster.size()), a.certified_phi);
      out.absorb(oc.cliques);
    }
    rep.ledger.merge_sequential(level_ledger);
    rep.phase_seconds["clusters"] += seconds_since(clu_t0);

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
    cur = remove_edges(cur, removed);
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
  rep.phase_seconds["total"] += seconds_since(run_t0);
  return rep;
}

}  // namespace dcl
