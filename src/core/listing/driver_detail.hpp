#pragma once
// Internal helpers shared by the K3 and K_p recursion drivers.

#include <algorithm>
#include <chrono>

#include "congest/cost.hpp"
#include "congest/trace.hpp"
#include "core/listing/collector.hpp"
#include "core/listing/k3_cluster.hpp"
#include "graph/graph.hpp"

namespace dcl::detail {

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
  edge_list removed;              ///< E− edges this cluster retires (p >= 4)
  std::int64_t bad_vertices = 0;  ///< |S_C| (p >= 4)
  bool considered = false;        ///< cluster entered the listing path
  bool deferred = false;          ///< overloaded, deliver cost dropped (p >= 4)
  /// This run listed the cluster's cliques. Solo: listed == considered &&
  /// !deferred. Sharded (congest_shard_plan): false for clusters another
  /// shard owns — their structural outputs (stats, removed edges) still
  /// fold, but ledger, trace, and cliques are dropped here and supplied by
  /// the owning shard instead.
  bool listed = false;
};

/// A parallel branch's ownership representative for congest_shard_plan:
/// the smallest vertex of the cluster — a pure function of the anatomy, so
/// every shard computes the same owner for the same branch.
inline vertex cluster_rep(const cluster_anatomy& a) {
  return *std::min_element(a.v_cluster.begin(), a.v_cluster.end());
}

/// Gathers the residual graph at a per-component leader (exact tree-
/// congestion charge) and lists centrally. The unconditional-correctness
/// fallback of DESIGN.md §2.6. `rec`, when given, records the gather
/// charge (the driver absorbs it under the run-sequential trace scope).
void central_fallback(
    const graph& cur, int p, clique_collector& out, cost_ledger& ledger,
    trace_recorder* rec = nullptr, enumkernel::exec_config exec = {});

/// The graph minus a sorted, deduplicated list of removed edges.
graph remove_edges(const graph& cur, const edge_list& removed);

/// Wall-clock seconds elapsed since `t0` (listing_report::phase_seconds).
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace dcl::detail
