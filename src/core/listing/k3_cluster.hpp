#pragma once
// Lemma 34: listing all triangles inside one K3-compatible cluster.
//   * triangles touching V_C \ V−_C — Lemma 35 two-hop exhaustive search;
//   * triangles inside V−_C        — a K3-partition tree (Theorem 16), the
//     Lemma 20 leaf assignment, and the two-step edge-learning exchange.
//
// The load-balancing engine is pluggable so the benchmarks can compare the
// paper's deterministic partition trees against the randomized partition of
// [CPSZ21] and an unbalanced id-range split (the pre-partition-tree
// deterministic state of the art's load profile):
//   deterministic — Theorem 16 trees (the paper);
//   randomized    — one seeded random equal-size partition reused at every
//                   layer (random order ⇒ balanced w.h.p.);
//   unbalanced    — id-order equal-size partition (no degree balancing).

#include <string_view>

#include "congest/network.hpp"
#include "core/listing/collector.hpp"
#include "enumkernel/limits.hpp"
#include "expander/anatomy.hpp"
#include "runtime/scratch.hpp"

namespace dcl {

enum class lb_engine { deterministic, randomized, unbalanced };

struct cluster_listing_stats {
  std::int64_t listers = 0;
  std::int64_t leaf_parts = 0;
  /// max over listers of (received words / comm degree) — the per-vertex
  /// load L that [CS20, Thm 6] routes in L*n^{o(1)} rounds. The paper's
  /// load-balancing guarantee bounds this by ~k^{1/3} (K3) resp.
  /// ~n^{1-2/p} (K_p); benchmarks fit its growth directly.
  double max_normalized_load = 0.0;
};

/// Lists every triangle of the cluster subgraph G[E_C] into `out` (ids of
/// g). `net_c` must be a network over g whose ledger belongs to this
/// cluster (the driver merges cluster ledgers in parallel). `scratch`, when
/// given, supplies recycled message batches (the per-worker arena of the
/// runtime pool); the result is identical with or without it.
cluster_listing_stats list_k3_in_cluster(
    network& net_c, const graph& g, const cluster_anatomy& a,
    lb_engine engine, std::uint64_t seed, clique_collector& out,
    std::string_view phase, runtime::scratch_arena* scratch = nullptr,
    enumkernel::exec_config exec = {});

}  // namespace dcl
