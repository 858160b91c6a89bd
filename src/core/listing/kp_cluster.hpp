#pragma once
// Lemma 37: listing, inside one K_p-compatible cluster, every K_p whose
// vertices split into p′ ≥ 2 vertices of V−_C and p − p′ outside vertices
// with edges drawn from E(V−,V−) ∪ Ē ∪ E′. For each p′ a (p′,p)-split
// K_p-partition tree is built (Theorem 26), its leaves are spread over
// V*_C (Lemma 20), each known edge is routed to every lister whose leaf's
// ancestor chain it crosses (Theorem 23 coverage), and listers enumerate
// cliques in their learned edge sets. Lemma 43 delivers E′ into the
// cluster first (deliver_eprime).

#include <string_view>

#include "congest/network.hpp"
#include "core/listing/collector.hpp"
#include "core/listing/k3_cluster.hpp"
#include "expander/anatomy.hpp"
#include "runtime/scratch.hpp"

namespace dcl {

/// E′ edges delivered to the cluster: current-level graph ids with the
/// V−_C member (index into the sorted V− list) that received each edge.
struct delivered_edges {
  edge_list edges;             ///< endpoints outside V−_C, u < v
  std::vector<vertex> holder;  ///< index into the cluster's sorted V−_C
};

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
                               enumkernel::exec_config exec = {});

cluster_listing_stats list_kp_in_cluster(
    network& net_c, const graph& g, const cluster_anatomy& a,
    const delivered_edges& eprime, int p, lb_engine engine,
    std::uint64_t seed, clique_collector& out, std::string_view phase,
    runtime::scratch_arena* scratch = nullptr,
    enumkernel::exec_config exec = {});

}  // namespace dcl
