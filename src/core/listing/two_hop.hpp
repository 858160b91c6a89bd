#pragma once
// Lemma 35 / Lemma 41: exhaustive listing around low-degree vertices.
// A vertex v with deg(v) <= alpha learns its induced 2-hop neighborhood in
// O(alpha) rounds: it ships N(v) along every incident edge and each
// neighbor u replies with N(u) ∩ N(v). Since all other vertices of a clique
// containing v lie in N(v), this lists *every* p-clique through v.

#include <span>
#include <string_view>

#include "congest/network.hpp"
#include "core/listing/collector.hpp"
#include "enumkernel/limits.hpp"

namespace dcl::runtime {
class scratch_arena;
}

namespace dcl {

struct two_hop_stats {
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
};

/// Lists all p-cliques of `g` containing at least one target vertex. Every
/// target must have degree at most `alpha` (checked). Costs are charged to
/// the network ledger under `phase`; all targets proceed in parallel, so
/// the round cost is the max per-directed-edge load of the two exchanges.
/// If `id_map` is non-empty, emitted vertex ids are translated through it
/// (used when g is a cluster-local subgraph). Each clique is emitted once,
/// by its minimum-id target member: target v lists the (p-1)-cliques of
/// N(v) minus the smaller targets, on a local DAG it builds from the same
/// intersections it is charged for and walks with the shared kernel's
/// arc_enumerator. Passing the worker's runtime `arena` keys a persistent
/// workspace (marks, local DAG, kernel scratch) there, making the sweep
/// allocation-free across calls — a call-local workspace is used
/// otherwise.
two_hop_stats two_hop_listing(
    network& net, const graph& g, std::span<const vertex> targets,
    std::int64_t alpha, int p, clique_collector& out, std::string_view phase,
    std::span<const vertex> id_map = {},
    runtime::scratch_arena* arena = nullptr,
    enumkernel::exec_config exec = {});

}  // namespace dcl
