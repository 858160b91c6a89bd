#pragma once
// Communication context of one cluster: local id space, router access, and
// the closed-form tree primitives (pipelined broadcast / convergecast).
// Everything charges into the owning network's ledger under a phase prefix,
// so per-cluster and per-phase costs are separable in benchmark output.
// Every `sub` label below is relative: the cluster prepends its own prefix,
// so callers (and the partition-tree code they hand the context to) pass
// only the suffix, e.g. "tree/layer0", never "cluster3/tree/layer0".
// The cluster shares its parent network's transport: staging outboxes stay
// capacity-warm across every route the cluster's producers issue.

#include <memory>
#include <string>
#include <vector>

#include "congest/network.hpp"
#include "congest/router.hpp"

namespace dcl {

class cluster_comm {
 public:
  /// `vertices` (parent ids, sorted ascending) and `edges` (parent ids)
  /// define the cluster subgraph C = (V_C, E_C). The subgraph must be
  /// connected. Local ids are 0..K-1 in parent-id order, which is also the
  /// contiguous numbering the paper's streaming machinery assumes.
  cluster_comm(network& net, std::vector<vertex> vertices, edge_list edges,
               std::string phase_prefix, int num_trees = 8);

  vertex size() const { return local_.num_vertices(); }
  const graph& local_graph() const { return local_; }

  vertex to_parent(vertex local) const { return to_parent_[size_t(local)]; }
  vertex to_local(vertex parent) const;
  std::span<const vertex> parent_vertices() const { return to_parent_; }

  /// Multi-hop routed batch (local ids): simulated and charged at its
  /// measured rounds. Every cluster sender models receipt analytically, so
  /// nothing is delivered; `io` comes back cleared with its capacity kept,
  /// ready for the caller's next step. Combined with a transport outbox
  /// this makes repeated routes allocation-free.
  route_stats route(message_batch& io, std::string_view sub);

  /// Staging batch from the shared transport (capacity-warm across
  /// clusters when the network's transport is arena-parked). Producers
  /// clear() before filling; two outboxes cover request/reply staging.
  message_batch& outbox(std::size_t i = 0) {
    return net_->shared_transport().outbox(i);
  }

  /// Leader (local id 0 = minimum parent id) sends `num_words` words to all
  /// cluster vertices along the primary BFS tree; exact pipelined cost
  /// rounds = num_words + depth - 1, messages = num_words * (K - 1).
  void charge_broadcast_from_leader(std::int64_t num_words,
                                    std::string_view sub);

  /// Aggregation of `num_words` independent aggregates (sum/min/...) up the
  /// tree; same pipelined cost shape as broadcast.
  void charge_convergecast(std::int64_t num_words, std::string_view sub);

  /// Lemma 27 allgather: `M` numbered items, each initially at one vertex
  /// (counts per local vertex given); afterwards every cluster vertex knows
  /// all items. Gather is routed (simulated), redistribution charged as a
  /// pipelined tree broadcast. Returns the number of items.
  std::int64_t allgather(const std::vector<std::int64_t>& items_per_vertex,
                         std::string_view sub);

  std::int32_t tree_depth() const { return router_->tree_depth(); }
  cost_ledger& ledger() { return net_->ledger(); }

 private:
  std::string phase(std::string_view sub) const;

  network* net_;
  graph local_;
  std::vector<vertex> to_parent_;
  std::vector<vertex> parent_to_local_;
  std::unique_ptr<cluster_router> router_;
  std::string phase_prefix_;
};

}  // namespace dcl
