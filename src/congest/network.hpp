#pragma once
// The CONGEST network of one graph as the listers see it: a cost ledger to
// charge, an optional trace recorder, and the transport whose outboxes the
// cluster routers stage into. It only charges — every lister models
// receipt analytically — so it never delivers or reorders a message.

#include <span>
#include <vector>

#include "congest/cost.hpp"
#include "congest/message.hpp"
#include "congest/transport.hpp"
#include "graph/graph.hpp"

namespace dcl {

class trace_recorder;

class network {
 public:
  /// The network aliases `g` and `ledger`; both must outlive it. When `tp`
  /// is given (e.g. a worker's arena-parked transport) its outboxes are
  /// shared with this network, keeping staging capacity warm across
  /// per-cluster network instances; otherwise the network owns one. When
  /// `rec` is given every charge is also recorded as a trace event
  /// (congest/trace.hpp); a null recorder costs one pointer check.
  network(const graph& g, cost_ledger& ledger, transport* tp = nullptr,
          trace_recorder* rec = nullptr);

  // tp_ may point at the network's own owned_tp_, so a memberwise copy
  // would alias (then dangle into) the source object's buffers.
  network(const network&) = delete;
  network& operator=(const network&) = delete;

  const graph& topology() const { return *g_; }
  cost_ledger& ledger() { return *ledger_; }
  transport& shared_transport() { return *tp_; }
  trace_recorder* recorder() const { return rec_; }

  /// Analytic charge for costs known in closed form (tree pipelining etc.).
  void charge(std::string_view phase, std::int64_t rounds,
              std::int64_t messages);

  /// Cost of gathering one message per edge to a per-component leader along
  /// BFS trees (exact tree congestion: max over tree edges of the number of
  /// messages crossing it, plus pipelining depth). Used by the base-case
  /// fallback that collects a small residual graph centrally.
  std::int64_t charge_gather_all_edges(std::string_view phase);

 private:
  const graph* g_;
  cost_ledger* ledger_;
  trace_recorder* rec_;
  transport* tp_;
  transport owned_tp_;  // used when no shared transport was injected
};

/// The ordered (src, dst) pairs of a batch: the max multiplicity of one
/// pair (the exact round cost in the congested-clique model) and the
/// number of distinct pairs (the width of the arc histogram).
struct pair_counts {
  std::int64_t max = 0;
  std::int64_t distinct = 0;
};

/// Counts the pairs of `msgs` with one sort of packed (src, dst) keys;
/// `keys` is scratch, overwritten.
pair_counts count_pairs(std::span<const message> msgs,
                        std::vector<std::uint64_t>& keys);

}  // namespace dcl
