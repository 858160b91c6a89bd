#pragma once
// CONGESTED CLIQUE model: n vertices, all-to-all communication, one
// O(log n)-bit message per ordered pair per round. Substrate for the
// [DLP12] deterministic K_p listing baseline (§1.3). An exchange only
// charges the caller's batch.

#include <cstdint>
#include <vector>

#include "congest/cost.hpp"
#include "congest/message.hpp"
#include "graph/graph.hpp"

namespace dcl {

class trace_recorder;

class congested_clique {
 public:
  /// When `rec` is given every exchange is also recorded as a trace event
  /// (congest/trace.hpp).
  congested_clique(vertex n, cost_ledger& ledger,
                   trace_recorder* rec = nullptr);

  vertex size() const { return n_; }
  cost_ledger& ledger() { return *ledger_; }
  trace_recorder* recorder() const { return rec_; }

  /// Charges an arbitrary point-to-point batch. In one round every ordered
  /// pair can carry one message, so a batch is feasible in r rounds iff
  /// each ordered pair carries at most r messages; r = max pair
  /// multiplicity (exact, by scheduling each pair's messages in successive
  /// rounds), read off one (src, dst) key sort. Returns the charged rounds.
  std::int64_t exchange(const message_batch& io, std::string_view phase);

 private:
  vertex n_;
  cost_ledger* ledger_;
  trace_recorder* rec_;
  std::vector<std::uint64_t> keys_;  // count_pairs scratch
};

}  // namespace dcl
