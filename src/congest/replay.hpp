#pragma once
// Trace replay: re-charge a recorded trace (congest/trace.hpp) against a
// cost model without re-running the listing — one simulation becomes many
// cost experiments (DESIGN.md §10).
//
// Replay reconstructs the run ledger from the trace's merge structure:
// events of one (level, branch) scope charge into that branch's ledger in
// recorded order; the branches of a level merge with parallel (max-rounds,
// add-messages) semantics exactly like the drivers' per-level fold; levels
// and the run-sequential branch (fallback gathers) chain additively. Under
// replay_model::measured this reproduces the live listing_report ledger
// bit for bit (tested invariant) — any other model answers "what would
// this run have cost if the transport obeyed that rule instead".

#include <functional>
#include <string_view>

#include "congest/cost.hpp"
#include "congest/trace.hpp"

namespace dcl {

enum class replay_model {
  /// Charge exactly what the live transport measured. Replay(measured) ==
  /// the live ledger, bit-identically.
  measured,
  /// The sort-based spec costs: exchanges of either kind pay their max
  /// directed pair multiplicity (identical to measured, by the exchange
  /// cost rule);
  /// routed batches pay the classic congestion/dilation lower bound
  /// max(max per-arc load, longest path) instead of the store-and-forward
  /// rounds the router actually simulated.
  congestion_spec,
  /// The [CS20, Thm 6] closed form: each routed batch pays
  /// cs20_routing_rounds(L, phi, n) with L = max per-endpoint message
  /// count and (n, phi) from the event's scope. Exchanges and analytic
  /// charges are already exact and keep their measured cost.
  cs20,
};

std::string_view replay_model_name(replay_model m);
/// Parses "measured" / "spec" / "cs20"; returns false on anything else.
bool parse_replay_model(std::string_view name, replay_model& out);

/// The per-event re-charging rule of one named model.
phase_cost replay_event_cost(const trace_event& e, const trace_scope& scope,
                             replay_model m);

/// Fully pluggable variant: `model` maps (event, scope) to the cost to
/// charge under the event's phase label.
using replay_cost_fn =
    std::function<phase_cost(const trace_event&, const trace_scope&)>;

/// Re-charges the whole trace under the model, reproducing the drivers'
/// merge structure (see file comment). Returns the reconstructed ledger.
cost_ledger replay_ledger(const trace_log& log, const replay_cost_fn& model);
cost_ledger replay_ledger(const trace_log& log, replay_model m);

}  // namespace dcl
