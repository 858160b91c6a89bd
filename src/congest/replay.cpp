#include "congest/replay.hpp"

#include <algorithm>
#include <map>

#include "expander/cost_model.hpp"
#include "support/check.hpp"

namespace dcl {

std::string_view replay_model_name(replay_model m) {
  switch (m) {
    case replay_model::measured: return "measured";
    case replay_model::congestion_spec: return "spec";
    case replay_model::cs20: return "cs20";
  }
  return "unknown";
}

bool parse_replay_model(std::string_view name, replay_model& out) {
  if (name == "measured") {
    out = replay_model::measured;
  } else if (name == "spec" || name == "congestion_spec") {
    out = replay_model::congestion_spec;
  } else if (name == "cs20") {
    out = replay_model::cs20;
  } else {
    return false;
  }
  return true;
}

phase_cost replay_event_cost(const trace_event& e, const trace_scope& scope,
                             replay_model m) {
  phase_cost c{e.rounds, e.messages};
  switch (m) {
    case replay_model::measured:
      break;
    case replay_model::congestion_spec:
      if (e.kind == trace_event_kind::route)
        c.rounds = std::max(e.arc_max, e.max_path);
      else if (e.kind != trace_event_kind::charge)
        c.rounds = e.arc_max;  // == measured, by the exchange cost rule
      break;
    case replay_model::cs20:
      if (e.kind == trace_event_kind::route) {
        const std::int64_t load = std::max(e.src_max, e.dst_max);
        const double phi = scope.phi > 0.0 ? scope.phi : 1.0;
        c.rounds = cs20_routing_rounds(load, phi, e.n);
      }
      break;
  }
  return c;
}

cost_ledger replay_ledger(const trace_log& log, const replay_cost_fn& model) {
  DCL_EXPECTS(bool(model), "replay cost model must be callable");
  // Rebuild the drivers' merge tree: per (level, branch) ledgers for the
  // parallel branches, one flat ledger for run-sequential charges. Charge
  // order within a branch follows the recorded order; merge_parallel and
  // merge_sequential are commutative over the grouping, so only the
  // grouping itself has to match the live run.
  std::map<std::int32_t, std::map<std::int64_t, cost_ledger>> levels;
  cost_ledger sequential;
  const auto& scopes = log.scopes();
  for (const auto& e : log.events()) {
    DCL_EXPECTS(e.scope >= 0 && std::size_t(e.scope) < scopes.size(),
                "trace event without a scope (unabsorbed recorder?)");
    const trace_scope& sc = scopes[size_t(e.scope)];
    const phase_cost c = model(e, sc);
    const std::string_view phase = log.phase_name(e.phase);
    if (sc.branch == kTraceBranchSequential)
      sequential.charge(phase, c.rounds, c.messages);
    else
      levels[sc.level][sc.branch].charge(phase, c.rounds, c.messages);
  }
  cost_ledger total;
  for (const auto& [level, branches] : levels) {
    cost_ledger level_ledger;
    for (const auto& [branch, ledger] : branches)
      level_ledger.merge_parallel(ledger);
    total.merge_sequential(level_ledger);
  }
  total.merge_sequential(sequential);
  return total;
}

cost_ledger replay_ledger(const trace_log& log, replay_model m) {
  return replay_ledger(log, [m](const trace_event& e, const trace_scope& sc) {
    return replay_event_cost(e, sc, m);
  });
}

}  // namespace dcl
