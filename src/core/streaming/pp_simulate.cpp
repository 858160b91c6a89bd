#include "core/streaming/pp_simulate.hpp"

#include <algorithm>
#include <optional>

#include "support/check.hpp"
#include "support/math_util.hpp"

namespace dcl {

namespace {

/// Runtime of one instance during Phase 2.
struct runner {
  pp_instance* inst = nullptr;
  pp_sim_output* out = nullptr;
  pp_limits limits;

  // Stream layout.
  std::vector<pp_stream> segments;     // per pool index
  std::vector<std::int64_t> seg_first; // first global main index per segment
  std::int64_t total_main = 0;

  // Chain.
  std::vector<vertex> chain;           // pool indices of X_j
  std::int64_t beta = 1;               // pool indices per chain vertex

  // Cursor.
  std::int64_t cursor = 0;             // next global main index to read
  int chain_pos = 0;                   // executing chain vertex index
  vertex exec_at = -1;                 // pool index currently holding state
  bool awaiting_aux_return = false;    // state is at an aux holder
  std::int64_t writes_since_main = 0;
  bool done = false;

  pp_context ctx;

  /// Pool index of the vertex that holds global main index `g`.
  vertex holder_of(std::int64_t g) const {
    const auto it =
        std::upper_bound(seg_first.begin(), seg_first.end(), g);
    return vertex(it - seg_first.begin() - 1);
  }

  const pp_main_entry& entry_of(std::int64_t g) const {
    const vertex h = holder_of(g);
    return segments[size_t(h)][size_t(g - seg_first[size_t(h)])];
  }

  void drain_outputs(pp_run_stats& stats) {
    auto& buf = ctx.drain();
    stats.writes += std::int64_t(buf.size());
    writes_since_main += std::int64_t(buf.size());
    for (auto& t : buf) {
      out->output.push_back(std::move(t));
      out->holder.push_back(exec_at);
    }
    buf.clear();
  }
};

}  // namespace

pp_sim_report pp_simulate(cluster_comm& cc, std::span<const vertex> pool,
                          std::span<pp_instance> instances,
                          std::int64_t lambda, std::string_view phase) {
  const std::int64_t k = std::int64_t(pool.size());
  const std::int64_t zeta = std::int64_t(instances.size());
  DCL_EXPECTS(k >= 1, "empty working pool");
  DCL_EXPECTS(lambda >= 1, "lambda must be at least 1");
  for (vertex v : pool)
    DCL_EXPECTS(v >= 0 && v < cc.size(), "pool vertex outside cluster");

  pp_sim_report report;
  report.outputs.resize(size_t(zeta));
  if (zeta == 0) return report;

  const std::string p1 = std::string(phase) + "/phase1";
  const std::string p2 = std::string(phase) + "/phase2";

  // ---- Phase 0: chain assignment (local, zero rounds). Chains are
  // disjoint when λζ <= k, as in the paper; otherwise assignment wraps.
  const std::int64_t eff_lambda = std::min(lambda, k);
  std::vector<runner> runners(static_cast<std::size_t>(zeta));
  for (std::int64_t j = 0; j < zeta; ++j) {
    runner& r = runners[size_t(j)];
    r.inst = &instances[size_t(j)];
    r.out = &report.outputs[size_t(j)];
    r.limits = r.inst->alg->limits();
    r.inst->alg->reset();
    r.segments.reserve(size_t(k));
    for (vertex i = 0; i < k; ++i)
      r.segments.push_back(r.inst->segment(i));
    r.seg_first.resize(size_t(k));
    for (vertex i = 0; i < k; ++i) {
      r.seg_first[size_t(i)] = r.total_main;
      r.total_main += std::int64_t(r.segments[size_t(i)].size());
    }
    for (std::int64_t t = 0; t < eff_lambda; ++t)
      r.chain.push_back(vertex((j * eff_lambda + t) % k));
    r.beta = ceil_div(k, eff_lambda);
    r.chain_pos = 0;
    r.exec_at = r.chain[0];
    r.done = false;  // even empty streams run finish()
  }

  // ---- Phase 1: ship main tokens to chain vertices. Receipt is modeled
  // (the runners read their segments directly), so every batch of this
  // simulation stages into the shared transport outbox.
  message_batch& batch = cc.outbox(0);
  {
    batch.clear();
    for (auto& r : runners) {
      for (vertex i = 0; i < k; ++i) {
        const vertex chain_vertex =
            r.chain[size_t(std::min<std::int64_t>(i / r.beta,
                                                  eff_lambda - 1))];
        if (chain_vertex == i) continue;  // already local
        for (const auto& entry : r.segments[size_t(i)]) {
          for (std::int64_t c = 0; c < entry.main.message_cost(); ++c)
            batch.emplace(pool[size_t(i)], pool[size_t(chain_vertex)]);
        }
      }
    }
    report.phase1_rounds = cc.route(batch, p1).rounds;
  }

  // ---- Phase 2: hop-batched execution.
  // Advance every instance until it blocks on a state transfer; route all
  // pending transfers as one batch; repeat.
  auto advance = [&](runner& r) -> std::optional<message> {
    // Returns the state-transfer hop the runner blocks on, or nullopt if
    // the instance ran to completion.
    pp_algorithm& alg = *r.inst->alg;
    for (;;) {
      if (r.awaiting_aux_return) {
        // State is at the aux holder: consume the aux run, then send the
        // state back to the current chain vertex.
        const auto& entry = r.entry_of(r.cursor);
        for (const auto& a : entry.aux) {
          ++r.out->stats.aux_reads;
          alg.on_aux(a, r.ctx);
          DCL_ENSURE(!r.ctx.take_aux_request(),
                     "GET-AUX outside a main read");
          r.drain_outputs(r.out->stats);
        }
        r.awaiting_aux_return = false;
        ++r.cursor;
        const vertex back = r.chain[size_t(r.chain_pos)];
        if (back != r.exec_at) {
          message m;
          m.src = pool[size_t(r.exec_at)];
          m.dst = pool[size_t(back)];
          m.tag = std::uint32_t(alg.state_words());
          r.exec_at = back;
          return m;
        }
        continue;
      }
      if (r.cursor >= r.total_main) {
        if (!r.done) {
          alg.finish(r.ctx);
          r.drain_outputs(r.out->stats);
          r.done = true;
        }
        return std::nullopt;
      }
      // Does the cursor's token live at the current chain vertex?
      const vertex holder = r.holder_of(r.cursor);
      const std::int64_t owner_pos =
          std::min<std::int64_t>(holder / r.beta, eff_lambda - 1);
      if (owner_pos != r.chain_pos) {
        // Pass the state to the next chain vertex.
        DCL_ENSURE(owner_pos > r.chain_pos, "stream cursor moved backwards");
        ++r.chain_pos;
        const vertex next = r.chain[size_t(r.chain_pos)];
        if (next != r.exec_at) {
          message m;
          m.src = pool[size_t(r.exec_at)];
          m.dst = pool[size_t(next)];
          m.tag = std::uint32_t(alg.state_words());
          r.exec_at = next;
          return m;
        }
        continue;
      }
      // READ the main token here.
      const auto& entry = r.entry_of(r.cursor);
      r.out->stats.max_writes_between_main_reads =
          std::max(r.out->stats.max_writes_between_main_reads,
                   r.writes_since_main);
      DCL_ENSURE(r.writes_since_main <= r.limits.b_write,
                 "B_write exceeded");
      r.writes_since_main = 0;
      ++r.out->stats.main_reads;
      alg.on_main(entry.main, r.ctx);
      const bool want_aux = r.ctx.take_aux_request();
      r.drain_outputs(r.out->stats);
      if (want_aux) {
        ++r.out->stats.aux_requests;
        DCL_ENSURE(r.out->stats.aux_requests <= r.limits.b_aux,
                   "B_aux exceeded");
        r.awaiting_aux_return = true;
        if (holder != r.exec_at) {
          message m;
          m.src = pool[size_t(r.exec_at)];
          m.dst = pool[size_t(holder)];
          m.tag = std::uint32_t(alg.state_words());
          r.exec_at = holder;
          return m;
        }
        continue;
      }
      ++r.cursor;
    }
  };

  for (;;) {
    batch.clear();
    for (auto& r : runners) {
      if (r.done) continue;
      // Keep advancing this runner; it may emit several hops in one global
      // batch only if they are to distinct waves — the paper's schedule is
      // one hop per batch, so we stop at the first.
      if (auto hop = advance(r)) {
        // Expand the state into per-word messages.
        const std::int64_t words = std::max<std::int64_t>(hop->tag, 1);
        for (std::int64_t c = 0; c < ceil_div(words, 2); ++c) {
          message m = *hop;
          m.tag = 0;
          batch.push(m);
        }
      }
    }
    if (batch.empty()) {
      bool all_done = true;
      for (const auto& r : runners) all_done = all_done && r.done;
      if (all_done) break;
      continue;  // some runners finished without hops this wave
    }
    ++report.hop_batches;
    report.phase2_rounds += cc.route(batch, p2).rounds;
  }

  // Enforce N_out.
  for (auto& r : runners)
    DCL_ENSURE(std::int64_t(r.out->output.size()) <= r.limits.n_out,
               "N_out exceeded");
  return report;
}

}  // namespace dcl
