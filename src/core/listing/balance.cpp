#include "core/listing/balance.hpp"

#include <algorithm>

#include "core/ptree/layer_algorithm.hpp"
#include "core/streaming/pp_simulate.hpp"
#include "support/check.hpp"
#include "support/math_util.hpp"

namespace dcl {

void amplified_allgather(cluster_comm& cc, std::span<const vertex> pool,
                         std::span<const vertex> holder,
                         std::string_view phase) {
  const std::int64_t k = std::int64_t(pool.size());
  const std::int64_t m_items = std::int64_t(holder.size());
  if (m_items == 0 || k <= 1) return;
  const std::string p1 = std::string(phase) + "/fanout";
  const std::string p2 = std::string(phase) + "/deliver";

  // Amplifier chain A_j of item j: y = ceil(k / beta) members with
  // beta = ceil(k^{2/3}); member t is responsible for pool positions
  // [t*beta, (t+1)*beta).
  const std::int64_t beta = ceil_root(k * k, 3);  // ~ k^{2/3}
  const std::int64_t y = ceil_div(k, beta);

  // Receipt is modeled analytically, so both steps stage into the shared
  // transport outbox, whose capacity survives across calls.
  message_batch& batch = cc.outbox(0);
  batch.clear();
  for (std::int64_t j = 0; j < m_items; ++j) {
    DCL_EXPECTS(holder[size_t(j)] >= 0 && holder[size_t(j)] < k,
                "item holder outside pool");
    for (std::int64_t t = 0; t < y; ++t)
      batch.emplace(pool[size_t(holder[size_t(j)])],
                    pool[size_t((j * y + t) % k)], 0, std::uint64_t(j));
  }
  cc.route(batch, p1);

  for (std::int64_t j = 0; j < m_items; ++j) {
    for (std::int64_t t = 0; t < y; ++t) {
      const vertex member = pool[size_t((j * y + t) % k)];
      const std::int64_t lo = t * beta;
      const std::int64_t hi = std::min(k, (t + 1) * beta);
      for (std::int64_t i = lo; i < hi; ++i) {
        if (pool[size_t(i)] == member) continue;  // already local
        batch.emplace(member, pool[size_t(i)], 0, std::uint64_t(j));
      }
    }
  }
  cc.route(batch, p2);
}

std::vector<vertex> degree_balanced_assignment(
    cluster_comm& cc, std::span<const vertex> pool,
    std::span<const std::int64_t> comm_deg, std::span<const vertex> holder,
    std::string_view phase) {
  const std::int64_t k = std::int64_t(pool.size());
  const std::int64_t m_items = std::int64_t(holder.size());
  DCL_EXPECTS(std::int64_t(comm_deg.size()) == k, "comm_deg size mismatch");
  std::vector<vertex> assignment(size_t(m_items), -1);
  if (m_items == 0) return assignment;
  DCL_EXPECTS(k >= 1, "empty pool");

  std::int64_t total_deg = 0;
  for (auto d : comm_deg) total_deg += d;
  // Stats (m, mu, M) are made known via an O(1)-word convergecast+broadcast.
  cc.charge_convergecast(3, std::string(phase) + "/stats");
  cc.charge_broadcast_from_leader(3, std::string(phase) + "/stats");

  // Degenerate pool (e.g. a single vertex or zero communication volume):
  // assign round-robin; the caller's correctness never depends on balance.
  if (total_deg == 0 || k == 1) {
    for (std::int64_t j = 0; j < m_items; ++j)
      assignment[size_t(j)] = vertex(j % k);
    return assignment;
  }

  // Step 1: re-spread items so item j sits at pool vertex floor(j/c). One
  // transport outbox stages every routed step of this function; receipt is
  // modeled, so the buffer is reused.
  message_batch& batch = cc.outbox(0);
  batch.clear();
  const std::int64_t c = ceil_div(m_items, k);
  auto step1_holder = [&](std::int64_t j) { return vertex(j / c); };
  for (std::int64_t j = 0; j < m_items; ++j) {
    if (holder[size_t(j)] == step1_holder(j)) continue;
    batch.emplace(pool[size_t(holder[size_t(j)])],
                  pool[size_t(step1_holder(j))], 0, std::uint64_t(j));
  }
  cc.route(batch, std::string(phase) + "/respread");

  // Step 2: run Algorithm 1 through the Theorem 11 simulation.
  balance_messages_algorithm alg(m_items, total_deg, k);
  pp_instance inst;
  inst.alg = &alg;
  std::vector<std::int64_t> degs(comm_deg.begin(), comm_deg.end());
  inst.segment = [degs](vertex i) {
    pp_stream s;
    pp_main_entry e;
    e.main = pp_token{std::uint64_t(std::uint32_t(i)),
                      std::uint64_t(degs[size_t(i)])};
    s.push_back(e);
    return s;
  };
  const std::int64_t lambda = std::max<std::int64_t>(1, ceil_root(k, 3));
  const auto rep = pp_simulate(cc, pool, std::span(&inst, 1), lambda,
                               std::string(phase) + "/alg1");
  const auto& out = rep.outputs[0];

  // Step 3: deliver each vertex its interval, then route item requests and
  // replies. The interval tokens live at simulator vertices.
  batch.clear();
  std::int64_t covered = 0;
  struct slot { std::int64_t first, last; vertex v; };
  std::vector<slot> slots;
  for (std::size_t i = 0; i < out.output.size(); ++i) {
    const auto& t = out.output[i];
    const auto v = vertex(t.at(0));
    slots.push_back({std::int64_t(t.at(1)), std::int64_t(t.at(2)), v});
    covered = std::max(covered, std::int64_t(t.at(2)));
    if (out.holder[i] != v)
      batch.emplace(pool[size_t(out.holder[i])], pool[size_t(v)], 0,
                    std::uint64_t(t.at(1)), std::uint64_t(t.at(2)));
  }
  cc.route(batch, std::string(phase) + "/intervals");

  if (covered < m_items) {
    // The half-average filter left messages unallocated (possible only on
    // degenerate degree profiles). Fall back to round-robin for the tail.
    for (std::int64_t j = covered; j < m_items; ++j)
      assignment[size_t(j)] = vertex(j % k);
  }
  // Requests and replies stage simultaneously, one direction per outbox.
  message_batch& requests = cc.outbox(0);
  message_batch& replies = cc.outbox(1);
  requests.clear();
  replies.clear();
  for (const auto& s : slots) {
    for (std::int64_t num = s.first; num <= s.last; ++num) {
      const std::int64_t j = num - 1;  // message numbers are 1-based
      if (j >= m_items) break;
      assignment[size_t(j)] = s.v;
      const vertex h = step1_holder(j);
      if (h == s.v) continue;
      requests.emplace(pool[size_t(s.v)], pool[size_t(h)], 0,
                       std::uint64_t(j));
      replies.emplace(pool[size_t(h)], pool[size_t(s.v)], 0,
                      std::uint64_t(j));
    }
  }
  cc.route(requests, std::string(phase) + "/requests");
  cc.route(replies, std::string(phase) + "/replies");

  for (std::int64_t j = 0; j < m_items; ++j)
    DCL_ENSURE(assignment[size_t(j)] >= 0, "item left unassigned");
  return assignment;
}

}  // namespace dcl
