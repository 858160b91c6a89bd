// The message layer's contracts (DESIGN.md §8): graph::arc_id names the
// flat CSR position of both directions of every edge, the congested-clique
// exchange charges and traces the brute-force pair counts of a batch
// (adversarial ties included), a route reads its batch without moving it,
// a rejected route leaves no stale counters, and the end-to-end listing
// ledger stays bit-identical across sim_threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "congest/cluster_comm.hpp"
#include "congest/congested_clique.hpp"
#include "congest/network.hpp"
#include "congest/router.hpp"
#include "congest/trace.hpp"
#include "congest/transport.hpp"
#include "core/api/session.hpp"
#include "graph/generators.hpp"
#include "support/check.hpp"
#include "support/prng.hpp"

namespace dcl {
namespace {

// --------------------------------------------------------------- arc ids

TEST(ArcIndex, MatchesFlatAdjacencyPositions) {
  const auto g = gen::gnp(60, 0.2, 3);
  std::int64_t arc = 0;
  for (vertex u = 0; u < g.num_vertices(); ++u)
    for (vertex v : g.neighbors(u)) {
      EXPECT_EQ(g.arc_id(u, v), arc);
      EXPECT_EQ(g.view().arc_id(u, v), arc);  // csr_view agrees
      ++arc;
    }
  EXPECT_EQ(arc, g.num_arcs());
}

TEST(ArcIndex, ReverseArcInverts) {
  // The reverse of arc (u -> v) is arc (v -> u): it lies in v's row and
  // points at u, which is how the router caches a tree edge's down arc.
  const auto g = gen::planted_partition(3, 15, 0.5, 0.05, 5);
  const csr_view csr = g.view();
  for (vertex u = 0; u < g.num_vertices(); ++u)
    for (vertex v : g.neighbors(u)) {
      const auto rev = g.arc_id(v, u);
      ASSERT_GE(rev, csr.offsets[size_t(v)]);
      ASSERT_LT(rev, csr.offsets[size_t(v) + 1]);
      EXPECT_EQ(csr.adj[size_t(rev)], u);
    }
}

TEST(ArcIndex, RejectsNonEdgesAndOutOfRange) {
  const auto g = gen::grid(2, 2);  // edges 0-1, 0-2, 1-3, 2-3
  EXPECT_EQ(g.arc_id(0, 3), -1);
  EXPECT_EQ(g.arc_id(0, 0), -1);
  EXPECT_EQ(g.arc_id(-1, 0), -1);
  EXPECT_EQ(g.arc_id(0, 99), -1);
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_TRUE(g.has_edge(2, 3));
  const graph empty(0, {});
  EXPECT_EQ(empty.arc_id(0, 0), -1);
}

// ------------------------------------------------ rejected-batch reuse

TEST(TransportRounds, RouterCountersStayCleanAfterRejectedBatch) {
  // Path 0-1-2: a valid 0->2 hop loads both arcs before the bad message
  // aborts the batch; a stale load would inflate the next batch's
  // max_edge_load.
  const graph g(3, {{0, 1}, {1, 2}});
  cluster_router r(g, 2);
  message_batch bad;
  bad.emplace(0, 2);
  bad.emplace(0, 9);  // out of range
  EXPECT_THROW(r.route(bad), precondition_error);
  message_batch ok;
  ok.emplace(0, 1);
  const auto stats = r.route(ok);
  EXPECT_EQ(stats.max_edge_load, 1);

  // Every route_stats field — rounds and arcs touched come from the FIFO
  // and active-arc state, not edge_load — must match a router that never
  // saw the rejected batch, for a bad src and a bad dst. The rejected
  // batch itself is left as it was.
  const auto g2 = gen::circulant(24, {1, 5});
  cluster_router used(g2, 4);
  prng rng(17);
  for (int trial = 0; trial < 4; ++trial) {
    message_batch rejected;
    for (int i = 0; i < 50; ++i)
      rejected.emplace(vertex(rng.next_below(24)), vertex(rng.next_below(24)));
    if (trial % 2 == 0)
      rejected.emplace(3, 24);  // bad dst after valid traffic
    else
      rejected.emplace(-1, 3);  // bad src after valid traffic
    EXPECT_THROW(used.route(rejected), precondition_error);
    EXPECT_EQ(rejected.size(), 51u) << "trial " << trial;

    message_batch a;
    for (int i = 0; i < 120; ++i)
      a.emplace(vertex(rng.next_below(24)), vertex(rng.next_below(24)), 0,
                std::uint64_t(i));
    cluster_router fresh(g2, 4);
    const auto got = used.route(a);
    const auto want = fresh.route(a);
    EXPECT_EQ(got.rounds, want.rounds) << "trial " << trial;
    EXPECT_EQ(got.messages, want.messages) << "trial " << trial;
    EXPECT_EQ(got.max_path, want.max_path) << "trial " << trial;
    EXPECT_EQ(got.max_edge_load, want.max_edge_load) << "trial " << trial;
    EXPECT_EQ(got.arcs_touched, want.arcs_touched) << "trial " << trial;
  }
}

// ------------------------------- exchange charge vs brute-force pairs

/// Max multiplicity and distinct count of the ordered (src, dst) pairs of
/// `msgs`, by direct counting.
std::pair<std::int64_t, std::int64_t> brute_pairs(
    const std::vector<message>& msgs) {
  std::map<std::pair<vertex, vertex>, std::int64_t> count;
  for (const auto& m : msgs) ++count[{m.src, m.dst}];
  std::int64_t max = 0;
  for (const auto& [pair, c] : count) max = std::max(max, c);
  return {max, std::int64_t(count.size())};
}

/// Batches that tie on every prefix of (src, dst, payload): duplicates,
/// reversed pairs, one source fanning out, one destination fanning in, and
/// ids whose packed (src, dst) keys sit next to each other.
std::vector<std::vector<message>> adversarial_batches(vertex n) {
  const vertex hi = n - 1;
  return {
      {},
      {{0, 1, 0, 0, 0}},
      {{1, 2, 0, 0, 0}, {1, 2, 0, 0, 0}, {1, 2, 0, 0, 0}},
      {{0, 1, 0, 0, 0}, {1, 0, 0, 0, 0}, {0, 1, 0, 0, 0}, {1, 0, 0, 0, 0},
       {0, 1, 0, 0, 0}},
      {{3, 0, 2, 5, 5}, {3, 0, 2, 5, 4}, {3, 0, 2, 4, 9}, {3, 0, 1, 9, 9},
       {2, 0, 2, 5, 5}},
      {{0, 1, 0, 0, 0}, {0, 2, 0, 0, 0}, {0, 3, 0, 0, 0}, {0, hi, 0, 0, 0},
       {0, hi, 0, 1, 0}},
      {{1, hi, 0, 0, 0}, {2, hi, 0, 0, 0}, {hi, 0, 0, 0, 0}, {hi, 1, 0, 0, 0},
       {1, hi, 0, 0, 0}, {hi, 0, 0, 0, 0}},
  };
}

std::vector<message> random_batch(vertex n, prng& rng) {
  std::vector<message> out;
  const int m = int(rng.next_below(200));
  for (int i = 0; i < m; ++i) {
    const vertex u = vertex(rng.next_below(std::uint64_t(n)));
    vertex v = vertex(rng.next_below(std::uint64_t(n - 1)));
    if (v >= u) ++v;  // no self-messages: the clique rejects them
    out.push_back({u, v, std::uint32_t(i % 3), rng.next_below(4), 0});
  }
  return out;
}

TEST(ExchangeCharge, CliqueAndOneHopMatchBruteForcePairCounts) {
  // The clique exchange charges rounds = max pair multiplicity and traces
  // arcs_touched = distinct pairs, arc_max = max multiplicity, from its
  // count_pairs sort: compare with direct counting on random and
  // adversarial-tie batches, one clique reused throughout so stale scratch
  // would show.
  const vertex n = 12;
  cost_ledger clique_ledger;
  trace_recorder clique_rec;
  congested_clique clique(n, clique_ledger, &clique_rec);
  std::vector<std::vector<message>> batches = adversarial_batches(n);
  prng rng(2024);
  for (int trial = 0; trial < 40; ++trial)
    batches.push_back(random_batch(n, rng));
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const auto& batch = batches[i];
    const auto [max, distinct] = brute_pairs(batch);
    message_batch io;
    for (const auto& m : batch) io.push(m);
    const auto rounds_before = clique_ledger.rounds();
    const auto messages_before = clique_ledger.messages();
    EXPECT_EQ(clique.exchange(io, "x"), max) << "batch " << i;
    EXPECT_EQ(clique_ledger.rounds() - rounds_before, max) << "batch " << i;
    EXPECT_EQ(clique_ledger.messages() - messages_before,
              std::int64_t(batch.size()))
        << "batch " << i;
    ASSERT_EQ(clique_rec.events().size(), i + 1);
    const trace_event& e = clique_rec.events().back();
    EXPECT_EQ(e.kind, trace_event_kind::clique_exchange);
    EXPECT_EQ(e.rounds, max) << "batch " << i;
    EXPECT_EQ(e.arcs_touched, distinct) << "batch " << i;
    EXPECT_EQ(e.arc_max, max) << "batch " << i;
    EXPECT_EQ(e.arc_sum, std::int64_t(batch.size())) << "batch " << i;
  }
}

// -------------------------------------------------- shared-buffer reuse

TEST(TransportBuffers, RouteReadsBatchAndClusterRouteHandsItBackEmpty) {
  const auto g = gen::hypercube(4);
  cluster_router r(g, 4);
  prng rng(5);
  message_batch io;
  for (vertex v = 0; v < g.num_vertices(); ++v)
    io.push({v, vertex(rng.next_below(16)), 0, std::uint64_t(v), 0});
  const std::vector<message> staged(io.begin(), io.end());
  const auto first = r.route(io);
  const auto again = r.route(io);
  EXPECT_TRUE(std::equal(io.begin(), io.end(), staged.begin(), staged.end()));
  EXPECT_GE(first.rounds, 1);
  EXPECT_EQ(first.rounds, again.rounds);
  EXPECT_EQ(first.messages, again.messages);

  // cluster_comm::route charges the same batch and clears it, so a
  // producer refills its outbox without a clear() of its own.
  cost_ledger ledger;
  network net(g, ledger);
  std::vector<vertex> vs(size_t(g.num_vertices()));
  for (vertex v = 0; v < g.num_vertices(); ++v) vs[size_t(v)] = v;
  cluster_comm cc(net, vs, g.edges(), "c", 4);
  message_batch& out = cc.outbox(0);
  out.clear();
  for (const auto& m : staged) out.push(m);
  const auto charged = cc.route(out, "r");
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(charged.rounds, first.rounds);
  EXPECT_EQ(ledger.rounds(), first.rounds);
  EXPECT_EQ(ledger.messages(), first.messages);
}

TEST(TransportBuffers, OutboxesAreDistinctAndPersistent) {
  transport tp;
  tp.outbox(0).emplace(0, 1);
  tp.outbox(1).emplace(2, 3);
  EXPECT_EQ(tp.outbox(0).size(), 1u);
  EXPECT_EQ(tp.outbox(1).size(), 1u);
  EXPECT_EQ(tp.outbox(0)[0].dst, 1);
  EXPECT_EQ(tp.outbox(1)[0].dst, 3);
}

// --------------------------- end-to-end ledger identity across backends

void expect_full_report_identical(const listing_report& a,
                                  const listing_report& b) {
  EXPECT_EQ(a.ledger.rounds(), b.ledger.rounds());
  EXPECT_EQ(a.ledger.messages(), b.ledger.messages());
  ASSERT_EQ(a.ledger.phases().size(), b.ledger.phases().size());
  auto ita = a.ledger.phases().begin();
  auto itb = b.ledger.phases().begin();
  for (; ita != a.ledger.phases().end(); ++ita, ++itb) {
    EXPECT_EQ(ita->first, itb->first);
    EXPECT_EQ(ita->second.rounds, itb->second.rounds) << ita->first;
    EXPECT_EQ(ita->second.messages, itb->second.messages) << ita->first;
  }
  EXPECT_EQ(a.emitted, b.emitted);
  EXPECT_EQ(a.duplicates, b.duplicates);
}

TEST(TransportLedger, BitIdenticalSweepAcrossSimThreads) {
  // The transport refactor's headline contract: for p = 3..6, the clique
  // set and the full ledger are bit-identical for sim_threads 1, 2, 4, 8.
  struct case_t {
    graph g;
    int p;
  };
  const std::vector<case_t> cases = {
      {gen::gnp(60, 0.18, 3), 3},
      {gen::ring_of_cliques(5, 7), 4},
      {gen::gnp(50, 0.3, 31), 5},
      {gen::ring_of_cliques(4, 8), 6},
  };
  for (const auto& c : cases) {
    listing_query q;
    q.p = c.p;
    const auto base = listing_session(c.g, {.threads = 1}).run(q);
    EXPECT_TRUE(base.cliques == collect_cliques(c.g, c.p)) << "p=" << c.p;
    for (const int t : {2, 4, 8}) {
      const auto run = listing_session(c.g, {.threads = t}).run(q);
      EXPECT_TRUE(run.cliques == base.cliques)
          << "p=" << c.p << " sim_threads=" << t;
      expect_full_report_identical(base.report, run.report);
    }
  }
}

}  // namespace
}  // namespace dcl
