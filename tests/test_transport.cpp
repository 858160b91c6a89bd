// The message layer's contracts (DESIGN.md §8): the arc-counter round
// accounting of network::exchange matches the sort-based one_hop_rounds
// spec on random multibatches, both exchange kinds charge and trace the
// brute-force pair counts of a batch (adversarial ties included), a route
// reads its batch without moving it, the graph's arc index inverts
// correctly, and the end-to-end listing ledger stays bit-identical across
// sim_threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <thread>
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

// ------------------------------------------------------------- arc index

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
  const auto g = gen::planted_partition(3, 15, 0.5, 0.05, 5);
  for (vertex u = 0; u < g.num_vertices(); ++u)
    for (vertex v : g.neighbors(u)) {
      const auto a = g.arc_id(u, v);
      EXPECT_EQ(g.reverse_arc(a), g.arc_id(v, u));
      EXPECT_EQ(g.reverse_arc(g.reverse_arc(a)), a);
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

TEST(ArcIndex, CachedLookupViewAgreesWithGraph) {
  const auto g = gen::grid(2, 2);
  const arc_lookup lookup = g.arc_index_lookup();
  for (vertex u = 0; u < g.num_vertices(); ++u)
    for (vertex v = 0; v < g.num_vertices(); ++v)
      EXPECT_EQ(lookup.arc_id(u, v), g.arc_id(u, v)) << u << "," << v;
  EXPECT_EQ(lookup.arc_id(-1, 0), -1);
  EXPECT_EQ(lookup.arc_id(0, 99), -1);
  EXPECT_EQ(arc_lookup{}.arc_id(0, 0), -1);  // unbound view misses
}

TEST(ArcIndex, LazyBuildIsIdempotentAndSharedAcrossCopies) {
  const auto g = gen::gnp(40, 0.2, 7);
  g.ensure_arc_index();
  g.ensure_arc_index();  // idempotent
  const graph copy = g;  // copies share the (built) index slot
  const graph pre_built_copy = [] {
    const auto h = gen::gnp(40, 0.2, 7);
    return h;  // never forced: the copy builds lazily on first query
  }();
  for (vertex u = 0; u < g.num_vertices(); ++u)
    for (vertex v : g.neighbors(u)) {
      EXPECT_EQ(copy.arc_id(u, v), g.arc_id(u, v));
      EXPECT_EQ(pre_built_copy.arc_id(u, v), g.arc_id(u, v));
    }
  graph empty;  // default-constructed: ensure is a no-op, queries miss
  empty.ensure_arc_index();
  EXPECT_EQ(empty.arc_id(0, 0), -1);
}

TEST(ArcIndex, ConcurrentFirstUseBuildsOnce) {
  // The lazy build races its first readers by design; call_once must make
  // that safe (this is the test TSan pins down in CI).
  const auto g = gen::gnp(80, 0.15, 9);
  std::vector<std::thread> threads;
  std::array<std::int64_t, 4> sums{};
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&g, &sums, t] {
      std::int64_t sum = 0;
      for (vertex u = 0; u < g.num_vertices(); ++u)
        for (vertex v : g.neighbors(u)) {
          sum += g.arc_id(u, v);
          sum += g.reverse_arc(g.arc_id(u, v));
        }
      sums[size_t(t)] = sum;
    });
  for (auto& th : threads) th.join();
  for (int t = 1; t < 4; ++t) EXPECT_EQ(sums[size_t(t)], sums[0]);
}

// --------------------------------------- one_hop_rounds spec equivalence

TEST(TransportRounds, ArcCountersMatchSortSpecOnRandomMultibatches) {
  // The arc-counter fast path inside network::exchange must charge exactly
  // what the kept sort-based one_hop_rounds spec computes, on many random
  // batches (heavy multiplicity included) over several topologies.
  prng rng(77);
  const std::vector<graph> gs = {gen::hypercube(4), gen::grid(5, 6),
                                 gen::gnp(40, 0.2, 9)};
  for (const auto& g : gs) {
    cost_ledger ledger;
    network net(g, ledger);  // one network: counters must reset per batch
    for (int trial = 0; trial < 30; ++trial) {
      std::vector<message> batch;
      const int m = int(rng.next_below(300));
      for (int i = 0; i < m; ++i) {
        const vertex u =
            vertex(rng.next_below(std::uint64_t(g.num_vertices())));
        const auto nb = g.neighbors(u);
        if (nb.empty()) continue;
        // Low fan-out choices create large per-arc multiplicities.
        const vertex v = nb[size_t(rng.next_below(
            std::min<std::uint64_t>(nb.size(), 2)))];
        batch.push_back({u, v, 0, std::uint64_t(i % 3), 0});
      }
      message_batch io;
      for (const auto& msg : batch) io.push(msg);
      const auto charged = net.exchange(io, "x");
      EXPECT_EQ(charged, one_hop_rounds(batch)) << "trial " << trial;
    }
  }
}

TEST(TransportRounds, CountersStayCleanAfterRejectedBatch) {
  const auto g = gen::grid(2, 2);
  cost_ledger ledger;
  network net(g, ledger);
  message_batch bad;
  bad.emplace(0, 1);
  bad.emplace(0, 1);
  bad.emplace(0, 3);  // not an edge
  EXPECT_THROW(net.exchange(bad, "x"), precondition_error);
  // The same (0 -> 1) arc again: a stale counter would inflate rounds.
  message_batch ok;
  ok.emplace(0, 1);
  EXPECT_EQ(net.exchange(ok, "x"), 1);
}

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
  // Both exchange kinds charge rounds = max pair multiplicity and trace
  // arcs_touched = distinct pairs, arc_max = max multiplicity, from their
  // own counters: compare with direct counting on random and
  // adversarial-tie batches, one network and one clique reused throughout
  // so stale scratch would show.
  const vertex n = 12;
  const auto g = gen::complete(n);  // every ordered pair is a one-hop arc
  cost_ledger net_ledger, clique_ledger;
  trace_recorder net_rec, clique_rec;
  network net(g, net_ledger, nullptr, &net_rec);
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
    EXPECT_EQ(net.exchange(io, "x"), max) << "batch " << i;
    EXPECT_EQ(clique.exchange(io, "x"), max) << "batch " << i;
    for (const auto* rec : {&net_rec, &clique_rec}) {
      ASSERT_EQ(rec->events().size(), i + 1);
      const trace_event& e = rec->events().back();
      EXPECT_EQ(e.rounds, max) << "batch " << i;
      EXPECT_EQ(e.arcs_touched, distinct) << "batch " << i;
      EXPECT_EQ(e.arc_max, max) << "batch " << i;
      EXPECT_EQ(e.arc_sum, std::int64_t(batch.size())) << "batch " << i;
    }
    EXPECT_EQ(net_rec.events().back().kind, trace_event_kind::exchange);
    EXPECT_EQ(clique_rec.events().back().kind,
              trace_event_kind::clique_exchange);
  }
  EXPECT_EQ(net_ledger.rounds(), clique_ledger.rounds());
  EXPECT_EQ(net_ledger.messages(), clique_ledger.messages());
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
