// The transport layer's contracts (DESIGN.md §8): bucket delivery is
// bit-identical to the comparison sort it replaced (including adversarial
// ties in every message field), the arc-counter round accounting of
// network::exchange matches the sort-based one_hop_rounds spec on random
// multibatches, the graph's arc index inverts correctly, and the
// end-to-end listing ledger stays bit-identical across sim_threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <thread>
#include <vector>

#include "congest/network.hpp"
#include "congest/router.hpp"
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

// ------------------------------------------------- bucket delivery order

std::vector<message> reference_sorted(std::vector<message> msgs) {
  std::sort(msgs.begin(), msgs.end(), message_order);
  return msgs;
}

TEST(TransportDeliver, BitIdenticalToComparisonSortOnAdversarialTies) {
  // Batches engineered to tie on every prefix of (dst, src, tag, a, b),
  // including full duplicates, interleaved in hostile input order.
  const std::vector<std::vector<message>> batches = {
      {},
      {{0, 0, 0, 0, 0}},
      {{1, 2, 0, 0, 0}, {1, 2, 0, 0, 0}, {1, 2, 0, 0, 0}},  // duplicates
      {{3, 0, 2, 5, 5}, {3, 0, 2, 5, 4}, {3, 0, 2, 4, 9},   // b then a ties
       {3, 0, 1, 9, 9}, {2, 0, 2, 5, 5}},
      {{5, 7, 0, 1, 0}, {4, 7, 0, 0, 0}, {5, 7, 0, 0, 0},   // src ties
       {4, 7, 1, 0, 0}, {4, 7, 0, 0, 1}},
      {{9, 0, 0, 0, 0}, {0, 9, 0, 0, 0}, {9, 0, 0, 0, 1},   // dst spread
       {0, 9, 1, 0, 0}, {5, 5, 0, 0, 0}, {5, 5, 0, 0, 0}},
  };
  transport tp;
  for (const auto& batch : batches) {
    message_batch io;
    for (const auto& m : batch) io.push(m);
    tp.deliver(io, 10);
    EXPECT_EQ(io.vec(), reference_sorted(batch));
  }
}

TEST(TransportDeliver, BitIdenticalOnRandomBatches) {
  prng rng(123);
  transport tp;  // one transport reused: scratch must not leak state
  for (int trial = 0; trial < 50; ++trial) {
    const vertex n = vertex(1 + rng.next_below(40));
    std::vector<message> batch;
    const int m = int(rng.next_below(200));
    for (int i = 0; i < m; ++i) {
      message msg;
      msg.src = vertex(rng.next_below(std::uint64_t(n)));
      msg.dst = vertex(rng.next_below(std::uint64_t(n)));
      msg.tag = std::uint32_t(rng.next_below(3));
      msg.a = rng.next_below(4);  // narrow ranges force ties
      msg.b = rng.next_below(2);
      batch.push_back(msg);
    }
    message_batch io;
    for (const auto& msg : batch) io.push(msg);
    tp.deliver(io, n);
    EXPECT_EQ(io.vec(), reference_sorted(batch)) << "trial " << trial;
  }
}

TEST(TransportDeliver, RejectsOutOfRangeDst) {
  transport tp;
  message_batch io;
  io.emplace(0, 7);
  EXPECT_THROW(tp.deliver(io, 5), precondition_error);
  io.clear();
  io.emplace(0, 1);
  io.emplace(0, -1);
  EXPECT_THROW(tp.deliver(io, 5), precondition_error);
}

TEST(TransportDeliver, MaxPairMultiplicityOnDeliveredOrder) {
  transport tp;
  message_batch io;
  io.emplace(0, 1, 0, 1);
  io.emplace(2, 1);
  io.emplace(0, 1, 0, 2);
  io.emplace(0, 1, 0, 3);
  io.emplace(1, 0);
  tp.deliver(io, 3);
  EXPECT_EQ(transport::max_pair_multiplicity(io), 3);
  message_batch empty;
  EXPECT_EQ(transport::max_pair_multiplicity(empty), 0);
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
  EXPECT_THROW(r.route_discard(bad), precondition_error);
  message_batch ok;
  ok.emplace(0, 1);
  const auto stats = r.route_discard(ok);
  EXPECT_EQ(stats.max_edge_load, 1);

  // Every route_stats field — rounds and arcs touched come from the FIFO
  // and active-arc state, not edge_load — and the delivered batch must
  // match a router that never saw the rejected batch, after rejections
  // through both entry points, for a bad src and a bad dst. The rejected
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
    EXPECT_THROW(trial < 2 ? used.route(rejected)
                           : used.route_discard(rejected),
                 precondition_error);
    EXPECT_EQ(rejected.size(), 51u) << "trial " << trial;

    message_batch a, b;
    for (int i = 0; i < 120; ++i) {
      const message m{vertex(rng.next_below(24)), vertex(rng.next_below(24)),
                      0, std::uint64_t(i), 0};
      a.push(m);
      b.push(m);
    }
    cluster_router fresh(g2, 4);
    const auto got = used.route(a);
    const auto want = fresh.route(b);
    EXPECT_EQ(got.rounds, want.rounds) << "trial " << trial;
    EXPECT_EQ(got.messages, want.messages) << "trial " << trial;
    EXPECT_EQ(got.max_path, want.max_path) << "trial " << trial;
    EXPECT_EQ(got.max_edge_load, want.max_edge_load) << "trial " << trial;
    EXPECT_EQ(got.arcs_touched, want.arcs_touched) << "trial " << trial;
    EXPECT_EQ(a.vec(), b.vec()) << "trial " << trial;
  }
}

// -------------------------------------------------- shared-buffer reuse

TEST(TransportBuffers, RouterHandsBackCapacityThroughThePair) {
  const auto g = gen::hypercube(4);
  transport tp;
  cluster_router r(g, 4, &tp);
  prng rng(5);
  message_batch io;
  for (int round = 0; round < 3; ++round) {
    io.clear();
    for (vertex v = 0; v < g.num_vertices(); ++v)
      io.push({v, vertex(rng.next_below(16)), 0, std::uint64_t(round), 0});
    const auto sent = io.size();
    const auto stats = r.route(io);
    EXPECT_EQ(io.size(), sent);  // delivered in place
    EXPECT_TRUE(std::is_sorted(io.begin(), io.end(), message_order));
    EXPECT_GE(stats.rounds, 1);
  }
  // Discard path clears in place.
  io.clear();
  io.push({0, 5, 0, 9, 0});
  const auto stats = r.route_discard(io);
  EXPECT_TRUE(io.empty());
  EXPECT_GE(stats.messages, 1);
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
