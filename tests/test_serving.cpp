// The admission layer's contracts (DESIGN.md §12): coalesced queries are
// bit-identical per tenant to solo runs — the batch sweep never lets one
// tenant's edges create or suppress another tenant's cliques — batching
// strictly reduces kernel sweeps under contention, stream queries bypass
// the queue untouched, and a failed batch fails every covered tenant with
// the same error a solo run would throw.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/api/admission.hpp"
#include "graph/generators.hpp"
#include "support/check.hpp"

namespace dcl {
namespace {

/// Distinct per-tenant edge sets with overlap: tenant i owns a window of
/// the graph's edge list shifted by i.
std::vector<edge_list> tenant_edge_sets(const graph& g, int tenants) {
  std::vector<edge_list> sets;
  const auto& all = g.edges();
  const std::size_t n = all.size();
  for (int t = 0; t < tenants; ++t) {
    const std::size_t begin = n * std::size_t(t) / std::size_t(tenants);
    const std::size_t end =
        std::min(n, n * std::size_t(t + 2) / std::size_t(tenants));
    sets.emplace_back(all.begin() + std::ptrdiff_t(begin),
                      all.begin() + std::ptrdiff_t(end));
  }
  return sets;
}

TEST(EdgeBatchSweep, EachOwnerBitIdenticalToSolo) {
  const auto g = gen::gnp(70, 0.15, 13);
  listing_session s(g);
  const auto sets = tenant_edge_sets(g, 5);
  std::vector<const edge_list*> ptrs;
  for (const auto& e : sets) ptrs.push_back(&e);

  for (const int p : {2, 3, 4}) {
    for (const auto mode : {sink_mode::collect, sink_mode::count}) {
      listing_query q;
      q.p = p;
      q.mode = mode;
      const auto batch = s.cliques_in_edges_batch(q, ptrs);
      ASSERT_EQ(batch.size(), sets.size());
      for (std::size_t i = 0; i < sets.size(); ++i) {
        const auto solo = s.cliques_in_edges(q, sets[i]);
        EXPECT_EQ(batch[i].count, solo.count) << "p=" << p << " owner=" << i;
        EXPECT_TRUE(batch[i].cliques == solo.cliques)
            << "p=" << p << " owner=" << i;
        EXPECT_EQ(batch[i].report.emitted, solo.report.emitted);
        EXPECT_EQ(batch[i].report.duplicates, solo.report.duplicates);
      }
    }
  }
}

TEST(EdgeBatchSweep, SegmentsNeverLeakAcrossOwners) {
  // Two tenants each hold one edge of a triangle's three; only a tenant
  // holding all three may list it. A naive union of the sets would see
  // the triangle — per-segment enumeration must not.
  const edge_list whole = {{0, 1}, {1, 2}, {0, 2}};
  const edge_list part_a = {{0, 1}, {1, 2}};
  const edge_list part_b = {{0, 2}};
  listing_session s(gen::complete(4));
  listing_query q;
  q.p = 3;
  q.mode = sink_mode::count;
  const std::vector<const edge_list*> ptrs = {&part_a, &part_b, &whole};
  const auto batch = s.cliques_in_edges_batch(q, ptrs);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].count, 0);  // two edges alone hold no triangle
  EXPECT_EQ(batch[1].count, 0);
  EXPECT_EQ(batch[2].count, 1);
}

TEST(EdgeBatchSweep, RejectsStreamAndNullSets) {
  listing_session s(gen::complete(4));
  const edge_list e = {{0, 1}};
  listing_query q;
  q.mode = sink_mode::stream;
  const std::vector<const edge_list*> ptrs = {&e};
  EXPECT_THROW(s.cliques_in_edges_batch(q, ptrs), precondition_error);
  q.mode = sink_mode::count;
  const std::vector<const edge_list*> with_null = {&e, nullptr};
  EXPECT_THROW(s.cliques_in_edges_batch(q, with_null), precondition_error);
}

// ---------------------------------------------------------- serving_session

TEST(ServingSession, SingleThreadMatchesSoloAndCountsStats) {
  const auto g = gen::ring_of_cliques(4, 6);
  listing_session session(g);
  serving_session server(session);

  listing_query q;
  q.p = 3;
  const auto want = session.run(q);
  const auto got = server.query(q);
  EXPECT_TRUE(got.cliques == want.cliques);

  q.mode = sink_mode::count;
  EXPECT_EQ(server.query(q).count, want.cliques.size());

  const auto sets = tenant_edge_sets(g, 2);
  const auto solo_edge = session.cliques_in_edges(q, sets[0]);
  EXPECT_EQ(server.query_edges(q, sets[0]).count, solo_edge.count);

  const auto st = server.stats();
  EXPECT_EQ(st.queries, 3);
  EXPECT_EQ(st.batches, 3);  // no contention → every batch has size 1
  EXPECT_EQ(st.coalesced, 0);
  EXPECT_EQ(st.kernel_sweeps, 3);
}

TEST(ServingSession, StreamQueriesBypassTheQueue) {
  const auto g = gen::gnp(40, 0.25, 9);
  listing_session session(g);
  serving_session server(session);
  listing_query q;
  q.p = 3;
  const auto want = session.run(q);
  q.mode = sink_mode::stream;
  clique_set streamed(3);
  const auto res = server.query(q, [&](std::span<const vertex> b) {
    streamed.add_flat(b);
  });
  EXPECT_TRUE(streamed == want.cliques);
  EXPECT_EQ(res.count, want.cliques.size());
  const auto st = server.stats();
  EXPECT_EQ(st.queries, 1);
  EXPECT_EQ(st.coalesced, 0);
}

TEST(ServingSession, ValidationErrorsThrowOnTheCallersThread) {
  listing_session session(gen::complete(5));
  serving_session server(session);
  listing_query q;
  q.p = 99;  // out of every range
  EXPECT_THROW(server.query(q), precondition_error);
  EXPECT_THROW(server.query_edges(q, {}), precondition_error);
  q.p = 3;
  q.mode = sink_mode::stream;
  EXPECT_THROW(server.query(q), precondition_error);  // sinkless stream
  EXPECT_THROW(serving_session(session, {.max_batch = 0}),
               precondition_error);
}

void hammer_serving(bool batching) {
  const auto g = gen::ring_of_cliques(4, 6);
  listing_session session(g, {.threads = 2});
  serving_session server(session, {.batching = batching});

  listing_query qn;
  qn.p = 3;
  qn.mode = sink_mode::count;
  listing_query qc;
  qc.p = 3;

  constexpr int kThreads = 8;
  constexpr int kIters = 3;
  const auto sets = tenant_edge_sets(g, kThreads);
  const auto want = session.run(qc);
  std::vector<std::int64_t> want_edge_counts;
  for (const auto& e : sets)
    want_edge_counts.push_back(session.cliques_in_edges(qn, e).count);

  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::string& err = errors[std::size_t(t)];
      for (int it = 0; it < kIters && err.empty(); ++it) {
        if (server.query(qn).count != want.cliques.size()) {
          err = "coalesced count diverged";
          return;
        }
        const auto col = server.query(qc);
        if (!(col.cliques == want.cliques)) {
          err = "coalesced collect diverged";
          return;
        }
        const auto e = server.query_edges(qn, sets[std::size_t(t)]);
        if (e.count != want_edge_counts[std::size_t(t)]) {
          err = "coalesced edge count diverged";
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(errors[std::size_t(t)], "") << "thread " << t;

  const auto st = server.stats();
  EXPECT_EQ(st.queries, std::int64_t(kThreads) * kIters * 3);
  EXPECT_EQ(st.kernel_sweeps + st.coalesced, st.queries);
  if (!batching) {
    EXPECT_EQ(st.coalesced, 0);
    EXPECT_EQ(st.kernel_sweeps, st.queries);
  }
}

TEST(ServingSession, HammerBatchingOnMatchesOracle) {
  hammer_serving(/*batching=*/true);
}

TEST(ServingSession, HammerBatchingOffMatchesOracle) {
  hammer_serving(/*batching=*/false);
}

}  // namespace
}  // namespace dcl
