// The session API's contracts (DESIGN.md §9): every output mode agrees
// with every other and with each engine's primary layer call (the congest
// drivers, orient + the parallel kClist lister) — cliques AND the full
// listing_report — for both engines, p = 3..6, worker pools of 1 and 4;
// session reuse is bit-identical to a fresh bind; streams arrive in the
// deterministic merge order regardless of batch size; and malformed
// queries are rejected with precondition_error at the session boundary.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/api/session.hpp"
#include "core/listing/collector.hpp"
#include "enumkernel/limits.hpp"
#include "graph/generators.hpp"
#include "local/parallel.hpp"
#include "support/check.hpp"

namespace dcl {
namespace {

void expect_report_identical(const listing_report& a,
                             const listing_report& b) {
  EXPECT_EQ(a.ledger.rounds(), b.ledger.rounds());
  EXPECT_EQ(a.ledger.messages(), b.ledger.messages());
  ASSERT_EQ(a.ledger.phases().size(), b.ledger.phases().size());
  auto ita = a.ledger.phases().begin();
  for (auto itb = b.ledger.phases().begin(); itb != b.ledger.phases().end();
       ++ita, ++itb) {
    EXPECT_EQ(ita->first, itb->first);
    EXPECT_EQ(ita->second.rounds, itb->second.rounds) << ita->first;
    EXPECT_EQ(ita->second.messages, itb->second.messages) << ita->first;
  }
  EXPECT_EQ(a.model_decomposition_rounds, b.model_decomposition_rounds);
  ASSERT_EQ(a.levels.size(), b.levels.size());
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    EXPECT_EQ(a.levels[i].edges_before, b.levels[i].edges_before);
    EXPECT_EQ(a.levels[i].edges_removed, b.levels[i].edges_removed);
    EXPECT_EQ(a.levels[i].clusters, b.levels[i].clusters);
    EXPECT_EQ(a.levels[i].clusters_listed, b.levels[i].clusters_listed);
    EXPECT_EQ(a.levels[i].deferred_clusters, b.levels[i].deferred_clusters);
    EXPECT_EQ(a.levels[i].bad_vertices, b.levels[i].bad_vertices);
    EXPECT_EQ(a.levels[i].low_degree_targets,
              b.levels[i].low_degree_targets);
  }
  EXPECT_EQ(a.emitted, b.emitted);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.used_fallback, b.used_fallback);
  EXPECT_DOUBLE_EQ(a.max_normalized_load, b.max_normalized_load);
}

/// The second call path the session is checked against: each engine's
/// primary layer function on a private pool and scratch bundle, with no
/// session in between.
query_result direct_run(const graph& g, const listing_query& q,
                        listing_engine engine, int threads) {
  runtime::thread_pool pool(threads);
  runtime::query_scratch scratch;
  query_result res{clique_set(q.p), 0, {}};
  clique_collector out(q.p);
  if (engine == listing_engine::local_kclist) {
    const auto dag =
        enumkernel::orient(g, enumkernel::orientation_policy::degeneracy);
    local::list_cliques_parallel(dag, q.p, pool, scratch, /*grain=*/128, out);
  } else {
    res.report = list_cliques_congest(g, q, pool, scratch, out);
  }
  res.cliques = out.finalize();
  res.report.emitted = out.emitted();
  res.report.duplicates = out.duplicates();
  res.count = res.cliques.size();
  return res;
}

/// Reassembles a streamed run into a clique_set for comparison.
clique_set restream(listing_session& s, listing_query q) {
  q.mode = sink_mode::stream;
  clique_set got(q.p);
  s.run(q, [&](std::span<const vertex> batch) {
    EXPECT_EQ(batch.size() % std::size_t(q.p), 0u);
    EXPECT_LE(batch.size(),
              std::size_t(q.p) * std::size_t(q.stream_batch_tuples));
    got.add_flat(batch);
  });
  return got;  // already canonical: streams arrive in merge order
}

TEST(ListingSession, AllModesAgreeWithDirectCallsBothEngines) {
  // The differential sweep: collect / count / stream / cliques_in_edges
  // against each other and the engine's primary layer call.
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
    for (const auto engine :
         {listing_engine::congest_sim, listing_engine::local_kclist}) {
      for (const int threads : {1, 4}) {
        listing_query q;
        q.p = c.p;
        const auto want = direct_run(c.g, q, engine, threads);

        listing_session session(c.g, {.engine = engine, .threads = threads});

        const auto collected = session.run(q);
        EXPECT_TRUE(collected.cliques == want.cliques)
            << "p=" << c.p << " threads=" << threads;
        EXPECT_EQ(collected.count, want.cliques.size());
        expect_report_identical(collected.report, want.report);

        q.mode = sink_mode::count;
        const auto counted = session.run(q);
        EXPECT_EQ(counted.count, want.cliques.size());
        EXPECT_EQ(counted.cliques.size(), 0);  // nothing materialized out
        if (engine == listing_engine::congest_sim)
          expect_report_identical(counted.report, want.report);

        EXPECT_TRUE(restream(session, q) == want.cliques);

        // Edge-scoped query over the full edge set == the full listing.
        q.mode = sink_mode::collect;
        const auto scoped = session.cliques_in_edges(q, c.g.edges());
        EXPECT_TRUE(scoped.cliques == want.cliques);
        EXPECT_EQ(scoped.report.duplicates, 0);
      }
    }
  }
}

TEST(ListingSession, WarmRerunsBitIdenticalToFreshSession) {
  const auto g = gen::planted_partition(3, 25, 0.4, 0.03, 11);
  listing_session warm(g, {.threads = 2});
  listing_query q3, q4;
  q3.p = 3;
  q4.p = 4;
  // Interleave arities so the second q3 runs against thoroughly reused
  // scratch, then compare against a fresh bind: history must not leak.
  const auto first = warm.run(q3);
  warm.run(q4);
  warm.run(q4);
  const auto rerun = warm.run(q3);
  EXPECT_TRUE(rerun.cliques == first.cliques);
  expect_report_identical(rerun.report, first.report);

  listing_session fresh(g, {.threads = 2});
  const auto cold = fresh.run(q3);
  EXPECT_TRUE(cold.cliques == first.cliques);
  expect_report_identical(cold.report, first.report);
}

TEST(ListingSession, LocalEngineWarmRerunsStable) {
  const auto g = gen::gnp(80, 0.2, 17);
  listing_session s(g, {.engine = listing_engine::local_kclist, .threads = 4});
  listing_query q;
  q.p = 4;
  const auto a = s.run(q);
  for (int p = 3; p <= 7; ++p) {  // local engine arity is kernel-bounded
    listing_query other;
    other.p = p;
    other.mode = sink_mode::count;
    EXPECT_EQ(s.run(other).count, collect_cliques(g, p).size()) << p;
  }
  const auto b = s.run(q);
  EXPECT_TRUE(a.cliques == b.cliques);
  EXPECT_EQ(a.report.emitted, b.report.emitted);
}

TEST(ListingSession, StreamBatchingIsPresentationOnly) {
  const auto g = gen::gnp(60, 0.25, 7);
  listing_session s(g);
  listing_query q;
  q.p = 3;
  q.mode = sink_mode::stream;
  const auto want = collect_cliques(g, 3);
  ASSERT_GT(want.size(), 2);
  std::int64_t calls_small = 0;
  // The last value would wrap arity * batch past SIZE_MAX without the
  // clamp in stream_batches — regression for the one-batch fast path.
  for (const std::int64_t batch : {std::int64_t{1}, std::int64_t{7},
                                   std::int64_t{1} << 40,
                                   std::int64_t{1} << 62}) {
    q.stream_batch_tuples = batch;
    clique_set got(3);
    std::int64_t calls = 0;
    const auto res = s.run(q, [&](std::span<const vertex> b) {
      ++calls;
      got.add_flat(b);
    });
    EXPECT_TRUE(got == want) << "batch=" << batch;
    EXPECT_EQ(res.count, want.size());
    if (batch == 1) calls_small = calls;
  }
  EXPECT_EQ(calls_small, want.size());  // batch=1: one call per clique
}

TEST(ListingSession, EmptyStreamNeverInvokesSink) {
  const auto g = gen::complete_bipartite(6, 6);  // triangle-free
  listing_session s(g);
  listing_query q;
  q.mode = sink_mode::stream;
  int calls = 0;
  const auto res = s.run(q, [&](std::span<const vertex>) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(res.count, 0);
}

TEST(ListingSession, EdgeScopedQueriesAreKernelBounded) {
  listing_session s(gen::gnp(30, 0.2, 5));
  // Sparse huge ids, duplicates and self-loops are the kernel's edge-list
  // contract; p = 2 lists the deduplicated edge set itself.
  const edge_list edges = {{1000000000, 1000000007},
                           {1000000000, 1000000007},
                           {5, 5},
                           {1000000007, 1000000009},
                           {1000000000, 1000000009}};
  listing_query q;
  q.p = 3;
  const auto tri = s.cliques_in_edges(q, edges);
  EXPECT_EQ(tri.count, 1);
  q.p = 2;
  EXPECT_EQ(s.cliques_in_edges(q, edges).count, 3);  // deduped, loop dropped
  q.mode = sink_mode::count;
  q.p = 3;
  EXPECT_EQ(s.cliques_in_edges(q, edges).count, 1);
}

TEST(ListingSession, ModeAndSinkMustPair) {
  listing_session s(gen::complete(5));
  listing_query q;
  q.mode = sink_mode::stream;
  EXPECT_THROW(s.run(q), precondition_error);
  EXPECT_THROW(s.cliques_in_edges(q, {}), precondition_error);
  q.mode = sink_mode::collect;
  EXPECT_THROW(s.run(q, [](std::span<const vertex>) {}),
               precondition_error);
  EXPECT_THROW(
      s.cliques_in_edges(q, {}, [](std::span<const vertex>) {}),
      precondition_error);
}

TEST(ListingSession, QueryValidationAtTheSessionBoundary) {
  const auto g = gen::complete(5);
  listing_session sim(g);
  listing_query q;
  q.p = 7;  // beyond the congest range
  EXPECT_THROW(sim.run(q), precondition_error);
  listing_session local(g, {.engine = listing_engine::local_kclist});
  EXPECT_NO_THROW(local.run(q));
  q.p = 3;
  q.stream_batch_tuples = 0;
  EXPECT_THROW(sim.run(q), precondition_error);
  q.stream_batch_tuples = 4096;
  q.epsilon = 1.0;
  EXPECT_THROW(sim.run(q), precondition_error);
  // Edge-scoped: kernel bounds, not engine bounds.
  listing_query eq;
  eq.p = enumkernel::kMaxCliqueArity + 1;
  EXPECT_THROW(sim.cliques_in_edges(eq, g.edges()), precondition_error);
}

TEST(ListingSession, KernelModesBitIdenticalAcrossEnginesAndThreads) {
  // The bitmap/scalar seam contract (DESIGN.md §11): for every kernel mode,
  // engine, and worker-pool size, the clique set, the streamed bytes, and
  // the full report (ledger included) are bit-identical — the traversal is
  // invisible in every output.
  struct case_t {
    graph g;
    int p;
  };
  const std::vector<case_t> cases = {
      {gen::gnp(48, 0.3, 13), 3},
      {gen::ring_of_cliques(5, 7), 4},
      {gen::planted_cliques(40, 0.1, 2, 7, 19), 5},
  };
  constexpr enumkernel::kernel_mode kModes[] = {
      enumkernel::kernel_mode::auto_select, enumkernel::kernel_mode::scalar,
      enumkernel::kernel_mode::bitmap};
  for (const auto& c : cases) {
    for (const auto engine :
         {listing_engine::congest_sim, listing_engine::local_kclist}) {
      // Scalar on one thread is the reference everything must equal.
      listing_query q;
      q.p = c.p;
      listing_session ref_s(c.g, {.engine = engine,
                                  .threads = 1,
                                  .kernel = enumkernel::kernel_mode::scalar});
      const auto want = ref_s.run(q);
      for (const int threads : {1, 4}) {
        for (const auto mode : kModes) {
          // One session per cell: the traversal is a bind-time choice.
          listing_session s(c.g, {.engine = engine,
                                  .threads = threads,
                                  .kernel = mode});
          const auto got = s.run(q);
          EXPECT_TRUE(got.cliques == want.cliques)
              << "p=" << c.p << " threads=" << threads
              << " mode=" << int(mode);
          if (engine == listing_engine::congest_sim)
            expect_report_identical(got.report, want.report);
          // Stream bytes: restream() checks merge order and batching; the
          // set equality then pins the concatenated payload.
          EXPECT_TRUE(restream(s, q) == want.cliques);
          // Edge-scoped queries run on the session's mode too.
          const auto scoped = s.cliques_in_edges(q, c.g.edges());
          EXPECT_TRUE(scoped.cliques == want.cliques);
        }
      }
    }
  }
}

TEST(ListingSession, SessionKernelKnobAppliesToEveryQuery) {
  // session_options::kernel is resolved once, at bind, and every query of
  // the session runs with it; the output never changes.
  const auto g = gen::ring_of_cliques(4, 8);
  listing_query q;
  q.p = 4;
  listing_session plain(g, {});
  const auto want = plain.run(q);
  for (const auto skernel :
       {enumkernel::kernel_mode::scalar, enumkernel::kernel_mode::bitmap}) {
    listing_session s(g, {.kernel = skernel});
    for (int rerun = 0; rerun < 2; ++rerun) {
      const auto got = s.run(q);
      EXPECT_TRUE(got.cliques == want.cliques) << int(skernel);
      expect_report_identical(got.report, want.report);
    }
  }
}

// ------------------------------------------------ concurrent run() hammer
//
// The tentpole contract (DESIGN.md §12): any number of threads may call
// run() / cliques_in_edges() on one session at once, and every output —
// cliques, counts, stream batches, full reports, and recorded traces —
// is bit-identical to a solo run. GTest assertions are not thread-safe,
// so workers record the first mismatch into a per-thread string and the
// main thread asserts after joining.

/// Bool twin of expect_report_identical, usable off the main thread.
bool reports_equal(const listing_report& a, const listing_report& b) {
  if (a.ledger.rounds() != b.ledger.rounds()) return false;
  if (a.ledger.messages() != b.ledger.messages()) return false;
  if (a.ledger.phases().size() != b.ledger.phases().size()) return false;
  auto ita = a.ledger.phases().begin();
  for (auto itb = b.ledger.phases().begin(); itb != b.ledger.phases().end();
       ++ita, ++itb) {
    if (ita->first != itb->first) return false;
    if (ita->second.rounds != itb->second.rounds) return false;
    if (ita->second.messages != itb->second.messages) return false;
  }
  if (a.model_decomposition_rounds != b.model_decomposition_rounds)
    return false;
  if (a.levels.size() != b.levels.size()) return false;
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    if (a.levels[i].edges_before != b.levels[i].edges_before) return false;
    if (a.levels[i].edges_removed != b.levels[i].edges_removed) return false;
    if (a.levels[i].clusters != b.levels[i].clusters) return false;
    if (a.levels[i].clusters_listed != b.levels[i].clusters_listed)
      return false;
    if (a.levels[i].deferred_clusters != b.levels[i].deferred_clusters)
      return false;
    if (a.levels[i].bad_vertices != b.levels[i].bad_vertices) return false;
    if (a.levels[i].low_degree_targets != b.levels[i].low_degree_targets)
      return false;
  }
  if (a.emitted != b.emitted || a.duplicates != b.duplicates) return false;
  if (a.used_fallback != b.used_fallback) return false;
  return std::abs(a.max_normalized_load - b.max_normalized_load) == 0.0;
}

/// The recorded trace as its exact serialized bytes ("" when untraced):
/// byte equality here IS trace bit-identity.
std::string trace_bytes(const listing_report& r) {
  if (!r.trace) return {};
  std::ostringstream os;
  r.trace->write_binary(os);
  return os.str();
}

void hammer_session(listing_engine engine, bool trace, int p,
                    const graph& g) {
  listing_session s(g, {.engine = engine, .threads = 2});

  listing_query qc;
  qc.p = p;
  qc.trace = trace;
  listing_query qn = qc;
  qn.mode = sink_mode::count;
  listing_query qs = qc;
  qs.mode = sink_mode::stream;
  qs.trace = false;  // streams checked for payload, not ledger, here
  listing_query qe = qc;
  qe.trace = false;  // edge-scoped runs have no CONGEST accounting

  // Solo oracles, computed before any concurrency starts.
  const auto want = s.run(qc);
  const std::string want_trace = trace_bytes(want.report);
  if (trace) {
    ASSERT_FALSE(want_trace.empty());
  }
  const auto want_count = s.run(qn);
  const auto want_edges = s.cliques_in_edges(qe, g.edges());
  ASSERT_TRUE(want_edges.cliques == want.cliques);

  constexpr int kThreads = 8;
  constexpr int kIters = 2;
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::string& err = errors[std::size_t(t)];
      for (int it = 0; it < kIters && err.empty(); ++it) {
        const auto col = s.run(qc);
        if (!(col.cliques == want.cliques)) {
          err = "collect cliques diverged";
          return;
        }
        if (!reports_equal(col.report, want.report)) {
          err = "collect report diverged";
          return;
        }
        if (trace_bytes(col.report) != want_trace) {
          err = "recorded trace diverged";
          return;
        }
        const auto cnt = s.run(qn);
        if (cnt.count != want_count.count ||
            !reports_equal(cnt.report, want_count.report)) {
          err = "count run diverged";
          return;
        }
        clique_set streamed(p);
        s.run(qs, [&](std::span<const vertex> batch) {
          streamed.add_flat(batch);
        });
        if (!(streamed == want.cliques)) {
          err = "stream payload diverged";
          return;
        }
        const auto scoped = s.cliques_in_edges(qe, g.edges());
        if (!(scoped.cliques == want_edges.cliques) ||
            scoped.report.emitted != want_edges.report.emitted ||
            scoped.report.duplicates != want_edges.report.duplicates) {
          err = "edge-scoped run diverged";
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(errors[std::size_t(t)], "") << "thread " << t;

  // The lease pool never constructs more bundles than its peak number of
  // concurrent checkouts: bind-time warm-up plus at most one per thread
  // (each thread holds at most one lease at a time).
  const auto stats = s.lease_stats();
  EXPECT_LE(stats.misses, kThreads + 1);
  EXPECT_EQ(stats.parked, stats.misses);  // all bundles back on the list
}

TEST(ListingSession, ConcurrentRunsBitIdenticalCongest) {
  hammer_session(listing_engine::congest_sim, /*trace=*/false, 3,
                 gen::ring_of_cliques(4, 6));
}

TEST(ListingSession, ConcurrentRunsBitIdenticalCongestTraced) {
  hammer_session(listing_engine::congest_sim, /*trace=*/true, 3,
                 gen::ring_of_cliques(4, 6));
}

TEST(ListingSession, ConcurrentRunsBitIdenticalCongestK4) {
  hammer_session(listing_engine::congest_sim, /*trace=*/false, 4,
                 gen::gnp(36, 0.25, 11));
}

TEST(ListingSession, ConcurrentRunsBitIdenticalLocal) {
  hammer_session(listing_engine::local_kclist, /*trace=*/false, 4,
                 gen::gnp(60, 0.15, 7));
}

TEST(ListingSession, SimdTiersBitIdenticalAcrossEnginesAndThreads) {
  // The vector-backend seam contract (DESIGN.md §13), end to end: for
  // every simd tier (including tiers this machine lacks, which must
  // degrade to scalar), kernel mode, engine, and worker-pool size, the
  // clique set, the streamed bytes, the full report, and the recorded
  // trace bytes are bit-identical to the scalar/scalar single-thread
  // reference. On an AVX2 machine the forced vector tier runs genuinely
  // vectorized code through both CONGEST drivers' intersection paths and
  // the kernel's bitmap loops. Every cell binds its own session: kernel
  // and tier are resolved once, at bind.
  constexpr simd_mode kSimd[] = {simd_mode::auto_select, simd_mode::scalar,
                                 simd_mode::avx2};
  constexpr enumkernel::kernel_mode kModes[] = {
      enumkernel::kernel_mode::auto_select, enumkernel::kernel_mode::scalar,
      enumkernel::kernel_mode::bitmap};
  struct case_t {
    graph g;
    int p;
  };
  const std::vector<case_t> cases = {
      {gen::gnp(44, 0.3, 23), 3},
      {gen::planted_cliques(36, 0.12, 2, 6, 29), 4},
  };
  for (const auto& c : cases) {
    for (const auto engine :
         {listing_engine::congest_sim, listing_engine::local_kclist}) {
      listing_query q;
      q.p = c.p;
      q.trace = engine == listing_engine::congest_sim;
      listing_session ref_s(c.g, {.engine = engine,
                                  .threads = 1,
                                  .kernel = enumkernel::kernel_mode::scalar,
                                  .simd = simd_mode::scalar});
      const auto want = ref_s.run(q);
      const std::string want_trace = trace_bytes(want.report);
      for (const int threads : {1, 4}) {
        for (const auto mode : kModes) {
          for (const auto simd : kSimd) {
            listing_session s(c.g, {.engine = engine,
                                    .threads = threads,
                                    .kernel = mode,
                                    .simd = simd});
            const auto got = s.run(q);
            EXPECT_TRUE(got.cliques == want.cliques)
                << "p=" << c.p << " threads=" << threads << " mode="
                << int(mode) << " simd=" << simd::simd_mode_name(simd);
            EXPECT_EQ(got.count, want.count);
            if (engine == listing_engine::congest_sim) {
              expect_report_identical(got.report, want.report);
              EXPECT_EQ(trace_bytes(got.report), want_trace)
                  << "simd=" << simd::simd_mode_name(simd);
            }
            EXPECT_TRUE(restream(s, q) == want.cliques);
            const auto scoped = s.cliques_in_edges(q, c.g.edges());
            EXPECT_TRUE(scoped.cliques == want.cliques);
          }
        }
      }
    }
  }
}

TEST(ListingSession, SessionSimdKnobAppliesToEveryQuery) {
  // session_options::simd is resolved once, at bind (a tier the machine
  // lacks degrades to scalar), and every query of the session runs with
  // it; the output never changes.
  const auto g = gen::ring_of_cliques(4, 8);
  listing_query q;
  q.p = 4;
  listing_session plain(g, {});
  const auto want = plain.run(q);
  for (const auto ssimd : {simd_mode::scalar, simd_mode::avx2}) {
    listing_session s(g, {.simd = ssimd});
    for (int rerun = 0; rerun < 2; ++rerun) {
      const auto got = s.run(q);
      EXPECT_TRUE(got.cliques == want.cliques)
          << simd::simd_mode_name(ssimd);
      expect_report_identical(got.report, want.report);
    }
  }
}

// The session's skeleton memo (DESIGN.md §2.1): warm congest queries take
// each level's anatomy from the memo instead of decomposing again, and
// every output — cliques, the full report, trace bytes — must still equal
// a freshly bound session's cold run.

/// Interleaved query shapes over every memo-key field: p = 3..6, non-default
/// ε, β and γ (nine keys in all, one more than the memo holds, so eviction
/// runs too), both lb engines, and max_levels / base_case_edges variants
/// that share a key with the default p = 4 shape. A key that dropped a
/// field would serve one shape another's anatomy: on the gnp memo graph
/// the two adjacent γ shapes reach level 1 with different level graphs
/// (they defer differently at level 0), and on the planted-partition one
/// ε = 0.1 decomposes level 0 into more clusters than the defaults do.
std::vector<listing_query> memo_queries() {
  std::vector<listing_query> qs;
  const auto add = [&](int p, auto&& tweak) {
    listing_query q;
    q.p = p;
    q.trace = true;
    tweak(q);
    qs.push_back(q);
  };
  const auto none = [](listing_query&) {};
  for (int p = 3; p <= 6; ++p) add(p, none);
  add(4, [](listing_query& q) { q.epsilon = 0.1; });
  add(3, [](listing_query& q) { q.epsilon = 0.2; });
  add(4, [](listing_query& q) { q.beta = 1.5; });
  add(6, [](listing_query& q) { q.beta = 3.0; });
  add(4, [](listing_query& q) {
    q.gamma = 0.05;
    q.base_case_edges = 0;
  });
  add(4, [](listing_query& q) { q.base_case_edges = 0; });
  add(4, [](listing_query& q) { q.max_levels = 1; });
  add(4, [](listing_query& q) {
    q.lb = lb_engine::randomized;
    q.seed = 7;
  });
  add(3, [](listing_query& q) { q.lb = lb_engine::randomized; });
  add(4, [](listing_query& q) { q.mode = sink_mode::count; });
  return qs;
}

std::vector<graph> memo_graphs() {
  return {gen::gnp(100, 0.15, 5),
          gen::planted_partition(6, 20, 0.3, 0.005, 5)};
}

TEST(ListingSession, SkeletonMemoWarmRunsBitIdenticalToColdRuns) {
  const auto qs = memo_queries();
  for (const auto& g : memo_graphs()) {
    std::vector<query_result> cold;
    std::size_t max_levels = 0;
    for (const auto& q : qs) {
      listing_session fresh(g, {.threads = 2});
      cold.push_back(fresh.run(q));
      max_levels = std::max(max_levels, cold.back().report.levels.size());
    }
    ASSERT_GE(max_levels, 2u) << "the graph must recurse past level 0";

    listing_session warm(g, {.threads = 2});
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < qs.size(); ++i) {
        SCOPED_TRACE("n " + std::to_string(g.num_vertices()) + " pass " +
                     std::to_string(pass) + " query " + std::to_string(i));
        const auto got = warm.run(qs[i]);
        EXPECT_TRUE(got.cliques == cold[i].cliques);
        EXPECT_EQ(got.count, cold[i].count);
        expect_report_identical(got.report, cold[i].report);
        EXPECT_EQ(trace_bytes(got.report), trace_bytes(cold[i].report));
      }
    }
  }
}

/// Four threads race cold and warm memo lookups of the same keys on one
/// session; every result must equal its fresh-session oracle.
void race_memo_session(const graph& g, const std::vector<listing_query>& qs) {
  std::vector<query_result> cold;
  for (const auto& q : qs) {
    listing_session fresh(g, {.threads = 1});
    cold.push_back(fresh.run(q));
  }
  listing_session s(g, {.threads = 2});
  constexpr int kThreads = 4;
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::string& err = errors[std::size_t(t)];
      for (std::size_t k = 0; k < qs.size() && err.empty(); ++k) {
        const std::size_t i = (k + std::size_t(t) * 3) % qs.size();
        try {
          const auto got = s.run(qs[i]);
          if (!(got.cliques == cold[i].cliques) ||
              got.count != cold[i].count ||
              !reports_equal(got.report, cold[i].report) ||
              trace_bytes(got.report) != trace_bytes(cold[i].report))
            err = "query " + std::to_string(i) + " diverged";
        } catch (const std::exception& e) {
          err = "query " + std::to_string(i) + " threw: " + e.what();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(errors[std::size_t(t)], "")
        << "thread " << t << " n " << g.num_vertices();
}

TEST(ListingSession, SkeletonMemoConcurrentRunsBitIdentical) {
  const auto qs = memo_queries();
  for (const auto& g : memo_graphs()) race_memo_session(g, qs);
}

TEST(ListingSession, SkeletonMemoWarmRunShardBitIdentical) {
  // A shard worker's run_shard reads the same memo as run(): warm shard
  // runs, before and after a run() of the same key, equal a fresh
  // session's cold run_shard.
  const auto g = memo_graphs().back();
  listing_query q;
  q.p = 4;
  q.trace = true;
  for (int shard = 0; shard < 2; ++shard) {
    congest_shard_plan plan;
    plan.shard = shard;
    plan.shards = 2;
    plan.owner = [](std::int32_t, std::int64_t branch, vertex rep) {
      return branch == kTraceBranchSequential ? 0 : int(rep % 2);
    };
    listing_session fresh(g, {.threads = 2});
    const auto want = fresh.run_shard(q, plan);
    listing_session warm(g, {.threads = 2});
    warm.run_shard(q, plan);
    const auto mid = warm.run_shard(q, plan);
    warm.run(q);
    const auto after = warm.run_shard(q, plan);
    for (const auto* got : {&mid, &after}) {
      EXPECT_EQ(got->raw_tuples, want.raw_tuples) << "shard " << shard;
      EXPECT_EQ(got->emitted, want.emitted);
      ASSERT_EQ(got->scoped.size(), want.scoped.size());
      for (std::size_t i = 0; i < want.scoped.size(); ++i) {
        EXPECT_EQ(got->scoped[i].level, want.scoped[i].level);
        EXPECT_EQ(got->scoped[i].branch, want.scoped[i].branch);
        EXPECT_EQ(got->scoped[i].ledger.rounds(),
                  want.scoped[i].ledger.rounds());
        EXPECT_EQ(got->scoped[i].ledger.messages(),
                  want.scoped[i].ledger.messages());
      }
      expect_report_identical(got->report, want.report);
      EXPECT_EQ(trace_bytes(got->report), trace_bytes(want.report));
    }
  }
}

TEST(ListingSession, SkeletonMemoRejectsAForeignLevelGraph) {
  // The memo's tripwire: an entry consulted from a level graph of another
  // (n, m) than the one it was built from is a broken key, never served.
  const auto g = memo_graphs().front();
  const auto other = gen::gnp(72, 0.2, 3);
  skeleton_memo memo;
  listing_query q;
  q.p = 4;
  runtime::thread_pool pool(1);
  runtime::query_scratch scratch;
  clique_collector first(q.p);
  list_cliques_congest(g, q, pool, scratch, first, nullptr, {}, &memo);
  clique_collector second(q.p);
  EXPECT_THROW(
      list_cliques_congest(other, q, pool, scratch, second, nullptr, {}, &memo),
      invariant_error);
}

TEST(ListingSession, SequentialRunsReuseOneWarmLease) {
  // The steady-state serving path allocates no scratch: bind-time warm-up
  // constructs the one bundle (the only miss), and every sequential query
  // re-checks out that same warm bundle.
  const auto g = gen::gnp(40, 0.2, 5);
  listing_session s(g, {.threads = 2});
  listing_query q;
  for (int i = 0; i < 6; ++i) s.run(q);
  listing_query eq = q;
  eq.mode = sink_mode::count;
  s.cliques_in_edges(eq, g.edges());
  const auto st = s.lease_stats();
  EXPECT_EQ(st.misses, 1);
  EXPECT_EQ(st.acquired, 8);  // warm-up + 6 runs + 1 edge query
  EXPECT_EQ(st.parked, 1);
}

TEST(ListingSession, ReportsAreFreshPerRun) {
  // The old drivers reset a caller-held report in place; the session API
  // returns a new value per run, so a stale result can never alias a live
  // one.
  const auto g = gen::gnp(50, 0.2, 9);
  listing_session s(g);
  listing_query q;
  const auto a = s.run(q);
  const auto b = s.run(q);
  expect_report_identical(a.report, b.report);
  // The driver underneath returns its report by value too: a direct call
  // owns no caller state and reproduces the session's report exactly.
  const auto direct = direct_run(g, q, listing_engine::congest_sim, 1);
  EXPECT_TRUE(direct.cliques == a.cliques);
  expect_report_identical(direct.report, a.report);
}

}  // namespace
}  // namespace dcl
