#include <gtest/gtest.h>

#include <atomic>
#include <utility>
#include <vector>

#include "core/api/session.hpp"
#include "graph/generators.hpp"
#include "runtime/merge.hpp"
#include "runtime/scratch.hpp"
#include "runtime/thread_pool.hpp"
#include "support/check.hpp"

namespace dcl {
namespace {

// ----------------------------------------------------------- thread_pool

TEST(ThreadPool, CoversEveryChunkExactlyOnce) {
  runtime::thread_pool pool(4);
  EXPECT_EQ(pool.size(), 4);
  const std::int64_t n = 1000;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  pool.for_each_chunk(n, 7, [&](int, std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) ++hits[size_t(i)];
  });
  for (std::int64_t i = 0; i < n; ++i) EXPECT_EQ(hits[size_t(i)].load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  runtime::thread_pool pool(1);
  EXPECT_EQ(pool.size(), 1);
  std::vector<int> workers;
  pool.for_each_index(5, [&](int w, std::int64_t) { workers.push_back(w); });
  EXPECT_EQ(workers, std::vector<int>(5, 0));  // caller is worker 0
}

TEST(ThreadPool, JobOfAtMostOneChunkRunsOnTheCaller) {
  runtime::thread_pool pool(4);
  std::vector<int> workers;
  pool.for_each_index(1, [&](int w, std::int64_t) { workers.push_back(w); });
  pool.for_each_chunk(6, 8, [&](int w, std::int64_t begin, std::int64_t end) {
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 6);
    workers.push_back(w);
  });
  pool.for_each_index(0, [&](int w, std::int64_t) { workers.push_back(w); });
  EXPECT_EQ(workers, std::vector<int>(2, 0));  // no worker woken
  EXPECT_THROW(pool.for_each_index(1,
                                   [](int, std::int64_t) {
                                     DCL_EXPECTS(false, "injected failure");
                                   }),
               precondition_error);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  runtime::thread_pool pool(3);
  for (int job = 0; job < 5; ++job) {
    std::atomic<std::int64_t> sum{0};
    pool.for_each_index(100, [&](int, std::int64_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(ThreadPool, TaskExceptionPropagatesToCaller) {
  runtime::thread_pool pool(2);
  EXPECT_THROW(
      pool.for_each_index(50,
                          [&](int, std::int64_t i) {
                            DCL_EXPECTS(i != 17, "injected failure");
                          }),
      precondition_error);
  // The pool survives a poisoned job and runs the next one normally.
  std::atomic<int> count{0};
  pool.for_each_index(10, [&](int, std::int64_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, PerWorkerArenasAreStable) {
  runtime::thread_pool pool(3);
  struct slot {
    std::vector<int> data;
  };
  // First job: every worker that runs deposits a marker in its arena.
  pool.for_each_index(64, [&](int w, std::int64_t) {
    pool.arena(w).get<slot>().data.push_back(w);
  });
  // The arena of each worker only ever saw that worker's marker.
  for (int w = 0; w < pool.size(); ++w) {
    for (int v : pool.arena(w).get<slot>().data) EXPECT_EQ(v, w);
  }
}

// --------------------------------------------------------- scratch_arena

TEST(ScratchArena, OneInstancePerTypePersists) {
  runtime::scratch_arena arena;
  struct a_t {
    std::vector<int> v;
  };
  struct b_t {
    std::vector<int> v;
  };
  arena.get<a_t>().v.push_back(1);
  arena.get<b_t>().v.push_back(2);
  EXPECT_EQ(arena.get<a_t>().v, std::vector<int>{1});   // same instance
  EXPECT_EQ(arena.get<b_t>().v, std::vector<int>{2});   // no aliasing
  EXPECT_NE(static_cast<void*>(&arena.get<a_t>()),
            static_cast<void*>(&arena.get<b_t>()));
}

// --------------------------------------------------------- query_scratch

TEST(QueryScratch, ArenasAreStableAcrossGrowth) {
  runtime::query_scratch qs;
  qs.ensure_workers(2);
  struct slot {
    std::vector<int> v;
  };
  qs.arena(0).get<slot>().v.push_back(7);
  runtime::scratch_arena* a0 = &qs.arena(0);
  qs.ensure_workers(16);  // growth must not move existing arenas
  EXPECT_EQ(qs.workers(), 16);
  EXPECT_EQ(&qs.arena(0), a0);
  EXPECT_EQ(qs.arena(0).get<slot>().v, std::vector<int>{7});
}

TEST(QueryScratch, EnsureWorkersNeverShrinks) {
  runtime::query_scratch qs;
  qs.ensure_workers(8);
  qs.ensure_workers(2);
  EXPECT_EQ(qs.workers(), 8);
}

// ------------------------------------------------------------ lease_pool

TEST(LeasePool, WarmReCheckoutReturnsSameInstance) {
  struct bundle {
    std::vector<int> data;
  };
  runtime::lease_pool<bundle> pool;
  bundle* first = nullptr;
  {
    auto lease = pool.acquire();
    first = &*lease;
    lease->data.assign(100, 42);
  }  // re-parked warm
  {
    auto lease = pool.acquire();
    EXPECT_EQ(&*lease, first);  // same object, capacity intact
    EXPECT_EQ(lease->data.size(), 100u);
  }
  const auto s = pool.stats();
  EXPECT_EQ(s.acquired, 2);
  EXPECT_EQ(s.misses, 1);  // only the first checkout constructed
  EXPECT_EQ(s.parked, 1);
}

TEST(LeasePool, ConcurrentCheckoutsGetDistinctInstances) {
  struct bundle {
    int x = 0;
  };
  runtime::lease_pool<bundle> pool;
  auto a = pool.acquire();
  auto b = pool.acquire();
  auto c = pool.acquire();
  EXPECT_NE(&*a, &*b);
  EXPECT_NE(&*b, &*c);
  EXPECT_NE(&*a, &*c);
  const auto s = pool.stats();
  EXPECT_EQ(s.acquired, 3);
  EXPECT_EQ(s.misses, 3);
  EXPECT_EQ(s.parked, 0);  // all three still checked out
}

TEST(LeasePool, MovedFromLeaseDoesNotDoublePark) {
  struct bundle {};
  runtime::lease_pool<bundle> pool;
  {
    auto a = pool.acquire();
    auto b = std::move(a);
    EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from query
    EXPECT_TRUE(b);
  }
  EXPECT_EQ(pool.stats().parked, 1);
  // Steady state: peak concurrency was 1, so misses stay at 1 forever.
  for (int i = 0; i < 10; ++i) auto l = pool.acquire();
  const auto s = pool.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.acquired, 11);
}

// ----------------------------------------------------------- run_indexed

TEST(RunIndexed, ResultsComeBackInIndexOrder) {
  runtime::thread_pool pool(4);
  // Not default-constructible: proves the staging works without one.
  struct result {
    explicit result(std::int64_t v) : value(v) {}
    std::int64_t value;
  };
  const auto out = runtime::run_indexed<result>(
      pool, 200, [](int, std::int64_t i) { return result(i * i); });
  ASSERT_EQ(out.size(), 200u);
  for (std::int64_t i = 0; i < 200; ++i)
    EXPECT_EQ(out[size_t(i)].value, i * i);
}

TEST(RunIndexed, ExceptionAbortsAndPropagates) {
  runtime::thread_pool pool(2);
  EXPECT_THROW(runtime::run_indexed<int>(pool, 20,
                                         [](int, std::int64_t i) {
                                           DCL_ENSURE(i != 5, "boom");
                                           return int(i);
                                         }),
               invariant_error);
}

// ------------------------------------- cluster-parallel CONGEST backend
//
// The refactor's invariant: output cliques AND the full report (rounds,
// messages, per-phase ledger, per-level stats) are bit-identical for every
// sim_threads value. This is the paper's headline determinism property
// carried through the parallel runtime.

void expect_reports_identical(const listing_report& a,
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

/// One fresh congest_sim session on `threads` workers, one collect query.
query_result run_on(const graph& g, const listing_query& q, int threads) {
  return listing_session(g, {.threads = threads}).run(q);
}

void expect_sim_threads_invariant(const graph& g, int p) {
  listing_query q;
  q.p = p;
  const auto base = run_on(g, q, 1);
  const auto want = collect_cliques(g, p);
  EXPECT_TRUE(base.cliques == want)
      << "p=" << p << ": sequential run is not exact";
  for (const int t : {2, 4, 8}) {
    const auto run = run_on(g, q, t);
    EXPECT_TRUE(run.cliques == base.cliques)
        << "p=" << p << " sim_threads=" << t << ": clique set diverged";
    expect_reports_identical(base.report, run.report);
  }
}

TEST(ClusterParallelSim, TrianglesDeterministicAcrossThreads) {
  expect_sim_threads_invariant(gen::gnp(80, 0.15, 3), 3);
  expect_sim_threads_invariant(gen::planted_cliques(70, 0.05, 3, 6, 7), 3);
  expect_sim_threads_invariant(gen::kneser(7, 2), 3);
}

TEST(ClusterParallelSim, K4DeterministicAcrossThreads) {
  expect_sim_threads_invariant(gen::gnp(90, 0.15, 3), 4);
  expect_sim_threads_invariant(gen::planted_partition(3, 25, 0.4, 0.03, 11),
                               4);
}

TEST(ClusterParallelSim, K5DeterministicAcrossThreads) {
  expect_sim_threads_invariant(gen::gnp(70, 0.25, 31), 5);
}

TEST(ClusterParallelSim, K6DeterministicAcrossThreads) {
  expect_sim_threads_invariant(gen::gnp(60, 0.3, 41), 6);
  expect_sim_threads_invariant(gen::ring_of_cliques(6, 8), 6);
}

TEST(ClusterParallelSim, HardwareThreadSelectionWorks) {
  const auto g = gen::gnp(60, 0.15, 5);
  const auto run = run_on(g, {}, /*threads=*/0);  // hardware concurrency
  EXPECT_TRUE(run.cliques == collect_cliques(g, 3));
}

TEST(ClusterParallelSim, RandomizedLbStaysSeedDeterministicInParallel) {
  listing_query q;
  q.lb = lb_engine::randomized;
  q.seed = 123;
  const auto g = gen::gnp(80, 0.2, 17);
  const auto a = run_on(g, q, 1);
  const auto b = run_on(g, q, 8);
  EXPECT_TRUE(a.cliques == b.cliques);
  expect_reports_identical(a.report, b.report);
}

}  // namespace
}  // namespace dcl
