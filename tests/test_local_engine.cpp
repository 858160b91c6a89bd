// Shared-memory kClist engine (src/local/): orientation invariants, and the
// engine's output cross-checked against the sequential enumerator and the
// CONGEST simulation on random, Kneser, and planted-clique inputs.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/api/session.hpp"
#include "enumkernel/orient.hpp"
#include "graph/clique_enum.hpp"
#include "graph/generators.hpp"
#include "local/parallel.hpp"

namespace dcl {
namespace {

using enumkernel::orientation_policy;

// ---------------------------------------------------------------------------
// Orientation.

TEST(Orient, KeepsEveryEdgeExactlyOnceRankForward) {
  const auto g = gen::gnp(120, 0.1, 3);
  for (const auto policy :
       {orientation_policy::degeneracy, orientation_policy::degree}) {
    const auto d = enumkernel::orient(g, policy);
    EXPECT_EQ(d.num_arcs(), g.num_edges());
    std::int64_t arcs = 0;
    for (vertex v = 0; v < g.num_vertices(); ++v) {
      auto out = d.out_neighbors(v);
      EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
      for (const vertex w : out) {
        EXPECT_LT(d.rank[size_t(v)], d.rank[size_t(w)]);
        EXPECT_TRUE(g.has_edge(v, w));
        ++arcs;
      }
    }
    EXPECT_EQ(arcs, g.num_edges());
  }
}

TEST(Orient, DegeneracyBoundsOutDegree) {
  // K_n has degeneracy n-1; ring-of-cliques of K6 blocks has degeneracy 5.
  const auto degeneracy = [](const graph& g) {
    return enumkernel::orient(g, orientation_policy::degeneracy)
        .max_out_degree;
  };
  EXPECT_EQ(degeneracy(gen::complete(9)), 8);
  EXPECT_EQ(degeneracy(gen::ring_of_cliques(4, 6)), 5);
}

TEST(Orient, CoreNumbers) {
  // Triangle with a pendant: triangle vertices have core 2, pendant core 1.
  const graph g(4, {{0, 1}, {0, 2}, {1, 2}, {2, 3}});
  const auto core = enumkernel::core_numbers(g);
  EXPECT_EQ(core[0], 2);
  EXPECT_EQ(core[1], 2);
  EXPECT_EQ(core[2], 2);
  EXPECT_EQ(core[3], 1);
}

// ---------------------------------------------------------------------------
// Engine vs sequential ground truth.

// The engine's primary calls, with no session in between: orient once,
// then list (or count) on a private pool and scratch bundle.

clique_set list_local(
    const graph& g, int p,
    orientation_policy policy = orientation_policy::degeneracy,
    int threads = 1, std::int64_t grain = 128,
    local::parallel_listing_stats* stats = nullptr) {
  const auto d = enumkernel::orient(g, policy);
  local::thread_pool pool(threads);
  runtime::query_scratch scratch;
  return local::list_cliques_parallel(d, p, pool, scratch, grain, stats);
}

std::int64_t count_local(const graph& g, int p) {
  const auto d = enumkernel::orient(g, orientation_policy::degeneracy);
  local::thread_pool pool(1);
  runtime::query_scratch scratch;
  return local::count_cliques_parallel(d, p, pool, scratch, /*grain=*/128);
}

void expect_matches_sequential(const graph& g, int p) {
  const auto want = collect_cliques(g, p);
  const auto got = list_local(g, p);
  EXPECT_TRUE(got == want) << "p=" << p << ": got " << got.size()
                           << " expected " << want.size();
  EXPECT_EQ(count_local(g, p), want.size());
}

TEST(LocalEngine, MatchesSequentialOnGnp) {
  const auto g = gen::gnp(80, 0.15, 17);
  for (int p = 3; p <= 6; ++p)
    expect_matches_sequential(g, p);
}

TEST(LocalEngine, MatchesSequentialOnDenseGnp) {
  const auto g = gen::gnp(60, 0.35, 29);
  for (int p = 3; p <= 6; ++p)
    expect_matches_sequential(g, p);
}

TEST(LocalEngine, MatchesSequentialOnKneser) {
  // K(9, 3): 84 vertices; triangles exist (three disjoint 3-sets), K4 needs
  // 12 > 9 ground elements so there are exactly zero — a sharp cutoff.
  const auto g = gen::kneser(9, 3);
  for (int p = 3; p <= 5; ++p)
    expect_matches_sequential(g, p);
  EXPECT_GT(count_cliques(g, 3), 0);
  EXPECT_EQ(count_local(g, 4), 0);
}

TEST(LocalEngine, PetersenIsTriangleFree) {
  EXPECT_EQ(count_local(gen::kneser(5, 2), 3), 0);
}

TEST(LocalEngine, MatchesSequentialOnPlantedCliques) {
  const auto g = gen::planted_cliques(120, 0.03, 3, 9, 41);
  for (int p = 3; p <= 6; ++p)
    expect_matches_sequential(g, p);
}

TEST(LocalEngine, DegreeOrientationGivesSameResult) {
  const auto g = gen::power_law(150, 2.3, 10.0, 53);
  for (int p = 3; p <= 5; ++p) {
    const auto got = list_local(g, p, orientation_policy::degree);
    EXPECT_TRUE(got == collect_cliques(g, p)) << "p=" << p;
  }
}

TEST(LocalEngine, ArbitraryArityBeyondCongestRange) {
  // p = 8 exceeds the CONGEST drivers' 3..6 but the local engine lists it.
  const auto g = gen::planted_cliques(60, 0.02, 1, 10, 7);
  const auto got = list_local(g, 8);
  EXPECT_TRUE(got == collect_cliques(g, 8));
  EXPECT_GT(got.size(), 0);
}

TEST(LocalEngine, PairsAreEdges) {
  // p = 2 is served by the edge-scoped session query (the main-line
  // engines start at p = 3).
  const auto g = gen::gnp(50, 0.2, 11);
  listing_session session(g, {.engine = listing_engine::local_kclist});
  listing_query q;
  q.p = 2;
  const auto got = session.cliques_in_edges(q, g.edges()).cliques;
  EXPECT_EQ(got.size(), g.num_edges());
  for (const auto& e : g.edges()) {
    const vertex pair[2] = {e.u, e.v};
    EXPECT_TRUE(got.contains(pair));
  }
}

TEST(LocalEngine, EmptyAndCliqueFreeGraphs) {
  EXPECT_EQ(list_local(graph(0, {}), 3).size(), 0);
  EXPECT_EQ(list_local(graph(12, {}), 4).size(), 0);
  EXPECT_EQ(list_local(gen::complete_bipartite(6, 7), 3).size(), 0);
}

// ---------------------------------------------------------------------------
// Parallel determinism: any thread count and grain gives byte-identical
// output, with zero duplicate emissions.

TEST(LocalEngine, ThreadCountInvariance) {
  const auto g = gen::gnp(140, 0.1, 23);
  for (int p = 3; p <= 5; ++p) {
    const auto want = collect_cliques(g, p);
    for (int threads : {1, 2, 3, 4, 8}) {
      local::parallel_listing_stats st;
      const auto got = list_local(g, p, orientation_policy::degeneracy,
                                  threads, /*grain=*/16, &st);
      EXPECT_TRUE(got == want) << "p=" << p << " threads=" << threads;
      EXPECT_EQ(st.threads, threads);
      std::int64_t roots = 0;
      for (const auto r : st.per_thread_roots) roots += r;
      EXPECT_EQ(roots, g.num_edges());  // one DAG arc per edge
      EXPECT_EQ(st.roots, g.num_edges());
    }
  }
}

// ---------------------------------------------------------------------------
// Backend integration: a local_kclist session must be byte-identical to a
// congest_sim session on the same graph.

void expect_backends_agree(const graph& g, int p) {
  listing_query q;
  q.p = p;
  const auto sim = listing_session(g).run(q);
  const auto fast = listing_session(
                        g, {.engine = listing_engine::local_kclist,
                            .threads = 3})
                        .run(q);

  EXPECT_TRUE(sim.cliques == fast.cliques)
      << "p=" << p << ": congest " << sim.cliques.size() << " vs local "
      << fast.cliques.size();
  EXPECT_EQ(fast.report.duplicates, 0);
  EXPECT_EQ(fast.report.emitted, fast.cliques.size());
}

TEST(BackendAgreement, GnpAllArities) {
  const auto g = gen::gnp(70, 0.12, 31);
  for (int p = 3; p <= 6; ++p) expect_backends_agree(g, p);
}

TEST(BackendAgreement, Kneser) {
  expect_backends_agree(gen::kneser(9, 3), 3);
  expect_backends_agree(gen::kneser(8, 2), 4);
}

TEST(BackendAgreement, PlantedCliques) {
  const auto g = gen::planted_cliques(90, 0.02, 2, 8, 61);
  for (int p = 3; p <= 6; ++p) expect_backends_agree(g, p);
}

// ---------------------------------------------------------------------------
// Generator sanity for the new family.

TEST(Kneser, PetersenShape) {
  const auto g = gen::kneser(5, 2);  // Petersen: 10 vertices, 15 edges
  EXPECT_EQ(g.num_vertices(), 10);
  EXPECT_EQ(g.num_edges(), 15);
  for (vertex v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(g.degree(v), 3);
}

TEST(Kneser, CompleteWhenKIsOne) {
  const auto g = gen::kneser(6, 1);  // K(6,1) = K6
  EXPECT_EQ(g.num_vertices(), 6);
  EXPECT_EQ(g.num_edges(), 15);
}

}  // namespace
}  // namespace dcl
