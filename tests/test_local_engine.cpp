// Shared-memory kClist engine (src/local/): orientation invariants, and the
// engine's output cross-checked against the sequential enumerator and the
// CONGEST simulation on random, Kneser, and planted-clique inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/api/session.hpp"
#include "enumkernel/kernel.hpp"
#include "enumkernel/orient.hpp"
#include "graph/clique_enum.hpp"
#include "graph/generators.hpp"
#include "local/parallel.hpp"
#include "support/check.hpp"

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
  clique_collector out(p);
  local::list_cliques_parallel(d, p, pool, scratch, grain, out, stats);
  clique_set got = out.finalize();
  EXPECT_EQ(out.duplicates(), 0) << "kClist emits every clique once";
  return got;
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
  enumkernel::enum_scratch ws;
  EXPECT_GT(enumkernel::count_cliques(g, 3, ws), 0);
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
// Root restriction: a run rooted at a vertex set lists exactly the cliques
// whose lowest-rank vertex is in the set, so runs over the parts of any
// split of the vertices sum (count) or union (list) to the full result.

TEST(Orient, ByRankMatchesThePolicyOrientation) {
  const auto g = gen::power_law(150, 2.3, 10.0, 53);
  for (const auto policy :
       {orientation_policy::degeneracy, orientation_policy::degree}) {
    const auto want = enumkernel::orient(g, policy);
    const auto rank = enumkernel::vertex_rank(g, policy);
    EXPECT_EQ(rank, want.rank);
    enumkernel::dag got;
    enumkernel::orient_by_rank(g.view(), rank, got);
    EXPECT_EQ(got.offsets, want.offsets);
    EXPECT_EQ(got.adj, want.adj);
    EXPECT_EQ(got.max_out_degree, want.max_out_degree);
  }
  // Only the order matters: ranks spread over a wider range orient alike.
  auto spread = enumkernel::vertex_rank(g, orientation_policy::degeneracy);
  for (vertex& r : spread) r = 3 * r + 1000;
  enumkernel::dag wide;
  enumkernel::orient_by_rank(g.view(), spread, wide);
  EXPECT_EQ(wide.adj,
            enumkernel::orient(g, orientation_policy::degeneracy).adj);
  // A tie across an edge would drop it.
  enumkernel::dag d;
  const std::vector<vertex> ties(std::size_t(g.num_vertices()), 0);
  EXPECT_THROW(enumkernel::orient_by_rank(g.view(), ties, d),
               precondition_error);
}

TEST(LocalEngine, RootSplitsPartitionCountAndList) {
  const auto g = gen::planted_cliques(120, 0.05, 3, 9, 41);
  const auto d = enumkernel::orient(g, orientation_policy::degeneracy);
  const vertex n = g.num_vertices();
  for (int p = 3; p <= 6; ++p) {
    const auto want = collect_cliques(g, p);
    // Splits: all roots in one part, contiguous halves, residues mod 3,
    // and a part holding one hub alone.
    const std::vector<std::vector<int>> splits = [&] {
      std::vector<std::vector<int>> out(4, std::vector<int>(std::size_t(n)));
      for (vertex v = 0; v < n; ++v) {
        out[1][std::size_t(v)] = v < n / 2 ? 0 : 1;
        out[2][std::size_t(v)] = v % 3;
        out[3][std::size_t(v)] = d.rank[std::size_t(v)] == 0 ? 1 : 0;
      }
      return out;
    }();
    for (const int threads : {1, 2, 4}) {
      local::thread_pool pool(threads);
      runtime::query_scratch scratch;
      for (const auto& part_of : splits) {
        const int parts =
            *std::max_element(part_of.begin(), part_of.end()) + 1;
        std::int64_t counted = 0;
        clique_set listed(p);
        for (int part = 0; part < parts; ++part) {
          std::vector<vertex> roots;
          for (vertex v = 0; v < n; ++v)
            if (part_of[std::size_t(v)] == part) roots.push_back(v);
          local::parallel_listing_stats st;
          counted += local::count_cliques_parallel(
              d, p, pool, scratch, /*grain=*/8, &st, {}, roots);
          std::int64_t arcs = 0;
          for (const vertex u : roots) arcs += d.out_degree(u);
          EXPECT_EQ(st.roots, arcs);
          clique_collector rooted(p);
          local::list_cliques_parallel(d, p, pool, scratch, /*grain=*/8,
                                       rooted, nullptr, {}, roots);
          const auto run = rooted.finalize();
          for (std::int64_t i = 0; i < run.size(); ++i) {
            const vertex lowest = *std::min_element(
                run[i].begin(), run[i].end(), [&](vertex a, vertex b) {
                  return d.rank[std::size_t(a)] < d.rank[std::size_t(b)];
                });
            EXPECT_EQ(part_of[std::size_t(lowest)], part);
          }
          listed.add_flat(run.flat_view());
        }
        EXPECT_EQ(counted, want.size())
            << "p=" << p << " threads=" << threads << " parts=" << parts;
        EXPECT_EQ(listed.normalize(), 0) << "parts overlap";
        EXPECT_TRUE(listed == want)
            << "p=" << p << " threads=" << threads << " parts=" << parts;
      }
    }
  }
}

TEST(LocalEngine, RootSetMustBeAscendingDagVertices) {
  const auto g = gen::gnp(30, 0.2, 5);
  const auto d = enumkernel::orient(g, orientation_policy::degeneracy);
  local::thread_pool pool(1);
  runtime::query_scratch scratch;
  const std::vector<vertex> descending = {3, 1};
  const std::vector<vertex> outside = {g.num_vertices()};
  EXPECT_THROW(local::count_cliques_parallel(d, 3, pool, scratch, 8, nullptr,
                                             {}, descending),
               precondition_error);
  EXPECT_THROW(local::count_cliques_parallel(d, 3, pool, scratch, 8, nullptr,
                                             {}, outside),
               precondition_error);
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
