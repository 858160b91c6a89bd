#include <gtest/gtest.h>

#include <set>

#include "enumkernel/kernel.hpp"
#include "graph/clique_enum.hpp"
#include "graph/generators.hpp"
#include "support/check.hpp"

namespace dcl {
namespace {

// Binomial coefficient for expected counts.
std::int64_t choose(std::int64_t n, std::int64_t k) {
  if (k < 0 || k > n) return 0;
  std::int64_t r = 1;
  for (std::int64_t i = 1; i <= k; ++i) r = r * (n - k + i) / i;
  return r;
}

TEST(CliqueSet, AddNormalizeDedup) {
  clique_set s(3);
  const vertex a[3] = {3, 1, 2};
  const vertex b[3] = {1, 2, 3};
  const vertex c[3] = {4, 5, 6};
  s.add(a);
  s.add(b);
  s.add(c);
  EXPECT_EQ(s.normalize(), 1);  // one duplicate removed
  EXPECT_EQ(s.size(), 2);
  EXPECT_TRUE(s.contains(std::span<const vertex>(a, 3)));
  EXPECT_TRUE(s.contains(std::span<const vertex>(c, 3)));
  const vertex d[3] = {1, 2, 4};
  EXPECT_FALSE(s.contains(std::span<const vertex>(d, 3)));
}

TEST(CliqueSet, TuplesComeOutSorted) {
  clique_set s(3);
  const vertex a[3] = {9, 7, 8};
  s.add(a);
  s.normalize();
  const auto t = s[0];
  EXPECT_EQ(t[0], 7);
  EXPECT_EQ(t[1], 8);
  EXPECT_EQ(t[2], 9);
}

TEST(Triangles, CompleteGraphCount) {
  enumkernel::enum_scratch ws;
  EXPECT_EQ(enumkernel::count_cliques(gen::complete(8), 3, ws), choose(8, 3));
}

TEST(Triangles, BipartiteHasNone) {
  enumkernel::enum_scratch ws;
  EXPECT_EQ(enumkernel::count_cliques(gen::complete_bipartite(5, 7), 3, ws),
            0);
}

TEST(Triangles, KnownSmallGraph) {
  // Triangle 0-1-2 plus triangle 1-2-3 sharing an edge.
  const graph g(4, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}});
  const auto s = collect_cliques(g, 3);
  EXPECT_EQ(s.size(), 2);
  const vertex t1[3] = {0, 1, 2};
  const vertex t2[3] = {1, 2, 3};
  EXPECT_TRUE(s.contains(std::span<const vertex>(t1, 3)));
  EXPECT_TRUE(s.contains(std::span<const vertex>(t2, 3)));
}

TEST(Triangles, EachEmittedOnceAscending) {
  const auto g = gen::gnp(60, 0.25, 91);
  const clique_set s = collect_cliques(g, 3);
  std::set<std::array<vertex, 3>> seen;
  for (std::int64_t i = 0; i < s.size(); ++i) {
    const vertex u = s[i][0], v = s[i][1], w = s[i][2];
    EXPECT_LT(u, v);
    EXPECT_LT(v, w);
    EXPECT_TRUE(g.has_edge(u, v));
    EXPECT_TRUE(g.has_edge(u, w));
    EXPECT_TRUE(g.has_edge(v, w));
    EXPECT_TRUE(seen.insert({u, v, w}).second) << "duplicate triangle";
  }
  // Every triangle is there: brute force over all vertex triples.
  std::int64_t brute = 0;
  for (vertex u = 0; u < g.num_vertices(); ++u)
    for (vertex v = u + 1; v < g.num_vertices(); ++v)
      for (vertex w = v + 1; w < g.num_vertices(); ++w)
        brute += g.has_edge(u, v) && g.has_edge(u, w) && g.has_edge(v, w);
  EXPECT_EQ(s.size(), brute);
}

TEST(KCliques, CompleteGraphCounts) {
  enumkernel::enum_scratch ws;
  for (int p = 2; p <= 6; ++p)
    EXPECT_EQ(enumkernel::count_cliques(gen::complete(9), p, ws), choose(9, p))
        << "p=" << p;
}

TEST(KCliques, RingOfCliquesK4) {
  // Each K5 block contributes C(5,4) K4s; bridges add none.
  enumkernel::enum_scratch ws;
  EXPECT_EQ(enumkernel::count_cliques(gen::ring_of_cliques(3, 5), 4, ws),
            3 * choose(5, 4));
}

TEST(KCliques, MatchesTriangleSpecialization) {
  const auto g = gen::gnp(50, 0.3, 5);
  clique_set via_p(3);
  enumkernel::enum_scratch ws;
  enumkernel::enumerate_cliques(
      g, 3, ws, [&](std::span<const vertex> c) { via_p.add(c); });
  via_p.normalize();
  EXPECT_EQ(via_p, collect_cliques(g, 3));
}

TEST(KCliques, ValidatesAllEdgesPresent) {
  const auto g = gen::gnp(40, 0.35, 77);
  enumkernel::enum_scratch ws;
  enumkernel::enumerate_cliques(g, 4, ws, [&](std::span<const vertex> c) {
    for (std::size_t i = 0; i < c.size(); ++i)
      for (std::size_t j = i + 1; j < c.size(); ++j)
        EXPECT_TRUE(g.has_edge(c[i], c[j]));
  });
}

TEST(KCliques, K5InPlantedClique) {
  const auto g = gen::planted_cliques(80, 0.01, 1, 7, 99);
  // A planted K7 guarantees at least C(7,5) K5s.
  enumkernel::enum_scratch ws;
  EXPECT_GE(enumkernel::count_cliques(g, 5, ws), choose(7, 5));
}

TEST(CliquesInEdgeSet, MatchesGraphEnumeration) {
  enumkernel::enum_scratch ws;
  const auto g = gen::gnp(40, 0.3, 13);
  const auto direct = collect_cliques(g, 3);
  const auto via_edges = enumkernel::cliques_in_edge_set(g.edges(), 3, ws);
  EXPECT_EQ(direct, via_edges);
}

TEST(CliquesInEdgeSet, HandlesDuplicatesAndLoops) {
  enumkernel::enum_scratch ws;
  edge_list edges{{0, 1}, {1, 0}, {1, 2}, {0, 2}, {2, 2}, {0, 1}};
  const auto s = enumkernel::cliques_in_edge_set(edges, 3, ws);
  EXPECT_EQ(s.size(), 1);
}

TEST(CliquesInEdgeSet, EmptyInput) {
  enumkernel::enum_scratch ws;
  EXPECT_EQ(enumkernel::cliques_in_edge_set({}, 4, ws).size(), 0);
}

TEST(CliquesInEdgeSet, MatchesGraphEnumerationForAllArities) {
  enumkernel::enum_scratch ws;
  const auto g = gen::gnp(32, 0.4, 17);
  for (int p = 3; p <= 7; ++p) {
    EXPECT_TRUE(collect_cliques(g, p) ==
                enumkernel::cliques_in_edge_set(g.edges(), p, ws))
        << "p=" << p;
  }
}

TEST(CliquesInEdgeSet, SparseHugeIdsAreRemappedDensely) {
  enumkernel::enum_scratch ws;
  // A K5 living on ids near 2^30: the kernel remaps endpoints densely, so
  // the id magnitude must be irrelevant (the pre-kernel path built a
  // throwaway parent graph with max_id vertices and would not survive
  // this).
  const vertex base = 1 << 30;
  std::vector<vertex> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(base + 7919 * i);
  edge_list edges;
  for (int i = 0; i < 5; ++i)
    for (int j = i + 1; j < 5; ++j) edges.push_back({ids[i], ids[j]});
  for (int p = 3; p <= 5; ++p) {
    const auto s = enumkernel::cliques_in_edge_set(edges, p, ws);
    EXPECT_EQ(s.size(), choose(5, p)) << "p=" << p;
  }
  const vertex k5[5] = {ids[0], ids[1], ids[2], ids[3], ids[4]};
  EXPECT_TRUE(enumkernel::cliques_in_edge_set(edges, 5, ws)
                  .contains(std::span<const vertex>(k5, 5)));
}

TEST(CliquesInEdgeSet, ArityTwoReturnsDedupedEdges) {
  enumkernel::enum_scratch ws;
  edge_list edges{{4, 1}, {1, 4}, {2, 2}, {1, 2}};
  const auto s = enumkernel::cliques_in_edge_set(edges, 2, ws);
  EXPECT_EQ(s.size(), 2);
}

TEST(KCliques, ArityAboveKernelLimitIsRejectedAtEntry) {
  const auto g = gen::complete(5);
  enumkernel::enum_scratch ws;
  EXPECT_THROW(enumkernel::count_cliques(g, 33, ws), precondition_error);
  EXPECT_THROW(collect_cliques(g, 33), precondition_error);
  EXPECT_THROW(enumkernel::cliques_in_edge_set(g.edges(), 33, ws),
               precondition_error);
}

}  // namespace
}  // namespace dcl
