#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "enumkernel/orient.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "support/check.hpp"

namespace dcl {
namespace {

graph triangle_with_tail() {
  // 0-1-2 triangle, 2-3 tail.
  return graph(4, {{0, 1}, {0, 2}, {1, 2}, {2, 3}});
}

TEST(Graph, BasicAccessors) {
  const auto g = triangle_with_tail();
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.degree(2), 3);
  EXPECT_EQ(g.degree(3), 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(Graph, NeighborsSorted) {
  const auto g = triangle_with_tail();
  const auto nb = g.neighbors(2);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(nb[0], 0);
  EXPECT_EQ(nb[1], 1);
  EXPECT_EQ(nb[2], 3);
}

TEST(Graph, RejectsSelfLoopAndDuplicates) {
  EXPECT_THROW(graph(3, {{1, 1}}), precondition_error);
  EXPECT_THROW(graph(3, {{0, 1}, {0, 1}}), precondition_error);
  EXPECT_THROW(graph(3, {{1, 0}}), precondition_error);  // must be u < v
}

TEST(Graph, FromUnsortedCanonicalizes) {
  const auto g = graph::from_unsorted(3, {{1, 0}, {0, 1}, {2, 2}, {2, 1}});
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(Graph, VolumeAndDegreeInto) {
  const auto g = triangle_with_tail();
  const std::vector<vertex> s{0, 1};
  EXPECT_EQ(g.volume(s), 4);
  EXPECT_EQ(g.degree_into(2, s), 2);
  EXPECT_EQ(g.degree_into(3, s), 0);
}

TEST(Graph, SortedIntersection) {
  const std::vector<vertex> a{1, 3, 5, 7}, b{2, 3, 6, 7, 9};
  EXPECT_EQ(sorted_intersection_size(a, b), 2);
  const auto i = sorted_intersection(a, b);
  EXPECT_EQ(i, (std::vector<vertex>{3, 7}));
}

TEST(Graph, SortedIntersectionGallopingPathMatchesMerge) {
  // Skew past kGallopFactor so the galloping branch runs, and compare
  // against std::set_intersection on adversarial shapes: hits bunched at
  // the front, the back, spread evenly, and absent entirely.
  const auto reference = [](const std::vector<vertex>& a,
                            const std::vector<vertex>& b) {
    std::vector<vertex> out;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(out));
    return out;
  };
  std::vector<vertex> big;
  for (vertex v = 0; v < 4096; ++v) big.push_back(3 * v);  // multiples of 3
  const std::vector<std::vector<vertex>> smalls = {
      {0, 3, 6},                          // all hits at the front
      {12276, 12279, 12282},              // all hits at the back
      {1, 2, 4, 5},                       // no hits
      {0, 5000, 9999, 12285},             // spread, mixed hit/miss
      {3, 3000, 6000, 9000, 12000},       // evenly spaced hits
      {},                                 // empty short side
  };
  for (const auto& small : smalls) {
    ASSERT_TRUE(small.empty() ||
                big.size() >= small.size() * kGallopFactor);
    const auto want = reference(small, big);
    EXPECT_EQ(sorted_intersection(small, big), want);
    EXPECT_EQ(sorted_intersection(big, small), want);  // order-agnostic
    EXPECT_EQ(sorted_intersection_size(small, big),
              std::int64_t(want.size()));
    EXPECT_EQ(sorted_intersection_size(big, small),
              std::int64_t(want.size()));
  }
  // Just below the skew threshold the merge path runs; results agree.
  std::vector<vertex> medium;
  for (vertex v = 0; v < 200; ++v) medium.push_back(5 * v);
  EXPECT_EQ(sorted_intersection(medium, big), reference(medium, big));
}

TEST(Algorithms, ConnectedComponents) {
  const graph g(6, {{0, 1}, {1, 2}, {3, 4}});
  const auto c = connected_components(g);
  EXPECT_EQ(c.count, 3);
  EXPECT_EQ(c.id[0], c.id[1]);
  EXPECT_EQ(c.id[1], c.id[2]);
  EXPECT_EQ(c.id[3], c.id[4]);
  EXPECT_NE(c.id[0], c.id[3]);
  EXPECT_NE(c.id[5], c.id[0]);
}

TEST(Algorithms, BfsTreeDistances) {
  const auto g = gen::grid(3, 3);
  const auto t = bfs_from(g, 0);
  EXPECT_EQ(t.dist[0], 0);
  EXPECT_EQ(t.dist[8], 4);  // opposite corner
  EXPECT_EQ(t.depth, 4);
  EXPECT_EQ(t.parent[0], -1);
  // Parent edges exist in the graph.
  for (vertex v = 1; v < 9; ++v) EXPECT_TRUE(g.has_edge(v, t.parent[size_t(v)]));
}

TEST(Algorithms, Diameter) {
  EXPECT_EQ(diameter(gen::grid(3, 3)), 4);
  EXPECT_EQ(diameter(gen::complete(5)), 1);
  EXPECT_EQ(diameter(gen::hypercube(4)), 4);
}

TEST(Algorithms, DegeneracyOfCompleteGraph) {
  const auto g = gen::complete(6);
  const auto d =
      enumkernel::orient(g, enumkernel::orientation_policy::degeneracy);
  EXPECT_EQ(d.max_out_degree, 5);
  EXPECT_EQ(d.rank.size(), 6u);
  EXPECT_EQ(enumkernel::core_numbers(g), std::vector<std::int32_t>(6, 5));
}

TEST(Algorithms, DegeneracyOfTree) {
  const graph g(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});  // star
  EXPECT_EQ(
      enumkernel::orient(g, enumkernel::orientation_policy::degeneracy)
          .max_out_degree,
      1);
  EXPECT_EQ(enumkernel::core_numbers(g), std::vector<std::int32_t>(5, 1));
}

TEST(Algorithms, ConductanceOfKnownCut) {
  // Two triangles joined by one edge: cut between them has conductance
  // 1 / min(vol) = 1/7.
  const graph g(6, {{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}, {2, 3}});
  const std::vector<vertex> s{0, 1, 2};
  const auto phi = conductance(g, s);
  ASSERT_TRUE(phi.has_value());
  EXPECT_DOUBLE_EQ(*phi, 1.0 / 7.0);
}

TEST(Algorithms, ConductanceTrivialCutsRejected) {
  const auto g = gen::complete(4);
  EXPECT_FALSE(conductance(g, {}).has_value());
  const std::vector<vertex> all{0, 1, 2, 3};
  EXPECT_FALSE(conductance(g, all).has_value());
}

TEST(Algorithms, MinConductanceExactBarbell) {
  const graph g(6, {{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}, {2, 3}});
  const auto phi = min_conductance_exact(g);
  ASSERT_TRUE(phi.has_value());
  EXPECT_DOUBLE_EQ(*phi, 1.0 / 7.0);
}

TEST(Algorithms, MinConductanceExactComplete) {
  const auto phi = min_conductance_exact(gen::complete(6));
  ASSERT_TRUE(phi.has_value());
  // K6: worst cut is a balanced 3/3 split: boundary 9, min vol 15.
  EXPECT_DOUBLE_EQ(*phi, 9.0 / 15.0);
}

TEST(Algorithms, InduceByEdges) {
  const auto g = triangle_with_tail();
  const auto sub = induce_by_edges(g, {{0, 2}, {2, 3}});
  EXPECT_EQ(sub.g.num_vertices(), 3);
  EXPECT_EQ(sub.g.num_edges(), 2);
  EXPECT_EQ(sub.to_parent.size(), 3u);
  // Local ids ordered by parent id: 0->0, 2->1, 3->2.
  EXPECT_EQ(sub.to_parent[1], 2);
  EXPECT_EQ(sub.to_local[3], 2);
  EXPECT_EQ(sub.to_local[1], -1);
  EXPECT_TRUE(sub.g.has_edge(0, 1));
  EXPECT_TRUE(sub.g.has_edge(1, 2));
  EXPECT_FALSE(sub.g.has_edge(0, 2));
}

}  // namespace
}  // namespace dcl
