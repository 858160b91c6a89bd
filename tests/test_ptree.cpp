#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "congest/cluster_comm.hpp"
#include "core/listing/balance.hpp"
#include "core/ptree/build_k3.hpp"
#include "core/ptree/partition.hpp"
#include "core/ptree/validate.hpp"
#include "graph/clique_enum.hpp"
#include "graph/generators.hpp"
#include "support/check.hpp"
#include "support/prng.hpp"

namespace dcl {
namespace {

TEST(IntervalPartition, BasicAccessors) {
  interval_partition p({0, 3, 7, 10});
  EXPECT_EQ(p.num_parts(), 3);
  EXPECT_EQ(p.domain_size(), 10);
  EXPECT_EQ(p.part(1), (std::pair<std::int64_t, std::int64_t>{3, 7}));
  EXPECT_EQ(p.part_size(2), 3);
  EXPECT_EQ(p.part_of(0), 0);
  EXPECT_EQ(p.part_of(3), 1);
  EXPECT_EQ(p.part_of(9), 2);
  EXPECT_THROW(p.part_of(10), precondition_error);
}

TEST(IntervalPartition, FromIntervalsValidates) {
  const auto p = interval_partition::from_intervals({{0, 4}, {5, 9}}, 10);
  EXPECT_EQ(p.num_parts(), 2);
  EXPECT_THROW(interval_partition::from_intervals({{0, 4}, {6, 9}}, 10),
               precondition_error);  // gap
  EXPECT_THROW(interval_partition::from_intervals({{0, 4}}, 10),
               precondition_error);  // not covering
}

TEST(PartitionTree, StructureAndAnc) {
  partition_tree t;
  t.push_layer({interval_partition({0, 5, 10})}, 10);  // root: 2 parts
  // Depth 1: one node per root part.
  t.push_layer({interval_partition({0, 2, 10}),
                interval_partition({0, 7, 10})},
               10);
  EXPECT_EQ(t.layers(), 2);
  EXPECT_EQ(t.num_nodes(0), 1);
  EXPECT_EQ(t.num_nodes(1), 2);
  EXPECT_EQ(t.child(0, 0, 1), 1);
  const auto chain = t.anc(1, 1, 0);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0], (part_ref{0, 0, 1}));  // path went through root part 1
  EXPECT_EQ(chain[1], (part_ref{1, 1, 0}));
}

TEST(PartitionTree, LeafForTupleCoverage) {
  partition_tree t;
  t.push_layer({interval_partition({0, 5, 10})}, 10);
  t.push_layer({interval_partition({0, 2, 10}),
                interval_partition({0, 7, 10})},
               10);
  // Tuple (v0, v1): root part of v0 selects the node; leaf part of v1.
  const auto leaf = t.leaf_for_tuple(std::vector<std::int64_t>{7, 1});
  EXPECT_EQ(leaf.depth, 1);
  EXPECT_EQ(leaf.node, 1);   // v0 = 7 is in root part 1
  EXPECT_EQ(leaf.part, 0);   // v1 = 1 in [0,7) of node 1
  const auto chain = t.anc(leaf.depth, leaf.node, leaf.part);
  // v0 in chain[0]'s bounds, v1 in chain[1]'s bounds.
  EXPECT_GE(7, t.part_bounds(chain[0]).first);
  EXPECT_LT(7, t.part_bounds(chain[0]).second);
  EXPECT_GE(1, t.part_bounds(chain[1]).first);
  EXPECT_LT(1, t.part_bounds(chain[1]).second);
}

struct cluster_fixture {
  graph g;
  cost_ledger ledger;
  network net;
  cluster_comm cc;
  std::vector<vertex> pool;
  std::vector<std::int64_t> comm_deg;

  explicit cluster_fixture(graph gg)
      : g(std::move(gg)), net(g, ledger),
        cc(net, all_vertices(), g.edges(), "c") {
    for (vertex v = 0; v < g.num_vertices(); ++v) {
      pool.push_back(v);
      comm_deg.push_back(g.degree(v));
    }
  }
  std::vector<vertex> all_vertices() const {
    std::vector<vertex> vs(size_t(g.num_vertices()));
    std::iota(vs.begin(), vs.end(), 0);
    return vs;
  }
};

TEST(Balance, AmplifiedAllgatherCharges) {
  cluster_fixture f(gen::hypercube(5));
  std::vector<vertex> holder{0, 3, 7, 12, 31};
  amplified_allgather(f.cc, f.pool, holder, "l19");
  EXPECT_GT(f.ledger.rounds(), 0);
  EXPECT_GT(f.ledger.messages(), std::int64_t(holder.size()) * 31);
}

TEST(Balance, DegreeBalancedAssignmentInvariants) {
  cluster_fixture f(gen::gnp(48, 0.25, 5));
  const std::int64_t m_items = 90;
  std::vector<vertex> holder;
  for (std::int64_t j = 0; j < m_items; ++j)
    holder.push_back(vertex(splitmix64(std::uint64_t(j)) % 48));
  const auto assign =
      degree_balanced_assignment(f.cc, f.pool, f.comm_deg, holder, "l20");
  ASSERT_EQ(assign.size(), size_t(m_items));

  std::int64_t total_deg = 0;
  for (auto d : f.comm_deg) total_deg += d;
  const double mu = double(total_deg) / double(f.pool.size());
  std::map<vertex, std::int64_t> load;
  for (const auto v : assign) {
    ASSERT_GE(v, 0);
    ++load[v];
  }
  for (const auto& [v, cnt] : load) {
    // Receivers are in V*: at least half-average degree.
    EXPECT_GE(double(f.comm_deg[size_t(v)]), mu / 2.0) << "vertex " << v;
    // Load bound: 2 * ceil(M * deg / m).
    const std::int64_t cap =
        2 * ((m_items * f.comm_deg[size_t(v)] + total_deg - 1) / total_deg);
    EXPECT_LE(cnt, cap) << "vertex " << v;
  }
}

TEST(Balance, SingleVertexPoolFallback) {
  cluster_fixture f(gen::complete(4));
  std::vector<vertex> one_pool{2};
  std::vector<std::int64_t> one_deg{3};
  std::vector<vertex> holder{0, 0, 0};
  const auto assign =
      degree_balanced_assignment(f.cc, one_pool, one_deg, holder, "l20");
  EXPECT_EQ(assign, (std::vector<vertex>{0, 0, 0}));
}

TEST(BuildK3, TreeIsValidOnExpander) {
  cluster_fixture f(gen::hypercube(6));
  const auto b = build_k3_tree(f.cc, f.pool, f.comm_deg, "t16");
  EXPECT_EQ(b.tree.layers(), 3);
  const auto rep = validate_def14(b.tree, b.h, 3);
  EXPECT_TRUE(rep.ok) << rep.first_violation;
  EXPECT_LE(rep.max_parts, int(b.x) + 4);
  EXPECT_GT(f.ledger.rounds(), 0);
}

TEST(BuildK3, TreeIsValidOnDenseRandom) {
  cluster_fixture f(gen::gnp(100, 0.3, 17));
  const auto b = build_k3_tree(f.cc, f.pool, f.comm_deg, "t16");
  const auto rep = validate_def14(b.tree, b.h, 3);
  EXPECT_TRUE(rep.ok) << rep.first_violation;
}

TEST(BuildK3, TreeIsValidOnSkewedDegrees) {
  // Power-law degrees plus a Hamiltonian cycle to guarantee connectivity.
  auto edges = gen::power_law(120, 2.3, 12.0, 23).edges();
  for (vertex v = 0; v < 120; ++v)
    edges.push_back(make_edge(v, vertex((v + 1) % 120)));
  cluster_fixture f(graph::from_unsorted(120, std::move(edges)));
  const auto b = build_k3_tree(f.cc, f.pool, f.comm_deg, "t16");
  const auto rep = validate_def14(b.tree, b.h, 3);
  EXPECT_TRUE(rep.ok) << rep.first_violation;
}

TEST(BuildK3, Theorem13CoverageOfTriangles) {
  cluster_fixture f(gen::gnp(80, 0.25, 29));
  const auto b = build_k3_tree(f.cc, f.pool, f.comm_deg, "t16");
  // For every triangle of H there is a leaf part whose anc chain covers all
  // three edges between chain parts (Theorem 13), and that leaf part has an
  // assigned lister.
  std::map<std::pair<std::int64_t, int>, std::size_t> leaf_index;
  for (std::size_t i = 0; i < b.leaf_parts.size(); ++i)
    leaf_index[{b.leaf_parts[i].node, b.leaf_parts[i].part}] = i;
  std::int64_t checked = 0;
  const clique_set triangles = collect_cliques(b.h, 3);
  for (std::int64_t t = 0; t < triangles.size(); ++t) {
    const vertex u = triangles[t][0], v = triangles[t][1],
                 w = triangles[t][2];
    // Try all assignments of {u,v,w} to the three layers (the theorem
    // guarantees the identity order works since every layer partitions the
    // same domain; we check it directly).
    const std::vector<std::int64_t> tuple{u, v, w};
    const auto leaf = b.tree.leaf_for_tuple(tuple);
    const auto chain = b.tree.anc(leaf.depth, leaf.node, leaf.part);
    auto in_part = [&](std::int64_t pos, const part_ref& r) {
      const auto [lo, hi] = b.tree.part_bounds(r);
      return pos >= lo && pos < hi;
    };
    EXPECT_TRUE(in_part(u, chain[0]));
    EXPECT_TRUE(in_part(v, chain[1]));
    EXPECT_TRUE(in_part(w, chain[2]));
    // The leaf has a lister.
    const auto it = leaf_index.find({leaf.node, leaf.part});
    ASSERT_NE(it, leaf_index.end());
    EXPECT_GE(b.leaf_assignment[it->second], 0);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(BuildK3, LeafAssignmentRespectsVStar) {
  cluster_fixture f(gen::gnp(60, 0.3, 31));
  const auto b = build_k3_tree(f.cc, f.pool, f.comm_deg, "t16");
  std::int64_t total_deg = 0;
  for (auto d : f.comm_deg) total_deg += d;
  const double mu = double(total_deg) / double(f.pool.size());
  for (const auto v : b.leaf_assignment)
    EXPECT_GE(double(f.comm_deg[size_t(v)]), mu / 2.0);
}

TEST(BuildK3, DeterministicConstruction) {
  cluster_fixture f1(gen::gnp(70, 0.2, 41));
  cluster_fixture f2(gen::gnp(70, 0.2, 41));
  const auto a = build_k3_tree(f1.cc, f1.pool, f1.comm_deg, "t16");
  const auto b = build_k3_tree(f2.cc, f2.pool, f2.comm_deg, "t16");
  EXPECT_EQ(a.leaf_assignment, b.leaf_assignment);
  EXPECT_EQ(f1.ledger.rounds(), f2.ledger.rounds());
  for (int d = 0; d < 3; ++d) {
    ASSERT_EQ(a.tree.num_nodes(d), b.tree.num_nodes(d));
    for (std::int64_t n = 0; n < a.tree.num_nodes(d); ++n)
      EXPECT_TRUE(a.tree.partition_at(d, n) == b.tree.partition_at(d, n));
  }
}

TEST(BuildK3, TinyPools) {
  cluster_fixture f(gen::complete(5));
  // Pool of 2 vertices.
  std::vector<vertex> pool{1, 3};
  std::vector<std::int64_t> deg{4, 4};
  const auto b = build_k3_tree(f.cc, pool, deg, "t16");
  EXPECT_EQ(b.tree.layers(), 3);
  EXPECT_EQ(b.tree.domain_size(0), 2);
}

TEST(ValidateDef14, DetectsSizeViolation) {
  // Domain of 100 with a single part everywhere: SIZE bound is
  // c3*k/x = 4*100/5 = 80 < 100, so the validator must flag it.
  edge_list edges;
  for (vertex v = 0; v + 1 < 100; ++v) edges.push_back({v, vertex(v + 1)});
  const graph path(100, edges);
  partition_tree t;
  t.push_layer({interval_partition({0, 100})}, 100);
  t.push_layer({interval_partition({0, 100})}, 100);
  t.push_layer({interval_partition({0, 100})}, 100);
  const auto rep = validate_def14(t, path, 3);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.first_violation.find("SIZE"), std::string::npos);
  EXPECT_GT(rep.max_size_ratio, 1.0);
}

}  // namespace
}  // namespace dcl
