#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "core/api/session.hpp"
#include "core/listing/k3_cluster.hpp"
#include "core/listing/two_hop.hpp"
#include "expander/anatomy.hpp"
#include "expander/decomposition.hpp"
#include "graph/generators.hpp"
#include "runtime/scratch.hpp"
#include "support/check.hpp"

namespace dcl {
namespace {

query_result list_k3(const graph& g, const listing_query& q = {}) {
  return listing_session(g).run(q);
}

void expect_exact(const graph& g, const listing_query& opt,
                  listing_report* rep = nullptr) {
  auto res = list_k3(g, opt);
  const auto want = collect_cliques(g, 3);
  EXPECT_TRUE(res.cliques == want) << "listed " << res.cliques.size()
                                   << " triangles, expected " << want.size();
  if (rep) *rep = std::move(res.report);
}

TEST(TwoHop, ListsAllCliquesThroughTargets) {
  const auto g = gen::gnp(60, 0.25, 3);
  // All vertices as targets => all triangles listed.
  std::vector<vertex> targets;
  std::int64_t alpha = 0;
  for (vertex v = 0; v < g.num_vertices(); ++v) {
    targets.push_back(v);
    alpha = std::max<std::int64_t>(alpha, g.degree(v));
  }
  cost_ledger ledger;
  network net(g, ledger);
  clique_collector out(3);
  const auto stats =
      two_hop_listing(net, g, targets, alpha, 3, out, "th");
  EXPECT_GT(stats.rounds, 0);
  EXPECT_EQ(ledger.rounds(), stats.rounds);
  EXPECT_TRUE(out.finalize() == collect_cliques(g, 3));
}

TEST(TwoHop, RespectsAlphaPrecondition) {
  const auto g = gen::complete(10);
  cost_ledger ledger;
  network net(g, ledger);
  clique_collector out(3);
  std::vector<vertex> targets{0};
  EXPECT_THROW(two_hop_listing(net, g, targets, 3, 3, out, "th"),
               precondition_error);
}

TEST(TwoHop, K4ThroughTargets) {
  const auto g = gen::planted_cliques(50, 0.05, 2, 5, 7);
  std::vector<vertex> targets;
  std::int64_t alpha = 0;
  for (vertex v = 0; v < g.num_vertices(); ++v) {
    targets.push_back(v);
    alpha = std::max<std::int64_t>(alpha, g.degree(v));
  }
  cost_ledger ledger;
  network net(g, ledger);
  clique_collector out(3 + 1);
  two_hop_listing(net, g, targets, alpha, 4, out, "th");
  EXPECT_TRUE(out.finalize() == collect_cliques(g, 4));
}

// Pins two_hop_listing on its own: a strict target subset with adjacent
// targets (so each target's smaller targets are pruned from its local
// graph), a hub neighbour far above alpha (so its intersections gallop), a
// non-identity id_map, p = 3..6 and both kernel traversals.
TEST(TwoHop, StrictTargetSubsetMatchesBruteForceAndExchangeCost) {
  // Planted 6-cliques over a sparse G(n, p), plus vertex n adjacent to all.
  const graph base = gen::planted_cliques(600, 0.005, 8, 6, 21);
  const vertex hub = base.num_vertices();
  edge_list edges(base.edges().begin(), base.edges().end());
  for (vertex v = 0; v < hub; ++v) edges.push_back({v, hub});
  const graph g(hub + 1, edges);

  std::vector<vertex> targets;
  std::int64_t alpha = 0;
  for (vertex v = 0; v < hub; ++v)
    if (v % 3 != 0) {
      targets.push_back(v);
      alpha = std::max<std::int64_t>(alpha, g.degree(v));
    }
  std::vector<bool> is_target(size_t(g.num_vertices()), false);
  for (vertex v : targets) is_target[size_t(v)] = true;
  ASSERT_GE(std::int64_t(g.degree(hub)), std::int64_t(kGallopFactor) * alpha);
  bool adjacent_targets = false;
  for (const auto& e : g.edges())
    adjacent_targets |= is_target[size_t(e.u)] && is_target[size_t(e.v)];
  ASSERT_TRUE(adjacent_targets);

  std::vector<vertex> id_map(size_t(g.num_vertices()));
  for (vertex v = 0; v < g.num_vertices(); ++v)
    id_map[size_t(v)] = 5000 - 3 * v;

  // Exchange A: v ships N(v) on each of its edges; Exchange B: neighbour u
  // answers N(u) ∩ N(v). Rounds are the two max loads, messages the sums.
  std::int64_t rounds_a = 0, rounds_b = 0, messages = 0;
  for (vertex v : targets) {
    const auto nv = g.neighbors(v);
    rounds_a = std::max<std::int64_t>(rounds_a, std::int64_t(nv.size()));
    messages += std::int64_t(nv.size()) * std::int64_t(nv.size());
    for (vertex u : nv) {
      std::vector<vertex> common;
      std::set_intersection(nv.begin(), nv.end(), g.neighbors(u).begin(),
                            g.neighbors(u).end(), std::back_inserter(common));
      rounds_b = std::max<std::int64_t>(rounds_b, std::int64_t(common.size()));
      messages += std::int64_t(common.size());
    }
  }

  for (const auto kernel :
       {enumkernel::kernel_mode::scalar, enumkernel::kernel_mode::bitmap}) {
    for (int p = 3; p <= 6; ++p) {
      SCOPED_TRACE(::testing::Message() << "p=" << p << " kernel="
                                        << int(kernel));
      clique_collector want(p);
      const clique_set all = collect_cliques(g, p);
      std::vector<vertex> tuple(static_cast<size_t>(p));
      for (std::int64_t i = 0; i < all.size(); ++i) {
        bool has_target = false;
        for (vertex x : all[i]) has_target |= is_target[size_t(x)];
        if (!has_target) continue;
        for (int k = 0; k < p; ++k) tuple[size_t(k)] = id_map[size_t(all[i][k])];
        want.emit(tuple);
      }
      const clique_set expected = want.finalize();
      ASSERT_GT(expected.size(), 0);

      cost_ledger ledger;
      network net(g, ledger);
      clique_collector out(p);
      runtime::scratch_arena arena;
      const auto stats = two_hop_listing(
          net, g, targets, alpha, p, out, "th", id_map, &arena,
          enumkernel::resolve_exec(kernel, simd_mode::auto_select));
      EXPECT_EQ(out.emitted(), expected.size());
      EXPECT_TRUE(out.finalize() == expected);
      EXPECT_EQ(stats.rounds, rounds_a + rounds_b);
      EXPECT_EQ(stats.messages, messages);
      EXPECT_EQ(ledger.rounds(), stats.rounds);
      EXPECT_EQ(ledger.messages(), stats.messages);
    }
  }
}

// One cluster lists each triangle of G[E_C] exactly once: the two-hop side
// through its smallest low-degree target, the partition tree each all-V−
// triangle from the one leaf whose chain owns its sorted positions. Level 0
// of the driver's decomposition, every cluster, every lb engine.
TEST(K3Listing, ClusterEmitsEachTriangleOnce) {
  std::int64_t tree_side = 0;  // all-V− triangles: the leaves' share
  for (const auto& g :
       {gen::gnp(200, 0.08, 61), gen::planted_partition(4, 40, 0.4, 0.02, 67),
        gen::power_law(300, 2.4, 10.0, 71)}) {
    decomposition_options dopt;
    dopt.epsilon = 1.0 / 18.0;  // the driver's p = 3 default
    const auto anatomy = build_anatomy(g, decompose(g, dopt), {.p = 3});
    for (std::size_t ci = 0; ci < anatomy.size(); ++ci) {
      const auto& a = anatomy[ci];
      // Brute force over G[E_C]: each edge u < v closes a triangle with
      // every common neighbour w > v.
      const graph gc(g.num_vertices(), a.e_cluster);
      clique_collector brute(3);
      for (const auto& e : gc.edges())
        for (vertex w : sorted_intersection(gc.neighbors(e.u),
                                            gc.neighbors(e.v)))
          if (w > e.v) {
            const vertex tri[3] = {e.u, e.v, w};
            brute.emit(tri);
            tree_side += a.in_v_minus(e.u) && a.in_v_minus(e.v) &&
                         a.in_v_minus(w);
          }
      const clique_set want = brute.finalize();
      for (const auto lb : {lb_engine::deterministic, lb_engine::randomized,
                            lb_engine::unbalanced}) {
        SCOPED_TRACE(::testing::Message() << "n=" << g.num_vertices()
                                          << " cluster=" << ci
                                          << " lb=" << int(lb));
        cost_ledger first, second;
        for (cost_ledger* ledger : {&first, &second}) {
          network net(g, *ledger);
          clique_collector out(3);
          list_k3_in_cluster(net, g, a, lb, 7 + ci, out, "cluster");
          EXPECT_EQ(out.emitted(), want.size());
          EXPECT_TRUE(out.finalize() == want);
        }
        EXPECT_TRUE(first == second);
      }
    }
  }
  // Tree-side coverage: the leaves had all-V− triangles to list.
  EXPECT_GT(tree_side, 0);
}

TEST(K3Listing, ExactOnGnp) {
  expect_exact(gen::gnp(120, 0.10, 11), {});
  expect_exact(gen::gnp(120, 0.04, 13), {});
}

TEST(K3Listing, ExactOnDenseGnp) { expect_exact(gen::gnp(64, 0.35, 17), {}); }

TEST(K3Listing, ExactOnPlantedPartition) {
  expect_exact(gen::planted_partition(4, 30, 0.4, 0.02, 19), {});
}

TEST(K3Listing, ExactOnRingOfCliques) {
  expect_exact(gen::ring_of_cliques(10, 8), {});
}

TEST(K3Listing, ExactOnPowerLaw) {
  expect_exact(gen::power_law(150, 2.4, 10.0, 23), {});
}

TEST(K3Listing, ExactOnExpanders) {
  expect_exact(gen::hypercube(7), {});  // triangle-free: zero triangles
  expect_exact(gen::circulant(90, {1, 2, 5}), {});
}

TEST(K3Listing, ExactOnTriangleFreeBipartite) {
  expect_exact(gen::complete_bipartite(20, 25), {});
}

TEST(K3Listing, ExactOnTinyAndEmpty) {
  expect_exact(graph(5, {}), {});
  expect_exact(gen::complete(3), {});
  expect_exact(gen::complete(12), {});
}

TEST(K3Listing, RandomizedEngineExact) {
  listing_query opt;
  opt.lb = lb_engine::randomized;
  opt.seed = 99;
  expect_exact(gen::gnp(100, 0.12, 29), opt);
  expect_exact(gen::power_law(120, 2.4, 9.0, 31), opt);
}

TEST(K3Listing, UnbalancedEngineExact) {
  listing_query opt;
  opt.lb = lb_engine::unbalanced;
  expect_exact(gen::gnp(100, 0.12, 37), opt);
  expect_exact(gen::power_law(120, 2.4, 9.0, 41), opt);
}

TEST(K3Listing, ReportIspopulated) {
  // The ring's bridges survive level 0 and end in a base-case gather.
  for (const auto& g :
       {gen::gnp(150, 0.08, 43), gen::ring_of_cliques(32, 8)}) {
    listing_report rep;
    expect_exact(g, {}, &rep);
    EXPECT_GT(rep.ledger.rounds(), 0);
    EXPECT_GT(rep.model_decomposition_rounds, 0);
    ASSERT_FALSE(rep.levels.empty());
    EXPECT_GE(rep.emitted, rep.duplicates);
    // Level 0 retires a solid fraction of edges (Lemma 8 behaviour).
    EXPECT_GT(rep.levels[0].edges_removed, 0);
    // Without the fallback, the levels retire every edge exactly once.
    ASSERT_FALSE(rep.used_fallback);
    std::int64_t removed = 0;
    for (const auto& ls : rep.levels) removed += ls.edges_removed;
    EXPECT_EQ(removed, g.num_edges());
  }
}

TEST(K3Listing, LogarithmicLevels) {
  const auto g = gen::gnp(200, 0.06, 47);
  const auto rep = list_k3(g).report;
  EXPECT_LE(int(rep.levels.size()), 30);
  EXPECT_FALSE(rep.used_fallback);
}

TEST(K3Listing, DeterministicTranscript) {
  const auto g = gen::gnp(110, 0.09, 53);
  const auto a = list_k3(g);
  const auto b = list_k3(g);
  EXPECT_TRUE(a.cliques == b.cliques);
  EXPECT_EQ(a.report.ledger.rounds(), b.report.ledger.rounds());
  EXPECT_EQ(a.report.ledger.messages(), b.report.ledger.messages());
  EXPECT_EQ(a.report.emitted, b.report.emitted);
}

TEST(K3Listing, EngineRoundsDifferOnSkewedInputs) {
  // The deterministic tree must track the randomized baseline far better
  // than the unbalanced id-range split on skewed degree distributions.
  const auto g = gen::power_law(200, 2.2, 14.0, 59);
  listing_query o_unb;
  o_unb.lb = lb_engine::unbalanced;
  const auto det = list_k3(g).report;
  const auto unb = list_k3(g, o_unb).report;
  // Not a strict theorem at this scale, but the unbalanced engine should
  // not beat the balanced one by more than noise.
  EXPECT_GE(unb.ledger.rounds() * 2, det.ledger.rounds());
}

}  // namespace
}  // namespace dcl
