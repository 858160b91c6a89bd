#include <gtest/gtest.h>

#include "baselines/dlp12.hpp"
#include "baselines/naive.hpp"
#include "graph/generators.hpp"

namespace dcl {
namespace {

TEST(Dlp12, ExactTriangles) {
  const auto g = gen::gnp(100, 0.1, 3);
  const auto res = baseline::dlp12_list_cliques(g, 3);
  EXPECT_TRUE(res.cliques == collect_cliques(g, 3));
  EXPECT_GT(res.ledger.rounds(), 0);
}

TEST(Dlp12, ExactK4AndK5) {
  const auto g = gen::planted_cliques(80, 0.06, 2, 6, 7);
  for (int p = 4; p <= 5; ++p) {
    const auto res = baseline::dlp12_list_cliques(g, p);
    EXPECT_TRUE(res.cliques == collect_cliques(g, p)) << "p=" << p;
  }
}

TEST(Dlp12, EmptyGraph) {
  const auto res = baseline::dlp12_list_cliques(graph(10, {}), 3);
  EXPECT_EQ(res.cliques.size(), 0);
  EXPECT_EQ(res.ledger.rounds(), 0);
}

TEST(Dlp12, RoundsSublinearInN) {
  // The congested clique gives O(n^{1-2/p}); for triangles this is n^{1/3},
  // far below n.
  const auto g = gen::gnp(216, 0.1, 11);
  const auto res = baseline::dlp12_list_cliques(g, 3);
  EXPECT_LT(res.ledger.rounds(), 216);
}

TEST(Naive, ExactAndExpensive) {
  const auto g = gen::gnp(80, 0.12, 13);
  const auto res = baseline::naive_central_listing(g, 3);
  EXPECT_TRUE(res.cliques == collect_cliques(g, 3));
  // Gathering m edges through a BFS root costs at least ~m/deg(root).
  EXPECT_GT(res.ledger.rounds(), 0);
}

}  // namespace
}  // namespace dcl
