#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>

#include "core/api/session.hpp"
#include "graph/generators.hpp"
#include "support/check.hpp"

namespace dcl {
namespace {

void expect_exact_kp(const graph& g, int p, listing_query opt = {},
                     listing_report* rep = nullptr) {
  opt.p = p;
  auto res = listing_session(g).run(opt);
  const auto want = collect_cliques(g, p);
  EXPECT_TRUE(res.cliques == want) << "p=" << p << ": listed "
                                   << res.cliques.size() << ", expected "
                                   << want.size();
  if (rep) *rep = std::move(res.report);
}

TEST(KpListing, K4ExactOnGnp) {
  expect_exact_kp(gen::gnp(90, 0.15, 3), 4);
  expect_exact_kp(gen::gnp(120, 0.08, 5), 4);
}

TEST(KpListing, K4ExactOnPlantedCliques) {
  expect_exact_kp(gen::planted_cliques(100, 0.05, 3, 6, 7), 4);
}

TEST(KpListing, K4ExactOnPlantedPartition) {
  expect_exact_kp(gen::planted_partition(3, 30, 0.4, 0.03, 11), 4);
}

TEST(KpListing, K4ExactOnRingOfCliques) {
  expect_exact_kp(gen::ring_of_cliques(8, 7), 4);
}

TEST(KpListing, K4ExactOnPowerLaw) {
  expect_exact_kp(gen::power_law(110, 2.4, 10.0, 13), 4);
}

TEST(KpListing, K4ExactOnK4FreeGraphs) {
  expect_exact_kp(gen::complete_bipartite(15, 15), 4);  // zero K4s
  expect_exact_kp(gen::hypercube(6), 4);
}

TEST(KpListing, K4DenseExercisesSplitTrees) {
  // Average degree well above the V− threshold 2*sqrt(n), so clusters have
  // nonempty V−_C with outside vertices — the full §6 pipeline (delivery,
  // Theorem 31, split trees, Lemma 37) runs.
  listing_report rep;
  expect_exact_kp(gen::gnp(120, 0.35, 97), 4, {}, &rep);
  expect_exact_kp(gen::planted_partition(2, 45, 0.6, 0.05, 101), 4);
}

TEST(KpListing, K4DenseRandomizedEngine) {
  listing_query opt;
  opt.lb = lb_engine::randomized;
  opt.seed = 11;
  expect_exact_kp(gen::gnp(110, 0.35, 103), 4, opt);
}

TEST(KpListing, K5DenseExercisesSplitTrees) {
  expect_exact_kp(gen::gnp(90, 0.4, 107), 5);
}

TEST(KpListing, K5ExactOnGnp) {
  expect_exact_kp(gen::gnp(70, 0.2, 17), 5);
}

TEST(KpListing, K5ExactOnPlantedCliques) {
  expect_exact_kp(gen::planted_cliques(80, 0.04, 2, 7, 19), 5);
}

TEST(KpListing, K6ExactSmall) {
  expect_exact_kp(gen::gnp(50, 0.3, 23), 6);
}

TEST(KpListing, DenseCompleteGraph) {
  expect_exact_kp(gen::complete(14), 4);
  expect_exact_kp(gen::complete(12), 5);
}

TEST(KpListing, EmptyAndTiny) {
  expect_exact_kp(graph(6, {}), 4);
  expect_exact_kp(gen::complete(4), 4);
  expect_exact_kp(gen::complete(5), 5);
}

TEST(KpListing, RandomizedEngineExact) {
  listing_query opt;
  opt.lb = lb_engine::randomized;
  opt.seed = 5;
  expect_exact_kp(gen::gnp(90, 0.12, 29), 4, opt);
}

TEST(KpListing, RandomizedEngineReshufflesLeafAssignment) {
  // The randomized engine permutes the pool the Lemma 20 assignment walks,
  // so the listers — and with them the learn traffic — move, while the
  // cliques stay exact.
  const auto g = gen::power_law(300, 2.1, 20.0, 9);
  listing_query opt;
  opt.p = 4;
  const auto det = listing_session(g).run(opt);
  opt.lb = lb_engine::randomized;
  opt.seed = 7;
  listing_report rnd;
  expect_exact_kp(g, 4, opt, &rnd);
  EXPECT_FALSE(rnd.ledger == det.report.ledger);
}

TEST(KpListing, UnbalancedEngineExact) {
  listing_query opt;
  opt.lb = lb_engine::unbalanced;
  expect_exact_kp(gen::gnp(90, 0.12, 31), 4, opt);
}

// Without the fallback, the levels retire every edge of `g` exactly once.
void expect_levels_retire_all_edges(const graph& g,
                                    const listing_report& rep) {
  ASSERT_FALSE(rep.used_fallback);
  std::int64_t removed = 0;
  for (const auto& ls : rep.levels) removed += ls.edges_removed;
  EXPECT_EQ(removed, g.num_edges());
}

TEST(KpListing, ReportPopulated) {
  listing_report rep;
  const auto sparse = gen::gnp(110, 0.1, 37);
  expect_exact_kp(sparse, 4, {}, &rep);
  EXPECT_GT(rep.ledger.rounds(), 0);
  EXPECT_GT(rep.model_decomposition_rounds, 0);
  EXPECT_FALSE(rep.levels.empty());
  expect_levels_retire_all_edges(sparse, rep);
  // Only split-tree listers carry a Thm 6 load; this sparse graph has no
  // V−-heavy cluster, so take a dense one where the §6 pipeline lists.
  const auto dense = gen::gnp(120, 0.35, 97);
  expect_exact_kp(dense, 4, {}, &rep);
  std::int64_t listed = 0;
  for (const auto& ls : rep.levels) listed += ls.clusters_listed;
  EXPECT_GT(listed, 0);
  EXPECT_GT(rep.max_normalized_load, 0.0);
  expect_levels_retire_all_edges(dense, rep);
}

TEST(KpListing, DeterministicTranscript) {
  const auto g = gen::gnp(80, 0.13, 41);
  listing_query opt;
  opt.p = 4;
  const auto a = listing_session(g).run(opt);
  const auto b = listing_session(g).run(opt);
  EXPECT_TRUE(a.cliques == b.cliques);
  EXPECT_EQ(a.report.ledger.rounds(), b.report.ledger.rounds());
  EXPECT_EQ(a.report.ledger.messages(), b.report.ledger.messages());
}

// Absolute emission accounting: report.emitted counts every tuple a lister
// handed in, report.duplicates the redundant ones. Literal values, so a
// change to how the driver or the session feeds or finishes the collector
// cannot move both sides of a session-vs-direct comparison at once. Every
// (graph, p, lb) cell must read the same at 1 and 4 threads and in collect
// and count mode.
TEST(KpListing, EmittedAndDuplicatesPinned) {
  struct cell {
    int p;
    lb_engine lb;
    std::int64_t count, emitted, duplicates;
  };
  constexpr auto det = lb_engine::deterministic;
  constexpr auto rnd = lb_engine::randomized;
  const struct {
    graph g;
    std::vector<cell> cells;
  } cases[] = {
      {gen::gnp(100, 0.15, 5),
       {{3, det, 537, 1918, 1381}, {3, rnd, 537, 2614, 2077},
        {4, det, 30, 35, 5},       {4, rnd, 30, 35, 5},
        {5, det, 0, 0, 0},         {5, rnd, 0, 0, 0},
        {6, det, 0, 0, 0},         {6, rnd, 0, 0, 0}}},
      {gen::planted_partition(6, 20, 0.3, 0.005, 5),
       {{3, det, 137, 452, 315}, {3, rnd, 137, 554, 417},
        {4, det, 11, 11, 0},     {4, rnd, 11, 11, 0},
        {5, det, 0, 0, 0},       {5, rnd, 0, 0, 0},
        {6, det, 0, 0, 0},       {6, rnd, 0, 0, 0}}},
      // Dense enough for K5/K6, and its p = 5 run has duplicates.
      {gen::gnp(60, 0.4, 5),
       {{3, det, 2226, 2226, 0},   {3, rnd, 2226, 10049, 7823},
        {4, det, 1977, 1977, 0},   {4, rnd, 1977, 1977, 0},
        {5, det, 489, 1790, 1301}, {5, rnd, 489, 1790, 1301},
        {6, det, 29, 29, 0},       {6, rnd, 29, 29, 0}}},
  };
  for (const auto& c : cases)
    for (const int threads : {1, 4}) {
      listing_session s(c.g, {.engine = listing_engine::congest_sim,
                              .threads = threads});
      for (const cell& want : c.cells)
        for (const sink_mode mode : {sink_mode::collect, sink_mode::count}) {
          listing_query q;
          q.p = want.p;
          q.lb = want.lb;
          q.seed = 7;
          q.mode = mode;
          const auto r = s.run(q);
          const std::string where =
              "n=" + std::to_string(c.g.num_vertices()) +
              " p=" + std::to_string(want.p) +
              " lb=" + std::to_string(int(want.lb)) +
              " threads=" + std::to_string(threads) +
              " mode=" + std::to_string(int(mode));
          EXPECT_EQ(r.count, want.count) << where;
          EXPECT_EQ(r.report.emitted, want.emitted) << where;
          EXPECT_EQ(r.report.duplicates, want.duplicates) << where;
        }
    }
}

TEST(ApiFacade, RoutesByP) {
  const auto g = gen::gnp(60, 0.2, 43);
  listing_session session(g);
  listing_query q;
  for (q.p = 3; q.p <= 5; ++q.p) {
    const auto res = session.run(q);
    EXPECT_TRUE(res.cliques == collect_cliques(g, q.p)) << "p=" << q.p;
    EXPECT_GT(res.report.ledger.rounds(), 0);
  }
  q.p = 9;
  EXPECT_THROW(session.run(q), precondition_error);
}

std::set<std::string> phase_labels(const graph& g, int p) {
  listing_query q;
  q.p = p;
  const auto res = listing_session(g).run(q);
  std::set<std::string> out;
  for (const auto& [label, cost] : res.report.ledger.phases())
    out.insert(label);
  return out;
}

/// True when a label segment ends in "clusterN" and the next segment is
/// that same "clusterN" ("cluster3/cluster3/tree"): the doubled prefix a
/// cluster's comm context must never produce.
bool has_doubled_cluster_prefix(std::string_view label) {
  const auto is_cluster_token = [](std::string_view seg) {
    return seg.size() > 7 && seg.starts_with("cluster") &&
           std::all_of(seg.begin() + 7, seg.end(),
                       [](char c) { return c >= '0' && c <= '9'; });
  };
  std::string_view prev;
  bool first = true;
  while (true) {
    const std::size_t slash = label.find('/');
    const std::string_view seg = label.substr(0, slash);
    if (!first && is_cluster_token(seg) && prev.ends_with(seg)) return true;
    if (slash == std::string_view::npos) return false;
    prev = seg;
    first = false;
    label.remove_prefix(slash + 1);
  }
}

void expect_no_doubled_cluster_prefix(const std::set<std::string>& labels) {
  for (const auto& l : labels) EXPECT_FALSE(has_doubled_cluster_prefix(l)) << l;
}

TEST(PhaseLabels, DoubledPrefixScanFindsOnlyDoubledPrefixes) {
  EXPECT_TRUE(has_doubled_cluster_prefix("cluster3/cluster3/tree/stats"));
  EXPECT_FALSE(has_doubled_cluster_prefix("cluster3/cluster31/tree/stats"));
}

// The cluster's comm context prefixes its own phase, so every cluster-local
// label carries the cluster prefix exactly once. Pinned label sets: one
// cluster, so each sub-phase appears under cluster0/ once.
TEST(PhaseLabels, ClusterPrefixAppearsOnceAtP3) {
  const auto g = gen::gnp(200, 0.1, 1);
  std::set<std::string> want = {"cluster0/learn_rep", "cluster0/learn_req",
                                "cluster0/tree/stats"};
  for (int d = 0; d < 3; ++d)
    for (const char* ph : {"phase1", "phase2"})
      want.insert("cluster0/tree/layer" + std::to_string(d) + "/" + ph);
  for (const char* sub :
       {"alg1/phase1", "alg1/phase2", "intervals", "replies", "requests",
        "respread", "stats"})
    want.insert(std::string("cluster0/tree/leafassign/") + sub);
  for (int d = 0; d < 2; ++d)
    for (const char* ph : {"deliver", "fanout"})
      want.insert("cluster0/tree/spread" + std::to_string(d) + "/" + ph);
  const auto got = phase_labels(g, 3);
  EXPECT_EQ(got, want);
  expect_no_doubled_cluster_prefix(got);
}

TEST(PhaseLabels, ClusterPrefixAppearsOnceAtP4) {
  const auto g = gen::gnp(200, 0.1, 1);
  std::set<std::string> want = {"cluster0/deliver", "exhaustive",
                                "fallback/gather"};
  for (int pp = 2; pp <= 4; ++pp) {
    const std::string tree = "cluster0/tree" + std::to_string(pp) + "/";
    want.insert(tree + "degstar");
    want.insert(tree + "thm31");
    for (int d = 0; d < 4; ++d) {
      want.insert(tree + "layer" + std::to_string(d) + "/phase1");
      want.insert(tree + "spread" + std::to_string(d));
    }
    const std::string assign =
        "cluster0/leafassign" + std::to_string(pp) + "/";
    for (const char* sub :
         {"alg1/phase1", "alg1/phase2", "intervals", "replies", "requests",
          "respread", "stats"})
      want.insert(assign + sub);
    want.insert("cluster0/learn" + std::to_string(pp));
  }
  const auto got = phase_labels(g, 4);
  EXPECT_EQ(got, want);
  expect_no_doubled_cluster_prefix(got);
}

}  // namespace
}  // namespace dcl
