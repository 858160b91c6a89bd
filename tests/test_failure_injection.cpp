// Failure injection: every public API must reject malformed input with a
// precondition_error (never UB, never silent corruption), and internal
// invariant checks must stay armed in release builds.

#include <gtest/gtest.h>

#include <numeric>

#include "congest/cluster_comm.hpp"
#include "congest/congested_clique.hpp"
#include "core/api/session.hpp"
#include "core/listing/collector.hpp"
#include "core/ptree/partition.hpp"
#include "core/streaming/pp_simulate.hpp"
#include "graph/generators.hpp"
#include "support/check.hpp"

namespace dcl {
namespace {

TEST(FailureInjection, GraphRejectsMalformedEdges) {
  EXPECT_THROW(graph(2, {{0, 2}}), precondition_error);   // out of range
  EXPECT_THROW(graph(2, {{1, 1}}), precondition_error);   // self loop
  EXPECT_THROW(graph(-1, {}), precondition_error);        // negative n
}

TEST(FailureInjection, OptionsValidation) {
  const auto g = gen::complete(5);
  listing_session session(g);
  listing_query q;
  q.p = 2;
  EXPECT_THROW(session.run(q), precondition_error);
  q.p = 7;
  EXPECT_THROW(session.run(q), precondition_error);
  // The driver checks its own preconditions too, without the session.
  runtime::thread_pool pool(1);
  runtime::query_scratch scratch;
  for (const int p : {2, 7}) {
    q.p = p;
    clique_collector out(q.p);
    EXPECT_THROW(list_cliques_congest(g, q, pool, scratch, out),
                 precondition_error)
        << "p=" << p;
  }
  q.p = 4;
  q.epsilon = 1.5;
  clique_collector out(q.p);
  EXPECT_THROW(list_cliques_congest(g, q, pool, scratch, out),
               precondition_error);
}

TEST(FailureInjection, DecompositionOptionValidation) {
  const auto g = gen::complete(6);
  decomposition_options opt;
  opt.epsilon = 0.0;
  EXPECT_THROW(decompose(g, opt), precondition_error);
  opt.epsilon = 0.1;
  opt.phi_target = -1.0;
  EXPECT_THROW(decompose(g, opt), precondition_error);
}

TEST(FailureInjection, ClusterCommValidation) {
  const auto g = gen::grid(2, 3);
  cost_ledger l;
  network net(g, l);
  // Unsorted vertex list.
  EXPECT_THROW(cluster_comm(net, {2, 0, 1}, {{0, 1}}, "c"),
               precondition_error);
  // Edge endpoint not in cluster.
  EXPECT_THROW(cluster_comm(net, {0, 1}, {{1, 2}}, "c"),
               precondition_error);
  // Cluster edge absent from the parent graph (grid 0-1-2 / 3-4-5).
  EXPECT_THROW(cluster_comm(net, {0, 1, 4}, {{0, 1}, {0, 4}}, "c"),
               precondition_error);
  // Disconnected cluster subgraph.
  EXPECT_THROW(cluster_comm(net, {0, 1, 4, 5}, {{0, 1}, {4, 5}}, "c"),
               precondition_error);
}

TEST(FailureInjection, CongestedCliqueValidation) {
  cost_ledger l;
  EXPECT_THROW(congested_clique(1, l), precondition_error);
  congested_clique cq(4, l);
  message_batch self_loop;
  self_loop.emplace(0, 0);
  EXPECT_THROW(cq.exchange(self_loop, "p"), precondition_error);
  message_batch out_of_range;
  out_of_range.emplace(0, 7);
  EXPECT_THROW(cq.exchange(out_of_range, "p"), precondition_error);
}

TEST(FailureInjection, PartitionValidation) {
  EXPECT_THROW(interval_partition({0}), precondition_error);
  EXPECT_THROW(interval_partition({1, 5}), precondition_error);
  EXPECT_THROW(interval_partition({0, 5, 5}), precondition_error);
  partition_tree t;
  EXPECT_THROW(t.push_layer({}, 5), precondition_error);
  t.push_layer({interval_partition({0, 5})}, 5);
  // Wrong layer width: root has 1 part, so next layer needs 1 node.
  EXPECT_THROW(t.push_layer({interval_partition({0, 5}),
                             interval_partition({0, 5})},
                            5),
               precondition_error);
}

/// A hostile streaming machine that violates its own declared B_aux.
class liar_machine final : public pp_algorithm {
 public:
  pp_limits limits() const override {
    return {.n_out = 1, .b_aux = 0, .b_write = 1};
  }
  std::int64_t state_words() const override { return 1; }
  void reset() override {}
  void on_main(const pp_token&, pp_context& ctx) override {
    ctx.request_aux();  // but b_aux = 0
  }
  void on_aux(const pp_token&, pp_context&) override {}
};

TEST(FailureInjection, StreamingLimitsEnforcedInBothRunners) {
  pp_stream s;
  pp_main_entry e;
  e.main = pp_token{1};
  e.aux.push_back(pp_token{2});
  s.push_back(e);

  liar_machine local;
  EXPECT_THROW(pp_run_local(local, s), invariant_error);

  const auto g = gen::complete(4);
  cost_ledger l;
  network net(g, l);
  std::vector<vertex> all{0, 1, 2, 3};
  cluster_comm cc(net, all, g.edges(), "c");
  liar_machine sim;
  pp_instance inst;
  inst.alg = &sim;
  inst.segment = [&s](vertex i) { return i == 0 ? s : pp_stream{}; };
  EXPECT_THROW(pp_simulate(cc, all, std::span(&inst, 1), 2, "sim"),
               invariant_error);
}

TEST(FailureInjection, ListingSurvivesPathologicalGraphs) {
  // Star: maximally skewed; path: no expansion; isolated vertices.
  const graph star(64, [] {
    edge_list e;
    for (vertex v = 1; v < 64; ++v) e.push_back({0, v});
    return e;
  }());
  EXPECT_EQ(listing_session(star).run({}).cliques.size(), 0);

  edge_list pe;
  for (vertex v = 0; v + 1 < 50; ++v) pe.push_back({v, vertex(v + 1)});
  const graph path(50, pe);
  EXPECT_EQ(listing_session(path).run({}).cliques.size(), 0);

  const graph sparse(40, {{0, 1}, {1, 2}, {0, 2}, {37, 38}});
  EXPECT_EQ(listing_session(sparse).run({}).cliques.size(), 1);
}

}  // namespace
}  // namespace dcl
