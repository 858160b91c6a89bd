// Ablations of the two design choices DESIGN.md §2 introduces on top of the
// paper:
//   A1 — router tree count (the Thm 6 substitute): more BFS trees spread
//        subtree congestion; 1 tree is the classic single-spanning-tree
//        routing lower bound on quality.
//   A2 — decomposition φ schedule: the aggressive-start adaptive schedule
//        versus starting directly at the provably-sufficient floor
//        φ = ε²/(64·log²m) (which certifies almost any graph as a single
//        low-quality cluster).

#include "bench_common.hpp"

#include <cmath>
#include <numeric>

#include "congest/router.hpp"
#include "core/api/session.hpp"
#include "expander/decomposition.hpp"
#include "graph/generators.hpp"
#include "support/prng.hpp"

namespace dcl {
namespace {

void BM_RouterTrees(benchmark::State& state) {
  const auto trees = int(state.range(0));
  const auto g = gen::hypercube(8);
  cluster_router router(g, trees);
  prng rng(5);
  std::vector<message> msgs;
  for (vertex v = 0; v < g.num_vertices(); ++v)
    for (int l = 0; l < 16; ++l)
      msgs.push_back({v,
                      vertex(rng.next_below(std::uint64_t(
                          g.num_vertices()))),
                      0, 0, 0});
  route_stats stats;
  message_batch io;
  for (auto _ : state) {
    io.clear();
    for (const auto& m : msgs) io.push(m);
    stats = router.route(io);
  }
  state.counters["rounds"] = double(stats.rounds);
  state.counters["max_edge_load"] = double(stats.max_edge_load);
  state.counters["max_path"] = double(stats.max_path);
  bench::slope_store::instance().add("router-trees", double(trees),
                                     double(stats.rounds));
}

void BM_PhiSchedule(benchmark::State& state) {
  const bool aggressive = state.range(0) != 0;
  const auto g = gen::planted_partition(8, 40, 0.4, 0.01, 9);
  const double m = double(g.num_edges());
  decomposition_options opt;
  // eps = 1/6 admits the planted inter-block edges as remainder, so the
  // schedules genuinely differ (at 1/18 both must keep the graph whole).
  opt.epsilon = 1.0 / 6.0;
  if (!aggressive)
    opt.phi_target = opt.epsilon * opt.epsilon /
                     (64.0 * std::log2(m) * std::log2(m));
  expander_decomposition d;
  for (auto _ : state) d = decompose(g, opt);
  double min_phi = 1.0;
  for (const auto& c : d.clusters)
    min_phi = std::min(min_phi, c.certified_phi);
  state.counters["clusters"] = double(d.clusters.size());
  state.counters["min_phi"] = d.clusters.empty() ? 0.0 : min_phi;
  state.counters["remainder_frac"] = d.remainder_fraction(g);
  state.SetLabel(aggressive ? "adaptive (ours)" : "paper floor");
}

void BM_PhiScheduleListing(benchmark::State& state) {
  // End-to-end effect on triangle listing rounds of the epsilon choice
  // (which gates how aggressively the adaptive schedule may cluster).
  const auto inv_eps = int(state.range(0));
  const auto g = gen::planted_partition(8, 40, 0.4, 0.01, 9);
  listing_report rep;
  for (auto _ : state) {
    listing_query q;
    q.epsilon = 1.0 / double(inv_eps);
    rep = listing_session(g).run(q).report;
  }
  state.counters["rounds"] = double(rep.ledger.rounds());
  state.counters["levels"] = double(rep.levels.size());
  state.SetLabel("eps=1/" + std::to_string(inv_eps));
}

}  // namespace
}  // namespace dcl

BENCHMARK(dcl::BM_RouterTrees)
    ->ArgsProduct({{1, 2, 4, 8, 16}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(dcl::BM_PhiSchedule)
    ->ArgsProduct({{0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(dcl::BM_PhiScheduleListing)
    ->ArgsProduct({{6, 18}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

DCL_BENCH_MAIN("Ablations: router tree count; decomposition phi schedule")
