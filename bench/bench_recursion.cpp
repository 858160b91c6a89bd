// E8 (Lemma 8 + drivers): per-level edge retirement — a constant fraction
// of edges must leave the graph each level, giving logarithmic depth.

#include "bench_common.hpp"

#include "core/api/session.hpp"
#include "graph/generators.hpp"

namespace dcl {
namespace {

void BM_RecursionDepth(benchmark::State& state) {
  const auto n = vertex(state.range(0));
  const auto inv_eps = int(state.range(1));
  const bool multi_scale = state.range(2) != 0;
  // The multi-scale family leaves the bridge edges for a second recursion
  // level; plain sparse gnp is usually one expander cluster and finishes
  // in a single level.
  const auto g = multi_scale ? gen::ring_of_cliques(vertex(n / 8), 8)
                             : gen::gnp(n, 10.0 / double(n), 23);
  listing_report rep;
  for (auto _ : state) {
    listing_query q;
    q.epsilon = 1.0 / double(inv_eps);
    rep = listing_session(g).run(q).report;
  }
  double min_removed_frac = 1.0;
  for (const auto& ls : rep.levels) {
    if (ls.edges_before > 0)
      min_removed_frac =
          std::min(min_removed_frac,
                   double(ls.edges_removed) / double(ls.edges_before));
  }
  state.counters["levels"] = double(rep.levels.size());
  state.counters["min_removed_frac"] = min_removed_frac;
  state.counters["fallback"] = rep.used_fallback ? 1.0 : 0.0;
  state.SetLabel(std::string(multi_scale ? "ring" : "gnp") + "/eps=1/" +
                 std::to_string(inv_eps));
}

}  // namespace
}  // namespace dcl

BENCHMARK(dcl::BM_RecursionDepth)
    ->ArgsProduct({{256, 512, 1024}, {12, 18}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

DCL_BENCH_MAIN("E8: recursion depth and per-level edge retirement")
