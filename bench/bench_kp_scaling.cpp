// E2 (Theorem 36 / Theorem 1): deterministic K_p listing rounds for
// p = 4, 5 — the target shape is n^{1-2/p+o(1)}. Density scales with
// sqrt(n) so that V−_C stays populated and the full split-tree pipeline
// (delivery, Theorem 31, Lemma 37) is exercised at every size.

#include "bench_common.hpp"

#include <cmath>

#include "core/api/session.hpp"
#include "graph/generators.hpp"

namespace dcl {
namespace {

void BM_KpListing(benchmark::State& state) {
  const auto p = int(state.range(0));
  const auto n = vertex(state.range(1));
  // Average degree ~ 3*sqrt(n): above the V− threshold 2*sqrt(n).
  const double avg = 3.0 * std::sqrt(double(n));
  const auto g = gen::gnp(n, std::min(0.9, avg / double(n)), 11);
  listing_report rep;
  clique_set got(p);
  for (auto _ : state) {
    listing_query q;
    q.p = p;
    auto res = listing_session(g).run(q);
    got = std::move(res.cliques);
    rep = std::move(res.report);
  }
  state.counters["rounds"] = double(rep.ledger.rounds());
  state.counters["messages"] = double(rep.ledger.messages());
  state.counters["decomp_model"] = double(rep.model_decomposition_rounds);
  state.counters["cliques"] = double(got.size());
  state.counters["deferred"] = double(
      rep.levels.empty() ? 0 : rep.levels[0].deferred_clusters);
  bench::slope_store::instance().add("K" + std::to_string(p), double(n),
                                     double(rep.ledger.rounds()));
}

}  // namespace
}  // namespace dcl

BENCHMARK(dcl::BM_KpListing)
    ->ArgsProduct({{4}, {64, 128, 256, 512}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(dcl::BM_KpListing)
    ->ArgsProduct({{5}, {64, 128, 256}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

DCL_BENCH_MAIN("E2: K_p listing — rounds vs n (target slope 1-2/p)")
