// E10 (§1.3 substrate + head-to-head): DLP12 congested-clique K_p listing
// (target O(n^{1-2/p})) and the naive CONGEST gather baseline, against the
// paper pipeline on the same inputs.

#include "bench_common.hpp"

#include "baselines/dlp12.hpp"
#include "baselines/naive.hpp"
#include "core/api/session.hpp"
#include "graph/generators.hpp"

namespace dcl {
namespace {

void BM_Dlp12(benchmark::State& state) {
  const auto p = int(state.range(0));
  const auto n = vertex(state.range(1));
  const auto g = gen::gnp(n, 10.0 / double(n), 31);
  baseline::dlp12_result res{clique_set(p), {}, 0, 0};
  for (auto _ : state) res = baseline::dlp12_list_cliques(g, p);
  state.counters["rounds"] = double(res.ledger.rounds());
  state.counters["cliques"] = double(res.cliques.size());
  state.counters["tuples"] = double(res.tuples);
  bench::slope_store::instance().add("dlp12/K" + std::to_string(p),
                                     double(n),
                                     double(res.ledger.rounds()));
}

void BM_HeadToHead(benchmark::State& state) {
  const auto n = vertex(state.range(0));
  const auto g = gen::gnp(n, 14.0 / double(n), 31);
  listing_report rep;
  baseline::naive_result naive{clique_set(3), {}};
  for (auto _ : state) {
    rep = listing_session(g).run({}).report;
    naive = baseline::naive_central_listing(g, 3);
  }
  state.counters["ours_rounds"] = double(rep.ledger.rounds());
  state.counters["naive_rounds"] = double(naive.ledger.rounds());
  state.counters["ours_plus_decomp_model"] =
      double(rep.ledger.rounds() + rep.model_decomposition_rounds);
}

// Shared-memory kClist engine on the same inputs: the wall-clock floor the
// simulated baselines are measured against (and the exact-count oracle —
// the run aborts on a count mismatch with the naive baseline's output).
void BM_LocalKclist(benchmark::State& state) {
  const auto p = int(state.range(0));
  const auto n = vertex(state.range(1));
  const auto g = gen::gnp(n, 10.0 / double(n), 31);
  listing_query q;
  q.p = p;
  q.mode = sink_mode::count;
  std::int64_t cliques = 0;
  // Bind inside the loop: each sample pays the orientation, like a cold
  // one-shot count.
  for (auto _ : state)
    cliques = listing_session(g, {.engine = listing_engine::local_kclist})
                  .run(q)
                  .count;
  if (cliques != count_cliques(g, p)) std::abort();
  state.counters["cliques"] = double(cliques);
}

}  // namespace
}  // namespace dcl

BENCHMARK(dcl::BM_LocalKclist)
    ->ArgsProduct({{3, 4, 5}, {128, 256, 512, 1024}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(dcl::BM_Dlp12)
    ->ArgsProduct({{3, 4, 5}, {128, 256, 512, 1024}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(dcl::BM_HeadToHead)
    ->ArgsProduct({{256, 512, 1024}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

DCL_BENCH_MAIN("E10: baselines — DLP12 (congested clique) and naive gather")
