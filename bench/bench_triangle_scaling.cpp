// E1 (Theorem 32 / Theorem 1): deterministic triangle listing rounds scale
// as ~n^{1/3+o(1)} and match the randomized engine, while the unbalanced
// id-range engine degrades on skewed inputs and the naive baseline is
// linear in m. Decomposition model rounds are reported separately
// (identical for every engine — see DESIGN.md §2.1).

#include "bench_common.hpp"

#include "baselines/naive.hpp"
#include "core/api/session.hpp"
#include "graph/generators.hpp"

namespace dcl {
namespace {

graph make_graph(int family, vertex n) {
  switch (family) {
    case 0:  // constant average degree 14 gnp
      return gen::gnp(n, 14.0 / double(n), 7);
    default:  // power law, avg degree 12
      return gen::power_law(n, 2.4, 12.0, 7);
  }
}

const char* family_name(int f) { return f == 0 ? "gnp" : "powerlaw"; }
const char* engine_name(int e) {
  return e == 0 ? "deterministic" : e == 1 ? "randomized" : "unbalanced";
}

void BM_TriangleListing(benchmark::State& state) {
  const auto family = int(state.range(0));
  const auto n = vertex(state.range(1));
  const auto engine = int(state.range(2));
  const auto g = make_graph(family, n);
  listing_report rep;
  clique_set got(3);
  for (auto _ : state) {
    listing_query q;
    q.lb = engine == 0   ? lb_engine::deterministic
           : engine == 1 ? lb_engine::randomized
                         : lb_engine::unbalanced;
    q.seed = 99;
    auto res = listing_session(g).run(q);
    got = std::move(res.cliques);
    rep = std::move(res.report);
  }
  state.counters["rounds"] = double(rep.ledger.rounds());
  state.counters["messages"] = double(rep.ledger.messages());
  state.counters["decomp_model"] = double(rep.model_decomposition_rounds);
  state.counters["triangles"] = double(got.size());
  state.counters["levels"] = double(rep.levels.size());
  state.counters["lb_load"] = rep.max_normalized_load;
  state.SetLabel(std::string(family_name(family)) + "/" +
                 engine_name(engine));
  bench::slope_store::instance().add(
      std::string(family_name(family)) + "/" + engine_name(engine),
      double(n), double(rep.ledger.rounds()));
  if (rep.max_normalized_load > 0)
    bench::slope_store::instance().add(
        std::string(family_name(family)) + "/" + engine_name(engine) +
            "/thm6-load",
        double(n), rep.max_normalized_load);
}

void BM_NaiveCentral(benchmark::State& state) {
  const auto n = vertex(state.range(0));
  const auto g = make_graph(0, n);
  baseline::naive_result res{clique_set(3), {}};
  for (auto _ : state) res = baseline::naive_central_listing(g, 3);
  state.counters["rounds"] = double(res.ledger.rounds());
  bench::slope_store::instance().add("gnp/naive", double(n),
                                     double(res.ledger.rounds()));
}

}  // namespace
}  // namespace dcl

BENCHMARK(dcl::BM_TriangleListing)
    ->ArgsProduct({{0, 1}, {128, 256, 512, 1024}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(dcl::BM_NaiveCentral)
    ->ArgsProduct({{128, 256, 512, 1024}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

DCL_BENCH_MAIN("E1: triangle listing — rounds vs n")
