// Session API cost model: cold one-shot (a freshly bound listing_session
// plus one run, per query) vs. warm per-query latency on a bound
// listing_session — burst mean plus per-query p50/p99 from the shared
// percentile helper (bench_json.hpp, same definition bench_serving
// uses) — and collect vs. count output modes, per backend. The
// warm path is the serving shape the session API exists for: orientation /
// worker pool / scratch arenas amortize across queries.
//
//   ./bench_api_session [--smoke] [out.json]
//
// Self-checks (abort on failure, so a clean exit IS the equivalence
// check): warm and cold runs return identical clique sets and ledger
// totals, and count mode agrees with collect mode on every family.
//
// Emits one JSON document to stdout AND to the output file (default
// BENCH_api_session.json) so the perf trajectory is tracked across
// commits.

#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/api/session.hpp"
#include "graph/generators.hpp"

namespace {

using dcl::bench::best_seconds;

struct workload {
  std::string name;
  dcl::graph g;
  int p;
  dcl::listing_engine engine;
  int threads;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dcl;
  bool smoke = false;
  std::vector<const char*> pos;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke")
      smoke = true;
    else
      pos.push_back(argv[i]);
  }
  const std::string out_path =
      pos.size() > 0 ? pos[0] : "BENCH_api_session.json";

  // congest_sim families exercise the full simulated pipeline; the
  // local_kclist rows isolate the bind-time work the session caches (DAG
  // orientation, pool spin-up, arena warm-up) on a larger input.
  std::vector<workload> workloads;
  if (smoke) {
    workloads.push_back(
        {"ring_k3_sim", gen::ring_of_cliques(4, 8), 3,
         listing_engine::congest_sim, 2});
    workloads.push_back({"gnp_k4_local", gen::gnp(120, 0.15, 7), 4,
                         listing_engine::local_kclist, 2});
  } else {
    // The first two congest rows are deliberately small: per-query
    // simulation work shrinks toward the per-bind overhead (pool spin-up,
    // arena/transport warm-up) the session amortizes, which is the regime
    // query serving lives in. The planted-partition row is sized so the
    // expander decomposition is most of a cold query — the work the
    // session's skeleton memo saves every warm query. The local rows carry
    // the bind-heavy orientation cost.
    workloads.push_back({"ring_k3_sim", gen::ring_of_cliques(5, 6), 3,
                         listing_engine::congest_sim, 4});
    workloads.push_back({"gnp_k4_sim", gen::gnp(56, 0.18, 23), 4,
                         listing_engine::congest_sim, 4});
    workloads.push_back({"planted_k4_sim",
                         gen::planted_partition(10, 40, 0.4, 0.003, 5), 4,
                         listing_engine::congest_sim, 2});
    workloads.push_back({"gnp_k3_local", gen::gnp(4000, 0.004, 7), 3,
                         listing_engine::local_kclist, 2});
    workloads.push_back({"gnp_k5_local", gen::gnp(400, 0.12, 11), 5,
                         listing_engine::local_kclist, 2});
  }

  std::ostringstream js;
  js << "{\n  \"benchmark\": \"api_session\",\n"
     << "  " << bench::meta_json() << ",\n"
     << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ",\n  \"workloads\": [\n";

  bool first = true;
  for (const auto& w : workloads) {
    const session_options sopt{.engine = w.engine, .threads = w.threads};
    listing_query q;
    q.p = w.p;

    // Per-query latency is measured over a burst of queries (the serving
    // shape), best-of-3 bursts, which keeps ~1 ms queries out of the timer
    // noise floor.
    const int burst = smoke ? 2 : 8;

    // Reference output + the cold one-shot path: every query pays the full
    // bind (pool spin-up, orientation, cold arenas).
    auto ref = listing_session(w.g, sopt).run(q);
    const double cold_s = best_seconds([&] {
                            for (int i = 0; i < burst; ++i)
                              ref = listing_session(w.g, sopt).run(q);
                          }) /
                          burst;

    // Warm path: bind once, then serve. One untimed priming query lets
    // the arenas grow to their steady-state capacity first.
    listing_session session(w.g, sopt);
    auto warm_res = session.run(q);
    if (!(warm_res.cliques == ref.cliques) ||
        warm_res.report.ledger.rounds() != ref.report.ledger.rounds() ||
        warm_res.report.ledger.messages() != ref.report.ledger.messages())
      std::abort();
    // Each query is also timed individually (across all three bursts) so
    // the row reports the tail, not just the mean — the number a serving
    // deployment actually budgets for.
    std::vector<double> collect_lat, count_lat;
    const double warm_collect_s = best_seconds([&] {
                                    for (int i = 0; i < burst; ++i) {
                                      const double t0 = bench::now_seconds();
                                      warm_res = session.run(q);
                                      collect_lat.push_back(
                                          bench::now_seconds() - t0);
                                      if (warm_res.count !=
                                          ref.cliques.size())
                                        std::abort();
                                    }
                                  }) /
                                  burst;

    listing_query cq = q;
    cq.mode = sink_mode::count;
    const double warm_count_s = best_seconds([&] {
                                  for (int i = 0; i < burst; ++i) {
                                    const double t0 = bench::now_seconds();
                                    const auto res = session.run(cq);
                                    count_lat.push_back(
                                        bench::now_seconds() - t0);
                                    if (res.count != ref.cliques.size())
                                      std::abort();
                                  }
                                }) /
                                burst;
    const bench::latency_summary collect_pct =
        bench::summarize_latencies(collect_lat);
    const bench::latency_summary count_pct =
        bench::summarize_latencies(count_lat);

    if (!first) js << ",\n";
    first = false;
    js << "    {\"workload\": \"" << w.name << "\", \"engine\": \""
       << (w.engine == listing_engine::congest_sim ? "congest_sim"
                                                   : "local_kclist")
       << "\", \"n\": " << w.g.num_vertices()
       << ", \"edges\": " << w.g.num_edges() << ", \"p\": " << w.p
       << ", \"threads\": " << w.threads
       << ", \"cliques\": " << ref.cliques.size()
       << ",\n     \"cold_oneshot_seconds\": " << cold_s
       << ", \"warm_collect_seconds\": " << warm_collect_s
       << ", \"warm_count_seconds\": " << warm_count_s
       << ",\n     \"warm_collect_p50_seconds\": " << collect_pct.p50
       << ", \"warm_collect_p99_seconds\": " << collect_pct.p99
       << ", \"warm_count_p50_seconds\": " << count_pct.p50
       << ", \"warm_count_p99_seconds\": " << count_pct.p99
       << ",\n     \"warm_speedup\": "
       << (warm_collect_s > 0 ? cold_s / warm_collect_s : 0.0)
       << ", \"count_vs_collect\": "
       << (warm_count_s > 0 ? warm_collect_s / warm_count_s : 0.0) << "}";
  }
  js << "\n  ]\n}\n";
  return dcl::bench::emit_json(out_path, js.str());
}
