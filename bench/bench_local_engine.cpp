// Thread-scaling benchmark for the shared-memory kClist engine. Emits one
// JSON document on stdout AND to a BENCH_local_engine.json file so the perf
// trajectory can be tracked across commits without parsing human tables:
//
//   ./bench_local_engine [--smoke] [n] [edge_prob] [p] [max_threads] [out.json]
//
// --smoke replaces the default workload with a tiny one (CI smoke runs —
// sanity, not timing).
//
// Defaults reproduce the canonical workload: triangles of G(2000, 0.1),
// thread counts 1, 2, 4, ..., max_threads (default 8). Both count-mode
// (pure enumeration) and list-mode (enumeration + buffer merge) are timed;
// count-mode is the scaling headline, list-mode is what the oracle pays.

#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>

#include "bench_json.hpp"

#include "enumkernel/orient.hpp"
#include "graph/generators.hpp"
#include "local/parallel.hpp"

namespace {

using dcl::bench::best_seconds;

/// One cold engine run, exactly what each timed sample measures: orient
/// the graph, stand up a pool and a scratch bundle, then count (or list).
template <typename Run>
auto cold_run(const dcl::graph& g, int threads, Run&& run) {
  const auto dag = dcl::enumkernel::orient(
      g, dcl::enumkernel::orientation_policy::degeneracy);
  dcl::local::thread_pool pool(threads);
  dcl::runtime::query_scratch scratch;
  return run(dag, pool, scratch);
}

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
  const vertex n = pos.size() > 0 ? vertex(std::atoi(pos[0]))
                                  : (smoke ? 200 : 2000);
  const double prob = pos.size() > 1 ? std::atof(pos[1]) : 0.1;
  const int p = pos.size() > 2 ? std::atoi(pos[2]) : 3;
  const int max_threads = pos.size() > 3 ? std::atoi(pos[3])
                                         : (smoke ? 2 : 8);
  const std::string out_path =
      pos.size() > 4 ? pos[4] : "BENCH_local_engine.json";

  const auto g = gen::gnp(n, prob, /*seed=*/7);
  const auto count = [&](int threads) {
    return cold_run(g, threads, [&](const auto& dag, auto& pool,
                                    auto& scratch) {
      return local::count_cliques_parallel(dag, p, pool, scratch, 128);
    });
  };
  const auto list = [&](int threads) {
    return cold_run(g, threads, [&](const auto& dag, auto& pool,
                                    auto& scratch) {
      clique_collector out(p);
      local::list_cliques_parallel(dag, p, pool, scratch, 128, out);
      return out.finalize();
    });
  };
  const std::int64_t cliques = count(1);

  std::ostringstream js;
  js << "{\n"
            << "  " << dcl::bench::meta_json() << ",\n"
            << "  \"workload\": \"gnp\",\n"
            << "  \"n\": " << n << ",\n"
            << "  \"edge_prob\": " << prob << ",\n"
            << "  \"edges\": " << g.num_edges() << ",\n"
            << "  \"p\": " << p << ",\n"
            << "  \"cliques\": " << cliques << ",\n"
            << "  \"hardware_threads\": "
            << std::thread::hardware_concurrency() << ",\n";
  // Archived numbers are only meaningful relative to the machine that
  // produced them; when the sweep oversubscribes the cores available the
  // scaling columns measure scheduler time-slicing, not the engine. Say so
  // in the artifact itself instead of relying on readers to cross-check
  // hardware_threads against the thread axis.
  if (std::thread::hardware_concurrency() < unsigned(max_threads))
    js << "  \"caveat\": \"thread sweep oversubscribes this machine ("
       << std::thread::hardware_concurrency() << " hardware thread(s) < "
       << max_threads << " max bench threads); rows above 1 thread measure "
       << "oversubscription overhead, not parallel scaling\",\n";
  js << "  \"results\": [\n";

  bool first = true;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    const double count_s = best_seconds([&] {
      if (count(threads) != cliques) std::abort();  // cross-config check
    });
    const double list_s = best_seconds([&] {
      if (list(threads).size() != cliques) std::abort();
    });

    if (!first) js << ",\n";
    first = false;
    js << "    {\"threads\": " << threads
              << ", \"count_seconds\": " << count_s
              << ", \"list_seconds\": " << list_s
              << ", \"count_cliques_per_sec\": "
              << (count_s > 0 ? double(cliques) / count_s : 0.0)
              << ", \"list_cliques_per_sec\": "
              << (list_s > 0 ? double(cliques) / list_s : 0.0) << "}";
  }
  js << "\n  ]\n}\n";
  return dcl::bench::emit_json(out_path, js.str());
}
