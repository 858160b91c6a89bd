// Thread-scaling benchmark for the cluster-parallel CONGEST simulation
// runtime. Per graph family and per sim_threads value it measures the
// wall-clock of the full simulated run and records the simulated CONGEST
// cost (rounds/messages), cross-checking that cliques and ledger are
// bit-identical to the single-threaded run — the determinism invariant the
// runtime refactor must preserve (DESIGN.md §6).
//
//   ./bench_congest_parallel [--smoke] [max_threads] [out.json]
//
// --smoke shrinks every family (CI smoke runs — sanity, not timing).
//
// Emits one JSON document to stdout AND to the output file (default
// BENCH_congest_parallel.json) so the perf trajectory is tracked across
// commits.

#include <cstdlib>
#include <iostream>
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
  int max_threads = smoke ? 2 : 8;
  if (pos.size() > 0) {
    max_threads = std::atoi(pos[0]);
    if (max_threads < 1) {
      // A non-numeric first positional (e.g. a filename) atoi's to 0 and
      // would silently skip every timed run AND the determinism
      // cross-check while still exiting 0 — reject it loudly instead.
      std::cerr << "usage: bench_congest_parallel [--smoke] [max_threads]"
                   " [out.json]\n       max_threads must be a positive"
                   " integer, got '"
                << pos[0] << "'\n";
      return 2;
    }
  }
  const std::string out_path =
      pos.size() > 1 ? pos[1] : "BENCH_congest_parallel.json";

  // Multi-cluster families (ring_of_cliques, weakly linked planted
  // partitions) decompose into many clusters per level — the parallelism
  // the runtime exploits. gnp and Kneser are expanders, i.e. single-cluster
  // controls: they measure the runtime's overhead when there is nothing to
  // parallelize.
  std::vector<workload> workloads;
  if (smoke) {
    workloads.push_back({"ring_of_cliques_k3", gen::ring_of_cliques(4, 8), 3});
    workloads.push_back({"gnp_k3", gen::gnp(60, 0.12, 7), 3});
  } else {
    workloads.push_back({"ring_of_cliques_k3", gen::ring_of_cliques(16, 20),
                         3});
    workloads.push_back({"planted_partition_k3",
                         gen::planted_partition(8, 30, 0.5, 0.002, 11), 3});
    workloads.push_back({"planted_partition_k4",
                         gen::planted_partition(5, 50, 0.6, 0.003, 23), 4});
    workloads.push_back({"gnp_k3", gen::gnp(260, 0.08, 7), 3});
    workloads.push_back({"kneser_k3", gen::kneser(9, 3), 3});
  }

  std::ostringstream js;
  js << "{\n  \"benchmark\": \"congest_parallel\",\n"
     << "  " << bench::meta_json() << ",\n"
     << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ",\n  \"families\": [\n";

  bool first_family = true;
  for (const auto& w : workloads) {
    listing_query q;
    q.p = w.p;
    listing_report ref_report;
    clique_set ref((w.p));
    {
      listing_session ref_session(w.g, {.threads = 1});
      auto res = ref_session.run(q);
      ref = std::move(res.cliques);
      ref_report = std::move(res.report);
    }

    std::int64_t clusters_listed = 0;
    for (const auto& lv : ref_report.levels) clusters_listed += lv.clusters_listed;

    if (!first_family) js << ",\n";
    first_family = false;
    js << "    {\"family\": \"" << w.name << "\", \"n\": "
       << w.g.num_vertices() << ", \"edges\": " << w.g.num_edges()
       << ", \"p\": " << w.p << ", \"cliques\": " << ref.size()
       << ", \"rounds\": " << ref_report.ledger.rounds()
       << ", \"messages\": " << ref_report.ledger.messages()
       << ", \"levels\": " << ref_report.levels.size()
       << ", \"clusters_listed\": " << clusters_listed
       << ",\n     \"results\": [";

    double t1 = 0.0;
    bool first_t = true;
    for (int threads = 1; threads <= max_threads; threads *= 2) {
      // One session per worker-pool size; the timed loop measures warm
      // per-query latency, which is the session API's serving shape.
      listing_session session(w.g, {.threads = threads});
      const double secs = best_seconds([&] {
        const auto res = session.run(q);
        // Determinism cross-check: clique set and total simulated cost
        // must match the single-threaded reference exactly.
        if (!(res.cliques == ref) ||
            res.report.ledger.rounds() != ref_report.ledger.rounds() ||
            res.report.ledger.messages() != ref_report.ledger.messages())
          std::abort();
      });
      if (threads == 1) t1 = secs;
      if (!first_t) js << ", ";
      first_t = false;
      js << "{\"sim_threads\": " << threads << ", \"seconds\": " << secs
         << ", \"speedup\": " << (secs > 0 ? t1 / secs : 0.0) << "}";
    }
    js << "]}";
  }
  js << "\n  ]\n}\n";
  return dcl::bench::emit_json(out_path, js.str());
}
