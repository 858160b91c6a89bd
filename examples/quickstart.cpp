// Quickstart: bind one listing_session per backend to a random graph, then
// serve triangle and K4 queries off the warm sessions — the simulated
// CONGEST runs verified against the shared-memory kClist oracle (exact and
// fast enough for inputs where the sequential enumerator would dominate),
// with the count-only mode cross-checked against the materialized sets.
//
//   ./examples/quickstart [n] [avg_degree]

#include <cstdlib>
#include <iostream>

#include "core/api/session.hpp"
#include "graph/generators.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace dcl;
  const vertex n = argc > 1 ? vertex(std::atoi(argv[1])) : 400;
  const double avg_deg = argc > 2 ? std::atof(argv[2]) : 14.0;
  const auto g = gen::gnp(n, avg_deg / double(n), /*seed=*/42);
  std::cout << "G(n=" << n << ", m=" << g.num_edges() << ")\n\n";

  // Bind once per backend: all query-independent setup (DAG orientation,
  // worker pool, warm scratch) happens here, not per query.
  listing_session sim(g, {.threads = 0});  // clusters of each level in
                                           // parallel, all cores; outputs
                                           // are identical for any count
  listing_session oracle(
      g, {.engine = listing_engine::local_kclist, .threads = 0});

  table t({"p", "cliques", "rounds", "messages", "decomp model rounds",
           "levels", "dup factor"});
  for (int p = 3; p <= 4; ++p) {
    listing_query q;
    q.p = p;
    const auto res = sim.run(q);
    const auto truth = oracle.run(q);
    if (!(res.cliques == truth.cliques)) {
      std::cerr << "MISMATCH against the local kClist oracle!\n";
      return 1;
    }
    // Count-only queries skip materialization but must agree exactly.
    q.mode = sink_mode::count;
    if (sim.run(q).count != res.count || oracle.run(q).count != res.count) {
      std::cerr << "count-mode MISMATCH!\n";
      return 1;
    }
    const double dup =
        res.report.emitted > 0
            ? double(res.report.emitted) /
                  double(res.report.emitted - res.report.duplicates)
            : 1.0;
    t.row()
        .cell(std::int64_t(p))
        .cell(res.cliques.size())
        .cell(res.report.ledger.rounds())
        .cell(res.report.ledger.messages())
        .cell(res.report.model_decomposition_rounds)
        .cell(std::int64_t(res.report.levels.size()))
        .cell(dup, 2);
  }
  t.print(std::cout);
  std::cout << "\nAll outputs verified against the local kClist engine "
               "(collect and count modes).\n";
  return 0;
}
