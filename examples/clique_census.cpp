// Scenario: K4/K5 census across graph families, comparing the CONGEST
// algorithm with the DLP12 congested-clique baseline — the substrate the
// paper's in-cluster machinery descends from.

#include <iostream>

#include "baselines/dlp12.hpp"
#include "core/api/session.hpp"
#include "graph/generators.hpp"
#include "support/table.hpp"

int main() {
  using namespace dcl;
  struct workload {
    const char* name;
    graph g;
  };
  const std::vector<workload> ws = {
      {"gnp dense", gen::gnp(110, 0.3, 3)},
      {"planted cliques", gen::planted_cliques(120, 0.05, 3, 7, 5)},
      {"ring of cliques", gen::ring_of_cliques(10, 8)},
  };
  table t({"family", "p", "cliques", "congest rounds", "dlp12 rounds"});
  for (const auto& w : ws) {
    // One session per family: the K4 and K5 queries share its bound state.
    listing_session session(w.g);
    for (int p = 4; p <= 5; ++p) {
      listing_query q;
      q.p = p;
      const auto ours = session.run(q);
      const auto clique_model = baseline::dlp12_list_cliques(w.g, p);
      if (!(ours.cliques == clique_model.cliques)) {
        std::cerr << "baseline/ours disagree on " << w.name << "\n";
        return 1;
      }
      t.row()
          .cell(w.name)
          .cell(std::int64_t(p))
          .cell(ours.cliques.size())
          .cell(ours.report.ledger.rounds())
          .cell(clique_model.ledger.rounds());
    }
  }
  t.print(std::cout);
  std::cout << "\n(The congested clique is a far stronger model — its round "
               "counts are not comparable, only its outputs.)\n";
  return 0;
}
