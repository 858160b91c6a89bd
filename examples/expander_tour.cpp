// Scenario: a tour of the substrates — decompose a graph, certify cluster
// conductance, and route a message load through a cluster with the
// store-and-forward expander router (the Theorem 6 stand-in).

#include <iostream>
#include <numeric>

#include "congest/router.hpp"
#include "expander/cost_model.hpp"
#include "expander/decomposition.hpp"
#include "graph/generators.hpp"
#include "graph/spectral.hpp"
#include "support/prng.hpp"
#include "support/table.hpp"

int main() {
  using namespace dcl;
  const auto g = gen::ring_of_cliques(6, 24);
  std::cout << "ring of 6 K24s: n=" << g.num_vertices()
            << " m=" << g.num_edges() << "\n\n";

  const auto d = decompose(g);
  std::cout << "decomposition: " << d.clusters.size() << " clusters, "
            << d.remainder.size() << " remainder edges (phi target "
            << d.phi_used << ")\n";
  table t({"cluster", "vertices", "edges", "lambda2", "phi cert",
           "mixing est"});
  for (std::size_t i = 0; i < d.clusters.size(); ++i) {
    const auto& c = d.clusters[i];
    t.row()
        .cell(std::int64_t(i))
        .cell(std::int64_t(c.vertices.size()))
        .cell(std::int64_t(c.edges.size()))
        .cell(c.lambda2, 3)
        .cell(c.certified_phi, 3)
        .cell(c.mixing_time, 1);
  }
  t.print(std::cout);

  // Route an all-to-random load through the first cluster.
  const auto sub = [&] {
    edge_list local;
    std::vector<vertex> map(size_t(g.num_vertices()), -1);
    vertex next = 0;
    for (vertex v : d.clusters[0].vertices) map[size_t(v)] = next++;
    for (const auto& e : d.clusters[0].edges)
      local.push_back(make_edge(map[size_t(e.u)], map[size_t(e.v)]));
    return graph(next, local);
  }();
  cluster_router router(sub, 8);
  prng rng(9);
  message_batch msgs;
  for (vertex v = 0; v < sub.num_vertices(); ++v)
    msgs.push({v, vertex(rng.next_below(std::uint64_t(
                      sub.num_vertices()))),
               0, 0, 0});
  const auto stats = router.route(msgs);  // charged, not delivered
  std::cout << "\nrouting " << msgs.size() << " messages: " << stats.rounds
            << " measured rounds (max path " << stats.max_path
            << ", max edge load " << stats.max_edge_load << ")\n";
  std::cout << "CS20 Thm 6 model for the same load: "
            << cs20_routing_rounds(1, d.clusters[0].certified_phi,
                                   g.num_vertices())
            << " rounds\n";
  return 0;
}
