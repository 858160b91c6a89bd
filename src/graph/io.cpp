#include "graph/io.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "support/check.hpp"

namespace dcl {

graph read_edge_list(std::istream& in, vertex n_hint) {
  edge_list edges;
  vertex max_id = n_hint - 1;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::int64_t a = 0, b = 0;
    if (!(ls >> a >> b)) continue;
    DCL_EXPECTS(a >= 0 && b >= 0 && a <= INT32_MAX && b <= INT32_MAX,
                "vertex ids must be non-negative 32-bit integers");
    edges.push_back({vertex(a), vertex(b)});
    max_id = std::max({max_id, vertex(a), vertex(b)});
  }
  return graph::from_unsorted(max_id + 1, std::move(edges));
}

snap_graph read_snap_edge_list(std::istream& in) {
  // Raw pairs with original ids; self-loops still name their vertex.
  std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
  std::vector<std::int64_t> ids;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::int64_t a = 0, b = 0;
    if (!(ls >> a >> b)) continue;
    DCL_EXPECTS(a >= 0 && b >= 0, "SNAP vertex ids must be non-negative");
    ids.push_back(a);
    ids.push_back(b);
    if (a != b) pairs.push_back(std::minmax(a, b));
  }
  // Dense temporary ids in ascending original order.
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  DCL_EXPECTS(std::int64_t(ids.size()) <= INT32_MAX,
              "SNAP graph exceeds the 32-bit vertex-count limit");
  const vertex n = vertex(ids.size());
  const auto tmp_of = [&](std::int64_t orig) {
    return vertex(std::lower_bound(ids.begin(), ids.end(), orig) -
                  ids.begin());
  };
  edge_list canon;
  canon.reserve(pairs.size());
  for (const auto& [a, b] : pairs)
    canon.push_back({tmp_of(a), tmp_of(b)});  // a < b ⇒ tmp(a) < tmp(b)
  std::sort(canon.begin(), canon.end());
  canon.erase(std::unique(canon.begin(), canon.end()), canon.end());

  // Degree-ordered relabeling (degree over the deduplicated simple graph).
  std::vector<std::int32_t> deg(size_t(n), 0);
  for (const auto& e : canon) {
    ++deg[size_t(e.u)];
    ++deg[size_t(e.v)];
  }
  std::vector<vertex> order(static_cast<std::size_t>(n));
  for (vertex v = 0; v < n; ++v) order[size_t(v)] = v;
  std::sort(order.begin(), order.end(), [&](vertex x, vertex y) {
    if (deg[size_t(x)] != deg[size_t(y)])
      return deg[size_t(x)] > deg[size_t(y)];
    return ids[size_t(x)] < ids[size_t(y)];
  });
  std::vector<vertex> rank(static_cast<std::size_t>(n));
  snap_graph out;
  out.to_original.resize(size_t(n));
  for (vertex pos = 0; pos < n; ++pos) {
    rank[size_t(order[size_t(pos)])] = pos;
    out.to_original[size_t(pos)] = ids[size_t(order[size_t(pos)])];
  }
  for (auto& e : canon) e = make_edge(rank[size_t(e.u)], rank[size_t(e.v)]);
  std::sort(canon.begin(), canon.end());
  out.g = graph(n, canon);
  return out;
}

snap_graph read_snap_file(const std::string& path) {
  std::ifstream in(path);
  DCL_EXPECTS(in.good(), "cannot open " + path);
  return read_snap_edge_list(in);
}

void write_edge_list(std::ostream& out, const graph& g) {
  out << "# declique edge list: n=" << g.num_vertices()
      << " m=" << g.num_edges() << '\n';
  for (const auto& e : g.edges()) out << e.u << ' ' << e.v << '\n';
}

}  // namespace dcl
