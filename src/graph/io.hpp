#pragma once
// Edge-list I/O so users can run the pipeline on their own graphs:
// whitespace-separated "u v" pairs, '#' comments. Two loaders:
//   read_edge_list  — ids taken literally (vertex set is [0, max id]);
//   read_snap_*     — SNAP-corpus format with arbitrary sparse 64-bit ids,
//                     remapped densely in degree order (hubs get low ids),
//                     with the inverse map kept for reporting.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace dcl {

/// Reads an edge list; self-loops dropped, duplicates merged. `n_hint`
/// extends the vertex count beyond the largest mentioned id if positive.
graph read_edge_list(std::istream& in, vertex n_hint = 0);

/// A graph loaded from a SNAP-format edge list, relabeled to dense ids.
struct snap_graph {
  graph g;
  /// Inverse relabeling: to_original[v] is the id vertex v carried in the
  /// input file. Strictly one entry per vertex of g; vertices mentioned
  /// only in dropped self-loops still appear (as isolated vertices).
  std::vector<std::int64_t> to_original;
};

/// Reads a SNAP-format edge list: '#' comment lines (including mid-file),
/// whitespace-separated "u v" pairs with arbitrary non-negative 64-bit
/// ids — sparse, non-contiguous, in any order. Self-loops are dropped,
/// duplicate and reversed pairs merge into one undirected edge. Vertices
/// are relabeled densely by descending degree (ties broken by ascending
/// original id), which packs the hubs — and with them the dense egonets
/// the bitmap kernel targets — into the low id range. The relabeling is a
/// pure function of the multiset of pairs, so a file always loads to the
/// same graph regardless of line order.
snap_graph read_snap_edge_list(std::istream& in);
snap_graph read_snap_file(const std::string& path);

/// Writes one canonical "u v" line per edge plus a header comment.
void write_edge_list(std::ostream& out, const graph& g);

}  // namespace dcl
