#pragma once
// Vertex → shard assignment and per-shard graph slices (DESIGN.md §14).
//
// The partitioner contract follows Galois's pluggable edge-cut assignment
// (DistGraphCustomEdgeCut), narrowed to what survives a process boundary: a
// partitioner is a pure function of (spec, vertex, n, shards), described
// entirely by a wire-encodable partitioner_spec, so the coordinator and
// every worker evaluate the identical assignment without shipping a
// function. Adding a scheme means adding an enum value and a case in
// shard_of_vertex — both sides pick it up through the spec.
//
// Slices serve the local engine: shard s binds the subgraph induced on the
// union of closed neighborhoods of its owned vertices, and clique ownership
// is by global DAG root (DESIGN.md §14). The coordinator orients the whole
// graph once and ships each slice vertex's global rank in the bind; the
// worker orients its slice by those ranks and roots the kernel only at the
// vertices it owns. A K_p's lowest-rank vertex u has every other member in
// N(u), so u's owner holds the whole clique and enumerates it; no other
// shard roots it. The id remap is ascending (monotone), so per-slice
// canonical tuple order maps back to the global canonical order.
// congest_sim workers instead bind the full graph (identity_slice) and
// shard by branch ownership inside the driver (congest_shard_plan).

#include <cstdint>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"

namespace dcl::shard {

enum class partition_scheme : std::uint8_t {
  block = 0,   ///< contiguous vertex ranges of ceil(n/shards)
  hashed = 1,  ///< splitmix64(seed ^ v) % shards
};

std::string_view partition_scheme_name(partition_scheme s);

/// The whole partitioner, wire-encodable: every process evaluating the same
/// spec computes the same owner for every vertex.
struct partitioner_spec {
  partition_scheme scheme = partition_scheme::block;
  std::uint64_t seed = 0;  ///< hashed scheme only

  friend bool operator==(const partitioner_spec&,
                         const partitioner_spec&) = default;
};

/// Owning shard of vertex v among `shards` shards of an n-vertex graph.
/// Pure; total over v in [0, n).
int shard_of_vertex(const partitioner_spec& spec, vertex v, vertex n,
                    int shards);

/// One worker's view of the graph: the induced subgraph on `to_original`
/// (ascending original ids; local id i ↔ to_original[i]) plus the original
/// vertex-space size, which ownership checks still run in.
struct graph_slice {
  vertex full_n = 0;
  std::vector<vertex> to_original;
  graph local;
};

/// The local-engine slice for `shard`: induced subgraph on the union of
/// closed neighborhoods N[v] over owned v (see file comment for why this
/// holds every clique the shard roots).
graph_slice build_graph_slice(const graph& g, const partitioner_spec& spec,
                              int shard, int shards);

/// The congest_sim slice: the full graph, identity remap.
graph_slice identity_slice(const graph& g);

}  // namespace dcl::shard
