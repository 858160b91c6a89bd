#pragma once
// Multi-hop routing inside a high-conductance cluster — the implemented
// stand-in for the deterministic expander routing of [CS20, Thm 6] (see
// DESIGN.md §2). Messages travel along a small set of BFS trees; forwarding
// is simulated synchronously, one message per directed edge per round, so
// the returned round count is a *measured* CONGEST cost, not a model. Arc ids
// along every tree path are precomputed at construction (graph::arc_id of
// each tree edge, both directions), so routing a batch performs no
// per-message adjacency searches.

#include <cstdint>
#include <vector>

#include "congest/message.hpp"
#include "graph/graph.hpp"

namespace dcl {

struct route_stats {
  std::int64_t rounds = 0;        ///< simulated synchronous rounds
  std::int64_t messages = 0;      ///< total hop-messages (sum of path lengths)
  std::int64_t max_path = 0;      ///< longest path among routed messages
  std::int64_t max_edge_load = 0; ///< max messages assigned to one directed edge
  std::int64_t arcs_touched = 0;  ///< distinct directed edges the batch used
};

class cluster_router {
 public:
  /// `cluster` must be connected; vertices are the cluster's local ids.
  /// `num_trees` BFS trees are rooted at deterministically chosen,
  /// well-spread, high-degree vertices.
  explicit cluster_router(const graph& cluster, int num_trees = 8);

  /// Measures one batch of point-to-point messages (local ids): tree
  /// choice, path expansion, and the synchronous store-and-forward
  /// simulation. The messages themselves never move — every sender models
  /// receipt analytically — so only the cost comes back. Repeated calls
  /// reuse an internal workspace: no per-call allocation after the first
  /// batch. On an out-of-range endpoint nothing is routed and the router
  /// stays usable.
  route_stats route(const message_batch& msgs);

  std::int32_t tree_depth() const { return max_depth_; }
  int num_trees() const { return num_trees_; }

 private:
  /// Appends the arc ids of the full tree path src -> ... -> dst through
  /// the LCA in tree t to the path pool, counting each arc's load.
  void expand_path(int t, vertex src, vertex dst);

  /// Appends flight `fi` to the tail of arc `arc`'s FIFO; an arc that was
  /// empty joins the next round's active set.
  void enqueue(std::int32_t arc, std::int32_t fi);
  /// Adds `arc` to the active-arc set the next round drains.
  void mark_active(std::int32_t arc);

  /// One BFS tree entry of a vertex: its parent, its depth, and the arc
  /// ids toward and from the parent (-1 at the root).
  struct tree_node {
    vertex parent = -1;
    std::int32_t depth = 0;
    std::int32_t up_arc = -1;
    std::int32_t down_arc = -1;
  };

  /// Recycled per-route state; sized once per router, reset cheaply. All
  /// message paths live flattened in one shared pool, and each flight is
  /// only a cursor into it plus its FIFO link. The per-arc FIFOs are
  /// intrusive singly linked lists through those links, so a hop moves a
  /// 32-bit index, never a message. FIFOs, the active-arc bitset, and per-arc
  /// loads are all empty/zero between routes, so repeated route() calls
  /// allocate nothing once the workspace capacity has warmed up.
  struct workspace {
    struct flight {
      std::uint32_t cur = 0;  // path_pool index of the arc it queues on
      std::uint32_t end = 0;  // one past its last arc
      std::int32_t next = -1; // next flight in the same arc FIFO
    };
    struct fifo {
      std::int32_t head = -1;  // -1: empty (tail is then stale)
      std::int32_t tail = -1;
    };
    std::vector<std::int32_t> path_pool;  // directed arc ids, flattened
    std::vector<flight> flights;
    std::vector<fifo> fifos;                 // per arc
    std::vector<std::int32_t> edge_load;     // per arc
    std::vector<std::int32_t> edge_touched;  // arcs to reset after a route
    std::vector<std::int64_t> tree_load;
    std::vector<std::int32_t> path_down;     // dst-side half of a path
    // Arcs with a non-empty FIFO, as a bitset over arc ids (all zero
    // between routes) and its population count. Each round drains it into
    // `round_arcs` in ascending arc id before any flight moves, so arcs
    // that fill up during the round wait for the next.
    std::vector<std::uint64_t> active;
    std::int64_t active_count = 0;
    std::vector<std::int32_t> round_arcs;
  };

  const graph* g_;
  int num_trees_ = 0;
  std::vector<tree_node> nodes_;               // [t * n + v]
  std::vector<std::int32_t> depth_by_vertex_;  // [v * num_trees + t]
  std::int32_t max_depth_ = 0;
  workspace ws_;
};

}  // namespace dcl
