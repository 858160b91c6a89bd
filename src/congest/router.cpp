#include "congest/router.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "graph/algorithms.hpp"
#include "support/check.hpp"
#include "support/prng.hpp"

namespace dcl {

namespace {

// Lookahead, in arcs of the current round, for prefetching the flight a
// FIFO front points at and, later, that flight's next path entry.
constexpr std::size_t kPrefetchFlight = 16;
constexpr std::size_t kPrefetchPath = 8;

}  // namespace

cluster_router::cluster_router(const graph& cluster, int num_trees)
    : g_(&cluster) {
  DCL_EXPECTS(num_trees >= 1, "need at least one tree");
  DCL_EXPECTS(cluster.num_vertices() >= 1, "empty cluster");
  const vertex n = cluster.num_vertices();
  if (n == 1) return;  // no routing possible or needed
  DCL_EXPECTS(connected_components(cluster).count == 1,
              "cluster_router requires a connected cluster");

  // Root selection: first root is the max-degree vertex (ties: min id);
  // each subsequent root maximizes distance to the previous roots (a
  // deterministic farthest-point spread), tie-broken by degree then id.
  std::vector<vertex> roots;
  {
    vertex best = 0;
    for (vertex v = 1; v < n; ++v)
      if (cluster.degree(v) > cluster.degree(best)) best = v;
    roots.push_back(best);
  }
  std::vector<std::int32_t> min_dist(size_t(n),
                                     std::numeric_limits<std::int32_t>::max());
  const int want = std::min<int>(num_trees, int(n));
  while (int(roots.size()) < want) {
    const auto t = bfs_from(cluster, roots.back());
    for (vertex v = 0; v < n; ++v)
      min_dist[size_t(v)] = std::min(min_dist[size_t(v)], t.dist[size_t(v)]);
    vertex best = -1;
    for (vertex v = 0; v < n; ++v) {
      if (std::find(roots.begin(), roots.end(), v) != roots.end()) continue;
      if (best == -1 || min_dist[size_t(v)] > min_dist[size_t(best)] ||
          (min_dist[size_t(v)] == min_dist[size_t(best)] &&
           cluster.degree(v) > cluster.degree(best)))
        best = v;
    }
    if (best == -1) break;
    roots.push_back(best);
  }
  num_trees_ = int(roots.size());
  DCL_EXPECTS(cluster.num_arcs() <= std::numeric_limits<std::int32_t>::max(),
              "cluster_router stores arc ids in 32 bits");
  nodes_.resize(size_t(num_trees_) * size_t(n));
  depth_by_vertex_.resize(size_t(n) * size_t(num_trees_));
  for (int ti = 0; ti < num_trees_; ++ti) {
    const auto t = bfs_from(cluster, roots[size_t(ti)]);
    // Per tree, cache the arcs to and from the parent once, so path
    // expansion during routing is pure table lookups.
    tree_node* nodes = &nodes_[size_t(ti) * size_t(n)];
    for (vertex v = 0; v < n; ++v) {
      tree_node& node = nodes[v];
      node.parent = t.parent[size_t(v)];
      node.depth = t.dist[size_t(v)];
      depth_by_vertex_[size_t(v) * size_t(num_trees_) + size_t(ti)] =
          node.depth;
      if (node.parent != -1) {
        const auto a = cluster.arc_id(v, node.parent);
        DCL_ENSURE(a >= 0, "BFS tree edge missing from the cluster");
        node.up_arc = std::int32_t(a);
        node.down_arc = std::int32_t(cluster.arc_id(node.parent, v));
      }
    }
    max_depth_ = std::max(max_depth_, t.depth);
  }
}

void cluster_router::expand_path(int t, vertex src, vertex dst) {
  const tree_node* nodes = &nodes_[size_t(t) * size_t(g_->num_vertices())];
  auto& pool = ws_.path_pool;
  auto& down = ws_.path_down;
  auto& load = ws_.edge_load;
  const auto use = [&](std::int32_t arc) {
    if (++load[size_t(arc)] == 1) ws_.edge_touched.push_back(arc);
  };
  std::size_t ndown = 0;
  const tree_node* a = &nodes[src];
  const tree_node* b = &nodes[dst];
  while (a->depth > b->depth) {
    pool.push_back(a->up_arc);
    use(a->up_arc);
    a = &nodes[a->parent];
  }
  while (b->depth > a->depth) {
    down[ndown++] = b->down_arc;
    b = &nodes[b->parent];
  }
  while (a != b) {
    pool.push_back(a->up_arc);
    use(a->up_arc);
    a = &nodes[a->parent];
    down[ndown++] = b->down_arc;
    b = &nodes[b->parent];
  }
  while (ndown > 0) {
    const std::int32_t arc = down[--ndown];
    pool.push_back(arc);
    use(arc);
  }
}

void cluster_router::mark_active(std::int32_t arc) {
  workspace& ws = ws_;
  ws.active[std::size_t(arc) >> 6] |= std::uint64_t(1) << (arc & 63);
  ++ws.active_count;
}

void cluster_router::enqueue(std::int32_t arc, std::int32_t fi) {
  workspace& ws = ws_;
  ws.flights[size_t(fi)].next = -1;
  auto& q = ws.fifos[size_t(arc)];
  if (q.head == -1) {
    q.head = fi;
    mark_active(arc);
  } else {
    ws.flights[size_t(q.tail)].next = fi;
  }
  q.tail = fi;
}

route_stats cluster_router::route(const message_batch& msgs) {
  route_stats stats;
  const vertex n = g_->num_vertices();
  const std::size_t num_arcs = std::size_t(g_->num_arcs());
  const std::size_t words = (num_arcs + 63) / 64;
  workspace& ws = ws_;

  // Validate the whole batch before touching any state, so a rejected
  // batch leaves every FIFO, bitset, and counter as it found them.
  for (const auto& m : msgs)
    DCL_EXPECTS(m.src >= 0 && m.src < n && m.dst >= 0 && m.dst < n,
                "route endpoint out of local range");
  // A tree path is at most 2 * max_depth_ arcs, so this bounds both the
  // flight indices and the path-pool cursors to 32 bits.
  DCL_EXPECTS(
      msgs.size() < std::size_t(std::numeric_limits<std::int32_t>::max()) &&
          std::uint64_t(msgs.size()) * std::uint64_t(2 * max_depth_) <
              std::numeric_limits<std::uint32_t>::max(),
      "route batch too large for 32-bit flight indices");

  if (ws.fifos.size() < num_arcs) {
    ws.fifos.resize(num_arcs);
    ws.edge_load.resize(num_arcs, 0);
    ws.active.resize(words, 0);
  }
  ws.path_down.resize(size_t(max_depth_) + 1);
  ws.tree_load.assign(size_t(num_trees_), 0);
  // Reserve for the longest possible paths up front: the pool never
  // regrows mid-batch, and pages it does not reach are never touched.
  ws.flights.clear();
  ws.flights.reserve(msgs.size());
  ws.path_pool.clear();
  ws.path_pool.reserve(msgs.size() * std::size_t(2 * max_depth_));
  ws.active_count = 0;

  // Assign each message a tree — the least-loaded among those within +2
  // of the shortest depth bound, hash tie-break in tree order — expand its
  // arc path into the pool, and queue it on its first arc. Flights join
  // their first FIFO in batch order.
  const std::size_t trees = std::size_t(num_trees_);
  for (const auto& m : msgs) {
    if (m.src == m.dst) continue;  // local delivery, free
    // Path length upper bound via depths (exact requires the LCA; the
    // cheap bound filters candidates, the walk below is exact).
    const std::int32_t* ds = &depth_by_vertex_[size_t(m.src) * trees];
    const std::int32_t* dd = &depth_by_vertex_[size_t(m.dst) * trees];
    std::int32_t best_len = std::numeric_limits<std::int32_t>::max();
    for (std::size_t t = 0; t < trees; ++t)
      best_len = std::min(best_len, ds[t] + dd[t]);
    // Least-loaded candidate tree; deterministic hash tie-break spreads
    // equal-load choices. This keeps the tree loads within a few hops of
    // each other, so which tree wins a comparison is close to a coin
    // flip: it is a select, not a branch. Exact ties (about one per
    // message) branch to the hash.
    std::size_t chosen = trees;  // none yet
    std::int64_t chosen_load = 0;
    for (std::size_t t = 0; t < trees; ++t) {
      if (ds[t] + dd[t] > best_len + 2) continue;
      const std::int64_t load = ws.tree_load[t];
      bool take = chosen == trees || load < chosen_load;
      if (chosen != trees && load == chosen_load) [[unlikely]]
        take = (hash_pair(std::uint64_t(std::uint32_t(m.src)) + t,
                          std::uint64_t(std::uint32_t(m.dst))) &
                1) != 0;
      chosen = take ? t : chosen;
      chosen_load = take ? load : chosen_load;
    }
    const auto begin = std::uint32_t(ws.path_pool.size());
    expand_path(int(chosen), m.src, m.dst);
    const auto end = std::uint32_t(ws.path_pool.size());
    const std::int64_t len = end - begin;
    stats.messages += len;
    stats.max_path = std::max(stats.max_path, len);
    ws.tree_load[chosen] += len;
    const auto fi = std::int32_t(ws.flights.size());
    ws.flights.push_back({begin, end, -1});
    enqueue(ws.path_pool[begin], fi);
  }
  stats.arcs_touched = std::int64_t(ws.edge_touched.size());
  for (const auto aid : ws.edge_touched) {
    stats.max_edge_load = std::max<std::int64_t>(stats.max_edge_load,
                                                 ws.edge_load[size_t(aid)]);
    ws.edge_load[size_t(aid)] = 0;  // sparse reset: zero between routes
  }
  ws.edge_touched.clear();

  // Synchronous store-and-forward: per round every non-empty arc forwards
  // its FIFO front, in ascending arc id, and an arriving flight joins its
  // next arc's tail in that same order. Appending right away is safe: it
  // never changes the front of a non-empty FIFO, and an arc that was empty
  // is only marked for the next round, so a flight moves one hop per
  // round. Every undelivered flight sits in exactly one FIFO, so a round
  // with flights left but no active arc is a stall.
  std::int64_t queued = std::int64_t(ws.flights.size());
  auto& round = ws.round_arcs;
  while (queued > 0) {
    DCL_ENSURE(ws.active_count > 0,
               "router stalled with undelivered messages");
    ++stats.rounds;
    round.clear();
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = ws.active[w];
      ws.active[w] = 0;
      for (; bits != 0; bits &= bits - 1)
        round.push_back(
            std::int32_t((w << 6) | std::size_t(std::countr_zero(bits))));
    }
    ws.active_count = 0;
    // This round's FIFO fronts are fixed before any flight moves, so the
    // flights (and then their next path entries) a few arcs ahead can be
    // fetched while the current one is forwarded.
    const std::size_t k = round.size();
    const auto front = [&](std::size_t j) -> const workspace::flight& {
      return ws.flights[size_t(ws.fifos[size_t(round[j])].head)];
    };
    for (std::size_t i = 0; i < k; ++i) {
      if (i + kPrefetchFlight < k)
        __builtin_prefetch(&front(i + kPrefetchFlight));
      if (i + kPrefetchPath < k)
        __builtin_prefetch(ws.path_pool.data() +
                           front(i + kPrefetchPath).cur + 1);
      const std::int32_t arc = round[i];
      auto& q = ws.fifos[size_t(arc)];
      const std::int32_t fi = q.head;
      auto& f = ws.flights[size_t(fi)];
      q.head = f.next;
      if (q.head != -1) mark_active(arc);
      if (++f.cur == f.end)
        --queued;
      else
        enqueue(ws.path_pool[f.cur], fi);
    }
  }

  return stats;
}

}  // namespace dcl
