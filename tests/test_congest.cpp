#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "congest/cluster_comm.hpp"
#include "support/check.hpp"
#include "support/prng.hpp"
#include "congest/congested_clique.hpp"
#include "congest/cost.hpp"
#include "congest/network.hpp"
#include "congest/router.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace dcl {
namespace {

/// Test helper: a message_batch filled from a list of messages.
message_batch make_batch(std::initializer_list<message> ms) {
  message_batch b;
  for (const auto& m : ms) b.push(m);
  return b;
}

TEST(CostLedger, ChargeAndPhases) {
  cost_ledger l;
  l.charge("a", 3, 10);
  l.charge("a", 2, 5);
  l.charge("b", 1, 1);
  EXPECT_EQ(l.rounds(), 6);
  EXPECT_EQ(l.messages(), 16);
  EXPECT_EQ(l.phases().at("a").rounds, 5);
  EXPECT_EQ(l.phases().at("b").messages, 1);
  EXPECT_THROW(l.charge("c", -1, 0), precondition_error);
}

TEST(CostLedger, Merges) {
  cost_ledger a, b;
  a.charge("x", 5, 50);
  b.charge("x", 3, 30);
  b.charge("y", 9, 90);
  cost_ledger seq = a;
  seq.merge_sequential(b);
  EXPECT_EQ(seq.rounds(), 17);
  EXPECT_EQ(seq.messages(), 170);
  cost_ledger par = a;
  par.merge_parallel(b);
  EXPECT_EQ(par.rounds(), 12);  // max(5, 12)
  EXPECT_EQ(par.messages(), 170);
  EXPECT_EQ(par.phases().at("x").rounds, 5);  // max(5, 3)
}

TEST(CostLedger, MergeSequentialAddsPerPhase) {
  cost_ledger a, b;
  a.charge("deliver", 4, 40);
  b.charge("deliver", 6, 60);
  b.charge("learn", 2, 20);
  a.merge_sequential(b);
  EXPECT_EQ(a.phases().at("deliver").rounds, 10);
  EXPECT_EQ(a.phases().at("deliver").messages, 100);
  EXPECT_EQ(a.phases().at("learn").rounds, 2);
  EXPECT_EQ(a.rounds(), 12);
  EXPECT_EQ(a.messages(), 120);
}

TEST(CostLedger, MergeParallelMaxRoundsAddMessagesPerPhase) {
  cost_ledger a, b;
  a.charge("tree", 7, 70);
  a.charge("only_a", 1, 10);
  b.charge("tree", 4, 40);
  b.charge("only_b", 9, 90);
  a.merge_parallel(b);
  // Phase-wise: rounds take max, messages add; phases unique to either
  // side survive with their own costs.
  EXPECT_EQ(a.phases().at("tree").rounds, 7);
  EXPECT_EQ(a.phases().at("tree").messages, 110);
  EXPECT_EQ(a.phases().at("only_a").rounds, 1);
  EXPECT_EQ(a.phases().at("only_b").rounds, 9);
  EXPECT_EQ(a.phases().at("only_b").messages, 90);
  // Totals: the slower branch gates the algorithm (max of the branch
  // totals, NOT the sum of phase maxima), traffic accumulates.
  EXPECT_EQ(a.rounds(), 13);  // max(7 + 1, 4 + 9)
  EXPECT_EQ(a.messages(), 210);
}

TEST(CostLedger, MergesAreAssociativeAndCommutativeOverPhaseMaps) {
  // Trace replay (congest/replay.hpp) folds branch ledgers in trace order,
  // which may differ from the live drivers' fold order whenever clusters
  // were skipped or deferred — correctness rests on both merges being
  // associative and commutative over the per-phase maps. Exercise ledgers
  // with overlapping and disjoint phase sets.
  const auto make = [](std::initializer_list<
                        std::tuple<const char*, std::int64_t, std::int64_t>>
                           charges) {
    cost_ledger l;
    for (const auto& [ph, r, m] : charges) l.charge(ph, r, m);
    return l;
  };
  const cost_ledger a = make({{"tree", 7, 70}, {"learn", 2, 20}});
  const cost_ledger b = make({{"tree", 4, 40}, {"deliver", 9, 90}});
  const cost_ledger c = make({{"deliver", 5, 50}, {"learn", 11, 110}});

  const auto equal = [](const cost_ledger& x, const cost_ledger& y) {
    if (x.rounds() != y.rounds() || x.messages() != y.messages())
      return false;
    if (x.phases().size() != y.phases().size()) return false;
    for (const auto& [ph, cost] : x.phases()) {
      const auto it = y.phases().find(ph);
      if (it == y.phases().end() || it->second.rounds != cost.rounds ||
          it->second.messages != cost.messages)
        return false;
    }
    return true;
  };

  for (const bool parallel : {false, true}) {
    const auto merge = [&](cost_ledger into, const cost_ledger& other) {
      parallel ? into.merge_parallel(other)
               : into.merge_sequential(other);
      return into;
    };
    // (a ∘ b) ∘ c == a ∘ (b ∘ c)
    EXPECT_TRUE(equal(merge(merge(a, b), c), merge(a, merge(b, c))))
        << "parallel=" << parallel;
    // a ∘ b == b ∘ a
    EXPECT_TRUE(equal(merge(a, b), merge(b, a))) << "parallel=" << parallel;
    // Permutations of a three-way fold all agree.
    EXPECT_TRUE(equal(merge(merge(c, a), b), merge(merge(b, c), a)))
        << "parallel=" << parallel;
  }
}

TEST(CostLedger, MergeIntoEmptyIsIdentity) {
  cost_ledger src;
  src.charge("x", 3, 30);
  cost_ledger seq, par;
  seq.merge_sequential(src);
  par.merge_parallel(src);
  for (const auto* l : {&seq, &par}) {
    EXPECT_EQ(l->rounds(), 3);
    EXPECT_EQ(l->messages(), 30);
    EXPECT_EQ(l->phases().at("x").rounds, 3);
  }
}

TEST(CostLedger, PhaseLabelsStaySorted) {
  // The per-phase breakdown is a deterministically ordered map, so report
  // output and cross-thread comparisons never depend on charge order.
  cost_ledger l;
  l.charge("zeta", 1, 1);
  l.charge("alpha", 1, 1);
  cost_ledger other;
  other.charge("mid", 2, 2);
  l.merge_parallel(other);
  std::vector<std::string> labels;
  for (const auto& [label, cost] : l.phases()) labels.push_back(label);
  EXPECT_EQ(labels, (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

TEST(CostLedger, FoldOrderIrrelevantForClusterMerges) {
  // The drivers fold per-cluster ledgers in cluster-index order; max/add
  // semantics make any fold order equivalent, which is what makes the
  // parallel fan-out safe.
  cost_ledger c1, c2, c3;
  c1.charge("learn", 5, 50);
  c2.charge("learn", 8, 80);
  c3.charge("deliver", 2, 20);
  cost_ledger fwd, rev;
  for (const auto* c : {&c1, &c2, &c3}) fwd.merge_parallel(*c);
  for (const auto* c : {&c3, &c2, &c1}) rev.merge_parallel(*c);
  EXPECT_EQ(fwd.rounds(), rev.rounds());
  EXPECT_EQ(fwd.messages(), rev.messages());
  EXPECT_EQ(fwd.phases().at("learn").rounds,
            rev.phases().at("learn").rounds);
  EXPECT_EQ(fwd.phases().at("deliver").messages,
            rev.phases().at("deliver").messages);
}

TEST(Network, OneHopRoundsIsMaxEdgeLoad) {
  std::vector<std::uint64_t> keys;
  std::vector<message> msgs;
  msgs.push_back({0, 1, 0, 0, 0});
  msgs.push_back({0, 1, 0, 1, 0});
  msgs.push_back({1, 0, 0, 0, 0});  // reverse direction is independent
  msgs.push_back({2, 3, 0, 0, 0});
  EXPECT_EQ(count_pairs(msgs, keys).max, 2);
  EXPECT_EQ(count_pairs({}, keys).max, 0);
}

TEST(Network, OneHopRoundsEdgeCases) {
  std::vector<std::uint64_t> keys;
  // Single message: one round.
  const std::vector<message> single = {{0, 1, 0, 0, 0}};
  EXPECT_EQ(count_pairs(single, keys).max, 1);
  // Duplicates of one directed edge, interleaved with others in arbitrary
  // order: the max multiplicity wins regardless of input order.
  std::vector<message> interleaved = {
      {4, 5, 0, 1, 0}, {0, 1, 0, 1, 0}, {4, 5, 0, 2, 0},
      {2, 3, 0, 1, 0}, {4, 5, 0, 3, 0}, {0, 1, 0, 2, 0}};
  EXPECT_EQ(count_pairs(interleaved, keys).max, 3);
  // Same source fanning out to distinct receivers: fully parallel.
  std::vector<message> fanout;
  for (vertex d = 1; d <= 6; ++d) fanout.push_back({0, d, 0, 0, 0});
  EXPECT_EQ(count_pairs(fanout, keys).max, 1);
  // All n messages on one directed edge serialize completely.
  std::vector<message> serial;
  for (int i = 0; i < 9; ++i) serial.push_back({7, 8, 0, std::uint64_t(i), 0});
  EXPECT_EQ(count_pairs(serial, keys).max, 9);
  // Payload does not matter: identical payloads still occupy distinct
  // rounds on the same edge.
  std::vector<message> same_payload(4, message{1, 2, 0, 0, 0});
  EXPECT_EQ(count_pairs(same_payload, keys).max, 4);
}

TEST(Network, GatherAllEdgesCost) {
  // Star with 4 leaves: all 4 edge-reports originate at leaves or center.
  const graph g(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  cost_ledger l;
  network net(g, l);
  const auto rounds = net.charge_gather_all_edges("gather");
  // Leader is vertex 0; each canonical edge (0, x) is held by vertex 0
  // already, so congestion 0... wait: edge (u,v) reported by lower endpoint
  // u=0, distance 0. Rounds = depth alone.
  EXPECT_EQ(rounds, 1);  // depth 1, congestion 0
  EXPECT_EQ(l.rounds(), 1);
}

TEST(Network, GatherAllEdgesPathCongestion) {
  // Path 0-1-2-3: leader 0. Edge reports at 0,1,2 (lower endpoints).
  // Tree edge (1->0) carries reports from 1 and 2: congestion 2; depth 3.
  const graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  cost_ledger l;
  network net(g, l);
  EXPECT_EQ(net.charge_gather_all_edges("gather"), 5);
}

TEST(Router, RoutesEveryMessageOnExpander) {
  const auto g = gen::hypercube(5);
  cluster_router r(g, 4);
  message_batch out;
  prng rng(4);
  std::int64_t remote = 0;
  for (int i = 0; i < 200; ++i) {
    const message m{vertex(rng.next_below(32)), vertex(rng.next_below(32)),
                    0, std::uint64_t(i), 0};
    remote += m.src != m.dst;
    out.push(m);
  }
  const auto stats = r.route(out);
  EXPECT_GE(stats.rounds, 1);
  EXPECT_GE(stats.messages, stats.rounds);
  // Every non-local message travels at least one hop and at most a
  // root-to-leaf-to-root tree path.
  EXPECT_GE(stats.messages, remote);
  EXPECT_LE(stats.messages, remote * 2 * r.tree_depth());
  EXPECT_LE(stats.max_path, 2 * r.tree_depth());
  EXPECT_GE(stats.rounds, stats.max_path);
}

TEST(Router, SelfMessagesAreFree) {
  const auto g = gen::complete(4);
  cluster_router r(g);
  const auto out = make_batch({{2, 2, 0, 42, 0}});
  const auto stats = r.route(out);
  EXPECT_EQ(stats.rounds, 0);
  EXPECT_EQ(stats.messages, 0);
}

TEST(Router, RoundsAtLeastCongestionLowerBound) {
  // Single edge: L messages across it need exactly L rounds.
  const graph g(2, {{0, 1}});
  cluster_router r(g, 2);
  message_batch out;
  for (int i = 0; i < 17; ++i) out.push({0, 1, 0, std::uint64_t(i), 0});
  const auto stats = r.route(out);
  EXPECT_EQ(stats.rounds, 17);
  EXPECT_EQ(stats.max_edge_load, 17);
}

TEST(Router, PathGraphSequential) {
  // Path of 5: a message end-to-end takes >= 4 rounds.
  const graph g(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  cluster_router r(g, 2);
  auto out = make_batch({{0, 4, 0, 1, 0}});
  const auto stats = r.route(out);
  EXPECT_EQ(stats.rounds, 4);
  EXPECT_EQ(stats.messages, 4);
}

TEST(Router, RejectsDisconnectedCluster) {
  const graph g(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(cluster_router r(g), precondition_error);
}

TEST(Router, DeterministicRounds) {
  const auto g = gen::circulant(40, {1, 3, 9});
  cluster_router r(g, 4);
  message_batch msgs;
  for (vertex v = 0; v < 40; ++v)
    msgs.push({v, vertex((v * 7 + 3) % 40), 0, std::uint64_t(v), 0});
  const auto s1 = r.route(msgs);
  const auto s2 = r.route(msgs);
  EXPECT_EQ(s1.rounds, s2.rounds);
  EXPECT_EQ(s1.messages, s2.messages);
  EXPECT_EQ(s1.max_edge_load, s2.max_edge_load);
}

// ------------------------------------------ router differential reference

/// The store-and-forward router as it was first written, kept as the
/// schedule every optimization of cluster_router must reproduce: the same
/// BFS trees, the same least-loaded tree choice, and a simulator with one
/// std::deque per arc whose active list is sorted and deduplicated every
/// round. It is compared on route_stats only.
class reference_router {
 public:
  reference_router(const graph& cluster, int num_trees) : g_(&cluster) {
    const vertex n = cluster.num_vertices();
    if (n == 1) return;
    std::vector<vertex> roots;
    {
      vertex best = 0;
      for (vertex v = 1; v < n; ++v)
        if (cluster.degree(v) > cluster.degree(best)) best = v;
      roots.push_back(best);
    }
    std::vector<std::int32_t> min_dist(
        size_t(n), std::numeric_limits<std::int32_t>::max());
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
    for (vertex r : roots) {
      const auto t = bfs_from(cluster, r);
      std::vector<std::int64_t> up(size_t(n), -1), down(size_t(n), -1);
      for (vertex v = 0; v < n; ++v)
        if (t.parent[size_t(v)] != -1) {
          up[size_t(v)] = cluster.arc_id(v, t.parent[size_t(v)]);
          down[size_t(v)] = cluster.arc_id(t.parent[size_t(v)], v);
        }
      parents_.push_back(t.parent);
      depths_.push_back(t.dist);
      up_arcs_.push_back(std::move(up));
      down_arcs_.push_back(std::move(down));
    }
  }

  route_stats route(std::span<const message> msgs) const {
    route_stats stats;
    const graph& g = *g_;
    const std::int64_t num_arcs = g.num_arcs();
    struct in_flight {
      std::int64_t path_begin = 0;
      std::int64_t path_len = 0;
      std::int64_t next = 0;
    };
    std::vector<std::int64_t> path_pool, path_down;
    std::vector<in_flight> flights;
    std::vector<std::int64_t> edge_load(size_t(num_arcs), 0);
    std::vector<std::int64_t> edge_touched;
    std::vector<std::int64_t> tree_load(parents_.size(), 0);
    std::vector<int> lens(parents_.size()), candidates;
    for (const auto& m : msgs) {
      if (m.src == m.dst) continue;
      int best_len = std::numeric_limits<int>::max();
      for (int t = 0; t < int(parents_.size()); ++t) {
        const auto& depth = depths_[size_t(t)];
        lens[size_t(t)] = depth[size_t(m.src)] + depth[size_t(m.dst)];
        best_len = std::min(best_len, lens[size_t(t)]);
      }
      candidates.clear();
      for (int t = 0; t < int(parents_.size()); ++t)
        if (lens[size_t(t)] <= best_len + 2) candidates.push_back(t);
      int chosen = candidates[0];
      for (int t : candidates) {
        if (tree_load[size_t(t)] < tree_load[size_t(chosen)] ||
            (tree_load[size_t(t)] == tree_load[size_t(chosen)] &&
             (hash_pair(std::uint64_t(std::uint32_t(m.src)) + std::uint64_t(t),
                        std::uint64_t(std::uint32_t(m.dst))) &
              1) != 0))
          chosen = t;
      }
      in_flight f;
      f.path_begin = std::int64_t(path_pool.size());
      tree_path_arcs(chosen, m.src, m.dst, path_pool, path_down);
      f.path_len = std::int64_t(path_pool.size()) - f.path_begin;
      for (std::int64_t i = f.path_begin; i < f.path_begin + f.path_len; ++i) {
        const auto aid = path_pool[size_t(i)];
        if (++edge_load[size_t(aid)] == 1) edge_touched.push_back(aid);
      }
      stats.messages += f.path_len;
      stats.max_path = std::max(stats.max_path, f.path_len);
      tree_load[size_t(chosen)] += f.path_len;
      flights.push_back(f);
    }
    stats.arcs_touched = std::int64_t(edge_touched.size());
    for (const auto aid : edge_touched)
      stats.max_edge_load =
          std::max(stats.max_edge_load, edge_load[size_t(aid)]);

    std::vector<std::deque<std::int32_t>> queue(static_cast<size_t>(num_arcs));
    std::vector<std::int64_t> active, still_active;
    std::vector<std::pair<std::int64_t, std::int32_t>> arrivals;
    auto enqueue = [&](std::int64_t eid, std::int32_t flight_idx) {
      if (queue[size_t(eid)].empty()) active.push_back(eid);
      queue[size_t(eid)].push_back(flight_idx);
    };
    for (std::int32_t i = 0; i < std::int32_t(flights.size()); ++i)
      enqueue(path_pool[size_t(flights[size_t(i)].path_begin)], i);

    std::int64_t remaining = std::int64_t(flights.size());
    while (remaining > 0) {
      ++stats.rounds;
      arrivals.clear();
      still_active.clear();
      std::sort(active.begin(), active.end());
      active.erase(std::unique(active.begin(), active.end()), active.end());
      for (std::int64_t eid : active) {
        auto& q = queue[size_t(eid)];
        if (q.empty()) continue;
        const std::int32_t fi = q.front();
        q.pop_front();
        auto& f = flights[size_t(fi)];
        ++f.next;
        if (f.next == f.path_len) {
          --remaining;
        } else {
          arrivals.emplace_back(path_pool[size_t(f.path_begin + f.next)], fi);
        }
        if (!q.empty()) still_active.push_back(eid);
      }
      for (const auto& [eid, fi] : arrivals) {
        if (queue[size_t(eid)].empty()) still_active.push_back(eid);
        queue[size_t(eid)].push_back(fi);
      }
      std::swap(active, still_active);
      if (active.empty() && remaining > 0) {
        ADD_FAILURE() << "reference router stalled";
        break;
      }
    }
    return stats;
  }

 private:
  void tree_path_arcs(int t, vertex src, vertex dst,
                      std::vector<std::int64_t>& out,
                      std::vector<std::int64_t>& down) const {
    const auto& parent = parents_[size_t(t)];
    const auto& depth = depths_[size_t(t)];
    const auto& up_arc = up_arcs_[size_t(t)];
    const auto& down_arc = down_arcs_[size_t(t)];
    down.clear();
    vertex a = src, b = dst;
    while (depth[size_t(a)] > depth[size_t(b)]) {
      out.push_back(up_arc[size_t(a)]);
      a = parent[size_t(a)];
    }
    while (depth[size_t(b)] > depth[size_t(a)]) {
      down.push_back(down_arc[size_t(b)]);
      b = parent[size_t(b)];
    }
    while (a != b) {
      out.push_back(up_arc[size_t(a)]);
      a = parent[size_t(a)];
      down.push_back(down_arc[size_t(b)]);
      b = parent[size_t(b)];
    }
    out.insert(out.end(), down.rbegin(), down.rend());
  }

  const graph* g_;
  std::vector<std::vector<vertex>> parents_;
  std::vector<std::vector<std::int32_t>> depths_;
  std::vector<std::vector<std::int64_t>> up_arcs_;
  std::vector<std::vector<std::int64_t>> down_arcs_;
};

void expect_stats_equal(const route_stats& got, const route_stats& want,
                        const std::string& where) {
  EXPECT_EQ(got.rounds, want.rounds) << where;
  EXPECT_EQ(got.messages, want.messages) << where;
  EXPECT_EQ(got.max_path, want.max_path) << where;
  EXPECT_EQ(got.max_edge_load, want.max_edge_load) << where;
  EXPECT_EQ(got.arcs_touched, want.arcs_touched) << where;
}

/// Seeded batch shapes for the differential sweep.
enum class batch_shape { random, many_to_one, with_self, empty };

std::vector<message> make_shaped_batch(batch_shape shape, vertex n, prng& rng,
                                       int size) {
  std::vector<message> out;
  if (shape == batch_shape::empty) return out;
  const auto pick = [&] {
    return vertex(rng.next_below(std::uint64_t(n)));
  };
  const vertex sink = pick();
  for (int i = 0; i < size; ++i) {
    message m;
    m.tag = std::uint32_t(i % 5);
    m.a = rng.next_below(4);  // small payloads: equal messages occur
    m.b = std::uint64_t(i % 3);
    switch (shape) {
      case batch_shape::random:
        m.src = pick();
        m.dst = pick();
        break;
      case batch_shape::many_to_one:
        // Every vertex ships several items to one collector, like the
        // gather half of an allgather.
        m.src = vertex(i % n);
        m.dst = sink;
        break;
      case batch_shape::with_self:
        m.src = pick();
        m.dst = rng.next_below(3) == 0 ? m.src : pick();
        break;
      case batch_shape::empty:
        break;
    }
    out.push_back(m);
  }
  return out;
}

graph connected_gnp(vertex n, double p, std::uint64_t seed) {
  // A G(n, p) draw joined into one component by a spanning path.
  edge_list edges = gen::gnp(n, p, seed).edges();
  for (vertex v = 0; v + 1 < n; ++v) edges.push_back(make_edge(v, v + 1));
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return graph(n, edges);
}

TEST(Router, MatchesReferenceScheduleAcrossFamiliesAndBatches) {
  struct family {
    const char* name;
    graph g;
  };
  edge_list path_edges, star_edges;
  for (vertex v = 0; v + 1 < 12; ++v) path_edges.push_back({v, v + 1});
  for (vertex v = 1; v < 15; ++v) star_edges.push_back({0, v});
  const family families[] = {
      {"hypercube", gen::hypercube(5)},
      {"circulant", gen::circulant(48, {1, 5, 11})},
      {"gnp", connected_gnp(70, 0.08, 3)},
      {"path", graph(12, path_edges)},
      {"single_edge", graph(2, {{0, 1}})},
      {"star", graph(15, star_edges)},
  };
  const batch_shape shapes[] = {batch_shape::random, batch_shape::many_to_one,
                                batch_shape::with_self, batch_shape::empty};
  for (const auto& fam : families) {
    const vertex n = fam.g.num_vertices();
    for (const int trees : {1, 2, 8}) {
      // One router per (family, trees) serves the whole batch sequence,
      // so every batch after the first runs on a reused workspace.
      cluster_router r(fam.g, trees);
      const reference_router ref(fam.g, trees);
      prng rng(std::uint64_t(n) * 131 + std::uint64_t(trees));
      for (int rep = 0; rep < 3; ++rep)
        for (const auto shape : shapes) {
          const int size = 1 + int(rng.next_below(std::uint64_t(6 * n)));
          const auto msgs = make_shaped_batch(shape, n, rng, size);
          const route_stats want_stats = ref.route(msgs);
          const std::string where = std::string(fam.name) + " trees=" +
                                    std::to_string(trees) + " rep=" +
                                    std::to_string(rep) + " shape=" +
                                    std::to_string(int(shape));
          message_batch io;
          for (const auto& m : msgs) io.push(m);
          expect_stats_equal(r.route(io), want_stats, where);
        }
    }
  }
}

TEST(ClusterComm, LocalIdsAndMaps) {
  const auto g = gen::complete(6);
  cost_ledger l;
  network net(g, l);
  cluster_comm cc(net, {1, 3, 5}, {{1, 3}, {3, 5}, {1, 5}}, "c0");
  EXPECT_EQ(cc.size(), 3);
  EXPECT_EQ(cc.to_parent(0), 1);
  EXPECT_EQ(cc.to_parent(2), 5);
  EXPECT_EQ(cc.to_local(3), 1);
  EXPECT_EQ(cc.to_local(0), -1);
  EXPECT_TRUE(cc.local_graph().has_edge(0, 2));
}

TEST(ClusterComm, RouteChargesLedgerWithPhasePrefix) {
  const auto g = gen::complete(6);
  cost_ledger l;
  network net(g, l);
  cluster_comm cc(net, {0, 1, 2}, {{0, 1}, {1, 2}, {0, 2}}, "cX");
  auto b1 = make_batch({{0, 2, 0, 11, 0}});
  const route_stats stats = cc.route(b1, "step1");
  EXPECT_TRUE(b1.empty());
  EXPECT_GE(stats.rounds, 1);
  EXPECT_EQ(l.rounds(), stats.rounds);
  EXPECT_TRUE(l.phases().contains("cX/step1"));
}

TEST(ClusterComm, BroadcastCostFormula) {
  const auto g = gen::complete(8);
  cost_ledger l;
  network net(g, l);
  std::vector<vertex> vs{0, 1, 2, 3, 4, 5, 6, 7};
  cluster_comm cc(net, vs, g.edges(), "c");
  cc.charge_broadcast_from_leader(10, "bc");
  // Complete graph: depth 1, so rounds = 10 + 1 - 1 = 10.
  EXPECT_EQ(l.phases().at("c/bc").rounds, 10);
  EXPECT_EQ(l.phases().at("c/bc").messages, 10 * 7);
}

TEST(ClusterComm, RejectsForeignEdges) {
  const auto g = gen::grid(2, 3);
  cost_ledger l;
  network net(g, l);
  EXPECT_THROW(cluster_comm(net, {0, 1, 2}, {{0, 2}}, "c"),
               precondition_error);  // 0-2 not an edge of the grid
}

TEST(ClusterComm, AllgatherCharges) {
  const auto g = gen::hypercube(4);
  cost_ledger l;
  network net(g, l);
  std::vector<vertex> vs(16);
  std::iota(vs.begin(), vs.end(), 0);
  cluster_comm cc(net, vs, g.edges(), "c");
  std::vector<std::int64_t> counts(16, 2);  // 32 items
  EXPECT_EQ(cc.allgather(counts, "ag"), 32);
  EXPECT_GE(l.phases().at("c/ag").rounds, 32);  // at least broadcast width
}

TEST(CongestedClique, ExchangeRounds) {
  cost_ledger l;
  congested_clique cq(8, l);
  message_batch msgs;
  for (int i = 0; i < 5; ++i) msgs.push({0, 1, 0, std::uint64_t(i), 0});
  msgs.push({3, 4, 0, 0, 0});
  cq.exchange(msgs, "step");
  EXPECT_EQ(l.rounds(), 5);
  EXPECT_EQ(l.messages(), 6);
  auto bad = make_batch({{1, 1, 0, 0, 0}});
  EXPECT_THROW(cq.exchange(bad, "bad"), precondition_error);
}

}  // namespace
}  // namespace dcl
