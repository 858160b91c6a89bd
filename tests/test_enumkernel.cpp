#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "enumkernel/kernel.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "runtime/scratch.hpp"

namespace dcl {
namespace {

// ---------------------------------------------------------------------
// Naive reference enumerator: the recursive candidate-intersection DFS
// that the kernel replaced, kept here (test-only) as the differential
// oracle. Deliberately simple — correctness over speed.

void naive_dfs(const graph& g, int p, std::vector<vertex>& current,
               const std::vector<vertex>& candidates, clique_set& out) {
  if (int(current.size()) == p) {
    out.add(current);
    return;
  }
  const int need = p - int(current.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (int(candidates.size() - i) < need) break;
    const vertex v = candidates[i];
    current.push_back(v);
    const std::span<const vertex> tail(candidates.data() + i + 1,
                                       candidates.size() - i - 1);
    const auto next = sorted_intersection(tail, g.neighbors(v));
    naive_dfs(g, p, current, next, out);
    current.pop_back();
  }
}

clique_set naive_collect(const graph& g, int p) {
  clique_set out(p);
  std::vector<vertex> current;
  for (vertex v = 0; v < g.num_vertices(); ++v) {
    current.push_back(v);
    const auto nv = g.neighbors(v);
    const auto first_gt =
        std::upper_bound(nv.begin(), nv.end(), v) - nv.begin();
    const std::vector<vertex> cands(nv.begin() + first_gt, nv.end());
    naive_dfs(g, p, current, cands, out);
    current.pop_back();
  }
  out.normalize();
  return out;
}

/// Naive edge-set oracle: dense remap through a std::map, naive listing,
/// map back. Tolerates duplicates, self-loops, and arbitrary sparse ids.
clique_set naive_in_edge_set(const edge_list& edges, int p) {
  edge_list canon;
  for (const auto& e : edges) {
    if (e.u == e.v) continue;
    canon.push_back(make_edge(e.u, e.v));
  }
  std::sort(canon.begin(), canon.end());
  canon.erase(std::unique(canon.begin(), canon.end()), canon.end());
  std::map<vertex, vertex> to_local;
  std::vector<vertex> to_global;
  for (const auto& e : canon)
    for (const vertex v : {e.u, e.v})
      if (to_local.emplace(v, vertex(to_local.size())).second)
        to_global.push_back(v);
  std::sort(to_global.begin(), to_global.end());
  for (std::size_t i = 0; i < to_global.size(); ++i)
    to_local[to_global[i]] = vertex(i);
  edge_list local;
  for (const auto& e : canon)
    local.push_back(make_edge(to_local[e.u], to_local[e.v]));
  std::sort(local.begin(), local.end());
  const auto found =
      naive_collect(graph(vertex(to_global.size()), local), p);
  clique_set out(p);
  std::vector<vertex> mapped;
  for (std::int64_t i = 0; i < found.size(); ++i) {
    mapped.clear();
    for (const vertex v : found[i]) mapped.push_back(to_global[size_t(v)]);
    out.add(mapped);
  }
  out.normalize();
  return out;
}

clique_set kernel_collect(const graph& g, int p,
                          enumkernel::enum_scratch& ws,
                          enumkernel::orientation_policy policy =
                              enumkernel::orientation_policy::degeneracy,
                          enumkernel::exec_config exec = {}) {
  clique_set out(p);
  enumkernel::enumerate_cliques(
      g, p, ws, [&](std::span<const vertex> c) { out.add_flat(c); },
      policy, exec);
  out.normalize();
  return out;
}

constexpr enumkernel::kernel_mode kAllModes[] = {
    enumkernel::kernel_mode::auto_select, enumkernel::kernel_mode::scalar,
    enumkernel::kernel_mode::bitmap};

// Every simd_mode value: forcing a tier the machine lacks must degrade to
// scalar and still be bit-identical, so sweeping all three is always valid
// (and on an AVX2 machine it genuinely exercises the vector tier).
constexpr simd_mode kAllSimd[] = {simd_mode::auto_select, simd_mode::scalar,
                                  simd_mode::avx2};

/// A kernel config built the way a session builds it at bind.
enumkernel::exec_config exec_for(enumkernel::kernel_mode mode,
                                 simd_mode simd = simd_mode::auto_select) {
  return enumkernel::resolve_exec(mode, simd);
}

// ---------------------------------------------------------------------

TEST(EnumKernel, DifferentialSweepGnp) {
  // Every kernel mode against the naive oracle: the bitmap and scalar
  // traversals must produce the identical clique set and count, and
  // auto_select must match whichever it picks per egonet.
  enumkernel::enum_scratch ws;
  for (const auto& [n, prob, seed] :
       {std::tuple{40, 0.35, 11}, {24, 0.6, 12}, {50, 0.2, 13}}) {
    const auto g = gen::gnp(vertex(n), prob, std::uint64_t(seed));
    for (int p = 3; p <= 7; ++p) {
      const auto want = naive_collect(g, p);
      for (const auto mode : kAllModes) {
        EXPECT_TRUE(kernel_collect(
                        g, p, ws,
                        enumkernel::orientation_policy::degeneracy,
                        exec_for(mode)) == want)
            << "n=" << n << " prob=" << prob << " p=" << p
            << " mode=" << int(mode);
        EXPECT_EQ(enumkernel::count_cliques(
                      g, p, ws, enumkernel::orientation_policy::degeneracy,
                      exec_for(mode)),
                  want.size());
      }
    }
  }
}

TEST(EnumKernel, DifferentialSweepSimdTiers) {
  // The vector backend is a pure performance knob (DESIGN.md §13): every
  // kernel_mode × simd_mode cell must reproduce the scalar/scalar clique
  // set and count bit for bit — on gnp across the density range, on the
  // Kneser graph (sharp combinatorial structure), and on karate (real
  // degree profile) for p = 3..7.
  enumkernel::enum_scratch ws;
  std::vector<graph> graphs;
  graphs.push_back(gen::gnp(44, 0.35, 17));
  graphs.push_back(gen::gnp(26, 0.65, 18));  // dense: bitmap + wide rows
  graphs.push_back(gen::kneser(12, 2));
  graphs.push_back(
      read_snap_file(std::string(DCL_TEST_DATA_DIR) + "/karate.txt").g);
  for (const auto& g : graphs) {
    for (int p = 3; p <= 7; ++p) {
      const auto want =
          kernel_collect(g, p, ws, enumkernel::orientation_policy::degeneracy,
                         exec_for(enumkernel::kernel_mode::scalar,
                                  simd_mode::scalar));
      for (const auto mode : kAllModes) {
        for (const auto simd : kAllSimd) {
          EXPECT_TRUE(kernel_collect(g, p, ws,
                                     enumkernel::orientation_policy::degeneracy,
                                     exec_for(mode, simd)) == want)
              << "n=" << g.num_vertices() << " p=" << p << " mode="
              << int(mode) << " simd=" << simd::simd_mode_name(simd);
          EXPECT_EQ(
              enumkernel::count_cliques(
                  g, p, ws, enumkernel::orientation_policy::degeneracy,
                  exec_for(mode, simd)),
              want.size())
              << "n=" << g.num_vertices() << " p=" << p << " mode="
              << int(mode) << " simd=" << simd::simd_mode_name(simd);
        }
      }
    }
  }
}

TEST(EnumKernel, SimdTiersOnWideBitmapRows) {
  // The vector tier's bitmap counting base runs its lane path only on rows
  // of at least 4 words, which the small graphs above never reach. Here
  // arc u -> v roots a 200-member egonet (4-word rows): u and v are
  // adjacent to all of W, W is the cube of a path (K4s, no K5), and
  // kW pendant vertices on each member of W lift its degree above u's and
  // v's, so the degree orientation ranks the pendants, then u and v, then
  // W. Pendants lie in no triangle, so the clique sets stay small.
  constexpr vertex kW = 200;
  const vertex u = 0, v = 1, w0 = 2;
  vertex n = w0 + kW;
  edge_list edges{{u, v}};
  for (vertex i = 0; i < kW; ++i) {
    edges.push_back({u, w0 + i});
    edges.push_back({v, w0 + i});
    for (vertex d = 1; d <= 3 && i + d < kW; ++d)
      edges.push_back({w0 + i, w0 + i + d});
    for (vertex j = 0; j < kW; ++j) edges.push_back({w0 + i, n++});
  }
  const graph g(n, edges);
  constexpr auto kDegree = enumkernel::orientation_policy::degree;
  enumkernel::enum_scratch ws;
  for (int p = 3; p <= 6; ++p) {
    const auto want = kernel_collect(
        g, p, ws, kDegree,
        exec_for(enumkernel::kernel_mode::scalar, simd_mode::scalar));
    for (const auto mode : kAllModes)
      for (const auto simd : kAllSimd) {
        EXPECT_TRUE(kernel_collect(g, p, ws, kDegree, exec_for(mode, simd)) ==
                    want)
            << "p=" << p << " mode=" << int(mode)
            << " simd=" << simd::simd_mode_name(simd);
        EXPECT_EQ(enumkernel::count_cliques(g, p, ws, kDegree,
                                            exec_for(mode, simd)),
                  want.size())
            << "p=" << p << " mode=" << int(mode)
            << " simd=" << simd::simd_mode_name(simd);
      }
  }
  // The forced-bitmap runs above really built 4-word rows for W.
  EXPECT_GE(ws.bit_rows.capacity(), std::size_t(kW) * 4);
}

TEST(EnumKernel, EdgeSetSimdTiersAgree) {
  // The edge-scoped entry (remap + kernel) across the full tier matrix,
  // including adversarial raw input: duplicates and a self-loop.
  const auto base = gen::gnp(30, 0.5, 73);
  edge_list raw = base.edges();
  raw.push_back({4, 4});
  raw.push_back(raw.front());
  enumkernel::enum_scratch ws;
  for (int p = 3; p <= 6; ++p) {
    const auto want = enumkernel::cliques_in_edge_set(
        raw, p, ws,
        exec_for(enumkernel::kernel_mode::scalar, simd_mode::scalar));
    for (const auto mode : kAllModes)
      for (const auto simd : kAllSimd)
        EXPECT_TRUE(enumkernel::cliques_in_edge_set(raw, p, ws,
                                                    exec_for(mode, simd)) ==
                    want)
            << "p=" << p << " mode=" << int(mode)
            << " simd=" << simd::simd_mode_name(simd);
  }
}

TEST(EnumKernel, DifferentialSweepKneser) {
  // K(12, 2): c-cliques exist iff 2c <= 12, so p = 7 is a sharp negative.
  const auto g = gen::kneser(12, 2);
  enumkernel::enum_scratch ws;
  for (int p = 3; p <= 7; ++p) {
    const auto want = naive_collect(g, p);
    for (const auto mode : kAllModes)
      EXPECT_TRUE(kernel_collect(g, p, ws,
                                 enumkernel::orientation_policy::degeneracy,
                                 exec_for(mode)) == want)
          << "p=" << p << " mode=" << int(mode);
  }
  EXPECT_EQ(enumkernel::count_cliques(g, 7, ws), 0);
  // K(14, 2) holds K7s: one per perfect matching of K_14 restricted to 7
  // disjoint pairs = 14! / (2^7 7!) = 135135.
  EXPECT_EQ(enumkernel::count_cliques(gen::kneser(14, 2), 7, ws), 135135);
}

TEST(EnumKernel, DifferentialRawEdgeLists) {
  // Adversarial raw edge sets: duplicates, self-loops, and huge sparse ids
  // (the kernel's dense remap must not allocate by id universe; the old
  // path built a throwaway parent graph of max_id vertices).
  const auto base = gen::gnp(32, 0.4, 21);
  edge_list raw;
  const auto spread = [](vertex v) {
    return vertex(1'000'000'000 + 37 * std::int64_t(v) * std::int64_t(v));
  };
  for (const auto& e : base.edges()) {
    raw.push_back({spread(e.u), spread(e.v)});
    raw.push_back({spread(e.v), spread(e.u)});  // duplicate, reversed
    if (e.u % 3 == 0) raw.push_back({spread(e.u), spread(e.u)});  // loop
    if (e.v % 5 == 0) raw.push_back({spread(e.u), spread(e.v)});  // dup
  }
  enumkernel::enum_scratch ws;
  for (int p = 3; p <= 7; ++p) {
    const auto want = naive_in_edge_set(raw, p);
    EXPECT_TRUE(enumkernel::cliques_in_edge_set(raw, p, ws) == want)
        << "p=" << p;
  }
}

TEST(EnumKernel, EdgeEntryArityTwoListsTheDedupedEdges) {
  const edge_list raw{{7, 3}, {3, 7}, {3, 3}, {9, 7}, {7, 9}};
  enumkernel::enum_scratch ws;
  const auto s = enumkernel::cliques_in_edge_set(raw, 2, ws);
  ASSERT_EQ(s.size(), 2);
  const vertex a[2] = {3, 7};
  const vertex b[2] = {7, 9};
  EXPECT_TRUE(s.contains(std::span<const vertex>(a, 2)));
  EXPECT_TRUE(s.contains(std::span<const vertex>(b, 2)));
}

TEST(EnumKernel, EmptyAndTinyInputs) {
  enumkernel::enum_scratch ws;
  EXPECT_EQ(enumkernel::cliques_in_edge_set({}, 4, ws).size(), 0);
  EXPECT_EQ(enumkernel::cliques_in_edge_set({{5, 5}}, 3, ws).size(), 0);
  const auto singleton = enumkernel::cliques_in_edge_set({{2, 8}}, 3, ws);
  EXPECT_EQ(singleton.size(), 0);
}

TEST(EnumKernel, ScratchReuseIsStateless) {
  // Back-to-back calls on ONE scratch — mixed graphs, arities, and entry
  // points — must produce exactly what a fresh scratch produces: scratch
  // history can never leak into results.
  const auto g1 = gen::gnp(36, 0.4, 31);
  const auto g2 = gen::kneser(10, 2);
  const auto g3 = gen::planted_cliques(50, 0.05, 2, 6, 33);
  enumkernel::enum_scratch warm;
  // Warm the scratch on the largest problem first, then sweep down and
  // back up so every buffer is reused both shrinking and growing.
  const auto sequence = [&](enumkernel::enum_scratch& ws) {
    std::vector<clique_set> outs;
    outs.push_back(kernel_collect(g3, 5, ws));
    outs.push_back(kernel_collect(g1, 4, ws));
    outs.push_back(enumkernel::cliques_in_edge_set(g2.edges(), 3, ws));
    outs.push_back(kernel_collect(g1, 6, ws));
    outs.push_back(enumkernel::cliques_in_edge_set(g1.edges(), 4, ws));
    outs.push_back(kernel_collect(g3, 5, ws));
    return outs;
  };
  const auto with_warm = sequence(warm);
  for (std::size_t i = 0; i < with_warm.size(); ++i) {
    enumkernel::enum_scratch fresh;
    const auto lone = sequence(fresh);
    EXPECT_TRUE(with_warm[i] == lone[i]) << "call #" << i;
  }
  // And immediate repetition on the warm scratch is bit-identical.
  EXPECT_TRUE(kernel_collect(g1, 4, warm) == kernel_collect(g1, 4, warm));
}

TEST(EnumKernel, WorksOutOfARuntimeArena) {
  // The cluster tasks key the kernel workspace in their worker's arena;
  // the arena hands back the same instance every time, warm.
  runtime::scratch_arena arena;
  auto& ws = arena.get<enumkernel::enum_scratch>();
  const auto g = gen::gnp(30, 0.4, 41);
  const auto first = kernel_collect(g, 4, ws);
  auto& again = arena.get<enumkernel::enum_scratch>();
  EXPECT_EQ(&ws, &again);
  EXPECT_TRUE(kernel_collect(g, 4, again) == first);
}

TEST(EnumKernel, OrientationPoliciesAgree) {
  const auto g = gen::power_law(120, 2.5, 8.0, 51);
  enumkernel::enum_scratch ws;
  const auto degen = kernel_collect(
      g, 4, ws, enumkernel::orientation_policy::degeneracy);
  const auto degree = kernel_collect(
      g, 4, ws, enumkernel::orientation_policy::degree);
  EXPECT_TRUE(degen == degree);
  EXPECT_TRUE(degen == naive_collect(g, 4));
}

TEST(EnumKernel, ArcEnumeratorRangesCompose) {
  // Listing arc-by-arc, in one range, and counting must all agree.
  const auto g = gen::gnp(40, 0.3, 61);
  enumkernel::enum_scratch ws;
  enumkernel::orient_into(g.view(),
                          enumkernel::orientation_policy::degeneracy,
                          ws.orient_ws, ws.d);
  const auto d = ws.d;  // keep a stable copy; ws.d is scratch
  enumkernel::arc_enumerator en(d, 4, ws);
  clique_set whole(4);
  const std::int64_t listed = en.list_range(
      0, d.num_arcs(),
      [&](std::span<const vertex> c) { whole.add_flat(c); });
  whole.normalize();
  EXPECT_EQ(listed, whole.size());  // kernel never duplicates

  clique_set stitched(4);
  std::int64_t counted = 0;
  for (std::int64_t arc = 0; arc < d.num_arcs(); ++arc) {
    en.list_arc(arc, [&](std::span<const vertex> c) {
      stitched.add_flat(c);
    });
    counted += en.count_arc(arc);
  }
  stitched.normalize();
  EXPECT_TRUE(stitched == whole);
  EXPECT_EQ(counted, listed);
  EXPECT_EQ(en.count_range(0, d.num_arcs()), listed);
  EXPECT_TRUE(whole == naive_collect(g, 4));
}

TEST(EnumKernel, BitmapHeuristicBounds) {
  using enumkernel::bitmap_preferred;
  using enumkernel::kBitmapDensityDivisor;
  using enumkernel::kBitmapMaxVertices;
  using enumkernel::kBitmapMinDepth;
  using enumkernel::kBitmapMinVertices;
  // Size gates: tiny egonets stay scalar, oversized ones stay scalar even
  // when complete (the row matrix would blow the scratch memory cap).
  EXPECT_FALSE(
      bitmap_preferred(kBitmapMinVertices - 1, 1'000'000, kBitmapMinDepth));
  EXPECT_FALSE(bitmap_preferred(kBitmapMaxVertices + 1,
                                std::int64_t(1) << 40, kBitmapMinDepth));
  // Depth gate: a depth-2 descent (p == 4) is one base scan — the row
  // build can't amortize, so auto stays scalar even on a complete egonet.
  EXPECT_FALSE(bitmap_preferred(64, std::int64_t(64) * 63 / 2,
                                kBitmapMinDepth - 1));
  // Density gate around the 1/(divisor) threshold at n = 64.
  const std::int32_t n = 64;
  const std::int32_t d = kBitmapMinDepth;
  const std::int64_t full = std::int64_t(n) * (n - 1) / 2;
  EXPECT_TRUE(bitmap_preferred(n, full, d));  // complete egonet
  EXPECT_TRUE(bitmap_preferred(
      n, (full + kBitmapDensityDivisor - 1) / kBitmapDensityDivisor, d));
  EXPECT_FALSE(bitmap_preferred(n, full / kBitmapDensityDivisor - 1, d));
  EXPECT_FALSE(bitmap_preferred(n, 0, d));
}

TEST(EnumKernel, ModesAgreeOnRealGraph) {
  // The checked-in Zachary karate club, through the SNAP loader: the known
  // census (45 triangles, 11 K4s, 2 K5s) and naive-oracle agreement for
  // every kernel mode.
  const auto loaded = read_snap_file(std::string(DCL_TEST_DATA_DIR) +
                                     "/karate.txt");
  const graph& g = loaded.g;
  ASSERT_EQ(g.num_vertices(), 34);
  ASSERT_EQ(g.num_edges(), 78);
  enumkernel::enum_scratch ws;
  const std::int64_t census[] = {45, 11, 2, 0};
  for (int p = 3; p <= 6; ++p) {
    const auto want = naive_collect(g, p);
    EXPECT_EQ(want.size(), census[p - 3]) << "p=" << p;
    for (const auto mode : kAllModes)
      EXPECT_TRUE(kernel_collect(g, p, ws,
                                 enumkernel::orientation_policy::degeneracy,
                                 exec_for(mode)) == want)
          << "p=" << p << " mode=" << int(mode);
  }
}

TEST(EnumKernel, EdgeSetModesAgree) {
  const auto base = gen::gnp(28, 0.5, 71);
  edge_list raw = base.edges();
  raw.push_back({5, 5});              // self-loop
  raw.push_back(raw.front());         // duplicate
  enumkernel::enum_scratch ws;
  for (int p = 3; p <= 6; ++p) {
    const auto want = naive_in_edge_set(raw, p);
    for (const auto mode : kAllModes)
      EXPECT_TRUE(enumkernel::cliques_in_edge_set(raw, p, ws,
                                                  exec_for(mode)) == want)
          << "p=" << p << " mode=" << int(mode);
  }
}

TEST(EnumKernel, BitmapScratchWarmReuse) {
  // Forced-bitmap warm runs must be allocation-free: after one pass has
  // grown the row/mask storage to its high-water mark, a repeat of the
  // same workload may not reallocate any bitmap buffer (the enum_scratch
  // contract of DESIGN.md §7 extended to the bitmap path).
  const auto g = gen::gnp(48, 0.5, 81);
  enumkernel::enum_scratch ws;
  const auto first =
      kernel_collect(g, 5, ws, enumkernel::orientation_policy::degeneracy,
                     exec_for(enumkernel::kernel_mode::bitmap));
  ASSERT_GT(ws.bit_rows.capacity(), 0u);  // the bitmap path really ran
  const auto* rows_ptr = ws.bit_rows.data();
  const auto* masks_ptr = ws.bit_masks.data();
  const auto rows_cap = ws.bit_rows.capacity();
  const auto masks_cap = ws.bit_masks.capacity();
  const auto again =
      kernel_collect(g, 5, ws, enumkernel::orientation_policy::degeneracy,
                     exec_for(enumkernel::kernel_mode::bitmap));
  EXPECT_TRUE(first == again);
  EXPECT_EQ(rows_ptr, ws.bit_rows.data());
  EXPECT_EQ(masks_ptr, ws.bit_masks.data());
  EXPECT_EQ(rows_cap, ws.bit_rows.capacity());
  EXPECT_EQ(masks_cap, ws.bit_masks.capacity());
}

TEST(EnumKernel, GallopingThresholdIsOutputInvariant) {
  // The galloping factor is a pure performance knob on the intersection
  // routines: every factor (including 0 = disabled and 1 = always gallop)
  // yields the same intersection, and the default constant is what the
  // two-argument overload uses.
  const auto g = gen::power_law(200, 2.3, 10.0, 91);
  const auto a = g.neighbors(0);  // hub under degree-ordered power_law? any
  for (vertex v = 1; v < 40; ++v) {
    const auto b = g.neighbors(v);
    const auto want = sorted_intersection(a, b);
    EXPECT_EQ(sorted_intersection_size(a, b), std::int64_t(want.size()));
    for (const std::size_t factor : {std::size_t{0}, std::size_t{1},
                                     std::size_t{2}, std::size_t{32},
                                     std::size_t{1} << 40}) {
      for (const auto simd : kAllSimd) {
        const simd::simd_ops* ops =
            exec_for(enumkernel::kernel_mode::auto_select, simd).ops;
        EXPECT_TRUE(sorted_intersection(a, b, factor, ops) == want)
            << "v=" << v << " factor=" << factor
            << " simd=" << simd::simd_mode_name(simd);
        EXPECT_EQ(sorted_intersection_size(a, b, factor, ops),
                  std::int64_t(want.size()));
        std::vector<vertex> into;
        sorted_intersection_into(a, b, into, factor, ops);
        EXPECT_TRUE(into == want);
      }
    }
  }
  static_assert(kGallopFactor == 32,
                "bench_enum_kernel's intersection rows assume the default");
}

}  // namespace
}  // namespace dcl
