// Enumerator microbenchmark: the legacy recursive DFS against every kernel
// traversal and every vector tier. The arena-backed kernel (src/enumkernel/)
// replaced the recursive std::function DFS that lived in
// graph/clique_enum.cpp; a verbatim copy of that legacy enumerator is kept
// below (namespace legacy) so the comparison stays reproducible after the
// deletion. Each case times the kernel under kernel_mode x simd_mode —
// scalar compaction, dense bitmaps on the scalar word loops, dense bitmaps
// on the detected vector tier (AVX2; column degenerates to the scalar
// bitmap on machines without one), and the double-auto configuration the
// session API defaults to — plus a galloping/vector microbench on the
// sorted-intersection routines. Emits one JSON document on stdout AND to
// BENCH_enum_kernel.json via the shared checked emitter:
//
//   ./bench_enum_kernel [--smoke] [out.json]
//
// --smoke shrinks every case (CI smoke runs — sanity, not timing).
//
// Every case cross-checks legacy and kernel clique counts (all modes, all
// tiers) before timing; a mismatch aborts. Acceptance bars: "speedup"
// (legacy/scalar) >= 2x on p >= 4 cases from the kernel refactor;
// "bitmap_speedup" (scalar/bitmap) >= 2x on at least one dense p >= 4
// case; "vector_speedup" (bitmap_scalar/bitmap_vector) >= 1.3x on at least
// one wide dense case when a vector tier exists; "auto_vs_best" (double-
// auto / best fixed configuration, the median over adjacent timed pairs)
// <= 1.05 everywhere. The last bar is enforced: in
// full (non-smoke) mode the process exits 1 when any case breaks it, so CI
// fails instead of silently archiving a regressed heuristic.
//
// Real-graph rows load tests/data/karate.txt through the SNAP loader
// (tools/fetch_corpus drops larger corpus graphs next to it; any graph
// present is picked up by name).

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"

#include "core/listing/collector.hpp"
#include "enumkernel/kernel.hpp"
#include "graph/algorithms.hpp"
#include "graph/clique_enum.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "support/stats.hpp"

namespace legacy {

using namespace dcl;

// ---- verbatim pre-kernel implementation (graph/clique_enum.cpp @ PR 2).

/// Calls cb(u, v, w) with u < v < w for every triangle. Forward algorithm on
/// sorted adjacency — O(m^{3/2}).
void for_each_triangle(const graph& g,
                       const std::function<void(vertex, vertex, vertex)>& cb) {
  for (vertex u = 0; u < g.num_vertices(); ++u) {
    const auto nu = g.neighbors(u);
    // Suffix of neighbors greater than u.
    const auto first_gt =
        std::upper_bound(nu.begin(), nu.end(), u) - nu.begin();
    const auto fwd_u = nu.subspan(static_cast<std::size_t>(first_gt));
    for (vertex v : fwd_u) {
      const auto nv = g.neighbors(v);
      const auto first_gt_v =
          std::upper_bound(nv.begin(), nv.end(), v) - nv.begin();
      const auto fwd_v = nv.subspan(static_cast<std::size_t>(first_gt_v));
      // w > v, w adjacent to both u and v.
      std::size_t i = 0, j = 0;
      const auto fu =
          fwd_u.subspan(size_t(std::upper_bound(fwd_u.begin(), fwd_u.end(), v) -
                               fwd_u.begin()));
      while (i < fu.size() && j < fwd_v.size()) {
        if (fu[i] < fwd_v[j]) {
          ++i;
        } else if (fu[i] > fwd_v[j]) {
          ++j;
        } else {
          cb(u, v, fu[i]);
          ++i;
          ++j;
        }
      }
    }
  }
}

void clique_dfs(const graph& g, int p, std::vector<vertex>& current,
                std::vector<vertex>& candidates,
                const std::function<void(std::span<const vertex>)>& cb) {
  if (int(current.size()) == p) {
    cb(current);
    return;
  }
  const int need = p - int(current.size());
  if (int(candidates.size()) < need) return;
  // Iterate a copy: candidates shrinks in recursive calls.
  const std::vector<vertex> cands = candidates;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    if (int(cands.size() - i) < need) break;
    const vertex v = cands[i];
    current.push_back(v);
    std::vector<vertex> next;
    const auto nv = g.neighbors(v);
    std::span<const vertex> tail(cands.data() + i + 1, cands.size() - i - 1);
    next = sorted_intersection(tail, nv);
    clique_dfs(g, p, current, next, cb);
    current.pop_back();
  }
}

void for_each_clique(const graph& g, int p,
                     const std::function<void(std::span<const vertex>)>& cb) {
  if (p == 3) {  // the old code special-cased triangles (forward algorithm)
    legacy::for_each_triangle(g, [&](vertex u, vertex v, vertex w) {
      const vertex t[3] = {u, v, w};
      cb(std::span<const vertex>(t, 3));
    });
    return;
  }
  std::vector<vertex> current;
  for (vertex v = 0; v < g.num_vertices(); ++v) {
    current.push_back(v);
    const auto nv = g.neighbors(v);
    const auto first_gt =
        std::upper_bound(nv.begin(), nv.end(), v) - nv.begin();
    std::vector<vertex> cands(nv.begin() + first_gt, nv.end());
    clique_dfs(g, p, current, cands, cb);
    current.pop_back();
  }
}

std::int64_t count_cliques(const graph& g, int p) {
  std::int64_t count = 0;
  legacy::for_each_clique(g, p,
                          [&](std::span<const vertex>) { ++count; });
  return count;
}

clique_set cliques_in_edge_set(const edge_list& edges, int p) {
  edge_list canon;
  canon.reserve(edges.size());
  for (const auto& e : edges) {
    if (e.u == e.v) continue;
    canon.push_back(make_edge(e.u, e.v));
  }
  std::sort(canon.begin(), canon.end());
  canon.erase(std::unique(canon.begin(), canon.end()), canon.end());
  if (canon.empty()) return clique_set(p);

  vertex max_v = 0;
  for (const auto& e : canon) max_v = std::max(max_v, e.v);
  edge_induced_subgraph sub = [&] {
    graph parent(max_v + 1, {});
    return induce_by_edges(parent, canon);
  }();
  clique_set out(p);
  legacy::for_each_clique(sub.g, p, [&](std::span<const vertex> c) {
    std::vector<vertex> mapped(c.size());
    for (std::size_t i = 0; i < c.size(); ++i)
      mapped[i] = sub.to_parent[size_t(c[i])];
    out.add(mapped);
  });
  out.normalize();
  return out;
}

}  // namespace legacy

namespace {

/// The auto_vs_best gate statistic. The best fixed configuration is picked
/// by its median over the interleaved rounds; the gate then times it and
/// double-auto back to back, alternating which runs first, and takes the
/// median over those pairs of auto / best. A shared machine's noise is
/// mostly slow drift, which two adjacent runs share, so a pair's ratio
/// cancels it; the median ignores the odd pair a hiccup lands in. Picking
/// the configuration on samples other than the gate's keeps the gate from
/// comparing auto against whichever near-tied configuration drew the
/// luckiest samples.
struct auto_gate {
  double ratio = 0.0;              ///< median over pairs of auto / best fixed
  double best_fixed_median = 0.0;  ///< best fixed's median paired seconds
  double auto_floor = 0.0;         ///< auto's fastest paired run
};

struct case_result {
  std::string name;
  std::string entry;
  dcl::vertex n;
  std::int64_t edges;
  int p;
  std::int64_t cliques;
  double legacy_seconds;         // 0 on kernel-only cases (no legacy run)
  double scalar_seconds;         // kernel_mode scalar, simd scalar
  double bitmap_scalar_seconds;  // kernel_mode bitmap, simd scalar
  double bitmap_vector_seconds;  // kernel_mode bitmap, detected simd tier
  double auto_seconds;           // double auto: the session-API default
  auto_gate gate;                // auto vs the best fixed configuration
};

struct intersection_result {
  std::string name;
  std::int64_t len_short;
  std::int64_t len_long;
  std::int64_t pairs;
  double merge_seconds;    // gallop_factor = 0, scalar tier (pure merge)
  double gallop_seconds;   // default kGallopFactor, scalar tier
  double vector_seconds;   // gallop_factor = 0, detected vector tier
};

/// Wall-clock seconds of one call.
double seconds_of(const std::function<void()>& fn) {
  const double t0 = dcl::bench::now_seconds();
  fn();
  return dcl::bench::now_seconds() - t0;
}

/// Interleaved timing: one sample per variant per round, so the slow drift
/// of a loaded shared machine hits every variant equally instead of biasing
/// whichever sequential block ran last. Returns samples[variant][round].
std::vector<std::vector<double>> interleaved_samples(
    const std::vector<std::function<void()>>& variants, int rounds) {
  std::vector<std::vector<double>> samples(variants.size());
  for (int r = 0; r < rounds; ++r)
    for (std::size_t i = 0; i < variants.size(); ++i)
      samples[i].push_back(seconds_of(variants[i]));
  return samples;
}

/// Per-variant floor (minimum over rounds): the reported *_seconds columns.
std::vector<double> floors(const std::vector<std::vector<double>>& samples) {
  std::vector<double> out;
  for (const auto& xs : samples)
    out.push_back(*std::min_element(xs.begin(), xs.end()));
  return out;
}

/// Times `best` and `autorun` in `pairs` adjacent pairs (see auto_gate).
auto_gate time_auto_vs_best(const std::function<void()>& best,
                            const std::function<void()>& autorun, int pairs) {
  std::vector<double> best_t, auto_t, ratios;
  for (int i = 0; i < pairs; ++i) {
    double tb = 0.0, ta = 0.0;
    if (i % 2 == 0) {
      tb = seconds_of(best);
      ta = seconds_of(autorun);
    } else {
      ta = seconds_of(autorun);
      tb = seconds_of(best);
    }
    best_t.push_back(tb);
    auto_t.push_back(ta);
    if (tb > 0) ratios.push_back(ta / tb);
  }
  auto_gate g;
  g.ratio = ratios.empty() ? 0.0 : dcl::percentile(ratios, 50);
  g.best_fixed_median = dcl::percentile(best_t, 50);
  g.auto_floor = *std::min_element(auto_t.begin(), auto_t.end());
  return g;
}

/// Index, within `samples`, of the variant in [first, first + 3) with the
/// lowest median: the best of the three fixed configurations.
std::size_t fastest_fixed(const std::vector<std::vector<double>>& samples,
                          std::size_t first) {
  std::size_t best = first;
  for (std::size_t i = first + 1; i < first + 3; ++i)
    if (dcl::percentile(samples[i], 50) <
        dcl::percentile(samples[best], 50))
      best = i;
  return best;
}

/// Finds a corpus graph next to the bench binary or the repo root: CI runs
/// from the repo root, manual runs usually from build/.
std::optional<dcl::snap_graph> load_corpus_graph(const std::string& name) {
  for (const char* prefix : {"tests/data/", "../tests/data/",
                             "tests/data/corpus/", "../tests/data/corpus/"}) {
    const std::string path = prefix + name;
    if (std::ifstream probe(path); probe.good())
      return dcl::read_snap_file(path);
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcl;
  bool smoke = false;
  std::string out_path = "BENCH_enum_kernel.json";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke")
      smoke = true;
    else
      out_path = argv[i];
  }

  // Nine interleaved rounds in full mode: min-of-9 with round-robin order
  // converges each variant to its floor (the *_seconds columns). The
  // auto_vs_best gate then takes 25 adjacent (best fixed, auto) pairs: a
  // single pair's ratio spreads about ±5% on a busy shared machine, and
  // the median of 25 is what keeps a ~1.02x case clear of the 1.05x bar.
  const int rounds = smoke ? 3 : 9;
  const int gate_pairs = smoke ? 3 : 25;

  enumkernel::enum_scratch ws;  // warm kernel scratch shared by all cases
  std::vector<case_result> results;

  constexpr enumkernel::kernel_mode kScalar = enumkernel::kernel_mode::scalar;
  constexpr enumkernel::kernel_mode kBitmap = enumkernel::kernel_mode::bitmap;
  constexpr enumkernel::kernel_mode kAuto =
      enumkernel::kernel_mode::auto_select;

  // The vector tier this machine runs under auto_select. On a machine with
  // no vector ISA this is simd_mode::scalar, so the bitmap_vector column
  // degenerates to a second scalar-bitmap timing and vector_speedup ~ 1.
  const simd_mode kVec = simd::detected_mode();
  constexpr simd_mode kSimdScalar = simd_mode::scalar;
  constexpr simd_mode kSimdAuto = simd_mode::auto_select;

  // The timed configurations of every case, in round-robin order, each
  // resolved once up front exactly as a session resolves its options at
  // bind.
  using config = enumkernel::exec_config;
  const config kConfigs[] = {
      enumkernel::resolve_exec(kScalar, kSimdScalar),  // scalar_seconds
      enumkernel::resolve_exec(kBitmap, kSimdScalar),  // bitmap_scalar_seconds
      enumkernel::resolve_exec(kBitmap, kVec),         // bitmap_vector_seconds
      enumkernel::resolve_exec(kAuto, kSimdAuto),      // auto_seconds
  };
  const config& kScalarConfig = kConfigs[0];
  const std::span<const config> kFixedConfigs = std::span(kConfigs).first(3);
  const config& kAutoConfig = kConfigs[3];

  // ---- graph entry: count every p-clique of one graph, once per kernel
  // configuration. `with_legacy` = false for the wide dense cases where the
  // legacy DFS would enumerate hundreds of millions of tuples the bitmap
  // kernel only popcounts — there the scalar-compaction and bitmap kernels
  // (independent traversals) cross-check each other instead.
  const auto graph_case = [&](const std::string& name, const graph& g,
                              int p, bool with_legacy) {
    const std::int64_t want =
        with_legacy ? legacy::count_cliques(g, p)
                    : enumkernel::count_cliques(g, p, ws, kScalarConfig);
    for (const auto& c : kConfigs)
      if (enumkernel::count_cliques(g, p, ws, c) != want)
        std::abort();  // differential cross-check, every configuration
    const auto kernel_run = [&](config c) {
      return std::function<void()>([&, c] {
        (void)enumkernel::count_cliques(g, p, ws, c);
      });
    };
    std::vector<std::function<void()>> variants;
    if (with_legacy)
      variants.push_back([&] { (void)legacy::count_cliques(g, p); });
    for (const auto& c : kFixedConfigs) variants.push_back(kernel_run(c));
    const auto samples = interleaved_samples(variants, rounds);
    const auto t = floors(samples);
    const std::size_t k = with_legacy ? 1 : 0;
    const auto gate = time_auto_vs_best(variants[fastest_fixed(samples, k)],
                                        kernel_run(kAutoConfig), gate_pairs);
    results.push_back({name, "graph", g.num_vertices(), g.num_edges(), p,
                       want, with_legacy ? t[0] : 0.0, t[k], t[k + 1],
                       t[k + 2], gate.auto_floor, gate});
  };

  // ---- edge-list entry: the cluster-local hot path, measured exactly as
  // the CONGEST listers run it. Old code materialized a normalized
  // clique_set per leaf (cliques_in_edge_set) and re-emitted it into the
  // cluster's collector; new code streams kernel tuples straight into the
  // collector. The collector's one-shot finalize is per-run, not per-leaf,
  // so it stays outside the timed region on both sides.
  const auto edges_case = [&](const std::string& name, const graph& g,
                              int p) {
    const auto& edges = g.edges();
    const auto want = legacy::cliques_in_edge_set(edges, p);
    for (const auto& c : kConfigs)
      if (!(enumkernel::cliques_in_edge_set(edges, p, ws, c) == want))
        std::abort();
    const auto kernel_run = [&](config c) {
      return std::function<void()>([&, c] {
        clique_collector col(p);
        enumkernel::enumerate_cliques_in_edges(
            edges, p, ws, [&](std::span<const vertex> cl) { col.emit(cl); },
            c);
        if (col.emitted() != want.size()) std::abort();
      });
    };
    std::vector<std::function<void()>> variants;
    variants.push_back([&] {
      clique_collector col(p);
      const auto found = legacy::cliques_in_edge_set(edges, p);
      for (std::int64_t i = 0; i < found.size(); ++i) col.emit(found[i]);
      if (col.emitted() != want.size()) std::abort();
    });
    for (const auto& c : kFixedConfigs) variants.push_back(kernel_run(c));
    const auto samples = interleaved_samples(variants, rounds);
    const auto t = floors(samples);
    const auto gate = time_auto_vs_best(variants[fastest_fixed(samples, 1)],
                                        kernel_run(kAutoConfig), gate_pairs);
    results.push_back({name, "edges", g.num_vertices(), g.num_edges(), p,
                       want.size(), t[0], t[1], t[2], t[3], gate.auto_floor,
                       gate});
  };

  // ---- real-graph rows through the SNAP loader. karate.txt is checked
  // in (CI always has it); anything tools/fetch_corpus downloaded is
  // benched when present, skipped silently when not.
  const auto corpus_case = [&](const std::string& file, int p) {
    if (const auto s = load_corpus_graph(file))
      graph_case("corpus_" + file.substr(0, file.find('.')) + "_p" +
                     std::to_string(p),
                 s->g, p, /*with_legacy=*/true);
  };

  // Clique-dense inputs: enumeration work dominates, which is the regime
  // the cluster listers live in (a learned edge set is a dense subset by
  // construction — it was shipped precisely because it closes cliques).
  if (smoke) {
    graph_case("gnp_p3", gen::gnp(120, 0.08, 7), 3, true);
    graph_case("gnp_p4", gen::gnp(60, 0.3, 7), 4, true);
    graph_case("gnp_wide_p5", gen::gnp(90, 0.9, 7), 5, false);
    edges_case("edges_gnp_p4", gen::gnp(60, 0.3, 9), 4);
    corpus_case("karate.txt", 4);
  } else {
    graph_case("gnp_p3", gen::gnp(500, 0.08, 7), 3, true);
    graph_case("gnp_p4", gen::gnp(200, 0.35, 7), 4, true);
    graph_case("gnp_p5", gen::gnp(120, 0.45, 7), 5, true);
    graph_case("gnp_p6", gen::gnp(90, 0.55, 7), 6, true);
    // The bitmap kernel's home turf: dense egonets, deep descent.
    graph_case("gnp_dense_p4", gen::gnp(300, 0.5, 7), 4, true);
    graph_case("gnp_dense_p5", gen::gnp(160, 0.6, 7), 5, true);
    graph_case("gnp_dense_p6", gen::gnp(110, 0.65, 7), 6, true);
    // The vector tier's home turf. Egonets here are per-ARC (N+(u) n N+(v)
    // inside the oriented DAG), so width is ~d^2*n/2, not n: near-clique
    // density is what buys multi-word rows. gnp(260, 0.92) gives ~110-wide
    // egonets (2 words) with a descent-dominated p=5 profile — measured
    // 1.44x bitmap_vector over bitmap_scalar on AVX2 (1.74x at
    // gnp(300, 0.95), 2.15x at gnp(420, 0.97); those sizes are too slow for
    // the round-robin). p=4 wide cases were tried and rejected: at depth 2
    // the egonet-build label lookups dominate end-to-end time and every
    // kernel configuration ties within noise. Counting-only work the legacy
    // DFS cannot finish in bench time (~4e9 K5s), hence with_legacy=false.
    graph_case("gnp_wide_p5", gen::gnp(260, 0.92, 7), 5, false);
    graph_case("kneser_p5", gen::kneser(13, 2), 5, true);
    graph_case("kneser_p6", gen::kneser(13, 2), 6, true);
    edges_case("edges_gnp_p4", gen::gnp(200, 0.35, 9), 4);
    edges_case("edges_gnp_p5", gen::gnp(120, 0.50, 9), 5);
    corpus_case("karate.txt", 3);
    corpus_case("karate.txt", 4);
    corpus_case("karate.txt", 5);
    corpus_case("ca-GrQc.txt", 4);
    corpus_case("facebook.txt", 4);
    corpus_case("email-Enron.txt", 4);
  }

  // ---- intersection microbench: the same pair under the pure merge walk,
  // the galloping walk, and the vector block kernel. Skew regimes from
  // near-equal (galloping must not fire; the vector path's regime) to
  // 1000:1 (galloping wins big; the vector path correctly declines — under
  // the default kGallopFactor these pairs never reach the block kernel, so
  // its column is timed with galloping disabled to show why the dispatch
  // order is gallop-first).
  std::vector<intersection_result> xrows;
  {
    const simd::simd_ops* kScalarOps = kScalarConfig.ops;
    const simd::simd_ops* kVecOps = kConfigs[2].ops;  // bitmap_vector's tier
    const std::int64_t reps = smoke ? 50 : 2000;
    const auto xcase = [&](const std::string& name, std::int64_t short_len,
                           std::int64_t long_len) {
      std::vector<vertex> a, b;
      for (std::int64_t i = 0; i < short_len; ++i)
        a.push_back(vertex(7 * i * (long_len / std::max<std::int64_t>(
                                                   1, short_len))));
      for (std::int64_t i = 0; i < long_len; ++i) b.push_back(vertex(3 * i));
      std::sort(a.begin(), a.end());
      a.erase(std::unique(a.begin(), a.end()), a.end());
      const auto run = [&](std::size_t factor, const simd::simd_ops* ops) {
        return std::function<void()>([&, factor, ops] {
          std::int64_t acc = 0;
          for (std::int64_t r = 0; r < reps; ++r)
            acc += sorted_intersection_size(a, b, factor, ops);
          if (acc < 0) std::abort();
        });
      };
      const std::int64_t want = sorted_intersection_size(a, b, 0, kScalarOps);
      if (sorted_intersection_size(a, b, kGallopFactor, kScalarOps) != want ||
          sorted_intersection_size(a, b, 0, kVecOps) != want ||
          sorted_intersection_size(a, b, kGallopFactor, kVecOps) != want)
        std::abort();
      const auto t = floors(interleaved_samples({run(0, kScalarOps),
                                                 run(kGallopFactor, kScalarOps),
                                                 run(0, kVecOps)},
                                                rounds));
      xrows.push_back({name, std::int64_t(a.size()), long_len, reps,
                       t[0], t[1], t[2]});
    };
    xcase("skew_1_to_2", 4096, 8192);
    xcase("skew_1_to_64", 256, 16384);
    xcase("skew_1_to_1000", 64, 65536);
  }

  std::ostringstream js;
  js << "{\n"
     << "  " << bench::meta_json() << ",\n"
     << "  \"bench\": \"enum_kernel\",\n"
     << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ",\n"
     << "  \"cases\": [\n";
  bool first = true;
  bool gate_failed = false;
  for (const auto& r : results) {
    if (!first) js << ",\n";
    first = false;
    const double auto_vs_best = r.gate.ratio;
    // The enforced bar (auto <= 1.05x best fixed), with a 100 microsecond
    // absolute floor on the excess so timer granularity on sub-millisecond
    // cases cannot fake a regression.
    if (!smoke && (auto_vs_best - 1.05) * r.gate.best_fixed_median > 1e-4) {
      std::cerr << "auto_vs_best gate failed on case " << r.name
                << ": median paired auto / best fixed " << auto_vs_best
                << "x, best fixed median " << r.gate.best_fixed_median
                << "s\n";
      gate_failed = true;
    }
    js << "    {\"name\": \"" << r.name << "\", \"entry\": \"" << r.entry
       << "\", \"n\": " << r.n << ", \"edges\": " << r.edges
       << ", \"p\": " << r.p << ", \"cliques\": " << r.cliques
       << ", \"legacy_seconds\": " << r.legacy_seconds
       << ", \"scalar_seconds\": " << r.scalar_seconds
       << ", \"bitmap_scalar_seconds\": " << r.bitmap_scalar_seconds
       << ", \"bitmap_vector_seconds\": " << r.bitmap_vector_seconds
       << ", \"auto_seconds\": " << r.auto_seconds << ", \"speedup\": "
       << (r.scalar_seconds > 0 && r.legacy_seconds > 0
               ? r.legacy_seconds / r.scalar_seconds
               : 0.0)
       << ", \"bitmap_speedup\": "
       << (r.bitmap_scalar_seconds > 0
               ? r.scalar_seconds / r.bitmap_scalar_seconds
               : 0.0)
       << ", \"vector_speedup\": "
       << (r.bitmap_vector_seconds > 0
               ? r.bitmap_scalar_seconds / r.bitmap_vector_seconds
               : 0.0)
       << ", \"auto_vs_best\": " << auto_vs_best << "}";
  }
  js << "\n  ],\n"
     << "  \"intersection\": [\n";
  first = true;
  for (const auto& r : xrows) {
    if (!first) js << ",\n";
    first = false;
    js << "    {\"name\": \"" << r.name << "\", \"len_short\": "
       << r.len_short << ", \"len_long\": " << r.len_long
       << ", \"pairs\": " << r.pairs << ", \"merge_seconds\": "
       << r.merge_seconds << ", \"gallop_seconds\": " << r.gallop_seconds
       << ", \"vector_seconds\": " << r.vector_seconds
       << ", \"gallop_speedup\": "
       << (r.gallop_seconds > 0 ? r.merge_seconds / r.gallop_seconds : 0.0)
       << ", \"vector_speedup\": "
       << (r.vector_seconds > 0 ? r.merge_seconds / r.vector_seconds : 0.0)
       << "}";
  }
  js << "\n  ]\n}\n";
  const int emit_rc = dcl::bench::emit_json(out_path, js.str());
  return emit_rc != 0 ? emit_rc : (gate_failed ? 1 : 0);
}
