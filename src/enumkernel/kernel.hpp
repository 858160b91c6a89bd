#pragma once
// The shared clique-enumeration kernel: one arena-backed kClist pipeline
// (DAG orientation -> per-arc egonets -> iterative shrink-and-restore DFS)
// behind every enumerator in the repo — the CONGEST cluster listers, the
// shared-memory local engine, the baselines, and the graph-layer adapters
// in graph/clique_enum.hpp.
//
// Design contract (DESIGN.md §7):
//   * enum_scratch owns every buffer the pipeline touches. It is default-
//     constructed (so runtime::scratch_arena::get<enum_scratch>() works),
//     grows to the largest problem it has seen, and is reused across calls
//     — repeated enumerations on a warm scratch are allocation-free.
//   * Sinks are template parameters, never std::function: the hot loop
//     inlines the emission. A sink receives each p-clique exactly once as
//     an ascending std::span<const vertex> valid only during the call.
//   * Determinism: the DAG orientation, the egonet member order, and the
//     DFS candidate order are all id/rank-deterministic, so the emission
//     sequence is a pure function of (input, p, policy) — independent of
//     scratch history, thread placement, or allocator state.
//   * Kernel entry points are not reentrant on one scratch: a sink must
//     not call back into the kernel with the same enum_scratch.
//
// Iterative DFS core loop after Danisch et al. (WWW'18): rooted at a DAG
// arc (u, v), every p-clique whose two lowest-rank vertices are {u, v}
// corresponds to a (p-2)-clique of the egonet on N+(u) ∩ N+(v); the
// enumerator walks those with an explicit per-level stack — no recursion,
// no allocation after warm-up — using the label/degree shrink-and-restore
// discipline: descending a level relabels the chosen vertex's live
// neighbors and compacts each of their adjacency prefixes, returning
// restores both in O(|sub-egonet|).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "enumkernel/egonet.hpp"
#include "enumkernel/limits.hpp"
#include "enumkernel/orient.hpp"
#include "graph/clique_enum.hpp"
#include "support/check.hpp"
#include "support/simd.hpp"

namespace dcl::enumkernel {

// kernel_mode (declared in limits.hpp) semantics: the level descent runs
// either on the scalar adjacency-compaction path (shrink-and-restore over
// the egonet CSR) or on dense adjacency bitmaps — one 64-bit row per
// in-egonet vertex, candidate sets per level as bitmaps, descent as a
// word-parallel AND, counting as popcount, listing as bit-scan. The
// bitmap path is the classic kClist accelerant for dense egonets; sparse
// egonets stay on the scalar path, whose cost tracks the (small) live
// degree sums instead of n/64 words per step.
//   auto_select — per-egonet choice via bitmap_preferred() (the default);
//   scalar      — always the compaction path (pre-PR-7 behavior);
//   bitmap      — always the bitmap path (p == 3 egonets have no level
//                 descent, so all modes coincide there).
// Outputs are identical across modes: every kernel emits each clique
// exactly once as the same ascending tuple, so normalized clique sets,
// stream batches, counts, and CONGEST reports are bit-identical for every
// mode (tested).

/// Tuning constants behind kernel_mode::auto_select (see bench_enum_kernel
/// and DESIGN.md §11). Bitmap rows cost one clear+scatter of n·⌈n/64⌉
/// words per egonet, and each descent costs ⌈n/64⌉ words regardless of
/// degree — worth it once the egonet's arc density clears ~1/8, i.e. the
/// average live degree outruns the word count by ~4x, AND the descent is
/// deep enough to re-read the rows it built: at depth 2 (p == 4) the
/// traversal is a single base-level scan, so the row build never
/// amortizes and the scalar path wins on every benched case.
///
/// Re-validated under the vector tier (PR 9, AVX2, gnp(200, d) sweeps with
/// both kernels pinned to simd_mode::avx2): the crossovers do not move.
/// At p = 5/6 the bitmap-over-scalar ratio sits at 0.95–1.05 through
/// d = 0.09–0.25 (parity around the divisor-8 boundary, exactly as on the
/// scalar tier) and drops to 0.72 by d = 0.4; at p = 4 bitmap still loses
/// 1.04–1.15x on every case up to gnp(600, 0.7) because egonet-build label
/// lookups, which no tier vectorizes, dominate depth-2 runs; and bitmap is
/// already at parity or ahead down to 24-vertex graphs, so the n >= 8 floor
/// stays conservative. Vector lanes widen the bitmap path's win where it
/// already won (up to 2.15x at 4-word rows) without shifting where it
/// starts winning, so all four constants are unchanged from PR 7.
inline constexpr std::int32_t kBitmapMinVertices = 8;
inline constexpr std::int32_t kBitmapMaxVertices = 4096;  ///< row-memory cap
inline constexpr std::int64_t kBitmapDensityDivisor = 8;
inline constexpr std::int32_t kBitmapMinDepth = 3;        ///< p >= 5

/// The auto_select heuristic: use bitmaps for an egonet of `n` members and
/// `arcs` within-egonet DAG arcs, descended `depth` = p - 2 levels, when
/// the egonet is dense enough that word-parallel steps beat
/// degree-proportional ones and deep enough to amortize the row build.
/// Pure function of (n, arcs, depth) — auto_select stays deterministic.
inline bool bitmap_preferred(std::int32_t n, std::int64_t arcs,
                             std::int32_t depth) {
  if (depth < kBitmapMinDepth) return false;
  if (n < kBitmapMinVertices || n > kBitmapMaxVertices) return false;
  return arcs * kBitmapDensityDivisor >= std::int64_t(n) * (n - 1) / 2;
}

/// Reusable workspace for every kernel entry point. One per worker (keyed
/// in its scratch_arena, usually embedded in a call site's scratch struct);
/// never shared between threads.
struct enum_scratch {
  // Orientation (graph and edge-list entries both orient into `d`).
  orient_scratch orient_ws;
  dag d;

  // Enumerator state: per-root egonet + per-level DFS stack.
  egonet_builder builder;
  egonet ego;
  std::vector<std::vector<std::int32_t>> cand;  ///< candidates per level
  std::vector<std::size_t> pos;                 ///< loop cursor per level
  std::vector<std::int32_t> prefix;             ///< chosen local ids

  // Bitmap path state (kernel_mode::bitmap, or auto_select on a dense
  // egonet): adjacency rows, per-level candidate masks, per-level bit-scan
  // cursors. All grow to the largest egonet seen and are reused — warm
  // bitmap runs are allocation-free exactly like the scalar path.
  std::vector<std::uint64_t> bit_rows;   ///< n rows of ⌈n/64⌉ words each
  std::vector<std::uint64_t> bit_masks;  ///< (top+1) × ⌈n/64⌉ live masks
  std::vector<std::int32_t> bit_word;    ///< per-level cursor: word index
  std::vector<std::uint64_t> bit_rem;    ///< per-level cursor: unread bits

  // Edge-list entry: canonicalized edges, dense remap, local CSR.
  edge_list canon;                     ///< deduped edges, local ids
  std::vector<vertex> members;         ///< local id -> caller vertex id
  std::vector<std::int64_t> csr_offsets;
  std::vector<vertex> csr_adj;
  std::vector<std::int64_t> csr_cursor;
};

/// Per-arc enumerator bound to one DAG and one scratch. Constructing a
/// binding is cheap (a few resizes on a warm scratch); the parallel local
/// engine builds one per chunk against its worker's arena scratch.
class arc_enumerator {
 public:
  /// p in [3, kMaxCliqueArity]; `d` and `ws` must outlive the binding.
  /// `exec.kernel` picks the level-descent strategy (auto_select decides
  /// per egonet); `exec.ops` is the vector backend for the bitmap counting
  /// base (the scalar tier keeps the fully inlined word loops, so forcing
  /// scalar runs no indirect call at all). Results are identical for every
  /// config.
  arc_enumerator(const dag& d, int p, enum_scratch& ws, exec_config exec = {})
      : dag_(d),
        p_(p),
        top_(p - 2),
        mode_(exec.kernel),
        vec_(exec.ops->tier == simd_mode::scalar ? nullptr : exec.ops),
        ws_(ws) {
    DCL_EXPECTS(p >= 3 && p <= kMaxCliqueArity,
                "arc_enumerator supports p in [3, kMaxCliqueArity]");
    ws.builder.ensure(d.n);
    if (std::int32_t(ws.cand.size()) < top_ + 1)
      ws.cand.resize(size_t(top_) + 1);
    ws.pos.assign(size_t(top_) + 1, 0);
    ws.bit_word.assign(size_t(top_) + 1, 0);
    ws.bit_rem.assign(size_t(top_) + 1, 0);
    ws.prefix.clear();
    ws.prefix.reserve(size_t(top_));
  }

  int arity() const { return p_; }

  /// Calls sink(clique) for every p-clique rooted at arc `arc_index`
  /// (index into the flat arc order: source ascending, targets ascending
  /// within a source); `clique` is an ascending p-tuple of DAG vertex ids,
  /// valid only during the sink call. Returns the number of cliques.
  template <typename Sink>
  std::int64_t list_arc(std::int64_t arc_index, Sink&& sink) {
    vertex u, v;
    arc_endpoints(arc_index, &u, &v);
    return list_root(u, v, sink);
  }

  /// Chunk path used by parallel drivers: every p-clique rooted at arcs
  /// [begin, end), resolving each arc's source incrementally (one binary
  /// search per chunk, not per arc). Returns cliques emitted.
  template <typename Sink>
  std::int64_t list_range(std::int64_t begin, std::int64_t end, Sink&& sink) {
    if (begin >= end) return 0;
    DCL_EXPECTS(begin >= 0 && end <= dag_.num_arcs(),
                "arc range out of range");
    vertex u = arc_source(begin);
    std::int64_t total = 0;
    for (std::int64_t arc = begin; arc < end; ++arc) {
      while (dag_.offsets[size_t(u) + 1] <= arc) ++u;
      total += list_root(u, dag_.adj[size_t(arc)], sink);
    }
    return total;
  }

  /// Counting-only variants — same traversal, no tuple assembly. On the
  /// bitmap path the base level degenerates to pure popcounts.
  std::int64_t count_arc(std::int64_t arc_index) {
    vertex u, v;
    arc_endpoints(arc_index, &u, &v);
    return run<true>(u, v, [](const std::int32_t*, int) {});
  }

  std::int64_t count_range(std::int64_t begin, std::int64_t end) {
    if (begin >= end) return 0;
    DCL_EXPECTS(begin >= 0 && end <= dag_.num_arcs(),
                "arc range out of range");
    vertex u = arc_source(begin);
    std::int64_t total = 0;
    for (std::int64_t arc = begin; arc < end; ++arc) {
      while (dag_.offsets[size_t(u) + 1] <= arc) ++u;
      total += run<true>(u, dag_.adj[size_t(arc)],
                         [](const std::int32_t*, int) {});
    }
    return total;
  }

 private:
  vertex arc_source(std::int64_t arc_index) const {
    const auto it = std::upper_bound(dag_.offsets.begin(),
                                     dag_.offsets.end(), arc_index);
    return vertex(it - dag_.offsets.begin() - 1);
  }

  void arc_endpoints(std::int64_t arc_index, vertex* u, vertex* v) const {
    DCL_EXPECTS(arc_index >= 0 && arc_index < dag_.num_arcs(),
                "arc index out of range");
    *u = arc_source(arc_index);
    *v = dag_.adj[size_t(arc_index)];
  }

  /// Assembles the full global-id tuple around each emitted egonet clique.
  template <typename Sink>
  std::int64_t list_root(vertex u, vertex v, Sink& sink) {
    return run(u, v, [&](const std::int32_t* extra, int n_extra) {
      vertex tuple[kMaxCliqueArity];
      int k = 0;
      tuple[k++] = u;
      tuple[k++] = v;
      for (const std::int32_t a : ws_.prefix)
        tuple[k++] = ws_.ego.members[size_t(a)];
      for (int i = 0; i < n_extra; ++i)
        tuple[k++] = ws_.ego.members[size_t(extra[i])];
      DCL_ENSURE(k == p_, "emitted tuple arity mismatch");
      std::sort(tuple, tuple + k);
      sink(std::span<const vertex>(tuple, size_t(k)));
    });
  }

  /// The iterative DFS. Emit receives (extra local ids, count) completing
  /// the clique {u, v} ∪ members[prefix] ∪ members[extra]. CountOnly skips
  /// per-clique bit iteration on the bitmap path (popcount-only base).
  template <bool CountOnly = false, typename Emit>
  std::int64_t run(vertex u, vertex v, Emit&& emit) {
    ws_.builder.build(dag_, u, v, top_, ws_.ego);
    egonet& ego = ws_.ego;
    if (ego.n == 0) return 0;

    if (top_ == 1) {  // p == 3: every member closes a triangle with (u, v).
      for (std::int32_t w = 0; w < ego.n; ++w) {
        const std::int32_t extra[1] = {w};
        emit(extra, 1);
      }
      return ego.n;
    }

    if (mode_ != kernel_mode::scalar) {
      const std::int64_t arcs = std::int64_t(ego.offsets[size_t(ego.n)]);
      if (mode_ == kernel_mode::bitmap ||
          bitmap_preferred(ego.n, arcs, top_))
        return run_bitmap<CountOnly>(emit);
    }

    const std::int32_t n = ego.n;
    auto deg = [&](std::int32_t level, std::int32_t x) -> std::int32_t& {
      return ego.deg[size_t(level) * size_t(n) + size_t(x)];
    };

    std::int64_t total = 0;
    auto& top_cands = ws_.cand[size_t(top_)];
    top_cands.resize(size_t(n));
    for (std::int32_t i = 0; i < n; ++i) top_cands[size_t(i)] = i;
    ws_.prefix.clear();
    std::int32_t l = top_;
    ws_.pos[size_t(l)] = 0;

    for (;;) {
      bool frame_done = false;
      if (l == 2) {
        // Base: every live arc (a -> w) inside the label-2 prefix closes one
        // clique with the roots and the DFS prefix.
        for (const std::int32_t a : ws_.cand[2]) {
          const std::int32_t off = std::int32_t(ego.offsets[size_t(a)]);
          const std::int32_t da = deg(2, a);
          for (std::int32_t j = 0; j < da; ++j) {
            const std::int32_t extra[2] = {a, ego.adj[size_t(off + j)]};
            emit(extra, 2);
          }
          total += da;
        }
        frame_done = true;
      } else if (ws_.pos[size_t(l)] == ws_.cand[size_t(l)].size()) {
        frame_done = true;
      }

      if (frame_done) {
        if (l == top_) break;
        ++l;
        // Undo the descent: the child candidates go back to being live at
        // this level; their compacted degrees at l-1 simply become stale.
        for (const std::int32_t w : ws_.cand[size_t(l) - 1])
          ego.label[size_t(w)] = l;
        ws_.prefix.pop_back();
        continue;
      }

      const std::int32_t a = ws_.cand[size_t(l)][ws_.pos[size_t(l)]++];
      auto& child = ws_.cand[size_t(l) - 1];
      child.clear();
      const std::int32_t off = std::int32_t(ego.offsets[size_t(a)]);
      const std::int32_t da = deg(l, a);
      for (std::int32_t j = 0; j < da; ++j) {
        const std::int32_t w = ego.adj[size_t(off + j)];
        ego.label[size_t(w)] = l - 1;
        child.push_back(w);
      }
      if (child.empty()) continue;
      // Compact each child's live adjacency into a prefix for the next
      // level.
      for (const std::int32_t w : child) {
        std::int32_t d2 = 0;
        const std::int32_t offw = std::int32_t(ego.offsets[size_t(w)]);
        const std::int32_t dl = deg(l, w);
        for (std::int32_t j = 0; j < dl; ++j) {
          const std::int32_t x = ego.adj[size_t(offw + j)];
          if (ego.label[size_t(x)] == l - 1)
            std::swap(ego.adj[size_t(offw + j)],
                      ego.adj[size_t(offw + d2++)]);
        }
        deg(l - 1, w) = d2;
      }
      ws_.prefix.push_back(a);
      --l;
      ws_.pos[size_t(l)] = 0;
    }
    return total;
  }

  /// Bitmap twin of the scalar descent (DESIGN.md §11). The egonet's
  /// directed adjacency becomes an n × ⌈n/64⌉ bit matrix; the candidate
  /// set at each level is one bitmap, a descent is mask[l-1] = mask[l] &
  /// row[a], and the base level is a popcount (counting) or bit-scan
  /// (listing) over row[a] & mask[2]. No shrink/restore bookkeeping: lower
  /// levels simply overwrite their mask, so returning from a branch is
  /// free. Candidates are consumed in ascending local-id order, making the
  /// emission sequence a pure function of (egonet, p) — a (deterministic)
  /// different order than the scalar path's history-dependent adjacency
  /// order; all consumers normalize, so outputs match across modes.
  template <bool CountOnly, typename Emit>
  std::int64_t run_bitmap(Emit& emit) {
    egonet& ego = ws_.ego;
    const std::int32_t n = ego.n;
    const std::int32_t words = (n + 63) >> 6;

    // Rows, rebuilt per egonet from the CSR: clear + scatter.
    auto& rows = ws_.bit_rows;
    rows.assign(size_t(n) * size_t(words), 0);
    for (std::int32_t a = 0; a < n; ++a) {
      std::uint64_t* row = rows.data() + size_t(a) * size_t(words);
      const std::int64_t end = ego.offsets[size_t(a) + 1];
      for (std::int64_t j = ego.offsets[size_t(a)]; j < end; ++j) {
        const std::int32_t w = ego.adj[size_t(j)];
        row[w >> 6] |= std::uint64_t(1) << (w & 63);
      }
    }

    auto& masks = ws_.bit_masks;
    masks.assign(size_t(top_ + 1) * size_t(words), 0);
    std::uint64_t* top_mask = masks.data() + size_t(top_) * size_t(words);
    for (std::int32_t wi = 0; wi < words; ++wi)
      top_mask[wi] = ~std::uint64_t(0);
    if (const std::int32_t tail = n & 63; tail != 0)
      top_mask[words - 1] = (std::uint64_t(1) << tail) - 1;

    ws_.prefix.clear();
    std::int64_t total = 0;
    std::int32_t l = top_;
    ws_.bit_word[size_t(l)] = 0;
    ws_.bit_rem[size_t(l)] = top_mask[0];

    for (;;) {
      const std::uint64_t* mask_l =
          masks.data() + size_t(l) * size_t(words);
      bool frame_done = false;
      if (l == 2) {
        // Base: every live arc (a -> w) inside the level-2 candidate set
        // closes one clique with the roots and the DFS prefix. The vector
        // tier runs the whole counting sweep as one coarse backend call
        // (per-word dispatch would drown 1-2-word egonets in call
        // overhead). Listing, and every descent AND below, stays on the
        // inline word loops on all tiers: most egonets are 1-2 words wide,
        // where a per-row vector call costs more than the loop it
        // replaces (edges_gnp_p5 read vector_speedup 0.93-1.01 with it).
        if (vec_ != nullptr && CountOnly) {
          total += vec_->bitmap_base_count(rows.data(), words, mask_l);
        } else {
          for (std::int32_t wi = 0; wi < words; ++wi) {
            std::uint64_t bits = mask_l[wi];
            while (bits != 0) {
              const std::int32_t a = (wi << 6) + std::countr_zero(bits);
              bits &= bits - 1;
              const std::uint64_t* row =
                  rows.data() + size_t(a) * size_t(words);
              for (std::int32_t wj = 0; wj < words; ++wj) {
                std::uint64_t x = row[wj] & mask_l[wj];
                total += std::popcount(x);
                if constexpr (!CountOnly) {
                  while (x != 0) {
                    const std::int32_t w = (wj << 6) + std::countr_zero(x);
                    x &= x - 1;
                    const std::int32_t extra[2] = {a, w};
                    emit(extra, 2);
                  }
                }
              }
            }
          }
        }
        frame_done = true;
      } else {
        std::int32_t wi = ws_.bit_word[size_t(l)];
        std::uint64_t rem = ws_.bit_rem[size_t(l)];
        while (rem == 0 && ++wi < words) rem = mask_l[wi];
        if (wi >= words) {
          frame_done = true;
        } else {
          const std::int32_t a = (wi << 6) + std::countr_zero(rem);
          ws_.bit_word[size_t(l)] = wi;
          ws_.bit_rem[size_t(l)] = rem & (rem - 1);
          // Descend: the child candidate set is one AND away. Lower levels
          // own distinct mask storage, so nothing needs restoring later.
          const std::uint64_t* row =
              rows.data() + size_t(a) * size_t(words);
          std::uint64_t* child =
              masks.data() + size_t(l - 1) * size_t(words);
          std::uint64_t any = 0;
          for (std::int32_t wj = 0; wj < words; ++wj)
            any |= (child[wj] = mask_l[wj] & row[wj]);
          if (any == 0) continue;
          ws_.prefix.push_back(a);
          --l;
          ws_.bit_word[size_t(l)] = 0;
          ws_.bit_rem[size_t(l)] = child[0];
          continue;
        }
      }
      if (frame_done) {
        if (l == top_) break;
        ++l;
        ws_.prefix.pop_back();
      }
    }
    return total;
  }

  const dag& dag_;
  const int p_;
  const std::int32_t top_;  ///< egonet levels = p - 2
  const kernel_mode mode_;
  /// Vector backend, or nullptr for the scalar tier (the inline word
  /// loops — no indirect calls on the scalar path at all).
  const simd::simd_ops* const vec_;
  enum_scratch& ws_;
};

namespace detail {

/// Canonicalizes `edges` into ws.canon (self-loops dropped, duplicates
/// merged) and remaps endpoints to dense local ids 0..n_local-1 via
/// ws.members (ascending, so the remap is monotone). Returns n_local.
vertex remap_edges_dense(std::span<const edge> edges, enum_scratch& ws);

/// Builds the local CSR over ws.canon (which must hold local-id edges) into
/// ws.csr_offsets / ws.csr_adj. Adjacency comes out ascending because the
/// canonical edge order is lexicographic.
csr_view build_local_csr(enum_scratch& ws, vertex n_local);

}  // namespace detail

/// Enumerates every p-clique of `g` (p in [2, kMaxCliqueArity]), calling
/// sink(clique) exactly once per clique with an ascending p-tuple span
/// valid only during the call. Returns the clique count. Deterministic for
/// a fixed (g, p, policy, exec) regardless of scratch history; the clique
/// set is identical for every exec config.
template <typename Sink>
std::int64_t enumerate_cliques(
    const graph& g, int p, enum_scratch& ws, Sink&& sink,
    orientation_policy policy = orientation_policy::degeneracy,
    exec_config exec = {}) {
  DCL_EXPECTS(p >= 2 && p <= kMaxCliqueArity,
              "clique arity must lie in [2, kMaxCliqueArity]");
  if (p == 2) {
    for (const auto& e : g.edges()) {
      const vertex tuple[2] = {e.u, e.v};
      sink(std::span<const vertex>(tuple, 2));
    }
    return g.num_edges();
  }
  orient_into(g.view(), policy, ws.orient_ws, ws.d);
  arc_enumerator en(ws.d, p, ws, exec);
  return en.list_range(0, ws.d.num_arcs(), sink);
}

/// Counting-only twin of enumerate_cliques — no tuple assembly at all.
std::int64_t count_cliques(
    const graph& g, int p, enum_scratch& ws,
    orientation_policy policy = orientation_policy::degeneracy,
    exec_config exec = {});

/// Enumerates every p-clique of an explicit edge set (not a full graph) —
/// the cluster-local hot path: every CONGEST cluster finishes by listing
/// the cliques of the edge set it learned. The edge list may contain
/// duplicates and self-loops; vertex ids are arbitrary non-negative values
/// and are remapped densely internally (no throwaway parent graph), so
/// sparse billion-scale ids cost nothing. Sink contract and determinism as
/// in enumerate_cliques; emitted tuples use the caller's original ids.
/// Accepts any contiguous edge range (an edge_list converts implicitly),
/// so a slice of a larger concatenated buffer enumerates without a copy.
template <typename Sink>
std::int64_t enumerate_cliques_in_edges(std::span<const edge> edges, int p,
                                        enum_scratch& ws, Sink&& sink,
                                        exec_config exec = {}) {
  DCL_EXPECTS(p >= 2 && p <= kMaxCliqueArity,
              "clique arity must lie in [2, kMaxCliqueArity]");
  const vertex n_local = detail::remap_edges_dense(edges, ws);
  if (n_local == 0) return 0;
  if (p == 2) {
    for (const auto& e : ws.canon) {
      const vertex tuple[2] = {ws.members[size_t(e.u)],
                               ws.members[size_t(e.v)]};
      sink(std::span<const vertex>(tuple, 2));
    }
    return std::int64_t(ws.canon.size());
  }
  const csr_view local = detail::build_local_csr(ws, n_local);
  orient_into(local, orientation_policy::degeneracy, ws.orient_ws, ws.d);
  arc_enumerator en(ws.d, p, ws, exec);
  return en.list_range(
      0, ws.d.num_arcs(), [&](std::span<const vertex> local_clique) {
        // ws.members is ascending, so the monotone remap keeps the tuple
        // ascending.
        vertex tuple[kMaxCliqueArity];
        for (std::size_t i = 0; i < local_clique.size(); ++i)
          tuple[i] = ws.members[size_t(local_clique[i])];
        sink(std::span<const vertex>(tuple, local_clique.size()));
      });
}

/// One tenant's slice of a concatenated multi-tenant edge buffer: the
/// half-open range [begin, end) into the `edges` span handed to
/// enumerate_cliques_in_edge_segments.
struct edge_segment {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// Admission-batched sweep over owner-tagged arc ranges (DESIGN.md §12):
/// `edges` concatenates several tenants' edge sets back to back and
/// segments[i] delimits tenant i's slice. The sweep walks the segments in
/// order through ONE warm scratch/binding, enumerating each slice exactly
/// as a solo enumerate_cliques_in_edges(slice) call would — identical
/// canonicalization, dense remap, orientation, and emission sequence — and
/// calls sink(owner_index, clique) per clique. Per-tenant output is
/// therefore bit-identical to that tenant's solo run: segments never see
/// each other's edges, so coalescing can't invent cross-tenant cliques.
/// Returns the total clique count across segments.
template <typename Sink>
std::int64_t enumerate_cliques_in_edge_segments(
    std::span<const edge> edges, std::span<const edge_segment> segments,
    int p, enum_scratch& ws, Sink&& sink, exec_config exec = {}) {
  std::int64_t total = 0;
  for (std::size_t owner = 0; owner < segments.size(); ++owner) {
    const edge_segment& s = segments[owner];
    DCL_EXPECTS(s.begin >= 0 && s.begin <= s.end &&
                    s.end <= std::int64_t(edges.size()),
                "edge segment out of range");
    total += enumerate_cliques_in_edges(
        edges.subspan(size_t(s.begin), size_t(s.end - s.begin)), p, ws,
        [&](std::span<const vertex> c) { sink(owner, c); }, exec);
  }
  return total;
}

/// Convenience wrapper collecting the edge-set cliques into a normalized
/// clique_set (what the CONGEST listers historically returned).
clique_set cliques_in_edge_set(const edge_list& edges, int p,
                               enum_scratch& ws, exec_config exec = {});

}  // namespace dcl::enumkernel
