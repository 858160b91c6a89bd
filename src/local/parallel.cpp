#include "local/parallel.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "enumkernel/kernel.hpp"
#include "support/check.hpp"

namespace dcl::local {

// ------------------------------------------------------- parallel driver

namespace {

/// Runs fn(worker, arc_begin, arc_end) over the out-arcs of `roots`,
/// chunked `grain` arcs at a time over their concatenation, so a hub root
/// still splits across workers. Ranges of id-adjacent roots fuse into one;
/// no roots is the single range of every arc.
void for_each_root_chunk(
    const enumkernel::dag& d, std::span<const vertex> roots,
    thread_pool& pool, std::int64_t grain,
    const std::function<void(int, std::int64_t, std::int64_t)>& fn) {
  std::vector<std::int64_t> first_arc;  // where each fused range starts
  std::vector<std::int64_t> at = {0};   // its offset in the concatenation
  if (roots.empty()) {
    first_arc.push_back(0);
    at.push_back(d.num_arcs());
  }
  vertex prev = -1;
  std::int64_t last_end = -1;  // arc index one past the last range
  for (const vertex u : roots) {
    DCL_EXPECTS(u > prev && u < d.n,
                "root set must be ascending vertex ids of the DAG");
    prev = u;
    const std::int64_t lo = d.offsets[size_t(u)];
    const std::int64_t hi = d.offsets[size_t(u) + 1];
    if (lo == hi) continue;
    if (lo != last_end) {
      first_arc.push_back(lo);
      at.push_back(at.back());
    }
    at.back() += hi - lo;
    last_end = hi;
  }
  pool.for_each_chunk(
      at.back(), grain, [&](int w, std::int64_t begin, std::int64_t end) {
        auto i = std::size_t(std::upper_bound(at.begin(), at.end(), begin) -
                             at.begin() - 1);
        for (; begin < end; ++i) {
          const std::int64_t stop = std::min(end, at[i + 1]);
          const std::int64_t arc = first_arc[i] + (begin - at[i]);
          fn(w, arc, arc + (stop - begin));
          begin = stop;
        }
      });
}

}  // namespace

void list_cliques_parallel(const enumkernel::dag& d, int p,
                           thread_pool& pool, runtime::query_scratch& scratch,
                           std::int64_t grain, clique_collector& out,
                           parallel_listing_stats* stats,
                           enumkernel::exec_config exec,
                           std::span<const vertex> roots) {
  DCL_EXPECTS(p >= 3, "parallel lister handles p >= 3");
  DCL_EXPECTS(out.arity() == p, "collector arity must equal p");
  const int t = pool.size();
  scratch.ensure_workers(t);
  // The private output buffers live in the run's leased per-slot arenas
  // (no tasks are in flight here, so touching every slot from the caller
  // is race-free): capacity survives across runs on the same bundle.
  for (int w = 0; w < t; ++w)
    scratch.arena(w).get<engine_worker_scratch>().out.clear();
  std::vector<std::int64_t> arcs(static_cast<size_t>(t), 0);
  std::vector<std::int64_t> found(static_cast<size_t>(t), 0);

  for_each_root_chunk(
      d, roots, pool, grain,
      [&](int w, std::int64_t begin, std::int64_t end) {
        auto& ws = scratch.arena(w).get<engine_worker_scratch>();
        enumkernel::arc_enumerator en(d, p, ws.enum_ws, exec);
        auto& buf = ws.out;
        found[size_t(w)] +=
            en.list_range(begin, end, [&](std::span<const vertex> c) {
              buf.insert(buf.end(), c.begin(), c.end());
            });
        arcs[size_t(w)] += end - begin;
      });

  // Deterministic merge: concatenation order is fixed (worker index), and
  // the collector's finalize() sorts canonically, so scheduling cannot leak
  // into the result.
  for (int w = 0; w < t; ++w)
    out.merge_buffer(scratch.arena(w).get<engine_worker_scratch>().out);
  if (stats) {
    stats->threads = t;
    stats->roots = 0;
    for (const std::int64_t a : arcs) stats->roots += a;
    stats->per_thread_roots = std::move(arcs);
    stats->per_thread_cliques = std::move(found);
  }
}

std::int64_t count_cliques_parallel(const enumkernel::dag& d, int p,
                                    thread_pool& pool,
                                    runtime::query_scratch& scratch,
                                    std::int64_t grain,
                                    parallel_listing_stats* stats,
                                    enumkernel::exec_config exec,
                                    std::span<const vertex> roots) {
  DCL_EXPECTS(p >= 3, "parallel counter handles p >= 3");
  const int t = pool.size();
  scratch.ensure_workers(t);
  std::vector<std::int64_t> arcs(static_cast<size_t>(t), 0);
  std::vector<std::int64_t> found(static_cast<size_t>(t), 0);

  for_each_root_chunk(
      d, roots, pool, grain,
      [&](int w, std::int64_t begin, std::int64_t end) {
        auto& ws = scratch.arena(w).get<engine_worker_scratch>();
        enumkernel::arc_enumerator en(d, p, ws.enum_ws, exec);
        found[size_t(w)] += en.count_range(begin, end);
        arcs[size_t(w)] += end - begin;
      });

  std::int64_t total = 0;
  for (const std::int64_t c : found) total += c;
  if (stats) {
    stats->threads = t;
    stats->roots = 0;
    for (const std::int64_t a : arcs) stats->roots += a;
    stats->per_thread_roots = std::move(arcs);
    stats->per_thread_cliques = std::move(found);
  }
  return total;
}

}  // namespace dcl::local
