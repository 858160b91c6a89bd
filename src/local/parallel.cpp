#include "local/parallel.hpp"

#include <utility>

#include "core/listing/collector.hpp"
#include "enumkernel/kernel.hpp"
#include "support/check.hpp"

namespace dcl::local {

// ------------------------------------------------------- parallel driver

clique_set list_cliques_parallel(const enumkernel::dag& d, int p,
                                 thread_pool& pool,
                                 runtime::query_scratch& scratch,
                                 std::int64_t grain,
                                 parallel_listing_stats* stats,
                                 enumkernel::exec_config exec) {
  DCL_EXPECTS(p >= 3, "parallel lister handles p >= 3");
  const int t = pool.size();
  scratch.ensure_workers(t);
  // The private output buffers live in the run's leased per-slot arenas
  // (no tasks are in flight here, so touching every slot from the caller
  // is race-free): capacity survives across runs on the same bundle.
  for (int w = 0; w < t; ++w)
    scratch.arena(w).get<engine_worker_scratch>().out.clear();
  std::vector<std::int64_t> roots(static_cast<size_t>(t), 0);
  std::vector<std::int64_t> found(static_cast<size_t>(t), 0);

  pool.for_each_chunk(
      d.num_arcs(), grain,
      [&](int w, std::int64_t begin, std::int64_t end) {
        auto& ws = scratch.arena(w).get<engine_worker_scratch>();
        enumkernel::arc_enumerator en(d, p, ws.enum_ws, exec);
        auto& buf = ws.out;
        found[size_t(w)] +=
            en.list_range(begin, end, [&](std::span<const vertex> c) {
              buf.insert(buf.end(), c.begin(), c.end());
            });
        roots[size_t(w)] += end - begin;
      });

  // Deterministic merge: concatenation order is fixed (worker index), and
  // the collector's finalize() sorts canonically, so scheduling cannot leak
  // into the result.
  clique_collector collector(p);
  for (int w = 0; w < t; ++w)
    collector.merge_buffer(scratch.arena(w).get<engine_worker_scratch>().out,
                           /*tuples_presorted=*/true);
  if (stats) {
    stats->threads = t;
    stats->roots = d.num_arcs();
    stats->per_thread_roots = std::move(roots);
    stats->per_thread_cliques = std::move(found);
  }
  clique_set out = collector.finalize();
  DCL_ENSURE(collector.duplicates() == 0,
             "kClist must emit every clique exactly once");
  return out;
}

std::int64_t count_cliques_parallel(const enumkernel::dag& d, int p,
                                    thread_pool& pool,
                                    runtime::query_scratch& scratch,
                                    std::int64_t grain,
                                    parallel_listing_stats* stats,
                                    enumkernel::exec_config exec) {
  DCL_EXPECTS(p >= 3, "parallel counter handles p >= 3");
  const int t = pool.size();
  scratch.ensure_workers(t);
  std::vector<std::int64_t> roots(static_cast<size_t>(t), 0);
  std::vector<std::int64_t> found(static_cast<size_t>(t), 0);

  pool.for_each_chunk(
      d.num_arcs(), grain,
      [&](int w, std::int64_t begin, std::int64_t end) {
        auto& ws = scratch.arena(w).get<engine_worker_scratch>();
        enumkernel::arc_enumerator en(d, p, ws.enum_ws, exec);
        found[size_t(w)] += en.count_range(begin, end);
        roots[size_t(w)] += end - begin;
      });

  std::int64_t total = 0;
  for (const std::int64_t c : found) total += c;
  if (stats) {
    stats->threads = t;
    stats->roots = d.num_arcs();
    stats->per_thread_roots = std::move(roots);
    stats->per_thread_cliques = std::move(found);
  }
  return total;
}

}  // namespace dcl::local
