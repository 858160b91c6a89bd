#pragma once
// The shared-memory kClist engine (listing_engine::local_kclist): exact
// k-clique listing and counting over a DAG oriented once by
// enumkernel::orient. listing_session binds the DAG and a pool and calls
// these two functions per query; tests and benches that measure the engine
// alone call them directly:
//
//   const auto dag = dcl::enumkernel::orient(
//       g, dcl::enumkernel::orientation_policy::degeneracy);
//   dcl::local::thread_pool pool(8);
//   dcl::runtime::query_scratch scratch;
//   auto n = dcl::local::count_cliques_parallel(dag, 4, pool, scratch,
//                                               dcl::local::kDefaultGrain);
//
// Edge-parallel driver. Work units are DAG arcs (each arc roots one
// egonet); the shared runtime worker pool (src/runtime/) pulls
// dynamically-sized chunks off an atomic cursor, so skewed roots (hubs in
// power-law graphs) cannot serialize the run. Each worker enumerates
// through the kernel (src/enumkernel/) with the enum_scratch held in its
// arena, listing into a private flat buffer; buffers are appended to the
// caller's clique_collector in worker-index order, and its finalize() sorts
// canonically — the final clique_set is identical for every thread count
// and schedule.

#include <cstdint>
#include <span>
#include <vector>

#include "core/listing/collector.hpp"
#include "enumkernel/kernel.hpp"
#include "enumkernel/orient.hpp"
#include "runtime/scratch.hpp"
#include "runtime/thread_pool.hpp"

namespace dcl::local {

/// The engine runs on the shared runtime pool; the old src/local-owned pool
/// class moved to src/runtime/thread_pool.hpp unchanged in semantics.
using thread_pool = runtime::thread_pool;

/// Per-worker engine workspace, keyed per worker slot in the run's
/// query_scratch bundle: the kernel scratch (egonet/DFS buffers) and the
/// private flat output buffer of the listing path both warm up once and
/// are reused by every chunk — and by every later run on the same bundle,
/// which is what makes a listing_session's repeated queries
/// allocation-free after the first (the session leases one bundle per
/// in-flight query, so concurrent queries never share one).
struct engine_worker_scratch {
  enumkernel::enum_scratch enum_ws;
  std::vector<vertex> out;
};

/// DAG arcs per dynamically-scheduled chunk: what listing_session and a
/// shard worker's local_shard pass as `grain` below.
inline constexpr std::int64_t kDefaultGrain = 128;

/// Per-run accounting from the parallel driver.
struct parallel_listing_stats {
  int threads = 0;
  std::int64_t roots = 0;                     ///< DAG arcs processed
  std::vector<std::int64_t> per_thread_roots; ///< load-balance diagnostic
  std::vector<std::int64_t> per_thread_cliques;
};

/// Lists every p-clique of the DAG's underlying graph (p >= 3), appending
/// each worker's ascending tuples to `out` (arity p, not yet finalized) in
/// worker-index order. kClist emits every clique exactly once, so the
/// caller's finalize() must report 0 duplicates; the finalized set is
/// deterministic across thread counts, schedules, and exec configs. The
/// session finishes `out` through finish_query, a shard worker finalizes
/// it into its canonical run. `scratch` owns all per-run mutable
/// state (one engine_worker_scratch per worker slot); the DAG and pool are
/// read strictly shared, so concurrent runs against one DAG are safe as
/// long as each holds its own scratch bundle and pool job slot.
///
/// `roots`, when non-empty, restricts the run to the cliques whose
/// lowest-rank vertex is in the set (ascending DAG vertex ids): chunks stay
/// arc-granular over the concatenated out-arc ranges of those roots, so
/// the results over any split of the vertices into root sets partition the
/// full result. Empty means every arc. A shard worker roots the run at the
/// vertices it owns (DESIGN.md §14).
void list_cliques_parallel(
    const enumkernel::dag& d, int p, thread_pool& pool,
    runtime::query_scratch& scratch, std::int64_t grain,
    clique_collector& out, parallel_listing_stats* stats = nullptr,
    enumkernel::exec_config exec = {},
    std::span<const vertex> roots = {});

/// Counting-only twin of list_cliques_parallel — no buffers, no merge.
std::int64_t count_cliques_parallel(
    const enumkernel::dag& d, int p, thread_pool& pool,
    runtime::query_scratch& scratch, std::int64_t grain,
    parallel_listing_stats* stats = nullptr,
    enumkernel::exec_config exec = {},
    std::span<const vertex> roots = {});

}  // namespace dcl::local
