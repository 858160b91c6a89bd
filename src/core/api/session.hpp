#pragma once
// Session-based query API: bind a graph once, serve many differently-shaped
// queries (DESIGN.md §9).
//
//   dcl::listing_session session(g, {.engine = dcl::listing_engine::congest_sim,
//                                    .threads = 8});
//   dcl::listing_query q;
//   q.p = 4;
//   auto r = session.run(q);                    // collect: r.cliques
//   q.mode = dcl::sink_mode::count;
//   auto c = session.run(q);                    // count only: c.count
//   q.mode = dcl::sink_mode::stream;
//   session.run(q, [&](std::span<const dcl::vertex> batch) { ... });
//
// Construction performs every query-independent setup step exactly once —
// the graph's directed-arc index and reverse-arc table (congest_sim), the
// degeneracy/DAG orientation (local_kclist), the kernel traversal and
// vector tier (resolved into one exec_config), the runtime worker pool,
// and a warmed scratch lease with its parked kernel scratch / transport — so
// repeated run() calls reuse warm capacity instead of rebuilding the
// world per query. Setup that depends on the query is done once per
// distinct shape, at its first use: the congest_sim recursion skeleton
// (each level's expander decomposition and cluster anatomy, keyed on
// (p, ε, β, γ)) is memoized in a skeleton_memo, so later congest queries
// and run_shard calls of that shape skip decompose and build_anatomy. The
// session aliases the graph; the graph must outlive it.
//
// Concurrency (DESIGN.md §12): run() and cliques_in_edges() are safe to
// call from any number of threads at once. Everything a query mutates
// lives in a query_lease checked out from the session's lease pool for
// the duration of that run; the bound graph, its arc index, and the DAG
// are strictly read-only shared state, and the skeleton memo is shared
// under its own mutex (first published skeleton wins; every racer
// computed the same one). The wide worker pool serves one
// query at a time (first caller wins a try-lock); every other in-flight
// query runs inline on its lease's single-slot pool. Because all outputs
// are bit-identical across thread counts (DESIGN.md §6), which pool a
// query lands on is unobservable in its result — a solo caller keeps full
// intra-query parallelism, N callers get inter-query parallelism.
//
// Determinism: for a fixed bound graph and query, every output mode is a
// pure function of (graph, query) — independent of session history, thread
// count, and scheduling. Streams arrive in the deterministic merge order:
// canonical ascending tuples, lexicographically sorted, deduplicated —
// exactly the order of the collect-mode clique_set.

#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "core/listing/collector.hpp"
#include "core/listing/driver.hpp"
#include "enumkernel/orient.hpp"
#include "runtime/scratch.hpp"
#include "runtime/thread_pool.hpp"

namespace dcl {

/// Everything one in-flight query is allowed to mutate: the per-worker
/// scratch bundle (kernel scratch, transports, output buffers — parked
/// warm between checkouts) and a single-slot pool for running inline when
/// the session's wide pool is busy with another query. Leased one-per-run
/// from listing_session's lease_pool; never shared between concurrent
/// queries.
struct query_lease {
  runtime::query_scratch scratch;
  /// Size-1 pool: the caller participates as worker 0 and no threads are
  /// spawned, so an inline run costs nothing over a plain function call.
  runtime::thread_pool inline_pool{1};
};

/// The graph-binding half of a listing: everything that is fixed for the
/// lifetime of a session (the per-query half is listing_query).
struct session_options {
  listing_engine engine = listing_engine::congest_sim;
  /// Worker-pool size (<= 0 → hardware concurrency): cluster-parallel
  /// simulation workers under congest_sim, kClist workers under
  /// local_kclist. Outputs are bit-identical for every value (DESIGN.md
  /// §6).
  int threads = 1;
  /// Session-wide enumeration-kernel traversal (DESIGN.md §11): scalar
  /// adjacency compaction, dense bitmaps, or per-egonet auto-selection.
  enumkernel::kernel_mode kernel = enumkernel::kernel_mode::auto_select;
  /// Session-wide vector backend for the kernel's bitmap loops and the
  /// drivers' sorted intersections (DESIGN.md §13); a tier the machine
  /// cannot run degrades to scalar.
  ///
  /// These two are the only place a caller picks how enumeration runs:
  /// the session resolves them once, at bind, into one exec_config that
  /// every run of every query uses. Purely performance knobs — cliques,
  /// counts, stream batches, reports, and traces are bit-identical across
  /// all values.
  simd_mode simd = simd_mode::auto_select;
};

/// What one run() returns. The report is freshly constructed per run —
/// queries never see (or clobber) another query's accounting.
struct query_result {
  clique_set cliques;      ///< collect: every K_p once; count/stream: empty
  std::int64_t count = 0;  ///< distinct cliques, in every mode
  listing_report report;   ///< fresh per run (empty ledger under local_kclist)
};

/// What one run_shard() returns — the worker half of multi-process sharded
/// serving (src/shard/, DESIGN.md §14). Nothing here is finalized: the
/// coordinator absorbs every shard's raw tuples (in shard-index order) into
/// one collector and rebuilds the ledger from the scoped entries, so the
/// folded result is bit-identical to a single-process run.
struct shard_run_result {
  /// Unfinalized collector contents: stride p, each tuple ascending,
  /// duplicates preserved (they carry the solo duplicates accounting).
  std::vector<vertex> raw_tuples;
  std::int64_t emitted = 0;  ///< raw_tuples.size() / p
  /// One entry per branch this shard listed, in driver fold order.
  std::vector<shard_scoped_ledger> scoped;
  /// report.ledger covers only owned branches; the structural fields
  /// (levels, model_decomposition_rounds, used_fallback) are pure functions
  /// of (graph, query) and identical on every shard — the coordinator
  /// cross-checks them as a divergence tripwire.
  listing_report report;
};

/// Batched sink for sink_mode::stream: receives flat tuples (stride p,
/// each tuple ascending, at most stream_batch_tuples per call) in the
/// deterministic merge order. The span is valid only during the call. A
/// query with zero cliques invokes the sink zero times.
using stream_sink = std::function<void(std::span<const vertex>)>;

/// Per-query validation for a given engine: p range (congest_sim: [3,
/// kCongestMaxP], local_kclist: [3, enumkernel::kMaxCliqueArity]), epsilon
/// in [0, 1), beta/gamma positive and finite (NaN fails every check),
/// max_levels >= 1, base_case_edges >= 0, stream_batch_tuples >= 1.
/// Throws dcl::precondition_error with an actionable message on the first
/// violation. run() calls this itself.
void validate_query(const listing_query& q, listing_engine engine);

/// Validation for the edge-scoped entry points (cliques_in_edges and the
/// batch sweep): the kernel's own arity range [2, kMaxCliqueArity] applies
/// for either engine, plus the engine-independent knob checks. Throws
/// dcl::precondition_error on the first violation; the edge-scoped
/// methods call this themselves.
void validate_edge_query(const listing_query& q);

/// The one finish of every tuple-bearing listing (DESIGN.md §9): finalizes
/// `out` once and applies q.mode. Collect moves the canonical set into the
/// result, count keeps only its size, and stream feeds it to *sink in
/// batches of q.stream_batch_tuples. `report` comes back with emitted and
/// duplicates filled from the collector. Sessions, the edge-scoped entry
/// points and the shard coordinator's folds all end here.
query_result finish_query(clique_collector& out, const listing_query& q,
                          const stream_sink* sink,
                          listing_report report = {});

class listing_session {
 public:
  /// Binds to `g` (aliased — must outlive the session) and performs the
  /// query-independent setup described above.
  explicit listing_session(const graph& g,
                           const session_options& opt = session_options{});

  listing_session(const listing_session&) = delete;
  listing_session& operator=(const listing_session&) = delete;

  /// Runs one collect- or count-mode query (q.mode == stream requires the
  /// sink overload; rejected here). Validates q first.
  query_result run(const listing_query& q);

  /// Runs one stream-mode query: `sink` receives the canonical tuples in
  /// deterministic merge order, batched per q.stream_batch_tuples.
  /// Requires q.mode == sink_mode::stream.
  query_result run(const listing_query& q, const stream_sink& sink);

  /// One shard's share of a distributed congest_sim run (DESIGN.md §14):
  /// executes the full deterministic control plane but lists only the
  /// branches `plan` owns, returning raw tuples and scoped ledgers for the
  /// coordinator's fold. q.mode is ignored — the coordinator applies the
  /// sink mode after folding. congest_sim sessions only; the local engine
  /// shards by graph slicing instead (each worker orients its slice by the
  /// coordinator's global ranks and runs the kClist drivers rooted at the
  /// vertices it owns, with no session — see shard::local_shard).
  shard_run_result run_shard(const listing_query& q,
                             const congest_shard_plan& plan);

  /// Edge-scoped query: the cliques of the given explicit edge set (which
  /// may contain duplicates, self-loops, and vertex ids unrelated to the
  /// bound graph — see enumkernel::enumerate_cliques_in_edges), under any
  /// sink mode. Engine-independent: runs on the shared enumeration kernel
  /// through this session's worker arenas, with no CONGEST accounting (the
  /// report's ledger stays empty). Unlike the main-line queries, p may go
  /// down to 2 and up to enumkernel::kMaxCliqueArity for either engine.
  query_result cliques_in_edges(const listing_query& q,
                                const edge_list& edges);
  query_result cliques_in_edges(const listing_query& q,
                                const edge_list& edges,
                                const stream_sink& sink);

  /// Coalesced edge-scoped sweep (the admission layer's batching
  /// primitive, DESIGN.md §12): runs the query once over every tenant's
  /// edge set in a single kernel sweep — the sets are concatenated into
  /// one owner-tagged buffer and each owner's segment is canonicalized,
  /// remapped, and enumerated exactly as its solo cliques_in_edges() call
  /// would be — then demultiplexes per owner. result[i] is bit-identical
  /// (cliques, count, report) to cliques_in_edges(q, *edge_sets[i]).
  /// Requires q.mode == collect or count (stream queries are never
  /// coalesced; see serving_session). Null pointers are rejected.
  std::vector<query_result> cliques_in_edges_batch(
      const listing_query& q, std::span<const edge_list* const> edge_sets);

  const session_options& options() const { return opt_; }

  /// Lease-pool accounting: `misses` stops growing once the pool holds
  /// one warm bundle per peak concurrent query — the steady-state
  /// re-checkout path allocates no scratch at all.
  runtime::lease_pool_stats lease_stats() const { return leases_.stats(); }

 private:
  /// Checks out a lease and decides where this run executes: the first
  /// concurrent caller try-locks pool_gate_ and gets the wide pool_;
  /// everyone else runs inline on their lease's single-slot pool. `gate`
  /// keeps the wide pool reserved for as long as the caller holds it.
  runtime::thread_pool& claim_pool(std::unique_lock<std::mutex>& gate,
                                   query_lease& lease);

  query_result run_local(const listing_query& q, const stream_sink* sink,
                         query_lease& lease, runtime::thread_pool& pool);
  query_result run_congest(const listing_query& q, const stream_sink* sink,
                           query_lease& lease, runtime::thread_pool& pool);
  query_result run_edges(const listing_query& q, const edge_list& edges,
                         const stream_sink* sink, query_lease& lease);

  const graph* g_;
  session_options opt_;
  enumkernel::exec_config exec_;  ///< opt_.{kernel, simd}, resolved at bind
  runtime::thread_pool pool_;
  enumkernel::dag dag_;  ///< local_kclist only; oriented once at bind

  /// Scratch bundles, one per in-flight query (see query_lease). Mutable
  /// state of the session itself ends here: everything below this line is
  /// written only under the pool's or the lease pool's own locking.
  mutable runtime::lease_pool<query_lease> leases_;
  std::mutex pool_gate_;  ///< wide-pool ownership: one query at a time
  /// congest_sim: per-level anatomy of every recent query shape (at most
  /// skeleton_memo::kMaxKeys), shared by run() and run_shard().
  skeleton_memo skeleton_;
};

}  // namespace dcl
