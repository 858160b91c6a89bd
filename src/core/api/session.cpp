#include "core/api/session.hpp"

#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "congest/transport.hpp"
#include "core/listing/collector.hpp"
#include "enumkernel/kernel.hpp"
#include "enumkernel/limits.hpp"
#include "local/parallel.hpp"
#include "support/check.hpp"

namespace dcl {

namespace {

[[noreturn]] void reject(const std::string& what) {
  throw precondition_error("listing_query: " + what);
}

// Every backend bottoms out in the shared enumeration kernel, so no
// backend may accept an arity the kernel cannot enumerate.
static_assert(kCongestMaxP <= enumkernel::kMaxCliqueArity,
              "congest_sim arity bound exceeds the shared kernel limit");

/// The query knobs that are engine-independent (everything but p's range).
/// Each real-valued check is written so that NaN fails it.
void validate_common(const listing_query& q) {
  if (!(q.epsilon >= 0.0 && q.epsilon < 1.0))
    reject("epsilon = " + std::to_string(q.epsilon) +
           " must lie in [0, 1) (0 selects the paper's default)");
  if (!(q.beta > 0.0) || !std::isfinite(q.beta))
    reject("beta = " + std::to_string(q.beta) +
           " must be positive and finite (V−_C degree threshold factor)");
  if (!(q.gamma > 0.0) || !std::isfinite(q.gamma))
    reject("gamma = " + std::to_string(q.gamma) +
           " must be positive and finite (overloaded-cluster threshold)");
  if (q.max_levels < 1)
    reject("max_levels = " + std::to_string(q.max_levels) +
           " must be at least 1");
  if (q.base_case_edges < 0)
    reject("base_case_edges = " + std::to_string(q.base_case_edges) +
           " must be non-negative");
  if (q.stream_batch_tuples < 1)
    reject("stream_batch_tuples = " + std::to_string(q.stream_batch_tuples) +
           " must be at least 1");
}

/// Feeds the canonical set to the sink, batch_tuples at a time. Batch
/// boundaries are presentation only: the concatenation equals the
/// collect-mode flat storage bit for bit.
void stream_batches(const clique_set& s, std::int64_t batch_tuples,
                    const stream_sink& sink) {
  const std::span<const vertex> flat = s.flat_view();
  // Clamp to the set size before multiplying: a batch knob near INT64_MAX
  // must not wrap the stride to 0 (anything >= size() means "one batch").
  const std::int64_t tuples =
      std::min(batch_tuples, std::max<std::int64_t>(s.size(), 1));
  const std::size_t stride = std::size_t(s.arity()) * std::size_t(tuples);
  for (std::size_t off = 0; off < flat.size(); off += stride)
    sink(flat.subspan(off, std::min(stride, flat.size() - off)));
}

/// Per-lease kernel workspace for edge-scoped queries, parked in slot 0 of
/// the lease's scratch bundle: its own type so it never aliases the
/// parallel engine's per-worker scratch (the kernel is not reentrant on
/// one scratch).
struct edge_query_scratch {
  enumkernel::enum_scratch ws;
  std::vector<vertex> buf;  ///< flat ascending tuples from the kernel
  /// Batch-sweep staging (cliques_in_edges_batch): the concatenated
  /// owner-tagged edge buffer and its per-owner segment table.
  std::vector<edge> cat;
  std::vector<enumkernel::edge_segment> segs;
};

}  // namespace

void validate_query(const listing_query& q, listing_engine engine) {
  if (engine == listing_engine::local_kclist) {
    if (q.p < 3 || q.p > enumkernel::kMaxCliqueArity)
      reject("p = " + std::to_string(q.p) +
             " is outside the local_kclist range [3, " +
             std::to_string(enumkernel::kMaxCliqueArity) + "]");
  } else {
    if (q.p < 3 || q.p > kCongestMaxP)
      reject("p = " + std::to_string(q.p) +
             " is outside the congest_sim range [3, " +
             std::to_string(kCongestMaxP) + "]; use "
             "listing_engine::local_kclist for larger cliques");
  }
  validate_common(q);
}

listing_session::listing_session(const graph& g, const session_options& opt)
    : g_(&g),
      opt_(opt),
      exec_(enumkernel::resolve_exec(opt.kernel, opt.simd)),
      pool_(opt.threads) {
  if (opt_.engine == listing_engine::local_kclist) {
    // The orientation is a pure function of the graph: build the DAG once
    // here and serve every query arity from it.
    dag_ = enumkernel::orient(g, enumkernel::orientation_policy::degeneracy);
  }
  // Warm one lease to the full pool width and park it: the first query
  // (however it lands) checks out a bundle whose kernel scratch /
  // transports already exist, so bind time — not the first timed run —
  // pays the construction cost.
  auto warm = leases_.acquire();
  warm->scratch.ensure_workers(pool_.size());
  for (int w = 0; w < pool_.size(); ++w) {
    if (opt_.engine == listing_engine::local_kclist)
      warm->scratch.arena(w).get<local::engine_worker_scratch>();
    else
      warm->scratch.arena(w).get<transport>();
  }
}

runtime::thread_pool& listing_session::claim_pool(
    std::unique_lock<std::mutex>& gate, query_lease& lease) {
  gate = std::unique_lock<std::mutex>(pool_gate_, std::try_to_lock);
  // Losing the try-lock is not a slow path to wait out: the losers run
  // inline on their lease's single-slot pool and finish on their own core
  // while the winner fans out. Output is identical either way (determinism
  // across thread counts, DESIGN.md §6), so this choice is pure
  // scheduling.
  return gate.owns_lock() ? pool_ : lease.inline_pool;
}

query_result listing_session::run(const listing_query& q) {
  validate_query(q, opt_.engine);
  if (q.mode == sink_mode::stream)
    reject("sink_mode::stream requires the run(query, sink) overload");
  auto lease = leases_.acquire();
  std::unique_lock<std::mutex> gate;
  runtime::thread_pool& pool = claim_pool(gate, *lease);
  return opt_.engine == listing_engine::local_kclist
             ? run_local(q, nullptr, *lease, pool)
             : run_congest(q, nullptr, *lease, pool);
}

query_result listing_session::run(const listing_query& q,
                                  const stream_sink& sink) {
  validate_query(q, opt_.engine);
  if (q.mode != sink_mode::stream)
    reject("run(query, sink) requires sink_mode::stream");
  if (!sink) reject("stream sink must be callable");
  auto lease = leases_.acquire();
  std::unique_lock<std::mutex> gate;
  runtime::thread_pool& pool = claim_pool(gate, *lease);
  return opt_.engine == listing_engine::local_kclist
             ? run_local(q, &sink, *lease, pool)
             : run_congest(q, &sink, *lease, pool);
}

query_result listing_session::run_local(const listing_query& q,
                                        const stream_sink* sink,
                                        query_lease& lease,
                                        runtime::thread_pool& pool) {
  if (q.mode == sink_mode::count) {
    // The counting twin: same traversal, no tuple assembly, no buffers, no
    // merge — nothing is materialized anywhere.
    query_result res{clique_set(q.p), 0, {}};
    res.count = local::count_cliques_parallel(
        dag_, q.p, pool, lease.scratch, local::kDefaultGrain, nullptr, exec_);
    res.report.emitted = res.count;
    return res;
  }
  clique_collector out(q.p);
  local::list_cliques_parallel(dag_, q.p, pool, lease.scratch,
                               local::kDefaultGrain, out, nullptr, exec_);
  query_result res = finish_query(out, q, sink);
  DCL_ENSURE(res.report.duplicates == 0,
             "kClist must emit every clique exactly once");
  return res;
}

query_result listing_session::run_congest(const listing_query& q,
                                          const stream_sink* sink,
                                          query_lease& lease,
                                          runtime::thread_pool& pool) {
  // The simulation must dedup even to count (several listers may emit the
  // same clique), so every congest_sim mode finishes over the collector,
  // unlike the local engine's materialization-free counting twin.
  clique_collector out(q.p);
  listing_report rep =
      list_cliques_congest(*g_, q, pool, lease.scratch, out, nullptr, exec_,
                           &skeleton_);
  return finish_query(out, q, sink, std::move(rep));
}

shard_run_result listing_session::run_shard(const listing_query& q,
                                            const congest_shard_plan& plan) {
  DCL_EXPECTS(opt_.engine == listing_engine::congest_sim,
              "run_shard drives congest_sim; the local engine shards by "
              "graph slicing (bind a shard::build_graph_slice and run())");
  validate_query(q, opt_.engine);
  DCL_EXPECTS(plan.shards >= 1 && plan.shard >= 0 &&
                  plan.shard < plan.shards,
              "congest_shard_plan: shard index out of range");
  auto lease = leases_.acquire();
  std::unique_lock<std::mutex> gate;
  runtime::thread_pool& pool = claim_pool(gate, *lease);
  shard_run_result res;
  congest_shard_plan scoped_plan = plan;
  scoped_plan.scoped = &res.scoped;
  clique_collector out(q.p);
  res.report = list_cliques_congest(*g_, q, pool, lease->scratch, out,
                                    &scoped_plan, exec_, &skeleton_);
  const std::span<const vertex> raw = out.raw_view();
  res.raw_tuples.assign(raw.begin(), raw.end());
  res.emitted = out.emitted();
  return res;
}

query_result listing_session::cliques_in_edges(const listing_query& q,
                                               const edge_list& edges) {
  if (q.mode == sink_mode::stream)
    reject("sink_mode::stream requires the cliques_in_edges(..., sink) "
           "overload");
  auto lease = leases_.acquire();
  return run_edges(q, edges, nullptr, *lease);
}

query_result listing_session::cliques_in_edges(const listing_query& q,
                                               const edge_list& edges,
                                               const stream_sink& sink) {
  if (q.mode != sink_mode::stream)
    reject("cliques_in_edges(..., sink) requires sink_mode::stream");
  if (!sink) reject("stream sink must be callable");
  auto lease = leases_.acquire();
  return run_edges(q, edges, &sink, *lease);
}

query_result finish_query(clique_collector& out, const listing_query& q,
                          const stream_sink* sink, listing_report report) {
  DCL_EXPECTS(q.mode != sink_mode::stream || sink != nullptr,
              "finish_query: stream mode needs a sink");
  clique_set canon = out.finalize();
  query_result res{clique_set(q.p), canon.size(), std::move(report)};
  res.report.emitted = out.emitted();
  res.report.duplicates = out.duplicates();
  if (q.mode == sink_mode::collect)
    res.cliques = std::move(canon);
  else if (q.mode == sink_mode::stream)
    stream_batches(canon, q.stream_batch_tuples, *sink);
  return res;
}

void validate_edge_query(const listing_query& q) {
  // The kernel's own arity range applies for either engine (p = 2 lists
  // the deduplicated edge set itself).
  if (q.p < 2 || q.p > enumkernel::kMaxCliqueArity)
    reject("p = " + std::to_string(q.p) +
           " is outside the edge-scoped range [2, " +
           std::to_string(enumkernel::kMaxCliqueArity) + "]");
  validate_common(q);
}

query_result listing_session::run_edges(const listing_query& q,
                                        const edge_list& edges,
                                        const stream_sink* sink,
                                        query_lease& lease) {
  validate_edge_query(q);

  lease.scratch.ensure_workers(1);
  auto& scratch = lease.scratch.arena(0).get<edge_query_scratch>();
  if (q.mode == sink_mode::count) {
    query_result res{clique_set(q.p), 0, {}};
    res.count = enumkernel::enumerate_cliques_in_edges(
        edges, q.p, scratch.ws, [](std::span<const vertex>) {}, exec_);
    res.report.emitted = res.count;
    return res;
  }
  // The kernel emits each clique exactly once, ascending; buffering flat
  // and bulk-merging keeps the per-clique cost at a memcpy.
  scratch.buf.clear();
  enumkernel::enumerate_cliques_in_edges(
      edges, q.p, scratch.ws,
      [&](std::span<const vertex> c) {
        scratch.buf.insert(scratch.buf.end(), c.begin(), c.end());
      },
      exec_);
  clique_collector out(q.p);
  out.merge_buffer(scratch.buf);
  return finish_query(out, q, sink);
}

std::vector<query_result> listing_session::cliques_in_edges_batch(
    const listing_query& q, std::span<const edge_list* const> edge_sets) {
  if (q.mode == sink_mode::stream)
    reject("cliques_in_edges_batch serves collect or count queries only "
           "(stream queries are never coalesced)");
  validate_edge_query(q);
  for (const edge_list* s : edge_sets)
    if (s == nullptr) reject("cliques_in_edges_batch: null edge set");

  auto lease = leases_.acquire();
  lease->scratch.ensure_workers(1);
  auto& scratch = lease->scratch.arena(0).get<edge_query_scratch>();

  // One owner-tagged concatenated buffer; segment i delimits tenant i's
  // slice. The sweep enumerates each slice exactly as that tenant's solo
  // call would (same canonicalization, remap, orientation, and emission
  // order), so coalescing is invisible in every per-tenant result.
  scratch.cat.clear();
  scratch.segs.clear();
  for (const edge_list* s : edge_sets) {
    const std::int64_t begin = std::int64_t(scratch.cat.size());
    scratch.cat.insert(scratch.cat.end(), s->begin(), s->end());
    scratch.segs.push_back({begin, std::int64_t(scratch.cat.size())});
  }

  std::vector<query_result> out;
  out.reserve(edge_sets.size());
  for (std::size_t i = 0; i < edge_sets.size(); ++i)
    out.push_back(query_result{clique_set(q.p), 0, {}});

  if (q.mode == sink_mode::count) {
    enumkernel::enumerate_cliques_in_edge_segments(
        scratch.cat, scratch.segs, q.p, scratch.ws,
        [&](std::size_t owner, std::span<const vertex>) {
          ++out[owner].count;
        },
        exec_);
    for (auto& r : out) r.report.emitted = r.count;
    return out;
  }

  // Collect: per-owner flat buffers, each bulk-merged and finished — the
  // solo run_edges pipeline applied segment by segment.
  std::vector<std::vector<vertex>> bufs(edge_sets.size());
  enumkernel::enumerate_cliques_in_edge_segments(
      scratch.cat, scratch.segs, q.p, scratch.ws,
      [&](std::size_t owner, std::span<const vertex> c) {
        bufs[owner].insert(bufs[owner].end(), c.begin(), c.end());
      },
      exec_);
  for (std::size_t i = 0; i < edge_sets.size(); ++i) {
    clique_collector coll(q.p);
    coll.merge_buffer(bufs[i]);
    out[i] = finish_query(coll, q, nullptr);
  }
  return out;
}

}  // namespace dcl
