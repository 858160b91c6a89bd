#include "shard/worker.hpp"

#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "core/api/session.hpp"
#include "local/parallel.hpp"
#include "shard/partition.hpp"
#include "support/check.hpp"

namespace dcl::shard {

namespace {

/// The congest_sim worker: a listing_session on the full graph that lists
/// only the branches this shard owns.
struct congest_shard {
  shard_bind bind;  ///< bind.slice.local is the graph the session aliases
  std::unique_ptr<listing_session> session;

  explicit congest_shard(shard_bind b) : bind(std::move(b)) {
    session_options opt;
    opt.engine = listing_engine::congest_sim;
    opt.threads = bind.threads;
    opt.grain = bind.grain;
    opt.kernel = bind.kernel;
    opt.simd = bind.simd;
    session = std::make_unique<listing_session>(bind.slice.local, opt);
  }

  /// The congest branch-ownership rule, evaluated identically on every
  /// worker: a parallel branch belongs to the shard owning its
  /// representative vertex; the run-sequential fallback branch belongs to
  /// shard 0.
  congest_shard_plan plan() const {
    congest_shard_plan plan;
    plan.shard = bind.shard;
    plan.shards = bind.shards;
    const partitioner_spec spec = bind.part;
    const vertex n = bind.slice.full_n;
    const int shards = bind.shards;
    plan.owner = [spec, n, shards](std::int32_t /*level*/,
                                   std::int64_t branch, vertex rep) {
      if (branch == kTraceBranchSequential) return 0;
      return shard_of_vertex(spec, rep, n, shards);
    };
    return plan;
  }

  shard_result serve(std::uint64_t qid, const listing_query& q) {
    shard_run_result r = session->run_shard(q, plan());
    shard_result res;
    res.qid = qid;
    res.p = q.p;
    res.raw_tuples = std::move(r.raw_tuples);
    res.emitted = r.emitted;
    res.scoped = std::move(r.scoped);
    res.model_decomposition_rounds = r.report.model_decomposition_rounds;
    res.levels = std::move(r.report.levels);
    res.used_fallback = r.report.used_fallback;
    res.max_normalized_load = r.report.max_normalized_load;
    if (r.report.trace) {
      std::ostringstream os(std::ios::binary);
      r.report.trace->write_binary(os);
      const std::string blob = os.str();
      res.trace_blob.assign(blob.begin(), blob.end());
    }
    return res;
  }
};

struct worker_state {
  int shard = 0;
  std::unique_ptr<congest_shard> congest;
  std::unique_ptr<local_shard> local;
  std::int64_t queries = 0;
  std::int64_t errors = 0;
};

}  // namespace

local_shard::local_shard(shard_bind bind)
    : bind_(std::move(bind)),
      pool_(bind_.threads),
      exec_(enumkernel::resolve_exec(bind_.kernel, bind_.simd)) {
  DCL_EXPECTS(bind_.engine == listing_engine::local_kclist,
              "local_shard: bind is not for the local engine");
  const graph_slice& s = bind_.slice;
  const vertex n = s.local.num_vertices();
  DCL_EXPECTS(vertex(bind_.rank.size()) == n,
              "local_shard: one global rank per slice vertex required");
  // The global ranks as they are: the slice's DAG then agrees with the
  // whole graph's on every arc it holds.
  enumkernel::orient_by_rank(s.local.view(), bind_.rank, dag_);
  for (vertex v = 0; v < n; ++v)
    if (shard_of_vertex(bind_.part, s.to_original[std::size_t(v)], s.full_n,
                        bind_.shards) == bind_.shard)
      owned_.push_back(v);
  // Warm every worker slot now, so bind — not the first query — pays for
  // the kernel scratch.
  scratch_.ensure_workers(pool_.size());
  for (int w = 0; w < pool_.size(); ++w)
    scratch_.arena(w).get<local::engine_worker_scratch>();
}

shard_result local_shard::serve(std::uint64_t qid, const listing_query& q) {
  validate_query(q, listing_engine::local_kclist);
  shard_result res;
  res.qid = qid;
  res.p = q.p;
  if (q.mode == sink_mode::count) {
    res.emitted = local::count_cliques_parallel(
        dag_, q.p, pool_, scratch_, bind_.grain, nullptr, exec_, owned_);
    return res;
  }
  clique_collector out(q.p);
  local::list_cliques_parallel(dag_, q.p, pool_, scratch_, bind_.grain, out,
                               nullptr, exec_, owned_);
  const clique_set run = out.finalize();
  DCL_ENSURE(out.duplicates() == 0,
             "kClist must emit every clique exactly once");
  // The remap is ascending, so the run stays canonical in original ids.
  const auto& remap = bind_.slice.to_original;
  const std::span<const vertex> flat = run.flat_view();
  res.raw_tuples.reserve(flat.size());
  for (const vertex x : flat) res.raw_tuples.push_back(remap[std::size_t(x)]);
  res.emitted = run.size();
  return res;
}

void run_shard_worker(byte_channel& ch, const wire_options& wopt) {
  frame_writer w(ch, wopt);
  frame_reader r(ch);
  std::optional<worker_state> st;
  frame f;
  while (r.next(f)) {
    switch (f.type) {
      case frame_type::bind: {
        if (st) throw shard_error("shard worker: duplicate bind");
        wire_cursor c(f.payload);
        shard_bind bind = decode_bind(c);
        st.emplace();
        st->shard = bind.shard;
        if (bind.engine == listing_engine::local_kclist)
          st->local = std::make_unique<local_shard>(std::move(bind));
        else
          st->congest = std::make_unique<congest_shard>(std::move(bind));
        wire_buf b;
        b.put(std::int32_t(st->shard));
        w.send(frame_type::bind_ok, b.view());
        w.flush();
        break;
      }
      case frame_type::query: {
        if (!st) throw shard_error("shard worker: query before bind");
        wire_cursor c(f.payload);
        const auto qid = c.get<std::uint64_t>();
        try {
          const listing_query q = decode_query(c);
          c.expect_exhausted("query");
          shard_result res = st->local ? st->local->serve(qid, q)
                                       : st->congest->serve(qid, q);
          wire_buf b;
          encode_result(b, res);
          w.send(frame_type::result, b.view());
          ++st->queries;
        } catch (const std::exception& e) {
          // Engine/validation failures answer this query and leave the
          // worker serving; the coordinator rethrows as shard_error.
          ++st->errors;
          wire_buf b;
          b.put(qid);
          b.put_string(e.what());
          w.send(frame_type::error, b.view());
        }
        w.flush();
        break;
      }
      case frame_type::stats_req: {
        shard_worker_stats s;
        s.shard = st ? st->shard : -1;
        s.queries = st ? st->queries : 0;
        s.errors = st ? st->errors : 0;
        s.wire.frames_sent = w.stats().frames_sent;
        s.wire.bytes_sent = w.stats().bytes_sent;
        s.wire.flushes = w.stats().flushes;
        s.wire.frames_received = r.stats().frames_received;
        s.wire.bytes_received = r.stats().bytes_received;
        wire_buf b;
        encode_worker_stats(b, s);
        w.send(frame_type::stats, b.view());
        w.flush();
        break;
      }
      case frame_type::shutdown: {
        w.send(frame_type::bye, {});
        w.flush();
        return;  // clean shutdown
      }
      default:
        throw shard_error("shard worker: unexpected frame type " +
                          std::to_string(int(f.type)));
    }
  }
  // Orderly EOF without shutdown: the coordinator went away — nothing to
  // answer, exit quietly (the launcher reaps a zero status).
}

}  // namespace dcl::shard
