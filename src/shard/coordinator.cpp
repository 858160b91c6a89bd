#include "shard/coordinator.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "core/listing/collector.hpp"
#include "enumkernel/orient.hpp"
#include "support/check.hpp"

namespace dcl::shard {

namespace {

[[noreturn]] void reject(const std::string& what) {
  throw precondition_error("shard_coordinator: " + what);
}

/// Solo trace scope order: levels ascending, exhaustive branch before the
/// clusters of its level, the run-sequential scope last.
struct scope_ref {
  const trace_log* log;
  std::int32_t idx;
  std::int32_t level;
  std::int64_t branch;
};

bool scope_before(const scope_ref& a, const scope_ref& b) {
  const auto key = [](const scope_ref& s) {
    const std::int64_t level =
        s.level < 0 ? std::int64_t(INT32_MAX) + 1 : std::int64_t(s.level);
    const std::int64_t branch =
        s.branch == kTraceBranchExhaustive ? INT64_MIN : s.branch;
    return std::pair(level, branch);
  };
  return key(a) < key(b);
}

}  // namespace

shard_bind make_bind(const graph& g, const shard_options& opt,
                     std::span<const vertex> rank, int shard, int shards) {
  shard_bind bind;
  bind.shard = shard;
  bind.shards = shards;
  bind.part = opt.partitioner;
  bind.engine = opt.worker_session.engine;
  if (bind.engine == listing_engine::local_kclist) {
    DCL_EXPECTS(vertex(rank.size()) == g.num_vertices(),
                "make_bind: one global rank per vertex required");
    bind.slice = build_graph_slice(g, opt.partitioner, shard, shards);
    bind.rank.reserve(bind.slice.to_original.size());
    for (const vertex v : bind.slice.to_original)
      bind.rank.push_back(rank[std::size_t(v)]);
  } else {
    bind.slice = identity_slice(g);
  }
  bind.threads = opt.worker_session.threads;
  bind.kernel = opt.worker_session.kernel;
  bind.simd = opt.worker_session.simd;
  return bind;
}

shard_coordinator::shard_coordinator(
    const graph& g, std::vector<std::unique_ptr<byte_channel>> links,
    const shard_options& opt)
    : g_(&g), opt_(opt) {
  if (links.empty()) reject("at least one worker link required");
  const int n_shards = int(links.size());
  peers_.reserve(links.size());
  for (auto& ch : links) {
    DCL_EXPECTS(ch != nullptr, "shard_coordinator: null channel");
    peers_.push_back(std::make_unique<peer>(std::move(ch)));
  }
  // The one orientation of the whole graph every local slice roots by.
  const std::vector<vertex> rank =
      opt_.worker_session.engine == listing_engine::local_kclist
          ? enumkernel::vertex_rank(g)
          : std::vector<vertex>{};
  // Ship every bind first, then collect the acks — workers bind
  // concurrently.
  for (int i = 0; i < n_shards; ++i) {
    wire_buf b;
    encode_bind(b, make_bind(g, opt_, rank, i, n_shards));
    peers_[std::size_t(i)]->writer.send(frame_type::bind, b.view());
  }
  for (int i = 0; i < n_shards; ++i) {
    frame f = await_reply(*peers_[std::size_t(i)], i);
    if (f.type != frame_type::bind_ok)
      throw shard_error("shard " + std::to_string(i) +
                        " failed to bind (unexpected reply frame)");
    wire_cursor c(f.payload);
    const auto echoed = c.get<std::int32_t>();
    if (echoed != i)
      throw shard_error("shard " + std::to_string(i) +
                        " acked the wrong shard index " +
                        std::to_string(echoed));
  }
}

shard_coordinator::~shard_coordinator() {
  try {
    shutdown();
  } catch (...) {
    // Destructor: a dead worker at teardown is already accounted for.
  }
}

frame shard_coordinator::await_reply(peer& p, int shard_idx) {
  frame f;
  try {
    if (!p.reader.next(f)) {
      p.alive = false;
      throw shard_error("shard " + std::to_string(shard_idx) +
                        " worker exited (EOF awaiting its reply)");
    }
  } catch (const shard_error&) {
    p.alive = false;
    throw;
  }
  return f;
}

query_result shard_coordinator::run(const listing_query& q) {
  if (q.mode == sink_mode::stream)
    reject("sink_mode::stream requires the run(query, sink) overload");
  return run_impl(q, nullptr);
}

query_result shard_coordinator::run(const listing_query& q,
                                    const stream_sink& sink) {
  if (q.mode != sink_mode::stream)
    reject("run(query, sink) requires sink_mode::stream");
  if (!sink) reject("stream sink must be callable");
  return run_impl(q, &sink);
}

query_result shard_coordinator::run_impl(const listing_query& q,
                                         const stream_sink* sink) {
  validate_query(q, opt_.worker_session.engine);
  if (shut_down_) throw shard_error("shard_coordinator: already shut down");
  for (std::size_t i = 0; i < peers_.size(); ++i)
    if (!peers_[i]->alive)
      throw shard_error("shard " + std::to_string(i) +
                        " worker is dead; coordinator is degraded");

  const std::uint64_t qid = next_qid_++;
  wire_buf b;
  b.put(qid);
  encode_query(b, q);
  for (auto& p : peers_) p->writer.send(frame_type::query, b.view());

  // Collect one reply per shard, in shard order. Drain every peer even
  // after a failure so the streams stay frame-aligned for later queries;
  // then fail the query with the first problem.
  std::vector<shard_result> results(peers_.size());
  std::string first_error;
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    try {
      frame f = await_reply(*peers_[i], int(i));
      if (f.type == frame_type::error) {
        wire_cursor c(f.payload);
        const auto eqid = c.get<std::uint64_t>();
        const std::string msg = c.get_string();
        if (first_error.empty())
          first_error = "shard " + std::to_string(i) + " failed query " +
                        std::to_string(eqid) + ": " + msg;
        continue;
      }
      if (f.type != frame_type::result)
        throw shard_error("shard " + std::to_string(i) +
                          " sent an unexpected frame mid-query");
      wire_cursor c(f.payload);
      results[i] = decode_result(c);
      if (results[i].qid != qid)
        throw shard_error("shard " + std::to_string(i) +
                          " answered query id " +
                          std::to_string(results[i].qid) + ", expected " +
                          std::to_string(qid));
      check_reply(results[i], q.mode, opt_.worker_session.engine, int(i));
    } catch (const shard_error& e) {
      if (first_error.empty()) first_error = e.what();
    }
  }
  if (!first_error.empty()) throw shard_error(first_error);

  return opt_.worker_session.engine == listing_engine::congest_sim
             ? fold_congest(q, results, sink)
             : fold_local(q, results, sink);
}

query_result shard_coordinator::fold_congest(
    const listing_query& q, std::vector<shard_result>& results,
    const stream_sink* sink) {
  // Divergence tripwire: the control plane is a pure function of (graph,
  // query), so its structural outputs must agree across shards. A mismatch
  // means a worker ran a different graph/query than the rest — corrupt by
  // definition, never silently foldable.
  const shard_result& head = results[0];
  for (std::size_t i = 1; i < results.size(); ++i) {
    const shard_result& r = results[i];
    if (r.model_decomposition_rounds != head.model_decomposition_rounds ||
        r.used_fallback != head.used_fallback || r.levels != head.levels)
      throw shard_error(
          "shard " + std::to_string(i) +
          " diverged from shard 0 on control-plane structure "
          "(different graph or query?)");
  }

  // Cliques: absorb raw (unfinalized) buffers in shard-index order. The
  // branches partition across shards, so Σ emitted equals the solo
  // collector's emitted and the finish yields the identical canonical set
  // and duplicates count.
  clique_collector out(q.p);
  for (const shard_result& r : results) out.merge_buffer(r.raw_tuples);

  // Ledger rebuild: branch ledgers of one level merge with parallel
  // semantics, levels chain sequentially, the run-sequential entries add
  // at the end. merge_parallel and merge_sequential are associative and
  // commutative per phase, so this reproduces the solo driver's
  // fold-as-it-goes ledger bit for bit (tested).
  std::map<std::int32_t, cost_ledger> per_level;
  cost_ledger sequential;
  for (const shard_result& r : results)
    for (const shard_scoped_ledger& s : r.scoped) {
      if (s.level < 0)
        sequential.merge_sequential(s.ledger);
      else
        per_level[s.level].merge_parallel(s.ledger);
    }
  listing_report rep;
  for (const auto& [level, ledger] : per_level)
    rep.ledger.merge_sequential(ledger);
  rep.ledger.merge_sequential(sequential);

  rep.model_decomposition_rounds = head.model_decomposition_rounds;
  rep.levels = head.levels;
  rep.used_fallback = head.used_fallback;
  for (const shard_result& r : results)
    rep.max_normalized_load =
        std::max(rep.max_normalized_load, r.max_normalized_load);

  // Trace: splice every shard's scopes back together in the solo driver's
  // absorb order — levels ascending, the exhaustive branch before its
  // level's clusters, the run-sequential scope last. Owned branches
  // partition across shards, so the merged log (and its serialized bytes)
  // equals the solo trace exactly.
  if (q.trace) {
    std::vector<trace_log> logs;
    logs.reserve(results.size());
    for (const shard_result& r : results) {
      if (r.trace_blob.empty()) {
        logs.emplace_back();
        continue;
      }
      std::istringstream is(
          std::string(reinterpret_cast<const char*>(r.trace_blob.data()),
                      r.trace_blob.size()),
          std::ios::binary);
      logs.push_back(trace_log::read_binary(is));
    }
    std::vector<scope_ref> refs;
    for (const trace_log& log : logs)
      for (std::size_t s = 0; s < log.scopes().size(); ++s)
        refs.push_back({&log, std::int32_t(s), log.scopes()[s].level,
                        log.scopes()[s].branch});
    std::stable_sort(refs.begin(), refs.end(), scope_before);
    auto merged = std::make_shared<trace_log>();
    for (const scope_ref& ref : refs) merged->splice_scope(*ref.log, ref.idx);
    rep.trace_stats = merged->summarize();
    rep.trace = std::move(merged);
  }

  return finish_query(out, q, sink, std::move(rep));
}

query_result shard_coordinator::fold_local(const listing_query& q,
                                           std::vector<shard_result>& results,
                                           const stream_sink* sink) {
  // DAG-root ownership partitions the solo clique set exactly: each shard
  // enumerates only the cliques rooted at the vertices it owns. A count is
  // the sum of the shards' counts; collect and stream absorb each shard's
  // canonical run (original ids) and the finish sorts, so shard order is
  // unobservable in the set. duplicates must come out 0, as solo.
  if (q.mode == sink_mode::count) {
    query_result res{clique_set(q.p), 0, {}};
    for (const shard_result& r : results) res.count += r.emitted;
    res.report.emitted = res.count;
    return res;
  }
  clique_collector out(q.p);
  for (const shard_result& r : results) out.merge_buffer(r.raw_tuples);
  query_result res = finish_query(out, q, sink);
  if (res.report.duplicates != 0)
    throw shard_error(
        "local shard fold produced duplicate cliques — DAG-root "
        "ownership is broken (rank or partitioner disagreement between "
        "workers?)");
  return res;
}

std::vector<shard_worker_stats> shard_coordinator::worker_stats() {
  if (shut_down_) throw shard_error("shard_coordinator: already shut down");
  for (auto& p : peers_)
    if (p->alive) p->writer.send(frame_type::stats_req, {});
  std::vector<shard_worker_stats> stats;
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    if (!peers_[i]->alive) continue;
    frame f = await_reply(*peers_[i], int(i));
    if (f.type != frame_type::stats)
      throw shard_error("shard " + std::to_string(i) +
                        " sent an unexpected frame awaiting stats");
    wire_cursor c(f.payload);
    stats.push_back(decode_worker_stats(c));
  }
  return stats;
}

void shard_coordinator::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  for (auto& p : peers_) {
    if (!p->alive) continue;
    try {
      p->writer.send(frame_type::shutdown, {});
    } catch (const shard_error&) {
      p->alive = false;
    }
  }
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    auto& p = *peers_[i];
    if (!p.alive) continue;
    try {
      frame f;
      // Tolerate a stats/result frame still in flight ahead of the bye.
      while (p.reader.next(f) && f.type != frame_type::bye) {
      }
    } catch (const shard_error&) {
      // The ack is best-effort; the worker may have exited on EOF already.
    }
    p.alive = false;
  }
}

}  // namespace dcl::shard
