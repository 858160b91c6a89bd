#pragma once
// The coordinator half of multi-process sharded serving (DESIGN.md §14).
//
// A shard_coordinator owns one framed channel per worker, binds each
// worker over the wire (wire version 4) — congest_sim workers bind the
// full graph and split work by branch ownership; local_kclist workers bind
// closed-neighborhood slices plus the global rank of each slice vertex,
// from one orientation of the whole graph computed here at bind, and split
// by DAG-root ownership: each clique is enumerated once fleet-wide, by the
// owner of its lowest-rank vertex, and a count reply is one i64 — then
// serves run() calls whose results are bit-identical to a single-process
// listing_session on the same graph: the clique set, count, stream
// batches, AND the full listing_report ledger (plus the trace when
// requested).
//
// Determinism argument (tested in tests/test_shard.cpp): every fold below
// is either order-insensitive (finalize sorts canonically; merge_parallel /
// merge_sequential are associative and commutative per phase) or performed
// in a fixed order (shard index, then the solo driver's scope order for
// traces), and the per-shard inputs partition the solo run's branches
// exactly. Failure semantics: a worker that answers `error` fails the query
// but keeps serving; a worker that dies mid-query (EOF/truncation) marks
// the coordinator degraded and every subsequent run throws shard_error.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/api/session.hpp"
#include "shard/channel.hpp"
#include "shard/partition.hpp"
#include "shard/serialize.hpp"
#include "shard/wire.hpp"

namespace dcl::shard {

struct shard_options {
  /// Evaluated identically by coordinator and every worker (pure function
  /// of the spec); picks branch owners (congest) or slice membership and
  /// root ownership (local).
  partitioner_spec partitioner{};
  /// Per-worker session knobs: engine picks the sharding strategy; threads,
  /// kernel, and simd apply inside each worker process (none of them
  /// change any output — DESIGN.md §6/§11/§13).
  session_options worker_session{};
};

/// Shard `shard`'s bind message. congest_sim: the full graph. local_kclist:
/// the shard's slice and each slice vertex's global rank, read from `rank`
/// (enumkernel::vertex_rank of the whole graph, computed once per fleet;
/// ignored under congest_sim).
shard_bind make_bind(const graph& g, const shard_options& opt,
                     std::span<const vertex> rank, int shard, int shards);

class shard_coordinator {
 public:
  /// Takes ownership of one connected channel per worker (shard i talks
  /// over links[i]) and performs the bind handshake: ships each worker its
  /// slice + session options and awaits every bind_ok. Throws shard_error
  /// if any worker fails to bind. The graph is aliased and must outlive
  /// the coordinator.
  shard_coordinator(const graph& g,
                    std::vector<std::unique_ptr<byte_channel>> links,
                    const shard_options& opt = {});

  /// Best-effort shutdown() if the caller didn't.
  ~shard_coordinator();

  shard_coordinator(const shard_coordinator&) = delete;
  shard_coordinator& operator=(const shard_coordinator&) = delete;

  /// Collect- or count-mode query across every shard; bit-identical to the
  /// same listing_session::run on the whole graph. Throws shard_error on
  /// worker failure or cross-shard divergence.
  query_result run(const listing_query& q);

  /// Stream-mode query: canonical tuples in deterministic merge order,
  /// batched per q.stream_batch_tuples — the same batches a solo session
  /// would produce.
  query_result run(const listing_query& q, const stream_sink& sink);

  /// Per-worker serve-loop counters (one stats round-trip per worker).
  std::vector<shard_worker_stats> worker_stats();

  /// Clean shutdown: every live worker acks with `bye` and exits its loop.
  /// Idempotent.
  void shutdown();

 private:
  struct peer {
    std::unique_ptr<byte_channel> ch;
    frame_writer writer;
    frame_reader reader;
    bool alive = true;

    explicit peer(std::unique_ptr<byte_channel> c)
        : ch(std::move(c)), writer(*ch), reader(*ch) {}
  };

  query_result run_impl(const listing_query& q, const stream_sink* sink);
  /// Reads frames from `p` until one of the query-level replies arrives;
  /// marks the peer dead and throws on stream failure.
  frame await_reply(peer& p, int shard_idx);

  query_result fold_congest(const listing_query& q,
                            std::vector<shard_result>& results,
                            const stream_sink* sink);
  query_result fold_local(const listing_query& q,
                          std::vector<shard_result>& results,
                          const stream_sink* sink);

  const graph* g_;
  shard_options opt_;
  std::vector<std::unique_ptr<peer>> peers_;
  std::uint64_t next_qid_ = 1;
  bool shut_down_ = false;
};

}  // namespace dcl::shard
