#pragma once
// Admission layer for multi-tenant serving (DESIGN.md §12): a
// serving_session wraps a listing_session, queues incoming queries, and
// group-commits compatible ones so a burst of tenants costs one kernel
// sweep instead of one per tenant.
//
//   dcl::listing_session session(g, {...});
//   dcl::serving_session server(session);
//   // from any number of client threads:
//   auto r = server.query(q);                  // full-graph collect/count
//   auto e = server.query_edges(q, my_edges);  // edge-scoped
//
// Compatibility: two queries share an admission class iff every
// result-shaping knob matches — scope (full-graph vs edge-scoped), p,
// sink mode, lb engine, seed, epsilon, beta, gamma, max_levels,
// base_case_edges, and trace. (The kernel traversal and vector tier are
// session-wide, so every query of one serving_session shares them.)
// Within a class:
//
//   * full-graph queries are literally identical, so a batch executes the
//     query once and every tenant receives a copy of the one result;
//   * edge-scoped queries differ only in their edge sets, so a batch runs
//     one coalesced kernel sweep over the concatenated owner-tagged sets
//     (listing_session::cliques_in_edges_batch) and demultiplexes per
//     tenant.
//
// Either way each tenant's answer is bit-identical to its solo run — the
// full-graph result is a pure function of (graph, query), and the batch
// sweep enumerates each owner's segment exactly as its solo call would.
//
// Scheduling is group commit with no dedicated dispatcher thread: while
// one batch of a class executes (on the thread of the tenant that
// happened to arrive first — the leader), compatible arrivals accumulate;
// whichever waiter wakes first after the leader finishes takes everything
// queued, up to max_batch. Under light load a query therefore runs
// immediately with zero added latency; coalescing kicks in exactly when
// there is contention to absorb. Distinct classes never wait on each
// other — their leaders run concurrently through the session's lease
// pool.
//
// Stream-mode queries are never coalesced (a sink is tenant-private by
// construction) and bypass the queue entirely, as does everything when
// batching is disabled; bypassed queries still run concurrently and still
// count in the stats.

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>
#include <vector>

#include "core/api/session.hpp"

namespace dcl {

struct serving_options {
  /// false → every query executes solo (still concurrent, still safe);
  /// the knob exists so benches and tests can measure coalescing itself.
  bool batching = true;
  /// Most tenants one group commit may serve (>= 1). Bounds both the
  /// result-copy fan-out of a full-graph batch and the concatenated
  /// buffer of an edge-scoped sweep.
  std::int64_t max_batch = 64;
};

/// Cumulative serving accounting (monotone; read via stats()).
/// `kernel_sweeps` counts underlying listing_session executions — one per
/// batch and one per bypassed query — so batching helps exactly when
/// kernel_sweeps < queries, and `coalesced` counts the queries that rode
/// a batch without paying for their own sweep.
struct serving_stats {
  std::int64_t queries = 0;        ///< total admitted queries
  std::int64_t batches = 0;        ///< group commits executed (incl. size 1)
  std::int64_t coalesced = 0;      ///< queries served by another's sweep
  std::int64_t kernel_sweeps = 0;  ///< underlying session executions
};

class serving_session {
 public:
  /// Wraps `session` (aliased — must outlive the serving_session). The
  /// session's own concurrency guarantees do the heavy lifting; this
  /// layer only decides which queries share an execution.
  explicit serving_session(listing_session& session,
                           const serving_options& opt = serving_options{});

  serving_session(const serving_session&) = delete;
  serving_session& operator=(const serving_session&) = delete;

  /// Full-graph collect- or count-mode query; callable from any thread.
  /// The returned result is this tenant's own copy, bit-identical to
  /// session().run(q). Throws what the solo run would throw (validation
  /// errors before queueing, execution errors after).
  query_result query(const listing_query& q);

  /// Full-graph stream-mode query: bypasses batching (the sink is
  /// tenant-private), runs concurrently through the wrapped session.
  query_result query(const listing_query& q, const stream_sink& sink);

  /// Edge-scoped collect- or count-mode query: compatible concurrent
  /// queries coalesce into one kernel sweep over the concatenated
  /// owner-tagged edge sets. The result is bit-identical to
  /// session().cliques_in_edges(q, edges).
  query_result query_edges(const listing_query& q, const edge_list& edges);

  /// Edge-scoped stream-mode query: bypasses batching, as above.
  query_result query_edges(const listing_query& q, const edge_list& edges,
                           const stream_sink& sink);

  serving_stats stats() const;
  listing_session& session() { return *session_; }
  const serving_options& options() const { return opt_; }

 private:
  /// Everything the compatibility decision keys on, in one ordered tuple:
  /// scope, p, mode, lb, seed, epsilon, beta, gamma, max_levels,
  /// base_case_edges, trace. (stream_batch_tuples is absent on purpose —
  /// stream queries never enter the queue.)
  using class_key = std::tuple<bool, int, int, int, std::uint64_t, double,
                               double, double, int, std::int64_t, bool>;
  static class_key make_key(const listing_query& q, bool edge_scoped);

  /// One tenant's in-flight query. The owning thread blocks in submit()
  /// until `done`; a leader fills result/error outside the admission lock
  /// and flips `done` under it, so the owner's read is ordered.
  struct request {
    const listing_query* q = nullptr;
    const edge_list* edges = nullptr;  ///< null → full-graph
    std::optional<query_result> result;  ///< engaged by the leader
    std::exception_ptr error;
    bool done = false;
  };

  struct class_state {
    bool running = false;  ///< a leader is executing a batch of this class
    std::vector<request*> waiting;
  };

  /// Enqueues r under its class and blocks until served, becoming the
  /// leader that executes a batch whenever the class is idle.
  query_result submit(request& r, const class_key& key);

  /// Executes one batch on the wrapped session (outside the admission
  /// lock). Never throws: execution errors land in every request's
  /// `error` so each tenant rethrows on its own thread.
  void execute(std::vector<request*>& batch);

  /// Bypass path (stream queries, batching off): solo execution with
  /// stats accounting.
  query_result run_solo(const listing_query& q, const edge_list* edges,
                        const stream_sink* sink);

  listing_session* session_;
  serving_options opt_;

  mutable std::mutex m_;
  std::condition_variable cv_;
  /// Class count is bounded by the number of distinct query shapes ever
  /// admitted — entries are tiny and reusable, so they are never erased.
  std::map<class_key, class_state> classes_;
  serving_stats stats_;
};

}  // namespace dcl
