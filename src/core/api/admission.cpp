#include "core/api/admission.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "support/check.hpp"

namespace dcl {

serving_session::serving_session(listing_session& session,
                                 const serving_options& opt)
    : session_(&session), opt_(opt) {
  if (opt_.max_batch < 1)
    throw precondition_error("serving_options: max_batch = " +
                             std::to_string(opt_.max_batch) +
                             " must be at least 1");
}

serving_session::class_key serving_session::make_key(const listing_query& q,
                                                     bool edge_scoped) {
  return class_key{edge_scoped,
                   q.p,
                   int(q.mode),
                   int(q.lb),
                   q.seed,
                   q.epsilon,
                   q.beta,
                   q.gamma,
                   q.max_levels,
                   q.base_case_edges,
                   q.trace};
}

query_result serving_session::query(const listing_query& q) {
  // Validate on the caller's thread, before queueing: a malformed query
  // must throw here and never poison the tenants it would have shared a
  // batch with.
  validate_query(q, session_->options().engine);
  if (q.mode == sink_mode::stream)
    throw precondition_error(
        "listing_query: sink_mode::stream requires the query(q, sink) "
        "overload");
  if (!opt_.batching) return run_solo(q, nullptr, nullptr);
  request r;
  r.q = &q;
  return submit(r, make_key(q, /*edge_scoped=*/false));
}

query_result serving_session::query(const listing_query& q,
                                    const stream_sink& sink) {
  // Stream queries bypass the queue: a sink is tenant-private, so there
  // is nothing to coalesce, and the wrapped session already serves
  // concurrent streams safely.
  return run_solo(q, nullptr, &sink);
}

query_result serving_session::query_edges(const listing_query& q,
                                          const edge_list& edges) {
  validate_edge_query(q);
  if (q.mode == sink_mode::stream)
    throw precondition_error(
        "listing_query: sink_mode::stream requires the query_edges(q, "
        "edges, sink) overload");
  if (!opt_.batching) return run_solo(q, &edges, nullptr);
  request r;
  r.q = &q;
  r.edges = &edges;
  return submit(r, make_key(q, /*edge_scoped=*/true));
}

query_result serving_session::query_edges(const listing_query& q,
                                          const edge_list& edges,
                                          const stream_sink& sink) {
  return run_solo(q, &edges, &sink);
}

query_result serving_session::run_solo(const listing_query& q,
                                       const edge_list* edges,
                                       const stream_sink* sink) {
  {
    std::lock_guard<std::mutex> lk(m_);
    ++stats_.queries;
    ++stats_.batches;  // a bypassed query is its own batch of one
    ++stats_.kernel_sweeps;
  }
  if (edges != nullptr)
    return sink != nullptr ? session_->cliques_in_edges(q, *edges, *sink)
                           : session_->cliques_in_edges(q, *edges);
  return sink != nullptr ? session_->run(q, *sink) : session_->run(q);
}

query_result serving_session::submit(request& r, const class_key& key) {
  std::unique_lock<std::mutex> lk(m_);
  ++stats_.queries;
  class_state& cls = classes_[key];
  cls.waiting.push_back(&r);
  while (!r.done) {
    if (!cls.running && !cls.waiting.empty()) {
      // Become the leader: take everything queued for this class (up to
      // max_batch — overflow stays queued for the next leader, so a
      // tenant is never starved: each commit drains the queue's front in
      // arrival order).
      const std::size_t take = std::min<std::size_t>(
          cls.waiting.size(), std::size_t(opt_.max_batch));
      std::vector<request*> batch(cls.waiting.begin(),
                                  cls.waiting.begin() + std::ptrdiff_t(take));
      cls.waiting.erase(cls.waiting.begin(),
                        cls.waiting.begin() + std::ptrdiff_t(take));
      cls.running = true;
      ++stats_.batches;
      ++stats_.kernel_sweeps;  // one session execution per group commit
      stats_.coalesced += std::int64_t(batch.size()) - 1;
      lk.unlock();
      execute(batch);
      lk.lock();
      cls.running = false;
      // Results were written outside the lock; flipping `done` under it
      // orders them for each owner's wake-up read.
      for (request* b : batch) b->done = true;
      cv_.notify_all();
      continue;  // r may not have been in the batch (overflow) — re-check
    }
    cv_.wait(lk);
  }
  if (r.error) std::rethrow_exception(r.error);
  DCL_ENSURE(r.result.has_value(), "fulfilled request must carry a result");
  return std::move(*r.result);
}

void serving_session::execute(std::vector<request*>& batch) {
  try {
    if (batch.front()->edges != nullptr) {
      // Edge-scoped class: one coalesced kernel sweep over the
      // concatenated owner-tagged sets, demultiplexed per tenant.
      std::vector<const edge_list*> sets;
      sets.reserve(batch.size());
      for (const request* b : batch) sets.push_back(b->edges);
      std::vector<query_result> results =
          session_->cliques_in_edges_batch(*batch.front()->q, sets);
      DCL_ENSURE(results.size() == batch.size(),
                 "batch sweep must return one result per tenant");
      for (std::size_t i = 0; i < batch.size(); ++i)
        batch[i]->result = std::move(results[i]);
    } else {
      // Full-graph class: compatibility means the queries are literally
      // identical, so one run serves everyone; each follower gets a copy
      // (results are plain values — the copy is the demultiplex).
      query_result first = session_->run(*batch.front()->q);
      for (std::size_t i = 1; i < batch.size(); ++i)
        batch[i]->result = first;
      batch.front()->result = std::move(first);
    }
  } catch (...) {
    // A failed commit fails every tenant it covered, each on its own
    // thread — identical to what each solo run would have thrown, since
    // execution errors are a function of (graph, query).
    const std::exception_ptr e = std::current_exception();
    for (request* b : batch) b->error = e;
  }
}

serving_stats serving_session::stats() const {
  std::lock_guard<std::mutex> lk(m_);
  return stats_;
}

}  // namespace dcl
