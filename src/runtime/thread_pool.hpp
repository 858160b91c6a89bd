#pragma once
// Shared worker-pool runtime used by every parallel subsystem: the
// shared-memory kClist engine (src/local/) and the cluster-parallel CONGEST
// simulation (src/core/listing/). One pool class, two primitives:
//
//   * a dynamically-scheduled work queue (for_each_chunk / for_each_index) —
//     workers pull chunks off an atomic cursor, so skewed work items (hub
//     egonets, giant clusters) cannot serialize a run;
//   * deterministic index-ordered result merge (merge.hpp) — results are
//     produced per index and consumed in index order, so thread scheduling
//     can never leak into output or accounting.
//
// The pool owns no workspace: per-worker scratch lives in the caller's
// query_scratch (scratch.hpp), indexed by the worker_index each task
// receives.
//
// Exceptions thrown inside a task are captured and rethrown on the calling
// thread (lowest work index wins), so DCL_EXPECTS/DCL_ENSURE failures
// surface identically whether a run is sequential or parallel.

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace dcl::runtime {

/// Minimal persistent worker pool. Workers block on a condition variable
/// between jobs; the calling thread always participates as worker 0, so a
/// pool of size 1 spawns no threads and runs everything inline. Entry
/// points block the caller until every chunk is processed. Not reentrant:
/// do not call for_each_* from inside a running task.
class thread_pool {
 public:
  /// num_threads <= 0 selects std::thread::hardware_concurrency().
  explicit thread_pool(int num_threads);
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  int size() const { return int(workers_.size()) + 1; }  ///< incl. caller

  /// Invokes fn(worker_index, begin, end) over [0, n) in chunks of `grain`,
  /// dynamically scheduled. worker_index is in [0, size()); the calling
  /// thread participates as worker 0. The first exception thrown by a task
  /// (by chunk order of the throwing worker's earliest failed chunk) is
  /// rethrown here after all workers drain. A job of at most one chunk
  /// runs inline on the caller and wakes no worker.
  void for_each_chunk(
      std::int64_t n, std::int64_t grain,
      const std::function<void(int, std::int64_t, std::int64_t)>& fn);

  /// One-index-at-a-time work queue: fn(worker_index, i) for i in [0, n).
  /// The natural grain for coarse tasks (one CONGEST cluster per index).
  void for_each_index(std::int64_t n,
                      const std::function<void(int, std::int64_t)>& fn);

  struct state;  ///< shared worker state; defined in thread_pool.cpp

 private:
  std::unique_ptr<state> state_;
  std::vector<std::thread> workers_;
};

}  // namespace dcl::runtime
