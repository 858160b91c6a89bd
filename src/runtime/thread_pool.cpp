#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <limits>
#include <mutex>

#include "support/check.hpp"

namespace dcl::runtime {

struct thread_pool::state {
  std::mutex m;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  std::atomic<std::int64_t> cursor{0};
  std::int64_t n = 0;
  std::int64_t grain = 1;
  const std::function<void(int, std::int64_t, std::int64_t)>* job = nullptr;
  std::uint64_t generation = 0;  ///< bumped per job; wakes the workers
  int running = 0;               ///< workers still draining the cursor
  bool stop = false;
  // First failure of the current job, by chunk begin index — deterministic
  // across schedules when every schedule reaches the same failing chunk.
  std::exception_ptr error;
  std::int64_t error_chunk = std::numeric_limits<std::int64_t>::max();
};

namespace {

/// Drains the shared cursor: the grab-a-chunk loop every participant runs.
/// A thrown task records its exception but draining continues — every
/// chunk still executes, so the surviving error (lowest chunk index) is
/// the same under every schedule.
void drain_chunks(thread_pool::state& s, int worker_index,
                  const std::function<void(int, std::int64_t, std::int64_t)>&
                      job) {
  for (;;) {
    const std::int64_t begin = s.cursor.fetch_add(s.grain);
    if (begin >= s.n) break;
    try {
      job(worker_index, begin, std::min(begin + s.grain, s.n));
    } catch (...) {
      std::lock_guard<std::mutex> lk(s.m);
      if (begin < s.error_chunk) {
        s.error_chunk = begin;
        s.error = std::current_exception();
      }
    }
  }
}

}  // namespace

thread_pool::thread_pool(int num_threads) : state_(new state) {
  int t = num_threads;
  if (t <= 0) t = int(std::thread::hardware_concurrency());
  if (t < 1) t = 1;
  arenas_ = std::vector<scratch_arena>(size_t(t));
  // The calling thread is worker 0; spawn the other t-1.
  for (int i = 1; i < t; ++i) {
    workers_.emplace_back([this, i] {
      state& s = *state_;
      std::uint64_t seen = 0;
      for (;;) {
        const std::function<void(int, std::int64_t, std::int64_t)>* job;
        {
          std::unique_lock<std::mutex> lk(s.m);
          s.cv_work.wait(lk,
                         [&] { return s.stop || s.generation != seen; });
          if (s.stop) return;
          seen = s.generation;
          job = s.job;
        }
        drain_chunks(s, i, *job);
        {
          std::lock_guard<std::mutex> lk(s.m);
          if (--s.running == 0) s.cv_done.notify_all();
        }
      }
    });
  }
}

thread_pool::~thread_pool() {
  {
    std::lock_guard<std::mutex> lk(state_->m);
    state_->stop = true;
  }
  state_->cv_work.notify_all();
  for (auto& w : workers_) w.join();
}

void thread_pool::for_each_chunk(
    std::int64_t n, std::int64_t grain,
    const std::function<void(int, std::int64_t, std::int64_t)>& fn) {
  DCL_EXPECTS(grain > 0, "chunk grain must be positive");
  // At most one chunk: no other worker could take any of it, so run it
  // here and leave the workers asleep rather than pay a wake-up round trip.
  if (n <= grain) {
    if (n > 0) fn(0, 0, n);
    return;
  }
  state& s = *state_;
  {
    std::lock_guard<std::mutex> lk(s.m);
    s.n = n;
    s.grain = grain;
    s.cursor.store(0);
    s.job = &fn;
    s.running = int(workers_.size());
    ++s.generation;
    s.error = nullptr;
    s.error_chunk = std::numeric_limits<std::int64_t>::max();
  }
  s.cv_work.notify_all();
  drain_chunks(s, /*worker_index=*/0, fn);
  std::unique_lock<std::mutex> lk(s.m);
  s.cv_done.wait(lk, [&] { return s.running == 0; });
  s.job = nullptr;
  if (s.error) {
    const std::exception_ptr e = s.error;
    s.error = nullptr;
    std::rethrow_exception(e);
  }
}

void thread_pool::for_each_index(
    std::int64_t n, const std::function<void(int, std::int64_t)>& fn) {
  for_each_chunk(n, /*grain=*/1,
                 [&fn](int w, std::int64_t begin, std::int64_t end) {
                   for (std::int64_t i = begin; i < end; ++i) fn(w, i);
                 });
}

}  // namespace dcl::runtime
