#pragma once
// Worker-process launchers (DESIGN.md §14). Two ways to stand a fleet up:
//
//   launch_fork_workers — fork this binary; each child runs the serve loop
//     over its socketpair end and _exit()s. Zero-setup (tests, benches,
//     single-binary deployments). The parent must not hold worker threads
//     at fork time — a listing_session with threads = 1 spawns none.
//
//   launch_exec_workers — fork + exec a worker executable (tools/
//     shard_worker) with `--fd N`; the worker end is the only inherited
//     descriptor (everything else is O_CLOEXEC), so workers are genuinely
//     separate programs — the production shape, exercised in CI through
//     the same differential suite as the fork path.
//
// Either way the caller gets one connected fd_channel per worker to hand
// to shard_coordinator, plus the pid for wait/kill.

#include <memory>
#include <string>
#include <vector>

#include "shard/channel.hpp"
#include "shard/wire.hpp"

namespace dcl::shard {

struct launched_worker {
  int pid = -1;
  std::unique_ptr<fd_channel> link;  ///< coordinator end of the socketpair
};

/// Forks `count` worker processes, each serving run_shard_worker over its
/// end of a fresh AF_UNIX socketpair. Children exit 0 on clean shutdown
/// (or coordinator EOF) and 2 on a protocol error. Throws shard_error if
/// any socketpair or fork fails (already-launched children are killed).
std::vector<launched_worker> launch_fork_workers(int count);

/// Forks + execs `count` copies of `exe --fd N`. The executable is
/// expected to run run_shard_worker over the inherited fd (tools/
/// shard_worker does exactly that). Throws shard_error on launch failure;
/// an exec failure surfaces as the worker exiting 127 (the coordinator
/// then sees EOF at bind).
std::vector<launched_worker> launch_exec_workers(
    const std::string& exe, int count);

/// Transfers the links out of `workers` in shard order — the shape
/// shard_coordinator's constructor takes. The pids stay behind for
/// wait_worker/kill_worker.
std::vector<std::unique_ptr<byte_channel>> take_links(
    std::vector<launched_worker>& workers);

/// Blocks until the worker exits; returns its exit code, or 128 + signal
/// if it died on one. Safe to call once per worker.
int wait_worker(launched_worker& w);

/// SIGKILLs the worker and reaps it — the failure-injection hammer for
/// kill-one-worker tests.
void kill_worker(launched_worker& w);

}  // namespace dcl::shard
