#include "shard/launch.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <utility>

#include "shard/worker.hpp"
#include "support/check.hpp"

namespace dcl::shard {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw shard_error(std::string("shard launch: ") + what + ": " +
                    std::strerror(errno));
}

void reap_and_kill(std::vector<launched_worker>& workers) {
  for (auto& w : workers)
    if (w.pid > 0) kill_worker(w);
}

}  // namespace

std::vector<launched_worker> launch_fork_workers(int count) {
  DCL_EXPECTS(count >= 1, "launch_fork_workers: count must be >= 1");
  // All pairs exist before the first fork, so every child can close every
  // descriptor that is not its own worker end — otherwise a surviving
  // sibling would hold a dead coordinator's ends open and EOFs would never
  // arrive.
  std::vector<int> parent_fd(std::size_t(count), -1);
  std::vector<int> worker_fd(std::size_t(count), -1);
  auto close_all = [&] {
    for (int fd : parent_fd)
      if (fd >= 0) close(fd);
    for (int fd : worker_fd)
      if (fd >= 0) close(fd);
  };
  for (int i = 0; i < count; ++i) {
    int sv[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      close_all();
      throw_errno("socketpair");
    }
    parent_fd[std::size_t(i)] = sv[0];
    worker_fd[std::size_t(i)] = sv[1];
  }

  std::vector<launched_worker> workers(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const pid_t pid = fork();
    if (pid < 0) {
      close_all();
      reap_and_kill(workers);
      throw_errno("fork");
    }
    if (pid == 0) {
      // Child: keep only this shard's worker end, serve, and _exit (no
      // atexit handlers — the parent's state is not ours to tear down).
      for (int j = 0; j < count; ++j) {
        close(parent_fd[std::size_t(j)]);
        if (j != i) close(worker_fd[std::size_t(j)]);
      }
      int code = 0;
      try {
        fd_channel ch(worker_fd[std::size_t(i)]);
        run_shard_worker(ch);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "shard worker %d: %s\n", i, e.what());
        code = 2;
      }
      _exit(code);
    }
    workers[std::size_t(i)].pid = int(pid);
  }
  for (int i = 0; i < count; ++i) {
    close(worker_fd[std::size_t(i)]);
    worker_fd[std::size_t(i)] = -1;
    workers[std::size_t(i)].link =
        std::make_unique<fd_channel>(parent_fd[std::size_t(i)]);
    parent_fd[std::size_t(i)] = -1;
  }
  return workers;
}

std::vector<launched_worker> launch_exec_workers(const std::string& exe,
                                                 int count) {
  DCL_EXPECTS(count >= 1, "launch_exec_workers: count must be >= 1");
  std::vector<launched_worker> workers;
  workers.reserve(std::size_t(count));
  for (int i = 0; i < count; ++i) {
    int sv[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      reap_and_kill(workers);
      throw_errno("socketpair");
    }
    // The coordinator end never crosses an exec; the worker end is the one
    // descriptor each worker inherits. Pairs are created one fork at a
    // time and the worker end closed in the parent before the next, so no
    // worker leaks into a sibling.
    fcntl(sv[0], F_SETFD, FD_CLOEXEC);
    const pid_t pid = fork();
    if (pid < 0) {
      close(sv[0]);
      close(sv[1]);
      reap_and_kill(workers);
      throw_errno("fork");
    }
    if (pid == 0) {
      char fd_arg[16];
      std::snprintf(fd_arg, sizeof fd_arg, "%d", sv[1]);
      execl(exe.c_str(), exe.c_str(), "--fd", fd_arg,
            static_cast<char*>(nullptr));
      std::fprintf(stderr, "shard launch: exec %s: %s\n", exe.c_str(),
                   std::strerror(errno));
      _exit(127);
    }
    close(sv[1]);
    launched_worker w;
    w.pid = int(pid);
    w.link = std::make_unique<fd_channel>(sv[0]);
    workers.push_back(std::move(w));
  }
  return workers;
}

std::vector<std::unique_ptr<byte_channel>> take_links(
    std::vector<launched_worker>& workers) {
  std::vector<std::unique_ptr<byte_channel>> links;
  links.reserve(workers.size());
  for (auto& w : workers) {
    DCL_EXPECTS(w.link != nullptr, "take_links: link already taken");
    links.push_back(std::move(w.link));
  }
  return links;
}

int wait_worker(launched_worker& w) {
  DCL_EXPECTS(w.pid > 0, "wait_worker: no live pid");
  int status = 0;
  pid_t r;
  do {
    r = waitpid(w.pid, &status, 0);
  } while (r < 0 && errno == EINTR);
  if (r < 0) throw_errno("waitpid");
  w.pid = -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

void kill_worker(launched_worker& w) {
  if (w.pid <= 0) return;
  kill(w.pid, SIGKILL);
  int status = 0;
  pid_t r;
  do {
    r = waitpid(w.pid, &status, 0);
  } while (r < 0 && errno == EINTR);
  w.pid = -1;
}

}  // namespace dcl::shard
