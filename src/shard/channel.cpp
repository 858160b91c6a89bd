#include "shard/channel.hpp"

#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <mutex>

#include <sys/socket.h>
#include <unistd.h>

namespace dcl::shard {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw shard_error(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

fd_channel::fd_channel(int fd) : fd_(fd) {
  if (fd_ < 0) throw shard_error("fd_channel: invalid file descriptor");
}

fd_channel::~fd_channel() {
  if (fd_ >= 0) ::close(fd_);
}

std::size_t fd_channel::read_some(void* dst, std::size_t cap) {
  for (;;) {
    const ssize_t n = ::recv(fd_, dst, cap, 0);
    if (n > 0) return std::size_t(n);
    if (n == 0) return 0;  // orderly EOF
    if (errno == EINTR) continue;
    // A reset peer is the stream ending, just rudely — the frame layer
    // turns a mid-frame end into a truncation error either way.
    if (errno == ECONNRESET) return 0;
    throw_errno("fd_channel read");
  }
}

void fd_channel::write_all(const void* src, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(src);
  while (n > 0) {
    // MSG_NOSIGNAL: a worker dying mid-send must surface as EPIPE →
    // shard_error, not a process-killing SIGPIPE in the coordinator.
    const ssize_t w = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET)
        throw shard_error("fd_channel write: peer closed the connection");
      throw_errno("fd_channel write");
    }
    p += w;
    n -= std::size_t(w);
  }
}

// ---------------------------------------------------------------------------

struct memory_channel::shared_state {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::uint8_t> pipe[2];  ///< pipe[d]: bytes written by end d
  bool closed[2] = {false, false};   ///< end d destroyed (EOF for its reader)
  std::int64_t writes[2] = {0, 0};
};

memory_channel::memory_channel(std::shared_ptr<shared_state> state, int dir)
    : state_(std::move(state)), dir_(dir) {}

memory_channel::~memory_channel() {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->closed[dir_] = true;
  state_->cv.notify_all();
}

std::size_t memory_channel::read_some(void* dst, std::size_t cap) {
  const int peer = 1 - dir_;
  std::unique_lock<std::mutex> lock(state_->mu);
  auto& q = state_->pipe[peer];
  state_->cv.wait(lock, [&] { return !q.empty() || state_->closed[peer]; });
  if (q.empty()) return 0;  // peer destroyed with nothing buffered: EOF
  const std::size_t n = std::min(cap, q.size());
  auto* out = static_cast<std::uint8_t*>(dst);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = q.front();
    q.pop_front();
  }
  return n;
}

void memory_channel::write_all(const void* src, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(src);
  std::lock_guard<std::mutex> lock(state_->mu);
  if (state_->closed[1 - dir_])
    throw shard_error("memory_channel write: peer closed");
  state_->pipe[dir_].insert(state_->pipe[dir_].end(), p, p + n);
  ++state_->writes[dir_];
  state_->cv.notify_all();
}

std::int64_t memory_channel::writes() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->writes[dir_];
}

std::pair<std::unique_ptr<memory_channel>, std::unique_ptr<memory_channel>>
make_memory_channel_pair() {
  auto state = std::make_shared<memory_channel::shared_state>();
  return {std::unique_ptr<memory_channel>(new memory_channel(state, 0)),
          std::unique_ptr<memory_channel>(new memory_channel(state, 1))};
}

}  // namespace dcl::shard
