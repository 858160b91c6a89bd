#pragma once
// Byte channels between coordinator and workers (DESIGN.md §14). The frame
// layer (shard/wire.hpp) is written against this interface only, so the
// transport is swappable: the first backend is a loopback AF_UNIX
// socketpair (CI-safe, no network), and a connected TCP socket fd drops
// into the same fd_channel unchanged — identical read/write discipline,
// same EOF and error semantics.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace dcl::shard {

/// Failure of the wire, the peer, or the process boundary — a different
/// animal from precondition_error (local API misuse): a shard_error means a
/// remote party misbehaved or died, and the caller decides whether to
/// retry, fail the query, or tear the worker down.
class shard_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class byte_channel {
 public:
  virtual ~byte_channel() = default;

  /// Blocking read of up to `cap` bytes into dst; returns the count read
  /// (>= 1), or 0 on orderly EOF (peer closed). Throws shard_error on I/O
  /// failure.
  virtual std::size_t read_some(void* dst, std::size_t cap) = 0;

  /// Writes all n bytes (looping over short writes). Throws shard_error
  /// when the peer is gone (EPIPE/ECONNRESET) or on I/O failure — never
  /// raises SIGPIPE.
  virtual void write_all(const void* src, std::size_t n) = 0;
};

/// A channel over one file descriptor it owns (socketpair end, TCP socket).
class fd_channel final : public byte_channel {
 public:
  explicit fd_channel(int fd);
  ~fd_channel() override;
  fd_channel(const fd_channel&) = delete;
  fd_channel& operator=(const fd_channel&) = delete;

  std::size_t read_some(void* dst, std::size_t cap) override;
  void write_all(const void* src, std::size_t n) override;

  int fd() const { return fd_; }

 private:
  int fd_;
};

/// In-process bidirectional FIFO pair for wire-layer unit tests: what one
/// end writes the other reads, byte for byte, with orderly EOF once the
/// writing end is destroyed. Also counts write_all calls, so tests can
/// pin the wire's write pattern (one write per frame).
class memory_channel final : public byte_channel {
 public:
  std::size_t read_some(void* dst, std::size_t cap) override;
  void write_all(const void* src, std::size_t n) override;

  std::int64_t writes() const;

  ~memory_channel() override;

 private:
  friend std::pair<std::unique_ptr<memory_channel>,
                   std::unique_ptr<memory_channel>>
  make_memory_channel_pair();
  struct shared_state;
  memory_channel(std::shared_ptr<shared_state> state, int dir);
  std::shared_ptr<shared_state> state_;
  int dir_;  ///< which direction this end writes into
};

std::pair<std::unique_ptr<memory_channel>, std::unique_ptr<memory_channel>>
make_memory_channel_pair();

}  // namespace dcl::shard
