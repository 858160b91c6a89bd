#pragma once
// One CONGEST message: O(log n) bits. The payload holds a small tag plus two
// words — enough for an edge (two vertex ids) or a (key, value) pair, which
// is exactly what the paper's algorithms ship per message.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace dcl {

struct message {
  vertex src = -1;
  vertex dst = -1;
  std::uint32_t tag = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  friend bool operator==(const message&, const message&) = default;
};

/// Deterministic receiver-side ordering: by destination, then source, then
/// payload, so vertex-local processing never depends on container order.
inline bool message_order(const message& x, const message& y) {
  if (x.dst != y.dst) return x.dst < y.dst;
  if (x.src != y.src) return x.src < y.src;
  if (x.tag != y.tag) return x.tag < y.tag;
  if (x.a != y.a) return x.a < y.a;
  return x.b < y.b;
}

/// Flat staging buffer for one exchange/route batch. clear() keeps the
/// allocation, so a worker reuses one batch (usually parked in its
/// runtime::scratch_arena, or handed out by a transport) across many
/// exchanges instead of constructing a fresh vector per call — the message
/// layer's hot loops stay allocation-free after warm-up. Producers only
/// append; reordering is the transport's job (it swaps buffers rather than
/// copying), so there is no mutable element access outside the transport.
class message_batch {
 public:
  void clear() { msgs_.clear(); }
  bool empty() const { return msgs_.empty(); }
  std::size_t size() const { return msgs_.size(); }
  void reserve(std::size_t n) { msgs_.reserve(n); }

  void push(const message& m) { msgs_.push_back(m); }
  message& emplace(vertex src, vertex dst, std::uint32_t tag = 0,
                   std::uint64_t a = 0, std::uint64_t b = 0) {
    return msgs_.emplace_back(message{src, dst, tag, a, b});
  }

  /// O(1) buffer exchange — the primitive behind the transport's
  /// double-buffered delivery.
  void swap(message_batch& other) noexcept { msgs_.swap(other.msgs_); }

  std::span<const message> span() const { return msgs_; }
  const message& operator[](std::size_t i) const { return msgs_[i]; }
  auto begin() const { return msgs_.begin(); }
  auto end() const { return msgs_.end(); }

  /// Read-only view of the backing vector, for tests and assertions. The
  /// mutable escape hatch is gone on purpose: hot-path callers go through
  /// push/emplace and the transport.
  const std::vector<message>& vec() const { return msgs_; }

 private:
  friend class transport;  // in-place delivery permutes the buffer

  std::vector<message> msgs_;
};

}  // namespace dcl
