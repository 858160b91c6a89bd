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

/// Flat staging buffer for one exchange/route batch. clear() keeps the
/// allocation, so a worker reuses one batch (usually a transport outbox
/// parked in its runtime::scratch_arena) across many exchanges instead of
/// constructing a fresh vector per call — the message layer's hot loops
/// stay allocation-free after warm-up. Producers only append, and the
/// substrates only read: an exchange or route charges the batch's cost and
/// never reorders or delivers it.
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

  std::span<const message> span() const { return msgs_; }
  const message& operator[](std::size_t i) const { return msgs_[i]; }
  auto begin() const { return msgs_.begin(); }
  auto end() const { return msgs_.end(); }

 private:
  std::vector<message> msgs_;
};

}  // namespace dcl
