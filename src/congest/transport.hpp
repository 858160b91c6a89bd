#pragma once
// Producer staging shared by a network and every cluster_comm built on it:
// two capacity-warm message batches. The simulated substrates only charge
// a batch's cost, so staging is all the message layer keeps between
// exchanges.
//
// Default-constructible, so a worker parks one in its
// runtime::scratch_arena and every cluster task it runs reuses the same
// warmed capacity (DESIGN.md §8).

#include <array>
#include <cstddef>

#include "congest/message.hpp"
#include "support/check.hpp"

namespace dcl {

class transport {
 public:
  /// Producer staging batches, capacity-warm across exchanges. Two, so
  /// request/reply-style producers can stage both directions of a step at
  /// once; callers clear() before filling and must not hold contents
  /// across a foreign producer's exchange.
  message_batch& outbox(std::size_t i = 0) {
    DCL_EXPECTS(i < outbox_.size(), "transport has exactly two outboxes");
    return outbox_[i];
  }

 private:
  std::array<message_batch, 2> outbox_;
};

}  // namespace dcl
