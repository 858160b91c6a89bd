#pragma once
// Clique collection with duplication accounting. The paper's listing
// semantics require every clique to be output by at least one vertex;
// several listers may emit the same clique, so the collector normalizes at
// the end and reports the duplication factor as a quality metric. The
// shared-memory engine (src/local/) feeds it whole per-thread buffers via
// merge_buffer(); finalize() sorts canonically, so the merged result is
// independent of thread scheduling. Every query ends in one finish over a
// collector (finish_query, core/api/session.hpp).
//
// Invariants (enforced in collector.cpp):
//   - emitted() counts every tuple handed in, via emit(), merge_buffer() or
//     absorb();
//   - finalize() may be called exactly once; it moves out a set that is
//     normalized (ascending tuples, lexicographic order, no duplicates), and
//     duplicates() == emitted() - result.size().

#include <cstdint>
#include <span>

#include "graph/clique_enum.hpp"
#include "support/check.hpp"

namespace dcl {

class clique_collector {
 public:
  explicit clique_collector(int p);

  int arity() const { return set_.arity(); }

  /// Records one clique (any vertex order).
  void emit(std::span<const vertex> clique);

  /// Absorbs a flat buffer of ascending tuples (stride = arity), e.g. one
  /// worker thread's private output. Cheaper than per-clique emit: each
  /// tuple costs a copy and an O(p) ascending check.
  void merge_buffer(std::span<const vertex> flat);

  /// Absorbs another (unfinalized) collector of the same arity: raw tuples
  /// and the emission count carry over, so emitted()/duplicates() end up
  /// exactly as if every emit() had targeted this collector directly. The
  /// deterministic-merge step for per-cluster collectors: the parallel
  /// CONGEST drivers absorb cluster results in cluster-index order.
  void absorb(const clique_collector& other);

  std::int64_t emitted() const { return emitted_; }

  /// The raw unfinalized tuple buffer: stride = arity, each tuple
  /// individually ascending, insertion order, duplicates still present.
  /// This is the collector's wire representation — a shard worker ships
  /// exactly this view and the coordinator replays it through
  /// merge_buffer(flat), so the folded
  /// emitted/duplicates accounting matches a single-process run bit for
  /// bit. Invalid after finalize().
  std::span<const vertex> raw_view() const {
    DCL_EXPECTS(!finalized_, "raw_view after finalize()");
    return set_.flat_view();
  }

  /// Deduplicates and moves the canonical set out (no copy); afterwards
  /// duplicates() reports how many emissions were redundant. Single-shot.
  clique_set finalize();

  std::int64_t duplicates() const { return duplicates_; }

 private:
  clique_set set_;
  std::int64_t emitted_ = 0;
  std::int64_t duplicates_ = 0;
  bool finalized_ = false;
};

}  // namespace dcl
