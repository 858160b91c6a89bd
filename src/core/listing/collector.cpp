#include "core/listing/collector.hpp"

#include <utility>

#include "support/check.hpp"

namespace dcl {

clique_collector::clique_collector(int p) : set_(p) {}

void clique_collector::emit(std::span<const vertex> clique) {
  DCL_EXPECTS(!finalized_, "emit after finalize()");
  set_.add(clique);
  ++emitted_;
}

void clique_collector::merge_buffer(std::span<const vertex> flat) {
  DCL_EXPECTS(!finalized_, "merge_buffer after finalize()");
  DCL_EXPECTS(flat.size() % size_t(set_.arity()) == 0,
              "flat buffer length must be a multiple of the arity");
  set_.add_flat(flat);
  emitted_ += std::int64_t(flat.size()) / set_.arity();
}

void clique_collector::absorb(const clique_collector& other) {
  DCL_EXPECTS(!finalized_, "absorb after finalize()");
  DCL_EXPECTS(!other.finalized_, "absorbing a finalized collector");
  DCL_EXPECTS(other.set_.arity() == set_.arity(),
              "absorb requires matching arity");
  // Tuples in a collector are individually ascending (emit() sorts each
  // one), so the bulk path applies.
  set_.add_flat(other.set_.flat_view());
  emitted_ += other.emitted_;
}

clique_set clique_collector::finalize() {
  DCL_EXPECTS(!finalized_, "finalize() is single-shot");
  finalized_ = true;
  duplicates_ = set_.normalize();
  DCL_ENSURE(duplicates_ == emitted_ - set_.size(),
             "duplication accounting must balance");
  return std::move(set_);
}

}  // namespace dcl
