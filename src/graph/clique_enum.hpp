#pragma once
// Canonical clique storage (clique_set) plus the graph oracle
// collect_cliques over the shared enumeration kernel (enumkernel/kernel.hpp)
// — the ground truth every distributed listing run is checked against, and
// itself a baseline (§1.3 discusses the centralized view). Cliques are
// canonical sorted p-tuples. Everything else that enumerates calls the
// kernel directly with a reused enum_scratch.

#include <vector>

#include "graph/graph.hpp"

namespace dcl {

/// Canonical set of p-cliques: flat storage, stride p, each tuple ascending,
/// tuples sorted lexicographically, no duplicates after normalize().
class clique_set {
 public:
  explicit clique_set(int p);

  int arity() const { return p_; }
  std::int64_t size() const { return std::int64_t(flat_.size()) / p_; }

  /// Appends a clique (any vertex order); call normalize() before queries.
  void add(std::span<const vertex> clique);

  /// Appends many ascending tuples stored flat with stride arity(); call
  /// normalize() before queries. Bulk-ingest path for per-thread buffers:
  /// each tuple costs a copy and an O(p) ascending check (DCL_ENSURE).
  void add_flat(std::span<const vertex> flat);

  /// Sorts tuples internally and lexicographically; removes duplicates.
  /// Returns the number of duplicates removed.
  std::int64_t normalize();

  std::span<const vertex> operator[](std::int64_t i) const {
    return {flat_.data() + i * p_, size_t(p_)};
  }

  /// Raw flat storage (stride arity(), each tuple ascending). Before
  /// normalize() the tuple order is the insertion order and duplicates may
  /// be present — the bulk-transfer view used when one set absorbs another.
  std::span<const vertex> flat_view() const { return flat_; }

  bool contains(std::span<const vertex> clique) const;

  friend bool operator==(const clique_set& a, const clique_set& b) {
    return a.p_ == b.p_ && a.flat_ == b.flat_;
  }

 private:
  int p_;
  std::vector<vertex> flat_;
  bool normalized_ = true;
};

/// Every p-clique of g, normalized; p in [2, enumkernel::kMaxCliqueArity].
/// The sequential oracle: one call-local kernel scratch, one thread.
clique_set collect_cliques(const graph& g, int p);

}  // namespace dcl
