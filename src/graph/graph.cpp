#include "graph/graph.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dcl {

graph::graph(vertex n, const edge_list& edges) : n_(n) {
  DCL_EXPECTS(n >= 0, "vertex count must be non-negative");
  std::vector<std::int32_t> deg(size_t(n), 0);
  for (const auto& e : edges) {
    DCL_EXPECTS(e.u >= 0 && e.v < n && e.u < e.v,
                "edge endpoints must satisfy 0 <= u < v < n");
    ++deg[size_t(e.u)];
    ++deg[size_t(e.v)];
  }
  offsets_.assign(size_t(n) + 1, 0);
  for (vertex v = 0; v < n; ++v)
    offsets_[size_t(v) + 1] = offsets_[size_t(v)] + deg[size_t(v)];
  adj_.resize(size_t(offsets_[size_t(n)]));
  std::vector<std::int64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& e : edges) {
    adj_[size_t(cursor[size_t(e.u)]++)] = e.v;
    adj_[size_t(cursor[size_t(e.v)]++)] = e.u;
  }
  for (vertex v = 0; v < n; ++v) {
    auto begin = adj_.begin() + offsets_[size_t(v)];
    auto end = adj_.begin() + offsets_[size_t(v) + 1];
    std::sort(begin, end);
    DCL_EXPECTS(std::adjacent_find(begin, end) == end,
                "duplicate edge in input");
  }
  edges_ = edges;
  std::sort(edges_.begin(), edges_.end());
}

graph graph::from_unsorted(vertex n, edge_list edges) {
  edge_list canon;
  canon.reserve(edges.size());
  for (const auto& e : edges) {
    if (e.u == e.v) continue;  // drop self-loops
    canon.push_back(make_edge(e.u, e.v));
  }
  std::sort(canon.begin(), canon.end());
  canon.erase(std::unique(canon.begin(), canon.end()), canon.end());
  return graph(n, canon);
}

std::int64_t graph::volume(std::span<const vertex> vs) const {
  std::int64_t vol = 0;
  for (vertex v : vs) vol += degree(v);
  return vol;
}

std::int32_t graph::degree_into(vertex v, std::span<const vertex> into) const {
  return std::int32_t(sorted_intersection_size(neighbors(v), into));
}

namespace {

/// First index >= start whose element is >= key: doubles an exponential
/// probe from `start`, then binary-searches the bracketed window. Ranges in
/// this codebase are ascending, so consecutive gallops advance a cursor.
std::size_t gallop_to(std::span<const vertex> v, std::size_t start,
                      vertex key) {
  std::size_t offset = 1;
  while (start + offset < v.size() && v[start + offset] < key) offset <<= 1;
  const auto first = v.begin() + std::ptrdiff_t(start);
  const auto last =
      v.begin() + std::ptrdiff_t(std::min(v.size(), start + offset + 1));
  return std::size_t(std::lower_bound(first, last, key) - v.begin());
}

/// Calls on_match(x) for every common element, ascending — the scalar
/// paths: galloping walk when the length skew crosses gallop_factor (0
/// disables galloping), linear merge otherwise. The skew test divides
/// instead of multiplying so arbitrary caller-supplied factors cannot
/// overflow. Callers must pre-swap so a is the shorter range.
template <typename OnMatch>
void intersect_sorted(std::span<const vertex> a, std::span<const vertex> b,
                      std::size_t gallop_factor, OnMatch&& on_match) {
  if (gallop_factor != 0 && b.size() / a.size() >= gallop_factor) {
    std::size_t j = 0;
    for (const vertex x : a) {
      j = gallop_to(b, j, x);
      if (j == b.size()) break;
      if (b[j] == x) {
        on_match(x);
        ++j;
      }
    }
    return;
  }
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      on_match(a[i]);
      ++i;
      ++j;
    }
  }
}

/// True when this (pre-swapped) pair should run the vector backend: the
/// pair is balanced enough that the merge walk would run (gallop wins on
/// skew for every tier — O(s·log(l/s)) beats any constant-factor widening)
/// and the shorter side is long enough to amortize block setup.
bool use_vector_path(std::span<const vertex> a, std::span<const vertex> b,
                     std::size_t gallop_factor, const simd::simd_ops* ops) {
  if (ops->tier == simd_mode::scalar) return false;
  if (gallop_factor != 0 && b.size() / a.size() >= gallop_factor)
    return false;
  return std::int64_t(a.size()) >= simd::kVectorIntersectMin;
}

}  // namespace

std::int64_t sorted_intersection_size(std::span<const vertex> a,
                                      std::span<const vertex> b,
                                      std::size_t gallop_factor,
                                      const simd::simd_ops* ops) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return 0;
  if (use_vector_path(a, b, gallop_factor, ops))
    return ops->intersect_size(a.data(), std::int64_t(a.size()), b.data(),
                               std::int64_t(b.size()));
  std::int64_t count = 0;
  intersect_sorted(a, b, gallop_factor, [&](vertex) { ++count; });
  return count;
}

std::vector<vertex> sorted_intersection(std::span<const vertex> a,
                                        std::span<const vertex> b,
                                        std::size_t gallop_factor,
                                        const simd::simd_ops* ops) {
  std::vector<vertex> out;
  sorted_intersection_into(a, b, out, gallop_factor, ops);
  return out;
}

void sorted_intersection_into(std::span<const vertex> a,
                              std::span<const vertex> b,
                              std::vector<vertex>& out,
                              std::size_t gallop_factor,
                              const simd::simd_ops* ops) {
  out.clear();
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return;
  if (use_vector_path(a, b, gallop_factor, ops)) {
    // The backend writes matches ascending; capacity min(|a|, |b|) = |a|.
    out.resize(a.size());
    const std::int64_t n =
        ops->intersect_into(a.data(), std::int64_t(a.size()), b.data(),
                            std::int64_t(b.size()), out.data());
    out.resize(std::size_t(n));
    return;
  }
  intersect_sorted(a, b, gallop_factor,
                   [&](vertex x) { out.push_back(x); });
}

}  // namespace dcl
