#include "graph/clique_enum.hpp"

#include <algorithm>

#include "enumkernel/kernel.hpp"
#include "support/check.hpp"

namespace dcl {

clique_set::clique_set(int p) : p_(p) {
  DCL_EXPECTS(p >= 2, "clique arity must be at least 2");
}

void clique_set::add(std::span<const vertex> clique) {
  DCL_EXPECTS(int(clique.size()) == p_, "clique arity mismatch");
  flat_.insert(flat_.end(), clique.begin(), clique.end());
  std::sort(flat_.end() - p_, flat_.end());
  normalized_ = false;
}

void clique_set::add_flat(std::span<const vertex> flat) {
  DCL_EXPECTS(flat.size() % size_t(p_) == 0,
              "flat length must be a multiple of the arity");
  if (flat.empty()) return;
  const std::size_t start = flat_.size();
  flat_.insert(flat_.end(), flat.begin(), flat.end());
  for (std::size_t i = start; i < flat_.size(); i += size_t(p_))
    DCL_ENSURE(std::is_sorted(flat_.begin() + std::ptrdiff_t(i),
                              flat_.begin() + std::ptrdiff_t(i + size_t(p_))),
               "add_flat received an unsorted tuple");
  normalized_ = false;
}

std::int64_t clique_set::normalize() {
  const std::int64_t before = size();
  std::vector<std::int64_t> idx(static_cast<std::size_t>(before));
  for (std::int64_t i = 0; i < before; ++i) idx[size_t(i)] = i;
  auto key = [&](std::int64_t i) {
    return std::span<const vertex>(flat_.data() + i * p_, size_t(p_));
  };
  std::sort(idx.begin(), idx.end(), [&](std::int64_t a, std::int64_t b) {
    const auto ka = key(a), kb = key(b);
    return std::lexicographical_compare(ka.begin(), ka.end(), kb.begin(),
                                        kb.end());
  });
  std::vector<vertex> out;
  out.reserve(flat_.size());
  for (std::int64_t r = 0; r < before; ++r) {
    const auto k = key(idx[size_t(r)]);
    if (!out.empty() &&
        std::equal(k.begin(), k.end(), out.end() - p_, out.end()))
      continue;
    out.insert(out.end(), k.begin(), k.end());
  }
  flat_ = std::move(out);
  normalized_ = true;
  return before - size();
}

bool clique_set::contains(std::span<const vertex> clique) const {
  DCL_EXPECTS(normalized_, "call normalize() before queries");
  DCL_EXPECTS(int(clique.size()) == p_, "clique arity mismatch");
  std::vector<vertex> k(clique.begin(), clique.end());
  std::sort(k.begin(), k.end());
  std::int64_t lo = 0, hi = size();
  while (lo < hi) {
    const std::int64_t mid = (lo + hi) / 2;
    const auto c = (*this)[mid];
    if (std::lexicographical_compare(c.begin(), c.end(), k.begin(), k.end()))
      lo = mid + 1;
    else
      hi = mid;
  }
  if (lo == size()) return false;
  const auto c = (*this)[lo];
  return std::equal(c.begin(), c.end(), k.begin(), k.end());
}

void for_each_triangle(const graph& g,
                       const std::function<void(vertex, vertex, vertex)>& cb) {
  for (vertex u = 0; u < g.num_vertices(); ++u) {
    const auto nu = g.neighbors(u);
    // Suffix of neighbors greater than u.
    const auto first_gt =
        std::upper_bound(nu.begin(), nu.end(), u) - nu.begin();
    const auto fwd_u = nu.subspan(static_cast<std::size_t>(first_gt));
    for (vertex v : fwd_u) {
      const auto nv = g.neighbors(v);
      const auto first_gt_v =
          std::upper_bound(nv.begin(), nv.end(), v) - nv.begin();
      const auto fwd_v = nv.subspan(static_cast<std::size_t>(first_gt_v));
      // w > v, w adjacent to both u and v.
      std::size_t i = 0, j = 0;
      const auto fu =
          fwd_u.subspan(size_t(std::upper_bound(fwd_u.begin(), fwd_u.end(), v) -
                               fwd_u.begin()));
      while (i < fu.size() && j < fwd_v.size()) {
        if (fu[i] < fwd_v[j]) {
          ++i;
        } else if (fu[i] > fwd_v[j]) {
          ++j;
        } else {
          cb(u, v, fu[i]);
          ++i;
          ++j;
        }
      }
    }
  }
}

clique_set collect_cliques(const graph& g, int p) {
  enumkernel::enum_scratch ws;
  clique_set out(p);
  enumkernel::enumerate_cliques(
      g, p, ws, [&](std::span<const vertex> c) { out.add_flat(c); });
  out.normalize();
  return out;
}

}  // namespace dcl
