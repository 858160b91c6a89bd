#pragma once
// Seeded workload inputs. The benchmark owns its generators so that a
// change to the library's own gen:: families can never silently change
// what the benchmark measures, and so that inputs cost O(n + m) to make:
// every family below skips over absent pairs geometrically instead of
// flipping one coin per vertex pair. The program under test receives only
// the finished (n, edges) pair.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace perfbench {

struct edge_input {
  dcl::vertex n = 0;
  dcl::edge_list edges;  ///< canonical (u < v), sorted, no duplicates
};

/// splitmix64: tiny, seedable, and stable across compilers and platforms.
class rng {
 public:
  explicit rng(std::uint64_t seed) : s_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform in (0, 1]: never 0, so log() below stays finite.
  double unit() { return (double(next() >> 11) + 1.0) * 0x1.0p-53; }

  /// Number of failed Bernoulli(p) trials before the next success.
  std::int64_t skip(double p) {
    if (p >= 1.0) return 0;
    const double k = std::floor(std::log(unit()) / std::log1p(-p));
    return k < 1e15 ? std::int64_t(k) : std::int64_t(1e15);
  }

 private:
  std::uint64_t s_;
};

/// Appends each v in [lo, hi) independently with probability p as an edge
/// (u, v).
inline void sample_range(rng& r, dcl::vertex u, dcl::vertex lo, dcl::vertex hi,
                         double p, dcl::edge_list& out) {
  if (p <= 0.0) return;
  for (std::int64_t v = lo + r.skip(p); v < hi; v += 1 + r.skip(p))
    out.push_back({u, dcl::vertex(v)});
}

/// Erdős–Rényi G(n, p).
inline edge_input gnp(dcl::vertex n, double p, std::uint64_t seed) {
  rng r(seed);
  edge_input in{n, {}};
  for (dcl::vertex u = 0; u < n; ++u) sample_range(r, u, u + 1, n, p, in.edges);
  return in;
}

/// `parts` groups of `part_size` vertices: pairs inside a group are edges
/// with probability p_in, pairs across groups with probability p_out.
inline edge_input planted_partition(dcl::vertex parts, dcl::vertex part_size,
                                    double p_in, double p_out,
                                    std::uint64_t seed) {
  rng r(seed);
  edge_input in{parts * part_size, {}};
  for (dcl::vertex u = 0; u < in.n; ++u) {
    const dcl::vertex group_end = (u / part_size + 1) * part_size;
    sample_range(r, u, u + 1, group_end, p_in, in.edges);
    sample_range(r, u, group_end, in.n, p_out, in.edges);
  }
  return in;
}

/// Chung–Lu power law: vertex i has weight (i+1)^(-1/(gamma-1)) scaled to
/// average degree avg_deg, and u < v is an edge with probability
/// min(1, w_u w_v / Σw). Weights fall with the id, so along one row the
/// probability only shrinks: skip with the current probability, then keep
/// the landing pair with the ratio of its own probability to it (Miller &
/// Hagberg 2011) — the same distribution as one coin per pair.
inline edge_input chung_lu(dcl::vertex n, double gamma, double avg_deg,
                           std::uint64_t seed) {
  std::vector<double> w(static_cast<std::size_t>(n));
  double sum = 0.0;
  for (dcl::vertex i = 0; i < n; ++i)
    sum += w[std::size_t(i)] = std::pow(double(i + 1), -1.0 / (gamma - 1.0));
  const double total = avg_deg * double(n);
  for (double& x : w) x *= total / sum;
  const auto prob = [&](dcl::vertex u, std::int64_t v) {
    return std::min(1.0, w[std::size_t(u)] * w[std::size_t(v)] / total);
  };

  rng r(seed);
  edge_input in{n, {}};
  for (dcl::vertex u = 0; u + 1 < n; ++u) {
    double p = prob(u, u + 1);
    for (std::int64_t v = u + 1 + r.skip(p); v < n; v += 1 + r.skip(p)) {
      const double q = prob(u, v);
      if (r.unit() <= q / p) in.edges.push_back({u, dcl::vertex(v)});
      p = q;
    }
  }
  return in;
}

}  // namespace perfbench
