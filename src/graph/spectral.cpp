#include "graph/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/check.hpp"
#include "support/prng.hpp"

namespace dcl {

namespace {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

void axpy(std::vector<double>& y, double alpha, const std::vector<double>& x) {
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += alpha * x[i];
}

double norm(const std::vector<double>& a) { return std::sqrt(dot(a, a)); }

}  // namespace

spectral_report second_eigen(const graph& g, int max_iterations,
                             double tolerance) {
  const vertex n = g.num_vertices();
  DCL_EXPECTS(g.num_edges() > 0, "second_eigen requires at least one edge");
  std::vector<double> sqrt_deg(size_t(n), 0.0);
  for (vertex v = 0; v < n; ++v)
    sqrt_deg[size_t(v)] = std::sqrt(double(g.degree(v)));
  // Top eigenvector of S is d^{1/2}; we deflate against it (normalized).
  std::vector<double> top(sqrt_deg);
  {
    const double nn = norm(top);
    for (auto& x : top) x /= nn;
  }

  // Deterministic start vector, orthogonal to `top`, zero on isolated verts.
  std::vector<double> y(size_t(n), 0.0);
  for (vertex v = 0; v < n; ++v) {
    if (g.degree(v) == 0) continue;
    y[size_t(v)] = (splitmix64(std::uint64_t(v)) & 1) ? 1.0 : -1.0;
  }
  axpy(y, -dot(y, top), top);
  if (norm(y) < 1e-12) {
    // Degenerate start (e.g. a single edge); perturb deterministically.
    for (vertex v = 0; v < n; ++v)
      if (g.degree(v) > 0)
        y[size_t(v)] +=
            double(splitmix64(std::uint64_t(v) + 17) % 1000) / 1000.0;
    axpy(y, -dot(y, top), top);
  }
  {
    const double nn = norm(y);
    DCL_ENSURE(nn > 0, "cannot form a deflated start vector");
    for (auto& x : y) x /= nn;
  }

  spectral_report rep;
  std::vector<double> z(static_cast<std::size_t>(n));
  // w = D^{-1/2} y, formed once per iteration (n divisions, not 2m): each
  // w[u] is the same IEEE quotient the per-edge loop would compute, and the
  // summation order is unchanged, so every iterate is bit-identical.
  std::vector<double> w(static_cast<std::size_t>(n), 0.0);
  double prev_rq = 2.0;
  for (int it = 0; it < max_iterations; ++it) {
    // z = S' y where S' = (I + S)/2 is the lazy symmetrized walk.
    for (vertex v = 0; v < n; ++v)
      if (g.degree(v) > 0) w[size_t(v)] = y[size_t(v)] / sqrt_deg[size_t(v)];
    std::fill(z.begin(), z.end(), 0.0);
    for (vertex v = 0; v < n; ++v) {
      if (g.degree(v) == 0) continue;
      double acc = 0.0;
      for (vertex u : g.neighbors(v)) acc += w[size_t(u)];
      z[size_t(v)] = 0.5 * (y[size_t(v)] + acc / sqrt_deg[size_t(v)]);
    }
    axpy(z, -dot(z, top), top);  // re-deflate (numerical drift)
    const double nn = norm(z);
    if (nn < 1e-14) {
      // y is (numerically) in the kernel of S'; nu2(S') = 0, nu2(S) = -1.
      rep.nu2 = -1.0;
      rep.iterations = it + 1;
      break;
    }
    for (auto& x : z) x /= nn;
    const double rq = nn;  // Rayleigh quotient estimate of S' along y
    y.swap(z);
    rep.iterations = it + 1;
    if (std::abs(rq - prev_rq) < tolerance && it > 8) {
      rep.nu2 = 2.0 * rq - 1.0;  // undo the lazy transform
      break;
    }
    prev_rq = rq;
    rep.nu2 = 2.0 * rq - 1.0;
  }
  rep.nu2 = std::clamp(rep.nu2, -1.0, 1.0);
  rep.lambda2 = 1.0 - rep.nu2;
  rep.phi_lower = rep.lambda2 / 2.0;
  const double vol = double(2 * g.num_edges());
  rep.mixing_time_estimate =
      rep.lambda2 > 1e-12 ? 2.0 * std::log(std::max(vol, 2.0)) / rep.lambda2
                          : std::numeric_limits<double>::infinity();
  rep.embedding.assign(size_t(n), 0.0);
  for (vertex v = 0; v < n; ++v)
    if (g.degree(v) > 0)
      rep.embedding[size_t(v)] = y[size_t(v)] / sqrt_deg[size_t(v)];
  return rep;
}

sweep_result sweep_cut(const graph& g, const std::vector<double>& embedding) {
  const vertex n = g.num_vertices();
  DCL_EXPECTS(vertex(embedding.size()) == n, "embedding size mismatch");
  std::vector<vertex> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](vertex a, vertex b) {
    if (embedding[size_t(a)] != embedding[size_t(b)])
      return embedding[size_t(a)] < embedding[size_t(b)];
    return a < b;  // deterministic tie-break
  });

  const std::int64_t total_vol = 2 * g.num_edges();
  std::vector<bool> in_s(size_t(n), false);
  std::int64_t vol = 0;
  std::int64_t boundary = 0;
  sweep_result best;
  std::int32_t best_prefix = -1;
  for (vertex i = 0; i + 1 < n; ++i) {
    const vertex v = order[size_t(i)];
    std::int64_t into_s = 0;
    for (vertex u : g.neighbors(v))
      if (in_s[size_t(u)]) ++into_s;
    in_s[size_t(v)] = true;
    vol += g.degree(v);
    boundary += g.degree(v) - 2 * into_s;
    const std::int64_t denom = std::min(vol, total_vol - vol);
    if (denom <= 0) continue;
    const double phi = double(boundary) / double(denom);
    if (!best.found || phi < best.phi) {
      best.found = true;
      best.phi = phi;
      best_prefix = i;
    }
  }
  if (best.found) {
    std::vector<vertex> side(order.begin(),
                             order.begin() + best_prefix + 1);
    // Return the smaller-volume side for a canonical answer.
    std::int64_t side_vol = g.volume(side);
    if (2 * side_vol > total_vol) {
      std::vector<vertex> rest(order.begin() + best_prefix + 1, order.end());
      side.swap(rest);
    }
    std::sort(side.begin(), side.end());
    best.side = std::move(side);
  }
  return best;
}

}  // namespace dcl
