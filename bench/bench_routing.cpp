// E7 (Theorem 6 substitute): routing-round scaling against the CS20 closed
// form.
//
// Sweep: cluster families (hypercube, circulant, gnp expander) × per-vertex
// loads L. Per (family, L), one all-to-random batch of L messages per
// vertex is routed: measured store-and-forward routing rounds on the
// φ-cluster, against tree depth, conductance, the CS20 closed form, and
// the destination-density shape of the batch (trace_batch_shape).
//
// Fit: per family, the log-log OLS exponent of measured route_rounds vs L
// (over L >= 4, where the round cost is load-dominated) next to the same
// exponent of the CS20 model. Both are pure functions of the seeded batches
// and the deterministic router, so the fit is bit-reproducible; in full
// (non-smoke) mode the bench EXITS NONZERO if any family's measured
// exponent drifts from the model exponent by more than kFitTolerance —
// the CI gate that catches routing-cost regressions.
//
// Emits one JSON document on stdout AND to BENCH_routing.json via the
// shared checked emitter:
//
//   ./bench_routing [--smoke] [out.json]
//
// --smoke shrinks every case for CI smoke runs (too few loads for a fit:
// the gate only runs in full mode).

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.hpp"

#include "congest/router.hpp"
#include "congest/trace.hpp"
#include "expander/cost_model.hpp"
#include "graph/generators.hpp"
#include "graph/spectral.hpp"
#include "support/prng.hpp"
#include "support/stats.hpp"

namespace dcl {
namespace {

/// Max allowed |measured exponent − model exponent| per family (full mode).
/// Both sides are pure functions of the seeded batches and the
/// deterministic router, so the gap is bit-reproducible on any machine:
/// today it is 0.03–0.04 on every family (measured 0.96–0.97 vs model
/// ~1.0). 0.15 keeps headroom for legitimate router tuning while catching
/// any change that bends the routing cost away from linear-in-load.
constexpr double kFitTolerance = 0.15;

graph make_cluster(int kind, bool smoke) {
  if (smoke) {
    switch (kind) {
      case 0: return gen::hypercube(5);
      case 1: return gen::circulant(32, {1, 3, 9});
      default: return gen::gnp(32, 8.0 / 32.0, 3);
    }
  }
  switch (kind) {
    case 0:
      return gen::hypercube(8);                       // 256, phi ~ 1/8
    case 1:
      return gen::circulant(256, {1, 3, 9, 27, 81});  // constant degree
    default:
      return gen::gnp(256, 16.0 / 256.0, 3);          // random expander
  }
}
const char* kind_name(int k) {
  return k == 0 ? "hypercube" : k == 1 ? "circulant" : "gnp";
}

struct case_result {
  std::string cluster;
  std::int64_t load = 0;
  std::int64_t batch = 0;
  double route_seconds = 0;
  std::int64_t route_rounds = 0;
  std::int64_t max_edge_load = 0;
  std::int32_t tree_depth = 0;
  double phi_cert = 0;
  double cs20_model = 0;
  trace_batch_shape shape;  ///< endpoint density of the routed batch
  double dst_density = 0;   ///< shape.dsts_touched / n
};

struct family_fit {
  std::string cluster;
  double measured_exponent = 0;
  double model_exponent = 0;
  int points = 0;
  bool within_tolerance = true;
};

}  // namespace
}  // namespace dcl

int main(int argc, char** argv) {
  using namespace dcl;
  bool smoke = false;
  std::string out_path = "BENCH_routing.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke")
      smoke = true;
    else
      out_path = arg;
  }
  const std::vector<std::int64_t> loads =
      smoke ? std::vector<std::int64_t>{1, 4}
            : std::vector<std::int64_t>{1, 2, 4, 8, 16, 32, 64};

  std::vector<case_result> results;
  std::vector<family_fit> fits;
  for (int kind = 0; kind < 3; ++kind) {
    const auto g = make_cluster(kind, smoke);
    cluster_router router(g, 8);
    const auto spec = second_eigen(g);
    // Load and round series of this family, for the exponent fit.
    std::vector<double> fit_loads, measured_rounds, model_rounds;
    for (const auto load : loads) {
      case_result r;
      r.cluster = kind_name(kind);
      r.load = load;

      prng rng(17);
      std::vector<message> multi_hop;
      for (vertex v = 0; v < g.num_vertices(); ++v)
        for (std::int64_t l = 0; l < load; ++l)
          multi_hop.push_back(
              {v, vertex(rng.next_below(std::uint64_t(g.num_vertices()))),
               0, std::uint64_t(l), 0});
      r.shape = shape_of_batch(multi_hop, g.num_vertices());
      r.dst_density = g.num_vertices() > 0
                          ? double(r.shape.dsts_touched) /
                                double(g.num_vertices())
                          : 0.0;
      r.batch = std::int64_t(multi_hop.size());
      message_batch io;
      for (const auto& m : multi_hop) io.push(m);
      route_stats stats;
      r.route_seconds =
          bench::best_seconds([&] { stats = router.route(io); });
      r.route_rounds = stats.rounds;
      r.max_edge_load = stats.max_edge_load;
      r.tree_depth = router.tree_depth();
      r.phi_cert = spec.phi_lower;
      r.cs20_model =
          double(cs20_routing_rounds(load, spec.phi_lower,
                                     g.num_vertices()));
      results.push_back(r);
      // Fit over the load-dominated regime only: below L=4 the fixed
      // tree-depth term flattens both curves.
      if (load >= 4) {
        fit_loads.push_back(double(load));
        measured_rounds.push_back(double(r.route_rounds));
        model_rounds.push_back(r.cs20_model);
      }
    }
    // dcl::loglog_slope needs two points; smoke mode has one.
    if (fit_loads.size() >= 2) {
      family_fit f;
      f.cluster = kind_name(kind);
      f.measured_exponent = loglog_slope(fit_loads, measured_rounds);
      f.model_exponent = loglog_slope(fit_loads, model_rounds);
      f.points = int(fit_loads.size());
      f.within_tolerance =
          std::abs(f.measured_exponent - f.model_exponent) <= kFitTolerance;
      fits.push_back(f);
    }
  }

  // Destination-density distribution across the routed batches.
  double dmin = 1.0, dmax = 0.0, dsum = 0.0;
  for (const auto& r : results) {
    dmin = std::min(dmin, r.dst_density);
    dmax = std::max(dmax, r.dst_density);
    dsum += r.dst_density;
  }
  if (results.empty()) dmin = 0.0;

  std::ostringstream js;
  js << "{\n"
     << "  " << bench::meta_json() << ",\n"
     << "  \"bench\": \"routing\",\n"
     << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
     << "  \"fit_tolerance\": " << kFitTolerance << ",\n"
     << "  \"cases\": [\n";
  bool first = true;
  for (const auto& r : results) {
    if (!first) js << ",\n";
    first = false;
    js << "    {\"cluster\": \"" << r.cluster << "\", \"load\": " << r.load
       << ", \"batch\": " << r.batch
       << ", \"route_seconds\": " << r.route_seconds
       << ", \"route_rounds\": " << r.route_rounds
       << ", \"max_edge_load\": " << r.max_edge_load
       << ", \"tree_depth\": " << r.tree_depth
       << ", \"phi_cert\": " << r.phi_cert
       << ", \"cs20_model\": " << r.cs20_model
       << ", \"srcs_touched\": " << r.shape.srcs_touched
       << ", \"src_max\": " << r.shape.src_max
       << ", \"dsts_touched\": " << r.shape.dsts_touched
       << ", \"dst_max\": " << r.shape.dst_max
       << ", \"dst_density\": " << r.dst_density << "}";
  }
  js << "\n  ],\n"
     << "  \"dst_density_distribution\": {\"min\": " << dmin
     << ", \"mean\": "
     << (results.empty() ? 0.0 : dsum / double(results.size()))
     << ", \"max\": " << dmax << "},\n"
     << "  \"fits\": [\n";
  first = true;
  bool fit_ok = true;
  for (const auto& f : fits) {
    if (!first) js << ",\n";
    first = false;
    js << "    {\"cluster\": \"" << f.cluster
       << "\", \"measured_exponent\": " << f.measured_exponent
       << ", \"model_exponent\": " << f.model_exponent
       << ", \"points\": " << f.points << ", \"within_tolerance\": "
       << (f.within_tolerance ? "true" : "false") << "}";
    fit_ok = fit_ok && f.within_tolerance;
  }
  js << "\n  ],\n"
     << "  \"fit_ok\": " << (fit_ok ? "true" : "false") << "\n}\n";
  const int emit_rc = dcl::bench::emit_json(out_path, js.str());
  if (emit_rc != 0) return emit_rc;
  if (!smoke && !fit_ok) {
    std::cerr << "error: routing-round exponent drifted beyond tolerance "
              << kFitTolerance << " of the CS20 model (see \"fits\" in "
              << out_path << ")\n";
    return 1;
  }
  return 0;
}
