// Multi-tenant serving benchmark (DESIGN.md §12): N client threads drive
// one serving_session over one bound graph, closed-loop (every client
// fires its next query the moment the previous answer lands) and
// open-loop (queries arrive on a fixed schedule; latency is measured from
// scheduled arrival, so queueing delay counts). Each (engine × clients ×
// batching) cell reports throughput, nearest-rank p50/p95/p99 latency,
// and the admission stats — kernel_sweeps vs queries is the coalescing
// win, and the full run gates on multi-client batching actually reducing
// sweeps.
//
//   ./bench_serving [--smoke] [out.json]
//
// Self-checks (abort/exit nonzero on failure, so a clean exit IS the
// equivalence check): every client compares every result — count and
// collected clique set — against a solo-run oracle computed before the
// clients start. Bit-identity under concurrency and coalescing is the
// tentpole invariant, so the bench refuses to report numbers without it.
//
// Wall-clock caveat: multi-client throughput is bounded by the cores in
// meta's "hardware_concurrency" — with more clients than cores they share
// cores and throughput reads ~flat. The coalescing ratio (kernel_sweeps /
// queries) is schedule-independent and is the number tracked across
// commits.

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/api/admission.hpp"
#include "graph/generators.hpp"

namespace {

using dcl::bench::latency_summary;
using dcl::bench::now_seconds;
using dcl::bench::summarize_latencies;

/// One tenant's scripted query mix: full-graph count + collect and an
/// edge-scoped count over a tenant-specific slice of the graph's edges.
/// Tenants share query shapes on purpose — that is what admission
/// coalesces — while the edge slices differ per tenant, exercising the
/// owner-tagged batch sweep.
struct tenant_script {
  dcl::listing_query full_count;
  dcl::listing_query full_collect;
  dcl::listing_query edge_count;
  dcl::edge_list edges;
};

/// Solo-run ground truth for one tenant, computed on a private session
/// before any concurrency starts.
struct oracle {
  std::int64_t full_count = 0;
  dcl::clique_set full_cliques{3};
  std::int64_t edge_count = 0;
};

struct cell_result {
  double seconds = 0.0;
  std::int64_t queries = 0;
  latency_summary lat;
  dcl::serving_stats stats;
};

tenant_script make_script(const dcl::graph& g, int p, int tenant,
                          int tenants) {
  tenant_script s;
  s.full_count.p = p;
  s.full_count.mode = dcl::sink_mode::count;
  s.full_collect.p = p;
  s.full_collect.mode = dcl::sink_mode::collect;
  s.edge_count.p = p;
  s.edge_count.mode = dcl::sink_mode::count;
  // Tenant i owns a contiguous slice of the edge list (roughly 2/tenants
  // of the graph, overlapping neighbors' slices so the slices are
  // non-trivial but distinct).
  const auto& all = g.edges();
  const std::size_t n = all.size();
  const std::size_t begin = n * std::size_t(tenant) / std::size_t(tenants);
  const std::size_t end =
      std::min(n, n * std::size_t(tenant + 2) / std::size_t(tenants));
  s.edges.assign(all.begin() + std::ptrdiff_t(begin),
                 all.begin() + std::ptrdiff_t(end));
  return s;
}

void check_or_die(bool ok, const char* what) {
  if (!ok) {
    std::cerr << "bench_serving: SELF-CHECK FAILED: " << what << "\n";
    std::exit(2);
  }
}

/// Runs one tenant's whole scripted round against the server, checking
/// every answer against the oracle; appends one latency sample per query.
void run_round(dcl::serving_session& server, const tenant_script& s,
               const oracle& o, std::vector<double>& lat) {
  double t0 = now_seconds();
  const auto c = server.query(s.full_count);
  lat.push_back(now_seconds() - t0);
  check_or_die(c.count == o.full_count, "full-graph count mismatch");

  t0 = now_seconds();
  const auto r = server.query(s.full_collect);
  lat.push_back(now_seconds() - t0);
  check_or_die(r.cliques == o.full_cliques, "full-graph cliques mismatch");

  t0 = now_seconds();
  const auto e = server.query_edges(s.edge_count, s.edges);
  lat.push_back(now_seconds() - t0);
  check_or_die(e.count == o.edge_count, "edge-scoped count mismatch");
}

/// Closed loop: every client iterates its script back-to-back. Queries
/// from different clients arrive together naturally, which is exactly the
/// contention admission batching exists to absorb.
cell_result run_closed_loop(dcl::listing_session& session, bool batching,
                            const std::vector<tenant_script>& scripts,
                            const std::vector<oracle>& oracles, int rounds) {
  dcl::serving_session server(session, {.batching = batching});
  const int clients = int(scripts.size());
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int r = 0; r < rounds; ++r)
        run_round(server, scripts[std::size_t(c)], oracles[std::size_t(c)],
                  lat[std::size_t(c)]);
    });
  }
  while (ready.load() != clients) std::this_thread::yield();
  const double t0 = now_seconds();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  cell_result res;
  res.seconds = now_seconds() - t0;
  std::vector<double> all;
  for (const auto& v : lat) {
    res.queries += std::int64_t(v.size());
    all.insert(all.end(), v.begin(), v.end());
  }
  res.lat = summarize_latencies(all);
  res.stats = server.stats();
  return res;
}

/// Open loop: queries arrive on a fixed per-client schedule (one script
/// round per tick); latency runs from the *scheduled* arrival, so a
/// server that falls behind pays the queueing delay in its tail instead
/// of silently slowing the arrival process down.
cell_result run_open_loop(dcl::listing_session& session, bool batching,
                          const std::vector<tenant_script>& scripts,
                          const std::vector<oracle>& oracles, int rounds,
                          double tick_seconds) {
  dcl::serving_session server(session, {.batching = batching});
  const int clients = int(scripts.size());
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const double start = now_seconds();
      for (int r = 0; r < rounds; ++r) {
        const double arrival = start + double(r) * tick_seconds;
        while (now_seconds() < arrival) std::this_thread::yield();
        const tenant_script& s = scripts[std::size_t(c)];
        const oracle& o = oracles[std::size_t(c)];
        double a = arrival;
        const auto cnt = server.query(s.full_count);
        lat[std::size_t(c)].push_back(now_seconds() - a);
        check_or_die(cnt.count == o.full_count, "open-loop count mismatch");
        a = now_seconds();
        const auto e = server.query_edges(s.edge_count, s.edges);
        lat[std::size_t(c)].push_back(now_seconds() - a);
        check_or_die(e.count == o.edge_count,
                     "open-loop edge count mismatch");
      }
    });
  }
  while (ready.load() != clients) std::this_thread::yield();
  const double t0 = now_seconds();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  cell_result res;
  res.seconds = now_seconds() - t0;
  std::vector<double> all;
  for (const auto& v : lat) {
    res.queries += std::int64_t(v.size());
    all.insert(all.end(), v.begin(), v.end());
  }
  res.lat = summarize_latencies(all);
  res.stats = server.stats();
  return res;
}

void emit_cell(std::ostringstream& js, bool& first, const char* loop,
               const char* engine, int clients, bool batching,
               const cell_result& r) {
  if (!first) js << ",\n";
  first = false;
  js << "    {\"loop\": \"" << loop << "\", \"engine\": \"" << engine
     << "\", \"clients\": " << clients
     << ", \"batching\": " << (batching ? "true" : "false")
     << ", \"queries\": " << r.queries << ", \"seconds\": " << r.seconds
     << ",\n     \"throughput_qps\": "
     << (r.seconds > 0 ? double(r.queries) / r.seconds : 0.0)
     << ", \"p50_seconds\": " << r.lat.p50
     << ", \"p95_seconds\": " << r.lat.p95
     << ", \"p99_seconds\": " << r.lat.p99
     << ",\n     \"admitted\": " << r.stats.queries
     << ", \"batches\": " << r.stats.batches
     << ", \"coalesced\": " << r.stats.coalesced
     << ", \"kernel_sweeps\": " << r.stats.kernel_sweeps << "}";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcl;
  bool smoke = false;
  std::vector<const char*> pos;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke")
      smoke = true;
    else
      pos.push_back(argv[i]);
  }
  const std::string out_path = pos.size() > 0 ? pos[0] : "BENCH_serving.json";

  struct engine_case {
    const char* name;
    listing_engine engine;
    graph g;
    int p;
    int threads;
  };
  std::vector<engine_case> cases;
  if (smoke) {
    cases.push_back({"congest_sim", listing_engine::congest_sim,
                     gen::ring_of_cliques(4, 8), 3, 2});
  } else {
    cases.push_back({"congest_sim", listing_engine::congest_sim,
                     gen::ring_of_cliques(6, 8), 3, 2});
    cases.push_back({"local_kclist", listing_engine::local_kclist,
                     gen::gnp(600, 0.05, 23), 4, 2});
  }
  const std::vector<int> client_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  const int rounds = smoke ? 2 : 6;

  std::ostringstream js;
  js << "{\n  \"benchmark\": \"serving\",\n  " << bench::meta_json() << ",\n"
     << "  \"note\": \"latencies include queueing; clients beyond "
        "meta.hardware_concurrency share cores, so throughput flattens "
        "there; the coalescing ratio (kernel_sweeps/queries) is the "
        "hardware-independent signal\",\n"
     << "  \"cells\": [\n";
  bool first = true;
  bool coalescing_seen = false;

  for (auto& ec : cases) {
    listing_session session(ec.g, {.engine = ec.engine, .threads = ec.threads});

    const int max_clients = client_counts.back();
    std::vector<tenant_script> scripts;
    for (int c = 0; c < max_clients; ++c)
      scripts.push_back(make_script(ec.g, ec.p, c, max_clients));

    // Solo oracle per tenant, computed on the bound session before any
    // concurrency: the serving answers must match these bit for bit.
    std::vector<oracle> oracles;
    for (const auto& s : scripts) {
      oracle o;
      o.full_count = session.run(s.full_count).count;
      o.full_cliques = session.run(s.full_collect).cliques;
      o.edge_count = session.cliques_in_edges(s.edge_count, s.edges).count;
      oracles.push_back(std::move(o));
    }

    for (const int clients : client_counts) {
      const std::vector<tenant_script> sub(scripts.begin(),
                                           scripts.begin() + clients);
      const std::vector<oracle> osub(oracles.begin(),
                                     oracles.begin() + clients);
      for (const bool batching : {false, true}) {
        const cell_result closed =
            run_closed_loop(session, batching, sub, osub, rounds);
        emit_cell(js, first, "closed", ec.name, clients, batching, closed);
        if (batching && clients > 1 &&
            closed.stats.kernel_sweeps < closed.stats.queries)
          coalescing_seen = true;

        const cell_result open = run_open_loop(
            session, batching, sub, osub, rounds, smoke ? 0.001 : 0.005);
        emit_cell(js, first, "open", ec.name, clients, batching, open);
        if (batching && clients > 1 &&
            open.stats.kernel_sweeps < open.stats.queries)
          coalescing_seen = true;
      }
    }
  }
  js << "\n  ],\n  \"coalescing_observed\": "
     << (coalescing_seen ? "true" : "false") << "\n}\n";

  // Full runs additionally gate on batching having actually coalesced
  // somewhere: multi-client batching-on cells must show kernel_sweeps <
  // queries, otherwise the admission layer silently degenerated to solo
  // serving. (Smoke runs are too small to guarantee overlap.)
  const int rc = bench::emit_json(out_path, js.str());
  if (rc != 0) return rc;
  if (!smoke && !coalescing_seen) {
    std::cerr << "bench_serving: GATE FAILED: no multi-client batching-on "
                 "cell coalesced (kernel_sweeps < queries)\n";
    return 3;
  }
  return 0;
}
