// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// Each workload generates its graphs from the seed (src/inputs.hpp), hands
// the program only graph(n, edges), binds each, and serves count/collect
// queries in a closed loop from one client for --seconds seconds. Every
// answer is checked against an oracle count from a separate local_kclist
// session; on congest workloads the ledger totals must also equal the
// graph's first answer. A wrong answer or an exception counts as a failed
// query, never as a latency sample.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant, which times calls into each layer from this file's own spans
// (src/spans.hpp) and prints the per-layer metrics. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "congest/network.hpp"
#include "congest/router.hpp"
#include "core/api/session.hpp"
#include "core/listing/collector.hpp"
#include "core/listing/k3_cluster.hpp"
#include "enumkernel/kernel.hpp"
#include "expander/anatomy.hpp"
#include "expander/decomposition.hpp"
#include "inputs.hpp"
#include "local/parallel.hpp"
#include "runtime/scratch.hpp"
#include "shard/coordinator.hpp"
#include "shard/launch.hpp"
#include "shard/partition.hpp"
#include "shard/serialize.hpp"
#include "spans.hpp"
#include "support/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using clock_type = std::chrono::steady_clock;

double since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

// ------------------------------------------------------------- workloads

enum class backend { congest, local, sharded };

struct workload {
  const char* name;
  backend kind;
  int p;
  dcl::sink_mode mode;
  int threads;    ///< session threads; per worker process when sharded
  int shards;     ///< worker processes (sharded only)
  int instances;  ///< graphs per run (see the note below)
  edge_input (*make)(std::uint64_t seed);
};

// Sizes are scaled so that one query takes about 0.2-0.4 s on a 4-core x86
// box, depending on load elsewhere on the host (congest_kp_decomp: 0.05-
// 0.07 s, with more graphs per run). That keeps about 40-80 samples in a
// run and so puts the reported tail near p75-p85, where scheduler hiccups
// on a shared machine do not decide it. Each keeps its layer share (see
// README.md). No workload runs more than 3 busy threads or processes.
// congest_k3_router lists one giant cluster, so a second pool thread
// would have nothing to do; it would only decide which malloc arena the
// cluster's buffers grow in, making peak memory bimodal.
const workload kWorkloads[] = {
    {"congest_k3_router", backend::congest, 3, dcl::sink_mode::count, 1, 0, 12,
     [](std::uint64_t s) { return gnp(640, 0.028, s); }},
    {"congest_kp_decomp", backend::congest, 4, dcl::sink_mode::collect, 2, 0,
     60, [](std::uint64_t s) {
       return planted_partition(10, 40, 0.4, 0.003, s);
     }},
    {"local_kclist_powerlaw", backend::local, 4, dcl::sink_mode::count, 2, 0,
     8, [](std::uint64_t s) { return chung_lu(80000, 2.3, 20.0, s); }},
    {"sharded_local_count", backend::sharded, 4, dcl::sink_mode::count, 1, 2,
     8, [](std::uint64_t s) { return chung_lu(11000, 2.3, 12.0, s); }},
};

// One run serves workload::instances graphs of the workload's family one
// after the other, each drawn from its own seed derived from --seed and
// bound fresh, and gives each an equal share of the measured time.
// Per-graph cost (the decomposition's iteration counts, the partition
// tree's shape) and per-binding noise (heap layout, which cores the
// threads land on) vary by 5-30% on this code, so a run that measured one
// graph would mostly measure which graph --seed happened to draw; pooling
// many keeps the run-to-run spread of every end-to-end metric small.
constexpr int kBindsPerGraph = 5;    ///< setup_s samples per instance
constexpr int kWarmupQueries = 1;    ///< per instance; checked, never timed
constexpr int kMinPerInstance = 2;   ///< timed queries per instance, at least
constexpr int kTailBeyond = 10;      ///< samples a reported percentile leaves
constexpr int kProbeThreads = 2;     ///< local.count_parallel pool size

std::uint64_t instance_seed(std::uint64_t seed, int instance) {
  return rng(seed * 0x100000001B3ull + std::uint64_t(instance)).next();
}

dcl::shard::shard_options fleet_options(const workload& w) {
  dcl::shard::shard_options opt;
  opt.partitioner.scheme = dcl::shard::partition_scheme::hashed;
  opt.partitioner.seed = 17;
  opt.worker_session.engine = dcl::listing_engine::local_kclist;
  opt.worker_session.threads = w.threads;
  return opt;
}

// ---------------------------------------------------------------- timing

/// Times one step; also records it as a span when a log is given.
class step {
 public:
  step(span_log* log, const char* name, std::int64_t query)
      : t0_(clock_type::now()) {
    if (log != nullptr) scope_.emplace(*log, name, query);
  }
  double close() { return scope_ ? scope_->close() : since(t0_); }

 private:
  clock_type::time_point t0_;
  std::optional<span_log::scope> scope_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// Peak resident memory of this process plus its largest reaped child
/// (a shard worker), in MB.
double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return double(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------- server

/// Fork-launched shard workers behind one coordinator. Construction is the
/// bind (fork-launch plus the coordinator's bind handshake); destruction
/// shuts the fleet down and reaps every worker.
class fleet {
 public:
  fleet(const dcl::graph& g, const workload& w, span_log* log) {
    step launch(log, "shard.launch", -1);
    workers_ = dcl::shard::launch_fork_workers(w.shards);
    launch.close();
    try {
      step handshake(log, "shard.handshake", -1);
      coord_.emplace(g, dcl::shard::take_links(workers_), fleet_options(w));
    } catch (...) {
      for (auto& wk : workers_) dcl::shard::kill_worker(wk);
      throw;
    }
  }
  ~fleet() {
    try {
      coord_->shutdown();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: fleet shutdown: " << e.what() << "\n";
    }
    for (auto& wk : workers_) {
      if (wk.pid <= 0) continue;
      try {
        if (dcl::shard::wait_worker(wk) != 0)
          std::cerr << "perfbench: shard worker exited nonzero\n";
      } catch (const std::exception& e) {
        std::cerr << "perfbench: reaping shard worker: " << e.what() << "\n";
      }
    }
  }
  fleet(const fleet&) = delete;
  fleet& operator=(const fleet&) = delete;

  dcl::shard::shard_coordinator& coordinator() { return *coord_; }

 private:
  std::vector<dcl::shard::launched_worker> workers_;
  std::optional<dcl::shard::shard_coordinator> coord_;
};

/// One bound graph: a listing_session, or a shard fleet. Members go in
/// reverse order, so the binding, which aliases the graph, goes first.
struct server {
  std::unique_ptr<dcl::graph> g;
  std::unique_ptr<dcl::listing_session> session;
  std::unique_ptr<fleet> shards;

  dcl::query_result run(const dcl::listing_query& q) {
    return shards ? shards->coordinator().run(q) : session->run(q);
  }
};

struct bind_times {
  double build_s = 0.0;
  double bind_s = 0.0;
};

/// Builds a fresh graph from the edge list (so the lazily built arc index
/// is cold) and binds it the way the workload serves it.
server bind_server(const workload& w, const edge_input& in, span_log* log,
                   bind_times& t) {
  server s;
  step build(log, "graph.build", -1);
  s.g = std::make_unique<dcl::graph>(in.n, in.edges);
  t.build_s = build.close();
  step bind(log, "api.bind", -1);
  if (w.kind == backend::sharded) {
    s.shards = std::make_unique<fleet>(*s.g, w, log);
  } else {
    dcl::session_options opt;
    opt.engine = w.kind == backend::congest ? dcl::listing_engine::congest_sim
                                            : dcl::listing_engine::local_kclist;
    opt.threads = w.threads;
    s.session = std::make_unique<dcl::listing_session>(*s.g, opt);
  }
  t.bind_s = bind.close();
  return s;
}

dcl::listing_query make_query(const workload& w) {
  dcl::listing_query q;
  q.p = w.p;
  q.mode = w.mode;
  return q;
}

// ----------------------------------------------------------- correctness

/// Checks each answer against the instance's oracle count and, on congest
/// workloads, its ledger totals against the instance's first answer.
struct checker {
  bool congest = false;
  bool collect = false;
  std::int64_t oracle = 0;
  std::int64_t rounds = -1;  ///< ledger totals of this instance's first answer
  std::int64_t messages = -1;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  checker(const workload& w)
      : congest(w.kind == backend::congest),
        collect(w.mode == dcl::sink_mode::collect) {}

  void begin_instance(std::int64_t oracle_count) {
    oracle = oracle_count;
    rounds = messages = -1;
  }

  bool accept(const dcl::query_result& r) {
    ++attempted;
    bool ok = r.count == oracle && (!collect || r.cliques.size() == oracle);
    if (ok && congest) {
      if (rounds < 0) {
        rounds = r.report.ledger.rounds();
        messages = r.report.ledger.messages();
      }
      ok = r.report.ledger.rounds() == rounds &&
           r.report.ledger.messages() == messages;
    }
    if (!ok) ++failed;
    return ok;
  }

  /// Runs one query; returns its latency, or nullopt if it failed.
  std::optional<double> timed_run(server& s, const dcl::listing_query& q,
                                  std::optional<dcl::query_result>* out =
                                      nullptr) {
    try {
      const auto t0 = clock_type::now();
      dcl::query_result r = s.run(q);
      const double dt = since(t0);
      if (!accept(r)) return std::nullopt;
      if (out != nullptr) out->emplace(std::move(r));
      return dt;
    } catch (const std::exception& e) {
      ++attempted;
      ++failed;
      std::cerr << "perfbench: query failed: " << e.what() << "\n";
      return std::nullopt;
    }
  }
};

/// The oracle takes another path than every workload's queries: one
/// thread, the scalar traversal and scalar intersections, where the timed
/// queries run auto-selected kernels on vector lanes, so a deterministic
/// miscount in either path fails the check on local_kclist_powerlaw too.
std::int64_t oracle_count(const dcl::graph& g, int p) {
  dcl::session_options opt;
  opt.engine = dcl::listing_engine::local_kclist;
  opt.threads = 1;
  opt.kernel = dcl::enumkernel::kernel_mode::scalar;
  opt.simd = dcl::simd_mode::scalar;
  dcl::listing_session solo(g, opt);
  dcl::listing_query q;
  q.p = p;
  q.mode = dcl::sink_mode::count;
  return solo.run(q).count;
}

// ---------------------------------------------------------------- output

struct metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
  bool in_json = true;  ///< false: printed in the table only
};

void print_result(const std::vector<metric>& ms, std::int64_t attempted,
                  std::int64_t failed) {
  std::cout << "\n";
  for (const metric& m : ms)
    std::cout << "  " << std::left << std::setw(30) << m.name << std::right
              << std::setw(16) << std::setprecision(6) << m.value << " "
              << std::left << std::setw(6) << m.unit << std::right << " "
              << m.note << "\n";
  std::cout << "  failed " << failed << " of " << attempted
            << " queries (failure share "
            << (attempted ? double(failed) / double(attempted) : 0.0) << ")\n";
  std::ostringstream js;
  js << std::setprecision(17) << "{\"correct\": "
     << (failed == 0 && attempted > 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const metric& m : ms) {
    if (!m.in_json) continue;
    js << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << m.value << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

std::string samples_note(std::size_t n) {
  return "n=" + std::to_string(n);
}

// ------------------------------------------------------- untraced run

/// One graph's share of an untraced run, as its serving process reports it.
struct instance_report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  double setup_s = 0.0;
  double timed_s = 0.0;
  double rss_mb = 0.0;
  double rounds = 0.0;  ///< congest ledger totals of the graph's answers
  double messages = 0.0;
  std::vector<double> lat;
};

/// Serves one graph: bind it, count its oracle, warm up, then run queries
/// in a closed loop for `share` seconds.
instance_report serve_instance(const workload& w, std::uint64_t seed,
                               double share) {
  instance_report rep;
  checker c(w);
  {
    const edge_input in = w.make(seed);
    // Several binds, each on a freshly built graph; the last one serves.
    std::optional<server> bound;
    std::vector<double> setups;
    for (int b = 0; b < kBindsPerGraph; ++b) {
      bound.reset();
      bind_times t;
      bound.emplace(bind_server(w, in, nullptr, t));
      setups.push_back(t.build_s + t.bind_s);
    }
    rep.setup_s = median(setups);
    server& s = *bound;
    c.begin_instance(oracle_count(*s.g, w.p));
    const dcl::listing_query q = make_query(w);
    for (int k = 0; k < kWarmupQueries; ++k) c.timed_run(s, q);
    // At least kMinPerInstance samples; the cap keeps a pathological
    // slowdown inside the run's time limit.
    const auto t0 = clock_type::now();
    for (int k = 0; (k < kMinPerInstance || since(t0) < share) &&
                    since(t0) < 4.0 * share + 2.0;
         ++k)
      if (auto dt = c.timed_run(s, q)) rep.lat.push_back(*dt);
    rep.timed_s = since(t0);
  }  // unbinds, reaping shard workers, before their peak memory is read
  rep.rss_mb = peak_rss_mb();
  rep.attempted = c.attempted;
  rep.failed = c.failed;
  rep.rounds = double(std::max<std::int64_t>(c.rounds, 0));
  rep.messages = double(std::max<std::int64_t>(c.messages, 0));
  return rep;
}

/// Runs serve_instance in a forked child, so every graph starts from a
/// fresh heap and peak_rss_mb measures that graph alone. The child sends
/// its report back over a pipe as doubles; a child that dies before
/// reporting counts as one failed query.
instance_report run_isolated(const workload& w, std::uint64_t seed,
                             double share) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    instance_report r;
    try {
      r = serve_instance(w, seed, share);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: instance failed: " << e.what() << "\n";
      r = instance_report{};
      r.attempted = r.failed = 1;
    }
    std::vector<double> v = {double(r.attempted), double(r.failed),
                             r.setup_s,          r.timed_s,
                             r.rss_mb,           r.rounds,
                             r.messages,         double(r.lat.size())};
    v.insert(v.end(), r.lat.begin(), r.lat.end());
    const char* p = reinterpret_cast<const char*>(v.data());
    std::size_t left = v.size() * sizeof(double);
    while (left > 0) {
      const ssize_t k = write(fds[1], p, left);
      if (k <= 0 && errno != EINTR) _exit(1);
      if (k > 0) {
        p += k;
        left -= std::size_t(k);
      }
    }
    _exit(0);
  }
  close(fds[1]);
  std::vector<char> bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t k = read(fds[0], buf, sizeof buf);
    if (k > 0) bytes.insert(bytes.end(), buf, buf + k);
    else if (k == 0 || errno != EINTR) break;
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  std::vector<double> v(bytes.size() / sizeof(double));
  std::memcpy(v.data(), bytes.data(), v.size() * sizeof(double));
  instance_report r;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || v.size() < 8 ||
      v.size() != 8 + std::size_t(v[7])) {
    r.attempted = r.failed = 1;
    return r;
  }
  r.attempted = std::int64_t(v[0]);
  r.failed = std::int64_t(v[1]);
  r.setup_s = v[2];
  r.timed_s = v[3];
  r.rss_mb = v[4];
  r.rounds = v[5];
  r.messages = v[6];
  r.lat.assign(v.begin() + 8, v.end());
  return r;
}

/// End-to-end metrics: closed loop, one client, tracing off.
void run_untraced(const workload& w, std::uint64_t seed, double seconds) {
  std::vector<double> setup_samples, lat, rss, rounds, messages;
  std::int64_t attempted = 0, failed = 0;
  double timed = 0.0;
  for (int i = 0; i < w.instances; ++i) {
    const instance_report r =
        run_isolated(w, instance_seed(seed, i), seconds / w.instances);
    attempted += r.attempted;
    failed += r.failed;
    if (r.failed == r.attempted) continue;
    setup_samples.push_back(r.setup_s);
    lat.insert(lat.end(), r.lat.begin(), r.lat.end());
    timed += r.timed_s;
    rss.push_back(r.rss_mb);
    rounds.push_back(r.rounds);
    messages.push_back(r.messages);
  }

  std::sort(lat.begin(), lat.end());
  const std::size_t n = lat.size();
  const std::string per_graph =
      "median of " + std::to_string(setup_samples.size()) + " graphs";
  std::vector<metric> ms;
  ms.push_back({"setup_s", median(setup_samples), "s",
                per_graph + ", each the median of " +
                    std::to_string(kBindsPerGraph) +
                    " fresh graph builds + binds"});
  ms.push_back({"latency_p50_s", median(lat), "s", samples_note(n)});
  if (n > std::size_t(kTailBeyond)) {
    // Highest percentile that still leaves kTailBeyond samples beyond it.
    const std::size_t idx = n - 1 - kTailBeyond;
    std::ostringstream note;
    note << "p" << std::fixed << std::setprecision(1)
         << 100.0 * double(idx + 1) / double(n) << ", " << samples_note(n)
         << ", " << kTailBeyond << " beyond";
    ms.push_back({"latency_tail_s", lat[idx], "s", note.str()});
  }
  ms.push_back({"queries_per_s", timed > 0 ? double(n) / timed : 0.0, "1/s",
                samples_note(n) + " in " + std::to_string(timed) + " s"});
  ms.push_back({"peak_rss_mb", median(rss), "MB",
                per_graph + ", serving process + largest shard worker"});
  // Exact, and 0 on local workloads: in the JSON only as per-layer metrics.
  ms.push_back({"congest_rounds", median(rounds), "count",
                "per query, median over graphs", false});
  ms.push_back({"congest_messages", median(messages), "count",
                "per query, median over graphs", false});
  print_result(ms, attempted, failed);
}

// --------------------------------------------------------- traced run

/// Per-layer probes around calls into each layer's public functions.
struct layer_values {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> exact_counts;  ///< of the current graph

  /// A timing or other per-call value: one sample per call.
  void add(const std::string& name, double v) { samples[name].push_back(v); }

  /// A value that is a pure function of the graph (an exact count, or a
  /// ratio of counts): one sample per graph however many times it is
  /// measured, so its median over the run's graphs repeats exactly.
  void exact(const std::string& name, double v) { exact_counts[name] = v; }

  void end_graph() {
    for (const auto& [name, v] : exact_counts) samples[name].push_back(v);
    exact_counts.clear();
  }

  double med(const std::string& name) const {
    auto it = samples.find(name);
    return it == samples.end() ? 0.0 : median(it->second);
  }
};

/// Epsilon the congest drivers use when the query leaves it at 0.
double driver_epsilon(int p) { return p == 4 ? 1.0 / 12.0 : 1.0 / 18.0; }

/// expander + core/listing + congest router probes (congest workloads).
void probe_congest(const workload& w, const dcl::graph& g,
                   const dcl::query_result& traced, std::uint64_t seed,
                   std::int64_t qid, span_log& log, layer_values& lv) {
  dcl::decomposition_options dopt;
  dopt.epsilon = driver_epsilon(w.p);
  step dec(&log, "expander.decompose", qid);
  const dcl::expander_decomposition d = dcl::decompose(g, dopt);
  lv.add("expander.decompose_s", dec.close());
  step ana(&log, "expander.anatomy", qid);
  const auto anatomy = dcl::build_anatomy(g, d, {.p = w.p});
  lv.add("expander.anatomy_s", ana.close());
  lv.exact("expander.clusters", double(d.clusters.size()));
  lv.exact("expander.remainder_fraction", d.remainder_fraction(g));

  // Triangle listing inside every level-0 cluster on a fresh network and
  // ledger (the kp lister also needs the driver's E' delivery, which is
  // not public; the k3 lister exercises the same cluster machinery).
  std::vector<dcl::cluster_anatomy> k3_only;
  if (w.p != 3) k3_only = dcl::build_anatomy(g, d, {.p = 3});
  const auto& k3_anatomy = w.p == 3 ? anatomy : k3_only;
  std::vector<double> per_cluster;
  step all(&log, "listing.clusters", qid);
  for (std::size_t ci = 0; ci < k3_anatomy.size(); ++ci) {
    const auto& a = k3_anatomy[ci];
    if (a.e_minus.empty()) continue;
    step one(&log, "listing.cluster", qid);
    dcl::cost_ledger ledger;
    dcl::network net(g, ledger);
    dcl::clique_collector out(3);
    dcl::list_k3_in_cluster(net, g, a, dcl::lb_engine::deterministic,
                            seed + ci, out, "cluster" + std::to_string(ci));
    per_cluster.push_back(one.close());
  }
  lv.add("listing.cluster_s", all.close());
  lv.add("listing.cluster_max_s", max_of(per_cluster));
  const auto& ph = traced.report.phase_seconds;
  const auto exh = ph.find("exhaustive");
  lv.add("listing.exhaustive_s", exh == ph.end() ? 0.0 : exh->second);
  lv.exact("listing.useful_ratio",
           traced.report.emitted > 0
               ? double(traced.count) / double(traced.report.emitted)
               : 0.0);

  // Router on the largest level-0 cluster, with a seeded batch as large as
  // the largest route batch the traced query issued.
  std::size_t big = 0;
  for (std::size_t ci = 1; ci < d.clusters.size(); ++ci)
    if (d.clusters[ci].vertices.size() > d.clusters[big].vertices.size())
      big = ci;
  std::int64_t batch = 0;
  if (traced.report.trace)
    for (const auto& ev : traced.report.trace->events())
      if (ev.kind == dcl::trace_event_kind::route)
        batch = std::max(batch, ev.batch);
  if (d.clusters.empty()) return;
  const auto& cl = d.clusters[big];
  const dcl::vertex k = dcl::vertex(cl.vertices.size());
  if (batch == 0) batch = k;
  dcl::edge_list local;
  const auto local_id = [&](dcl::vertex v) {
    return dcl::vertex(
        std::lower_bound(cl.vertices.begin(), cl.vertices.end(), v) -
        cl.vertices.begin());
  };
  for (const auto& e : cl.edges)
    local.push_back(dcl::make_edge(local_id(e.u), local_id(e.v)));
  std::sort(local.begin(), local.end());
  const dcl::graph cg(k, local);
  step build(&log, "congest.router_build", qid);
  dcl::cluster_router router(cg);
  lv.add("congest.router_build_s", build.close());
  rng r(seed ^ 0x5EEDull);
  dcl::message_batch io;
  for (std::int64_t i = 0; i < batch; ++i)
    io.emplace(dcl::vertex(r.next() % std::uint64_t(k)),
               dcl::vertex(r.next() % std::uint64_t(k)), 0, std::uint64_t(i));
  step route(&log, "congest.route", qid);
  const dcl::route_stats rs = router.route(io);
  const double route_s = route.close();
  lv.add("congest.route_s", route_s);
  lv.add("congest.route_hop_msgs_per_s", double(rs.messages) / route_s);
  lv.exact("congest.route_rounds", double(rs.rounds));
}

/// enumkernel + local/runtime probes (every workload).
struct kernel_probe {
  const dcl::graph& g;
  int p;
  dcl::enumkernel::enum_scratch ws;
  dcl::enumkernel::dag dag;
  dcl::runtime::thread_pool pool{kProbeThreads};
  dcl::runtime::query_scratch scratch;

  kernel_probe(const dcl::graph& graph, int arity) : g(graph), p(arity) {
    dag = dcl::enumkernel::orient(
        g, dcl::enumkernel::orientation_policy::degeneracy);
  }

  void run(std::int64_t oracle, std::int64_t qid, span_log& log,
           layer_values& lv) {
    step orient(&log, "kernel.orient", qid);
    dcl::enumkernel::orient_into(
        g.view(), dcl::enumkernel::orientation_policy::degeneracy,
        ws.orient_ws, ws.d);
    lv.add("kernel.orient_s", orient.close());
    step one(&log, "kernel.count_1t", qid);
    const std::int64_t c1 = dcl::enumkernel::count_cliques(g, p, ws);
    const double t1 = one.close();
    lv.add("kernel.count_1t_s", t1);
    dcl::local::parallel_listing_stats st;
    step par(&log, "local.count_parallel", qid);
    const std::int64_t cp = dcl::local::count_cliques_parallel(
        dag, p, pool, scratch, 128, &st);
    const double tp = par.close();
    lv.add("local.count_parallel_s", tp);
    lv.add("local.parallel_efficiency", t1 / (double(pool.size()) * tp));
    double mx = 0.0, sum = 0.0;
    for (auto c : st.per_thread_cliques) {
      mx = std::max(mx, double(c));
      sum += double(c);
    }
    lv.add("local.thread_imbalance",
           sum > 0 ? mx * double(st.per_thread_cliques.size()) / sum : 0.0);
    if (c1 != oracle || cp != oracle)
      throw std::runtime_error("kernel probe count differs from the oracle");
  }
};

/// shard probes: each worker's own query, in process, on its slice.
struct shard_probe {
  const workload& w;
  const dcl::graph& g;
  dcl::shard::shard_options opt;
  std::vector<dcl::shard::graph_slice> slices;
  std::vector<std::unique_ptr<dcl::listing_session>> sessions;

  shard_probe(const workload& wl, const dcl::graph& graph)
      : w(wl), g(graph), opt(fleet_options(wl)) {
    for (int i = 0; i < w.shards; ++i)
      slices.push_back(
          dcl::shard::build_graph_slice(g, opt.partitioner, i, w.shards));
    for (const auto& s : slices)
      sessions.push_back(
          std::make_unique<dcl::listing_session>(s.local, opt.worker_session));
  }

  /// The worker's reply to one query: the slice's cliques whose smallest
  /// original vertex this shard owns. This mirrors the collect path of
  /// serve_local (src/shard/worker.cpp), which is not public, and does not
  /// follow changes to it: shard.worker_run_s, shard.encode_s and
  /// shard.decode_s time this copy, and shard.fold_residual_s subtracts
  /// them from the real coordinator run (so it can go negative once the
  /// worker stops shipping every tuple). shard.tuples_per_clique, from the
  /// program's own wire counters, is the figure that follows the worker.
  dcl::shard::shard_result reply(int shard, const dcl::query_result& r) const {
    dcl::shard::shard_result res;
    res.p = w.p;
    const auto& remap = slices[std::size_t(shard)].to_original;
    for (std::int64_t i = 0; i < r.cliques.size(); ++i) {
      const auto t = r.cliques[i];
      const dcl::vertex min_original = remap[std::size_t(t[0])];
      if (dcl::shard::shard_of_vertex(opt.partitioner, min_original,
                                      g.num_vertices(), w.shards) != shard)
        continue;
      for (dcl::vertex x : t) res.raw_tuples.push_back(remap[std::size_t(x)]);
    }
    res.emitted = std::int64_t(res.raw_tuples.size()) / w.p;
    return res;
  }

  void run(double run_s, std::int64_t oracle, std::int64_t qid, span_log& log,
           layer_values& lv) {
    {
      step sl(&log, "shard.slice_build", qid);
      for (int i = 0; i < w.shards; ++i)
        dcl::shard::build_graph_slice(g, opt.partitioner, i, w.shards);
      lv.add("shard.slice_build_s", sl.close());
    }
    dcl::listing_query q;
    q.p = w.p;
    q.mode = dcl::sink_mode::collect;  // what a local worker runs
    double worker_max = 0.0, encode_max = 0.0, decode_sum = 0.0;
    std::int64_t emitted = 0;
    for (int i = 0; i < w.shards; ++i) {
      step wr(&log, "shard.worker_run", qid);
      const dcl::query_result r = sessions[std::size_t(i)]->run(q);
      worker_max = std::max(worker_max, wr.close());
      const dcl::shard::shard_result res = reply(i, r);
      emitted += res.emitted;
      step enc(&log, "shard.encode", qid);
      dcl::shard::wire_buf b;
      dcl::shard::encode_result(b, res);
      encode_max = std::max(encode_max, enc.close());
      step dec(&log, "shard.decode", qid);
      dcl::shard::wire_cursor cur(b.view());
      const dcl::shard::shard_result back = dcl::shard::decode_result(cur);
      decode_sum += dec.close();
      if (back.emitted != res.emitted)
        throw std::runtime_error("shard payload did not round-trip");
    }
    if (emitted != oracle)
      throw std::runtime_error("shard replies do not cover the oracle count");
    lv.add("shard.worker_run_s", worker_max);
    lv.add("shard.encode_s", encode_max);
    lv.add("shard.decode_s", decode_sum);
    lv.add("shard.fold_residual_s",
           run_s - worker_max - encode_max - decode_sum);
  }
};

struct wire_totals {
  double bytes = 0.0;
  double frames = 0.0;
};

wire_totals wire_sent(server& s) {
  wire_totals t;
  for (const auto& st : s.shards->coordinator().worker_stats()) {
    t.bytes += double(st.wire.bytes_sent);
    t.frames += double(st.wire.frames_sent);
  }
  return t;
}

struct layer_metric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in print order. A workload that does not run a
// layer reports its metrics as 0.
const layer_metric kLayerMetrics[] = {
    {"graph.build_s", "s"},
    {"api.bind_s", "s"},
    {"api.run_s", "s"},
    {"trace.overhead_ratio", "ratio"},
    {"congest_rounds", "count"},
    {"congest_messages", "count"},
    {"expander.decompose_s", "s"},
    {"expander.anatomy_s", "s"},
    {"expander.clusters", "count"},
    {"expander.remainder_fraction", "ratio"},
    {"listing.cluster_s", "s"},
    {"listing.cluster_max_s", "s"},
    {"listing.exhaustive_s", "s"},
    {"listing.useful_ratio", "ratio"},
    {"congest.router_build_s", "s"},
    {"congest.route_s", "s"},
    {"congest.route_hop_msgs_per_s", "1/s"},
    {"congest.route_rounds", "count"},
    {"trace.routes", "count"},
    {"trace.route_hop_messages", "count"},
    {"trace.batch_messages", "count"},
    {"trace.max_batch", "count"},
    {"trace.mean_dst_density", "ratio"},
    {"kernel.orient_s", "s"},
    {"kernel.count_1t_s", "s"},
    {"local.count_parallel_s", "s"},
    {"local.parallel_efficiency", "ratio"},
    {"local.thread_imbalance", "ratio"},
    {"shard.slice_build_s", "s"},
    {"shard.fleet_bind_s", "s"},
    {"shard.worker_run_s", "s"},
    {"shard.encode_s", "s"},
    {"shard.decode_s", "s"},
    {"shard.wire_bytes_per_query", "B"},
    {"shard.wire_frames_per_query", "count"},
    {"shard.tuples_per_clique", "ratio"},
    {"shard.fold_residual_s", "s"},
};

/// Per-layer metrics: the same instances and queries as the untraced run,
/// with spans around every layer call and congest tracing switched on.
void run_traced(const workload& w, std::uint64_t seed, double seconds,
                const std::string& spans_path) {
  span_log log;
  layer_values lv;
  checker c(w);
  std::vector<double> base;  // untraced latencies, for trace.overhead_ratio
  const dcl::listing_query plain = make_query(w);
  dcl::listing_query traced = plain;
  traced.trace = true;
  std::int64_t qid = 0;
  for (int i = 0; i < w.instances; ++i) {
    const edge_input in = w.make(instance_seed(seed, i));
    bind_times t;
    server s = bind_server(w, in, &log, t);
    lv.add("graph.build_s", t.build_s);
    lv.add("api.bind_s", t.bind_s);
    if (s.shards) lv.add("shard.fleet_bind_s", t.bind_s);
    c.begin_instance(oracle_count(*s.g, w.p));
    for (int k = 0; k < kWarmupQueries; ++k) c.timed_run(s, plain);
    if (auto dt = c.timed_run(s, plain)) base.push_back(*dt);

    std::optional<shard_probe> sp;
    if (s.shards) sp.emplace(w, *s.g);
    kernel_probe kp(*s.g, w.p);
    const double share = seconds / w.instances;
    const auto t0 = clock_type::now();
    for (int k = 0; k < 1 || (since(t0) < share && k < 50); ++k, ++qid) {
      try {
        span_log::scope query(log, "query", qid);
        wire_totals before;
        if (s.shards) before = wire_sent(s);
        std::optional<dcl::query_result> res;
        std::optional<double> dt;
        {
          span_log::scope run(log, "api.run", qid);
          dt = c.timed_run(s, traced, &res);
        }
        if (!dt) continue;
        const dcl::query_result& r = *res;
        lv.add("api.run_s", *dt);
        if (c.congest) {
          lv.exact("congest_rounds", double(r.report.ledger.rounds()));
          lv.exact("congest_messages", double(r.report.ledger.messages()));
          const auto& ts = r.report.trace_stats;
          lv.exact("trace.routes", double(ts.routes));
          lv.exact("trace.route_hop_messages", double(ts.route_hop_messages));
          lv.exact("trace.batch_messages", double(ts.batch_messages));
          lv.exact("trace.max_batch", double(ts.max_batch));
          lv.exact("trace.mean_dst_density", ts.mean_dst_density);
          probe_congest(w, *s.g, r, instance_seed(seed, i), qid, log, lv);
        }
        if (s.shards) {
          const wire_totals after = wire_sent(s);
          lv.exact("shard.wire_bytes_per_query", after.bytes - before.bytes);
          lv.exact("shard.wire_frames_per_query", after.frames - before.frames);
          // Worker-sent bytes per byte of the answer's tuples: about 1 while
          // workers ship every clique, near 0 once they ship counts.
          const double tuple_bytes =
              double(c.oracle) * w.p * double(sizeof(dcl::vertex));
          lv.exact("shard.tuples_per_clique",
                   tuple_bytes > 0 ? (after.bytes - before.bytes) / tuple_bytes
                                   : 0.0);
          sp->run(*dt, c.oracle, qid, log, lv);
        }
        kp.run(c.oracle, qid, log, lv);
      } catch (const std::exception& e) {
        ++c.failed;
        std::cerr << "perfbench: traced iteration failed: " << e.what()
                  << "\n";
      }
    }
    lv.end_graph();
  }  // probes, then the server, unbind here; probe pools join before the
     // next instance forks its shard workers

  const double base_p50 = median(base);
  lv.add("trace.overhead_ratio",
         base_p50 > 0 ? lv.med("api.run_s") / base_p50 : 0.0);

  std::cout << "\n  self time per span (s): name count total self\n";
  for (const auto& [name, r] : log.self_times())
    std::cout << "    " << std::left << std::setw(24) << name << std::right
              << std::setw(6) << r.count << std::setw(12)
              << std::setprecision(5) << r.total_s << std::setw(12)
              << r.self_s << "\n";
  if (!spans_path.empty()) {
    std::ofstream os(spans_path);
    log.write_jsonl(os);
    if (os) std::cout << "  spans written to " << spans_path << "\n";
  }

  std::vector<metric> ms;
  for (const layer_metric& m : kLayerMetrics) {
    const auto it = lv.samples.find(m.name);
    const std::size_t n = it == lv.samples.end() ? 0 : it->second.size();
    ms.push_back({m.name, lv.med(m.name), m.unit,
                  n ? "median, " + samples_note(n) : "not run"});
  }
  print_result(ms, c.attempted, c.failed);
}

// ------------------------------------------------------------------ main

int usage() {
  std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <path>]\nworkloads:";
  for (const workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

int main_impl(int argc, char** argv) {
  std::string name, spans_path;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") name = v;
    else if (k == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") seconds = std::atof(v);
    else if (k == "--trace") trace = std::atoi(v);
    else if (k == "--spans") spans_path = v;
    else return usage();
  }
  if (argc % 2 == 0 || seconds <= 0.0 || (trace != 0 && trace != 1))
    return usage();
  const workload* w = nullptr;
  for (const workload& cand : kWorkloads)
    if (name == cand.name) w = &cand;
  if (w == nullptr) return usage();

  const int busy = w->kind == backend::sharded ? w->shards + 1 : w->threads;
  std::cout << "perfbench workload=" << w->name << " seed=" << seed
            << " seconds=" << seconds << " trace=" << trace << "\n"
            << "  meta nproc=" << std::thread::hardware_concurrency()
            << " simd=" << dcl::simd::simd_mode_name(dcl::simd::detected_mode())
            << " build=" << PERFBENCH_BUILD_TYPE << " busy_threads_or_procs="
            << busy << "\n";
  if (unsigned(busy) > std::max(1u, std::thread::hardware_concurrency()))
    std::cout << "  note: more busy threads/processes than nproc\n";

  {
    // Freed before any instance is forked, so no child carries its pages.
    const auto g0 = clock_type::now();
    const edge_input first = w->make(instance_seed(seed, 0));
    std::cout << "  instances=" << w->instances
              << ", the first has n=" << first.n
              << " m=" << first.edges.size() << " p=" << w->p
              << " (generated in " << since(g0) << " s)\n";
  }
  if (trace)
    run_traced(*w, seed, seconds, spans_path);
  else
    run_untraced(*w, seed, seconds);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
