// The paper's experiments in one self-checking run: E1–E6, E8–E10 and the
// two DESIGN.md §2 ablations (E7, routing, lives in bench_routing).
//
//   ./bench_paper [out.json]        (default BENCH_paper.json)
//
// One JSON section per experiment: rows of deterministic counters (no
// wall time; that goes to stderr) plus the log-log slope of each series,
// so everything outside "meta" is reproducible bit for bit. Self-checks:
//   * every listing cell (E1 with its naive series, E2, E8, E10 and the
//     ε-listing ablation) equals the sequential collect_cliques oracle,
//     and every E10 cell lists at least one clique;
//   * E4/E5: the Def 14 / Def 22 validators report ok, every slack <= 1;
//   * E6 and the φ-schedule ablation: remainder fraction <= ε;
//   * E8: the run never takes the central fallback (DESIGN.md §2.6);
//   * E9: every cluster has |V*_C| <= |V−_C| <= |V_C| <= n.
// A failed check is printed to stderr; the bench still writes the
// document, then exits 2.

#include <algorithm>
#include <cmath>
#include <concepts>
#include <iostream>
#include <map>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"

#include "baselines/dlp12.hpp"
#include "baselines/naive.hpp"
#include "congest/cluster_comm.hpp"
#include "congest/router.hpp"
#include "core/api/session.hpp"
#include "core/listing/kp_cluster.hpp"
#include "core/ptree/build_k3.hpp"
#include "core/ptree/build_split.hpp"
#include "core/streaming/pp_simulate.hpp"
#include "expander/anatomy.hpp"
#include "expander/decomposition.hpp"
#include "graph/generators.hpp"
#include "support/math_util.hpp"
#include "support/prng.hpp"
#include "support/stats.hpp"

namespace dcl {
namespace {

/// A JSON scalar, rendered on construction (non-finite floats as null).
struct json_value {
  std::string text;
  json_value(const std::string& v) : text('"' + v + '"') {}
  json_value(const char* v) : json_value(std::string(v)) {}
  json_value(bool v) : text(v ? "true" : "false") {}
  json_value(double v) : text("null") {
    if (!std::isfinite(v)) return;
    std::ostringstream os;
    os << v;
    text = os.str();
  }
  template <std::integral T>
  json_value(T v) : text(std::to_string(v)) {}
};

using fields = std::vector<std::pair<std::string, json_value>>;

std::string object(const fields& f) {
  std::string out = "{";
  for (const auto& [key, value] : f)
    out += (out.size() > 1 ? ", \"" : "\"") + key + "\": " + value.text;
  return out + "}";
}

/// One experiment's rows, slope series and check tally.
struct section {
  section(std::string name, std::string claim)
      : name(std::move(name)), claim(std::move(claim)) {}

  std::string name, claim;
  std::vector<std::string> rows;
  /// series → (x, y) points for the log-log slope.
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      series;
  std::int64_t checks = 0, failed = 0;

  void add(const fields& f) { rows.push_back(object(f)); }
  void point(const std::string& s, double x, double y) {
    series[s].first.push_back(x);
    series[s].second.push_back(y);
  }
  void expect(bool ok, const std::string& what) {
    ++checks;
    if (ok) return;
    ++failed;
    std::cerr << "CHECK FAILED: " << name << " " << what << "\n";
  }

  std::string json() const {
    std::string out = "    \"" + name + "\": {\n      \"claim\": \"" +
                      claim + "\",\n      \"checks\": " +
                      std::to_string(checks) + ",\n      \"rows\": [";
    for (std::size_t i = 0; i < rows.size(); ++i)
      out += (i ? ",\n        " : "\n        ") + rows[i];
    out += "\n      ]";
    fields slopes;
    for (const auto& [s, xy] : series)
      if (xy.first.size() >= 2)
        slopes.emplace_back(s, loglog_slope(xy.first, xy.second));
    if (!slopes.empty())
      out += ",\n      \"loglog_slopes\": " + object(slopes);
    return out + "\n    }";
  }
};

std::string eps_label(int inv_eps) { return "1/" + std::to_string(inv_eps); }

std::string cell(const std::string& what, std::int64_t n) {
  return what + " n=" + std::to_string(n);
}

// E1 (Thm 32): the deterministic engine against the randomized one, the
// unbalanced id-range split and the naive gather (linear in m).
void e1_triangles(section& s) {
  const char* engines[] = {"deterministic", "randomized", "unbalanced"};
  for (const std::string family : {"gnp", "powerlaw"})
    for (const vertex n : {128, 256, 512, 1024}) {
      const auto g = family == "gnp" ? gen::gnp(n, 14.0 / double(n), 7)
                                     : gen::power_law(n, 2.4, 12.0, 7);
      const auto want = collect_cliques(g, 3);
      for (int e = 0; e < 3; ++e) {
        listing_query q;
        q.lb = lb_engine(e);
        q.seed = 99;
        const auto res = listing_session(g).run(q);
        const auto& rep = res.report;
        const std::string series = family + "/" + engines[e];
        s.expect(res.cliques == want, cell(series, n) + " listing");
        s.add({{"family", family}, {"n", n}, {"engine", engines[e]},
               {"rounds", rep.ledger.rounds()},
               {"messages", rep.ledger.messages()},
               {"decomp_model", rep.model_decomposition_rounds},
               {"triangles", res.cliques.size()},
               {"levels", rep.levels.size()},
               {"lb_load", rep.max_normalized_load}});
        s.point(series, double(n), double(rep.ledger.rounds()));
        if (rep.max_normalized_load > 0)
          s.point(series + "/thm6-load", double(n), rep.max_normalized_load);
      }
      if (family != "gnp") continue;
      const auto naive = baseline::naive_central_listing(g, 3);
      s.expect(naive.cliques == want, cell("gnp/naive", n) + " listing");
      s.add({{"family", family}, {"n", n}, {"engine", "naive"},
             {"rounds", naive.ledger.rounds()},
             {"triangles", naive.cliques.size()}});
      s.point("gnp/naive", double(n), double(naive.ledger.rounds()));
    }
}

// E2 (Thm 36): average degree ~3·sqrt(n) keeps V−_C populated, so the
// whole split-tree pipeline runs at every size.
void e2_kp(section& s) {
  for (const int p : {4, 5})
    for (const vertex n : {64, 128, 256, 512}) {
      if (p == 5 && n == 512) continue;
      const double avg = 3.0 * std::sqrt(double(n));
      const auto g = gen::gnp(n, std::min(0.9, avg / double(n)), 11);
      listing_query q;
      q.p = p;
      const auto res = listing_session(g).run(q);
      const auto& rep = res.report;
      const std::string series = "K" + std::to_string(p);
      s.expect(res.cliques == collect_cliques(g, p),
               cell(series, n) + " listing");
      s.add({{"p", p}, {"n", n}, {"rounds", rep.ledger.rounds()},
             {"messages", rep.ledger.messages()},
             {"decomp_model", rep.model_decomposition_rounds},
             {"cliques", res.cliques.size()},
             {"deferred",
              rep.levels.empty() ? 0 : rep.levels[0].deferred_clusters}});
      s.point(series, double(n), double(rep.ledger.rounds()));
    }
}

/// Thresholded drill machine: requests aux on every threshold crossing.
class drill final : public pp_algorithm {
 public:
  explicit drill(std::uint64_t threshold) : threshold_(threshold) {}
  pp_limits limits() const override {
    return {.n_out = 1 << 20, .b_aux = 1 << 20, .b_write = 1 << 20};
  }
  std::int64_t state_words() const override { return 2; }
  void reset() override { acc_ = 0; }
  void on_main(const pp_token& t, pp_context& ctx) override {
    const auto before = acc_ / threshold_;
    acc_ += t.at(0);
    if (acc_ / threshold_ != before) ctx.request_aux();
  }
  void on_aux(const pp_token& t, pp_context& ctx) override {
    ctx.write(pp_token{t.at(0)});
  }

 private:
  std::uint64_t threshold_;
  std::uint64_t acc_ = 0;
};

std::vector<vertex> all_vertices(vertex n) {
  std::vector<vertex> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  return all;
}

// E3 (Thm 11): λ = 1 is "leader with queries", λ = k is "state passing",
// the minimum lies in between; GET-AUX adds roundtrips.
void e3_streaming(section& s) {
  const auto g = gen::hypercube(8);
  const vertex k = g.num_vertices();
  const auto all = all_vertices(k);
  pp_stream stream;
  for (int i = 0; i < 4096; ++i) {
    pp_main_entry e;
    std::uint64_t sum = 0;
    for (int a = 0; a < 3; ++a) {
      const auto val = splitmix64(std::uint64_t(i * 3 + a)) % 40;
      e.aux.push_back(pp_token{val});
      sum += val;
    }
    e.main = pp_token{sum};
    stream.push_back(e);
  }
  for (const std::int64_t lambda : {1, 4, 16, 64, 256})
    for (const bool with_aux : {false, true}) {
      // Without aux the threshold is never crossed.
      drill alg(with_aux ? 500 : std::uint64_t(1) << 60);
      cost_ledger ledger;
      network net(g, ledger);
      cluster_comm cc(net, all, g.edges(), "c");
      pp_instance inst;
      inst.alg = &alg;
      inst.segment = [&stream, k](vertex i) {
        const std::int64_t n = std::int64_t(stream.size());
        return pp_stream(stream.begin() + n * i / k,
                         stream.begin() + n * (i + 1) / k);
      };
      const auto rep =
          pp_simulate(cc, all, std::span(&inst, 1), lambda, "sim");
      s.add({{"lambda", lambda}, {"get_aux", with_aux},
             {"rounds", ledger.rounds()},
             {"phase1_rounds", rep.phase1_rounds},
             {"phase2_rounds", rep.phase2_rounds},
             {"hop_batches", rep.hop_batches},
             {"aux_requests", rep.outputs[0].stats.aux_requests}});
    }
}

/// `g` plus the cycle 0-1-…-(n-1)-0, so every cluster below is connected.
graph with_cycle(const graph& g) {
  auto edges = g.edges();
  const vertex n = g.num_vertices();
  for (vertex v = 0; v < n; ++v)
    edges.push_back(make_edge(v, vertex((v + 1) % n)));
  return graph::from_unsorted(n, std::move(edges));
}

void expect_slacks(section& s, const validate_report& rep,
                   const std::string& what) {
  s.expect(rep.ok, what + " valid " + rep.first_violation);
  s.expect(rep.max_deg_ratio <= 1.0 && rep.max_updeg_ratio <= 1.0 &&
               rep.max_size_ratio <= 1.0,
           what + " slack <= 1");
}

// E4 (Thm 16): K3 partition-tree construction rounds and Def 14 slack.
void e4_k3_tree(section& s) {
  for (const vertex k : {64, 128, 256, 512}) {
    const auto g = gen::gnp(k, std::min(0.9, 16.0 / double(k)), 13);
    const auto connected = with_cycle(g);  // `net` keeps a reference
    cost_ledger ledger;
    network net(connected, ledger);
    const auto all = all_vertices(k);
    cluster_comm cc(net, all, g.edges(), "c");
    std::vector<std::int64_t> deg;
    for (vertex v = 0; v < k; ++v) deg.push_back(g.degree(v));
    const auto tb = build_k3_tree(cc, all, deg, "t16");
    const auto rep = validate_def14(tb.tree, tb.h, 3);
    expect_slacks(s, rep, "k=" + std::to_string(k));
    s.add({{"k", k}, {"rounds", ledger.rounds()}, {"x", tb.x},
           {"max_parts", rep.max_parts}, {"deg_slack", rep.max_deg_ratio},
           {"updeg_slack", rep.max_updeg_ratio},
           {"size_slack", rep.max_size_ratio}, {"valid", rep.ok}});
    s.point("k3-tree", double(k), double(ledger.rounds()));
  }
}

// E5 (Thm 26): (p′,4)-split tree over a dense core V− (the densest third)
// and a sparse periphery V2; Def 22 slack.
void e5_split_tree(section& s) {
  const int p = 4;
  for (const vertex n : {192, 384})
    for (const int p_prime : {2, 3, 4}) {
      const auto g = with_cycle(gen::gnp(
          n, std::min(0.9, 3.0 * std::sqrt(double(n)) / double(n)), 19));
      cost_ledger ledger;
      network net(g, ledger);
      auto order = all_vertices(n);
      std::sort(order.begin(), order.end(), [&](vertex a, vertex b) {
        if (g.degree(a) != g.degree(b)) return g.degree(a) > g.degree(b);
        return a < b;
      });
      std::vector<vertex> vminus(order.begin(), order.begin() + n / 3);
      std::sort(vminus.begin(), vminus.end());
      cluster_comm cc(net, all_vertices(n), g.edges(), "c");

      // Position spaces and inputs.
      std::vector<vertex> v1_of(size_t(n), -1), v2_of(size_t(n), -1);
      for (std::size_t i = 0; i < vminus.size(); ++i)
        v1_of[size_t(vminus[i])] = vertex(i);
      vertex next2 = 0;
      for (vertex v = 0; v < n; ++v)
        if (v1_of[size_t(v)] == -1) v2_of[size_t(v)] = next2++;
      split_inputs in;
      in.n = n;
      in.n2 = next2;
      for (const auto& e : g.edges()) {
        const auto a = v1_of[size_t(e.u)], b = v1_of[size_t(e.v)];
        if (a >= 0 && b >= 0) in.e1.push_back(make_edge(a, b));
        else if (a >= 0) in.e12.push_back({a, v2_of[size_t(e.v)]});
        else if (b >= 0) in.e12.push_back({b, v2_of[size_t(e.u)]});
        else {
          in.e2.push_back(make_edge(v2_of[size_t(e.u)], v2_of[size_t(e.v)]));
          in.e2_holder.push_back(vertex(in.e2.size() % vminus.size()));
        }
      }
      std::vector<vertex> pool;
      std::vector<std::int64_t> deg;
      for (vertex v : vminus) {
        pool.push_back(cc.to_local(v));
        deg.push_back(g.degree(v));
      }
      const auto tb = build_split_tree(cc, pool, deg, in, p, p_prime, "t26");
      const split_graph_view sg{std::int64_t(vminus.size()), in.n2, in.n,
                                in.e1, in.e2, in.e12};
      const auto rep = validate_def22(tb.tree, sg, p, p_prime, tb.a, tb.b);
      expect_slacks(s, rep, cell("p'=" + std::to_string(p_prime), n));
      s.add({{"n", n}, {"p_prime", p_prime}, {"rounds", ledger.rounds()},
             {"a", tb.a}, {"deg_slack", rep.max_deg_ratio},
             {"updeg_slack", rep.max_updeg_ratio}, {"valid", rep.ok}});
    }
}

double min_certified_phi(const expander_decomposition& d) {
  if (d.clusters.empty()) return 0.0;
  double phi = 1.0;
  for (const auto& c : d.clusters) phi = std::min(phi, c.certified_phi);
  return phi;
}

// E6 (Thm 5 substitute): decomposition quality — remainder vs the ε
// budget, certified conductance, clusters, cut depth, CS20 model rounds.
void e6_decomposition(section& s) {
  const vertex n = 600;
  for (const std::string family : {"gnp", "powerlaw", "planted", "ring"}) {
    const auto g =
        family == "gnp"        ? gen::gnp(n, 12.0 / double(n), 5)
        : family == "powerlaw" ? gen::power_law(n, 2.4, 10.0, 5)
        : family == "planted"
            ? gen::planted_partition(vertex(n / 50), 50, 0.4, 0.01, 5)
            : gen::ring_of_cliques(vertex(n / 16), 16);
    for (const int inv_eps : {6, 12, 18}) {
      decomposition_options opt;
      opt.epsilon = 1.0 / double(inv_eps);
      const auto d = decompose(g, opt);
      const double rem = d.remainder_fraction(g);
      s.expect(rem <= opt.epsilon,
               family + " eps=" + eps_label(inv_eps) + " remainder");
      s.add({{"family", family}, {"eps", eps_label(inv_eps)},
             {"remainder_frac", rem}, {"clusters", d.clusters.size()},
             {"min_phi_cert", min_certified_phi(d)},
             {"phi_used", d.phi_used}, {"cut_depth", d.max_cut_depth},
             {"model_rounds", d.model_rounds}});
    }
  }
}

// E8 (Lemma 8): sparse gnp is usually one expander cluster and one level;
// the ring leaves its bridges for a second level.
void e8_recursion(section& s) {
  for (const vertex n : {256, 512, 1024})
    for (const std::string family : {"gnp", "ring"}) {
      const auto g = family == "ring" ? gen::ring_of_cliques(vertex(n / 8), 8)
                                      : gen::gnp(n, 10.0 / double(n), 23);
      const auto want = collect_cliques(g, 3);
      for (const int inv_eps : {12, 18}) {
        listing_query q;
        q.epsilon = 1.0 / double(inv_eps);
        const auto res = listing_session(g).run(q);
        const auto& rep = res.report;
        const auto where = cell(family, n) + " eps=" + eps_label(inv_eps);
        s.expect(res.cliques == want, where + " listing");
        s.expect(!rep.used_fallback, where + " no fallback");
        double min_removed_frac = 1.0;
        for (const auto& ls : rep.levels)
          if (ls.edges_before > 0)
            min_removed_frac =
                std::min(min_removed_frac,
                         double(ls.edges_removed) / double(ls.edges_before));
        s.add({{"family", family}, {"n", n}, {"eps", eps_label(inv_eps)},
               {"levels", rep.levels.size()},
               {"min_removed_frac", min_removed_frac},
               {"fallback", rep.used_fallback}});
      }
    }
}

// E9 (Figure 1 + §6.1): the cluster designations V_C ⊇ V−_C ⊇ V*_C, E−,
// Ē, and the bad set S_C (from the Lemma 43 delivery, p >= 4).
void e9_anatomy(section& s) {
  for (const std::string family : {"gnp", "powerlaw", "planted"}) {
    const auto g = family == "gnp" ? gen::gnp(400, 40.0 / 400.0, 29)
                   : family == "powerlaw"
                       ? gen::power_law(400, 2.3, 25.0, 29)
                       : gen::planted_partition(8, 50, 0.5, 0.02, 29);
    const auto d = decompose(g);
    const vertex n = g.num_vertices();
    for (const int p : {3, 4}) {
      const auto anatomy = build_anatomy(g, d, {.p = p, .beta = 2.0});
      const std::int64_t budget = budget_n_1_minus_2_over_p(n, p);
      cost_ledger ledger;
      network net(g, ledger);
      std::int64_t vc = 0, vm = 0, vs = 0, eminus = 0, ebar = 0, s_bad = 0;
      for (const auto& a : anatomy) {
        s.expect(a.v_star.size() <= a.v_minus.size() &&
                     a.v_minus.size() <= a.v_cluster.size() &&
                     std::int64_t(a.v_cluster.size()) <= n,
                 family + " p=" + std::to_string(p) + " nesting");
        vc += std::int64_t(a.v_cluster.size());
        vm += std::int64_t(a.v_minus.size());
        vs += std::int64_t(a.v_star.size());
        eminus += std::int64_t(a.e_minus.size());
        for (vertex v : a.v_minus) ebar += g.degree(v);
        if (p >= 4)
          s_bad += std::int64_t(
              deliver_eprime(net, g, a, budget, "e9").s_bad.size());
      }
      s.add({{"family", family}, {"p", p}, {"clusters", anatomy.size()},
             {"V_C", vc}, {"V_minus", vm}, {"V_star", vs},
             {"E_minus", eminus}, {"E_bar_volume", ebar},
             {"S_bad_total", s_bad},
             {"remainder_frac", d.remainder_fraction(g)}});
    }
  }
}

// E10 (§1.3): the DLP12 congested-clique lister. The naive CONGEST
// gather sits next to the paper pipeline in E1. DLP12's n^{1-2/p} bound is
// a dense-graph bound (an owner's load grows with the edges inside its
// group tuple), so the family has constant density; 0.25 is dense enough
// that every cell, K5 at n = 64 included, has cliques to list — an empty
// cell would pass its oracle check vacuously.
void e10_dlp12(section& s) {
  for (const vertex n : {64, 128, 256, 512}) {
    const auto g = gen::gnp(n, 0.25, 31);
    for (const int p : {3, 4, 5}) {
      const auto res = baseline::dlp12_list_cliques(g, p);
      const std::string series = "dlp12/K" + std::to_string(p);
      s.expect(res.cliques.size() > 0, cell(series, n) + " lists cliques");
      s.expect(res.cliques == collect_cliques(g, p),
               cell(series, n) + " listing");
      s.add({{"p", p}, {"n", n}, {"rounds", res.ledger.rounds()},
             {"cliques", res.cliques.size()}, {"tuples", res.tuples}});
      s.point(series, double(n), double(res.ledger.rounds()));
    }
  }
}

// A1 (Thm 6 substitute): more BFS trees spread subtree congestion; one
// tree is the single-spanning-tree routing floor.
void a1_router_trees(section& s) {
  const auto g = gen::hypercube(8);
  prng rng(5);
  std::vector<message> msgs;
  for (vertex v = 0; v < g.num_vertices(); ++v)
    for (int l = 0; l < 16; ++l)
      msgs.push_back(
          {v, vertex(rng.next_below(std::uint64_t(g.num_vertices()))), 0, 0,
           0});
  for (const int trees : {1, 2, 4, 8, 16}) {
    cluster_router router(g, trees);
    message_batch io;
    for (const auto& m : msgs) io.push(m);
    const auto stats = router.route(io);
    s.add({{"trees", trees}, {"rounds", stats.rounds},
           {"max_edge_load", stats.max_edge_load},
           {"max_path", stats.max_path}});
    s.point("router-trees", double(trees), double(stats.rounds));
  }
}

// A2 (decomposition φ schedule): the adaptive aggressive start against
// starting at the provable floor φ = ε²/(64·log²m), which certifies almost
// any graph as one low-quality cluster. ε = 1/6 admits the planted
// inter-block edges as remainder, so the schedules genuinely differ.
void a2_phi_schedule(section& s) {
  const auto g = gen::planted_partition(8, 40, 0.4, 0.01, 9);
  const double m = double(g.num_edges());
  for (const bool adaptive : {false, true}) {
    decomposition_options opt;
    opt.epsilon = 1.0 / 6.0;
    if (!adaptive)
      opt.phi_target =
          opt.epsilon * opt.epsilon / (64.0 * std::log2(m) * std::log2(m));
    const auto d = decompose(g, opt);
    const std::string schedule = adaptive ? "adaptive" : "paper_floor";
    const double rem = d.remainder_fraction(g);
    s.expect(rem <= opt.epsilon, schedule + " remainder");
    s.add({{"schedule", schedule}, {"clusters", d.clusters.size()},
           {"min_phi", min_certified_phi(d)}, {"remainder_frac", rem}});
  }
}

// A2, end to end: triangle listing rounds under the ε that gates how
// aggressively the adaptive schedule may cluster.
void a2_eps_listing(section& s) {
  const auto g = gen::planted_partition(8, 40, 0.4, 0.01, 9);
  const auto want = collect_cliques(g, 3);
  for (const int inv_eps : {6, 18}) {
    listing_query q;
    q.epsilon = 1.0 / double(inv_eps);
    const auto res = listing_session(g).run(q);
    s.expect(res.cliques == want, "eps=" + eps_label(inv_eps) + " listing");
    s.add({{"eps", eps_label(inv_eps)},
           {"rounds", res.report.ledger.rounds()},
           {"levels", res.report.levels.size()}});
  }
}

struct experiment {
  const char* name;
  const char* claim;
  void (*run)(section&);
};

constexpr experiment kExperiments[] = {
    {"E1_triangles", "K3 rounds ~ n^{1/3+o(1)} (Thm 32)", e1_triangles},
    {"E2_kp", "K_p rounds ~ n^{1-2/p+o(1)} (Thm 36)", e2_kp},
    {"E3_streaming", "Thm 11 lambda sweep on a 256-vertex cluster",
     e3_streaming},
    {"E4_k3_tree", "Thm 16 tree build; Def 14 slack <= 1", e4_k3_tree},
    {"E5_split_tree", "Thm 26 tree build; Def 22 slack <= 1", e5_split_tree},
    {"E6_decomposition", "remainder <= eps*m on n = 600", e6_decomposition},
    {"E8_recursion", "constant edge fraction retired per level (Lemma 8)",
     e8_recursion},
    {"E9_anatomy", "Figure 1: |V*_C| <= |V-_C| <= |V_C| <= n", e9_anatomy},
    {"E10_dlp12", "DLP12 rounds ~ n^{1-2/p}", e10_dlp12},
    {"A1_router_trees", "routing rounds vs BFS tree count", a1_router_trees},
    {"A2_phi_schedule", "adaptive phi vs the paper floor", a2_phi_schedule},
    {"A2_eps_listing", "K3 rounds vs eps on the A2 graph", a2_eps_listing},
};

}  // namespace
}  // namespace dcl

int main(int argc, char** argv) {
  using namespace dcl;
  if (argc > 2 || (argc == 2 && argv[1][0] == '-')) {
    std::cerr << "usage: bench_paper [out.json]   (takes no flags)\n";
    return 2;
  }
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_paper.json";
  std::int64_t failed = 0;
  std::string body;
  for (const auto& e : kExperiments) {
    section s(e.name, e.claim);
    const double t0 = bench::now_seconds();
    e.run(s);
    std::cerr << s.name << ": " << s.rows.size() << " rows, " << s.checks
              << " checks, " << bench::now_seconds() - t0 << " s\n";
    failed += s.failed;
    body += (body.empty() ? "" : ",\n") + s.json();
  }
  std::ostringstream js;
  js << "{\n  " << bench::meta_json() << ",\n  \"bench\": \"paper\",\n"
     << "  \"sections\": {\n" << body << "\n  },\n"
     << "  \"checks_failed\": " << failed << "\n}\n";
  const int rc = bench::emit_json(out_path, js.str());
  if (failed > 0) {
    std::cerr << failed << " self-check(s) failed\n";
    return 2;
  }
  return rc;
}
