// Parameterized property sweeps: the central correctness property —
// distributed listing output equals exact sequential enumeration — across
// the cross product of workload family × clique size × engine, plus
// decomposition and simulation invariants swept over their parameters.

#include <gtest/gtest.h>

#include <numeric>

#include "congest/cluster_comm.hpp"
#include "core/api/session.hpp"
#include "core/streaming/pp_simulate.hpp"
#include "expander/decomposition.hpp"
#include "graph/generators.hpp"
#include "support/prng.hpp"

namespace dcl {
namespace {

// ---------------------------------------------------------------------------
// Listing exactness sweep.

struct listing_case {
  const char* family;
  int p;
  lb_engine lb;
};

std::string case_name(const testing::TestParamInfo<listing_case>& info) {
  const auto& c = info.param;
  std::string e = c.lb == lb_engine::deterministic ? "det"
                  : c.lb == lb_engine::randomized  ? "rand"
                                                       : "unbal";
  return std::string(c.family) + "_p" + std::to_string(c.p) + "_" + e;
}

graph make_family(const std::string& name) {
  if (name == "gnpSparse") return gen::gnp(140, 8.0 / 140.0, 71);
  if (name == "gnpDense") return gen::gnp(90, 0.30, 73);
  if (name == "powerlaw") return gen::power_law(130, 2.4, 11.0, 79);
  if (name == "planted") return gen::planted_partition(4, 28, 0.45, 0.02, 83);
  if (name == "ring") return gen::ring_of_cliques(9, 7);
  if (name == "plantedCliques")
    return gen::planted_cliques(100, 0.04, 2, 8, 89);
  ADD_FAILURE() << "unknown family " << name;
  return graph(1, {});
}

class ListingExactness : public testing::TestWithParam<listing_case> {};

TEST_P(ListingExactness, MatchesSequentialGroundTruth) {
  const auto& c = GetParam();
  const auto g = make_family(c.family);
  listing_query q;
  q.p = c.p;
  q.lb = c.lb;
  q.seed = 1234;
  const auto res = listing_session(g).run(q);
  const auto want = collect_cliques(g, c.p);
  EXPECT_TRUE(res.cliques == want)
      << c.family << " p=" << c.p << ": got " << res.cliques.size()
      << " expected " << want.size();
  EXPECT_GE(res.report.emitted, want.size());
}

std::vector<listing_case> listing_cases() {
  std::vector<listing_case> cases;
  for (const char* fam : {"gnpSparse", "gnpDense", "powerlaw", "planted",
                          "ring", "plantedCliques"}) {
    for (int p : {3, 4}) {
      for (auto e : {lb_engine::deterministic, lb_engine::randomized,
                     lb_engine::unbalanced}) {
        cases.push_back({fam, p, e});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, ListingExactness,
                         testing::ValuesIn(listing_cases()), case_name);

// ---------------------------------------------------------------------------
// Decomposition invariants swept over epsilon and family.

class DecompositionSweep
    : public testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(DecompositionSweep, InvariantsHold) {
  const auto [family, inv_eps] = GetParam();
  const auto g = make_family(family);
  decomposition_options opt;
  opt.epsilon = 1.0 / double(inv_eps);
  const auto d = decompose(g, opt);

  std::int64_t covered = std::int64_t(d.remainder.size());
  std::vector<bool> seen(size_t(g.num_vertices()), false);
  for (const auto& c : d.clusters) {
    covered += std::int64_t(c.edges.size());
    EXPECT_GE(c.certified_phi, d.phi_used);
    for (vertex v : c.vertices) {
      EXPECT_FALSE(seen[size_t(v)]);
      seen[size_t(v)] = true;
    }
  }
  EXPECT_EQ(covered, g.num_edges());
  EXPECT_LE(double(d.remainder.size()),
            opt.epsilon * double(g.num_edges()) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    EpsilonByFamily, DecompositionSweep,
    testing::Combine(testing::Values("gnpSparse", "powerlaw", "planted",
                                     "ring"),
                     testing::Values(6, 12, 18, 30)),
    [](const testing::TestParamInfo<std::tuple<const char*, int>>& info) {
      return std::string(std::get<0>(info.param)) + "_eps1over" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Theorem 11 equivalence swept over lambda.

class interval_machine final : public pp_algorithm {
 public:
  pp_limits limits() const override {
    return {.n_out = 256, .b_aux = 0, .b_write = 256};
  }
  std::int64_t state_words() const override { return 3; }
  void reset() override {
    acc_ = 0;
    start_ = 0;
    index_ = 0;
  }
  void on_main(const pp_token& t, pp_context& ctx) override {
    if (acc_ + t.at(0) > 150 && index_ > start_) {
      ctx.write(pp_token{start_, index_ - 1});
      start_ = index_;
      acc_ = 0;
    }
    acc_ += t.at(0);
    ++index_;
  }
  void on_aux(const pp_token&, pp_context&) override {}

 private:
  std::uint64_t acc_ = 0, start_ = 0, index_ = 0;
};

class LambdaSweep : public testing::TestWithParam<int> {};

TEST_P(LambdaSweep, SimulationMatchesReference) {
  const auto lambda = std::int64_t(GetParam());
  const auto g = gen::hypercube(6);
  cost_ledger ledger;
  network net(g, ledger);
  std::vector<vertex> all(size_t(g.num_vertices()));
  std::iota(all.begin(), all.end(), 0);
  cluster_comm cc(net, all, g.edges(), "c");

  pp_stream stream;
  for (int i = 0; i < 256; ++i) {
    pp_main_entry e;
    e.main = pp_token{splitmix64(std::uint64_t(i)) % 60};
    stream.push_back(e);
  }
  interval_machine ref, sim;
  const auto want = pp_run_local(ref, stream);
  pp_instance inst;
  inst.alg = &sim;
  const vertex k = g.num_vertices();
  inst.segment = [&stream, k](vertex i) {
    const std::int64_t n = std::int64_t(stream.size());
    return pp_stream(stream.begin() + n * i / k,
                     stream.begin() + n * (i + 1) / k);
  };
  const auto rep = pp_simulate(cc, all, std::span(&inst, 1), lambda, "sim");
  EXPECT_EQ(rep.outputs[0].output, want.output) << "lambda=" << lambda;
}

INSTANTIATE_TEST_SUITE_P(Lambdas, LambdaSweep,
                         testing::Values(1, 2, 4, 8, 16, 32, 64),
                         [](const testing::TestParamInfo<int>& info) {
                           return "lambda" +
                                  std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Seed sweep: the randomized engine is exact for any seed; the
// deterministic engine ignores the seed entirely.

class SeedSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, RandomizedEngineExactForAnySeed) {
  const auto g = make_family("powerlaw");
  listing_query q;
  q.lb = lb_engine::randomized;
  q.seed = GetParam();
  const auto res = listing_session(g).run(q);
  EXPECT_TRUE(res.cliques == collect_cliques(g, 3));
}

TEST_P(SeedSweep, DeterministicEngineSeedInvariant) {
  const auto g = make_family("gnpSparse");
  listing_query a, b;
  a.seed = GetParam();
  b.seed = GetParam() + 1;
  listing_session session(g);
  const auto ra = session.run(a).report;
  const auto rb = session.run(b).report;
  EXPECT_EQ(ra.ledger.rounds(), rb.ledger.rounds());
  EXPECT_EQ(ra.ledger.messages(), rb.ledger.messages());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         testing::Values(0u, 1u, 42u, 1337u, 99999u));

}  // namespace
}  // namespace dcl
