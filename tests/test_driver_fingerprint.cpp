// Pinned fingerprints of the CONGEST recursion driver. For p = 3..6 on three
// fixed seeded graphs, each run's ledger totals and phase count are pinned
// exactly, and every ledger phase's (label, rounds, messages) and the bytes
// of its trace_log::write_binary are pinned as FNV-1a digests. Any change to what the simulation charges
// or records — a router schedule tweak, a reordered exchange, a different
// tree choice — moves at least one digest, so a performance rewrite of the
// control plane passes this suite only if it is bit-identical.
//
// Trace scopes carry each cluster's certified conductance as a double, so
// the trace digest also pins the decomposition's floating-point results.
//
// The per-run route count is pinned alongside, so a fingerprint can not go
// quiet by no longer routing anything: the G(n, p) and power-law graphs
// route at every p, the planted partition recurses over several levels at
// p = 4.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "core/listing/collector.hpp"
#include "core/listing/driver.hpp"
#include "graph/generators.hpp"
#include "runtime/scratch.hpp"
#include "runtime/thread_pool.hpp"

namespace dcl {
namespace {

/// 64-bit FNV-1a, fed incrementally.
struct fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void bytes(std::string_view s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
  }
  void word(std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= std::uint64_t(v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
};

struct fingerprint {
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t phases = 0;
  std::uint64_t phase_hash = 0;  ///< every (label, rounds, messages)
  std::int64_t routes = 0;
  std::uint64_t trace_hash = 0;  ///< trace_log::write_binary bytes

  friend bool operator==(const fingerprint&, const fingerprint&) = default;
};

std::ostream& operator<<(std::ostream& os, const fingerprint& f) {
  return os << "{" << f.rounds << ", " << f.messages << ", " << f.phases
            << ", 0x" << std::hex << f.phase_hash << "ULL, " << std::dec
            << f.routes << ", 0x" << std::hex << f.trace_hash << "ULL"
            << std::dec << "}";
}

fingerprint run_driver(const graph& g, int p, int threads) {
  listing_query q;
  q.p = p;
  q.mode = sink_mode::count;
  q.trace = true;
  runtime::thread_pool pool(threads);
  runtime::query_scratch scratch;
  clique_collector out(p);
  const listing_report rep = list_cliques_congest(g, q, pool, scratch, out);

  fingerprint f;
  f.rounds = rep.ledger.rounds();
  f.messages = rep.ledger.messages();
  fnv1a ph;
  for (const auto& [label, cost] : rep.ledger.phases()) {
    ph.bytes(label);
    ph.word(cost.rounds);
    ph.word(cost.messages);
    ++f.phases;
  }
  f.phase_hash = ph.h;
  EXPECT_NE(rep.trace, nullptr);
  if (rep.trace != nullptr) {
    std::ostringstream os;
    rep.trace->write_binary(os);
    fnv1a th;
    th.bytes(os.str());
    f.trace_hash = th.h;
  }
  f.routes = rep.trace_stats.routes;
  return f;
}

struct pinned_case {
  const char* name;
  graph (*make)();
  fingerprint want[4];  // p = 3, 4, 5, 6
};

// One dense G(n, p) cluster, a planted partition with several clusters
// and a sparse remainder, and a skewed power law.
graph make_gnp() { return gen::gnp(200, 0.3, 21); }
graph make_planted() { return gen::planted_partition(5, 40, 0.7, 0.01, 5); }
graph make_power_law() { return gen::power_law(300, 2.1, 20.0, 9); }

// {rounds, messages, phases, phase_hash, routes, trace_hash}
const pinned_case kCases[] = {
    {"gnp",
     make_gnp,
     {{13090, 442882, 20, 0xdb405d5852c87971ULL, 34, 0xaca2b0653a12744eULL},
      {1930, 27276, 19, 0x40340a1c36d4dd8ULL, 21, 0xe41ee1d6ed8d221dULL},
      {10453, 170936, 82, 0xa84be444c46fa803ULL, 92, 0x69fea5d992eb824fULL},
      {10075, 1218609, 112, 0xd791627155c24d8fULL, 110,
       0xfdcb0e487d0854cbULL}}},
    {"planted",
     make_planted,
     {{9559, 295265, 20, 0xd5fdce2bce4de8a0ULL, 34, 0xfaee7ed19e3602b6ULL},
      {979, 289930, 277, 0xa38d602c91d94831ULL, 258, 0xf111ffc420a0902cULL},
      {66, 262794, 1, 0xfaed8cbcc9566a6fULL, 0, 0xe8e63eb99b41f1fdULL},
      {66, 262794, 1, 0xfaed8cbcc9566a6fULL, 0, 0xe8e63eb99b41f1fdULL}}},
    {"power_law",
     make_power_law,
     {{4093, 109211, 21, 0x26eea32a6b0fe7b1ULL, 34, 0x485031e2fc372ff0ULL},
      {2465, 337993, 56, 0x7101d50937a0f36ULL, 54, 0xca6ad22eb21dad4aULL},
      {3870, 470715, 82, 0x8e1d7b3c545000c0ULL, 80, 0x623285ebd6ba80ULL},
      {5082, 602428, 112, 0x93782a676a21f6f4ULL, 105,
       0xfd91adb355ead70eULL}}},
};

TEST(DriverFingerprint, LedgerPhasesAndTraceBytesArePinned) {
  for (const auto& c : kCases) {
    const graph g = c.make();
    for (int p = 3; p <= 6; ++p)
      EXPECT_EQ(run_driver(g, p, /*threads=*/2), c.want[p - 3])
          << c.name << " p=" << p;
  }
}

TEST(DriverFingerprint, OneWorkerReproducesThePinnedRuns) {
  // The cluster-parallel runtime is deterministic, so the worker count
  // must not move a digest; the multi-level planted partition is the case
  // with the most parallel branches.
  const graph g = make_planted();
  for (int p = 3; p <= 4; ++p)
    EXPECT_EQ(run_driver(g, p, /*threads=*/1), kCases[1].want[p - 3])
        << "planted p=" << p;
}

}  // namespace
}  // namespace dcl
