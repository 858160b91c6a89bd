#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "congest/congested_clique.hpp"
#include "congest/replay.hpp"
#include "congest/router.hpp"
#include "congest/trace.hpp"
#include "core/api/session.hpp"
#include "core/listing/driver.hpp"
#include "graph/generators.hpp"
#include "support/check.hpp"
#include "support/prng.hpp"

namespace dcl {
namespace {

bool ledgers_equal(const cost_ledger& a, const cost_ledger& b) {
  if (a.rounds() != b.rounds() || a.messages() != b.messages()) return false;
  const auto& pa = a.phases();
  const auto& pb = b.phases();
  if (pa.size() != pb.size()) return false;
  for (auto ia = pa.begin(), ib = pb.begin(); ia != pa.end(); ++ia, ++ib) {
    if (ia->first != ib->first || ia->second.rounds != ib->second.rounds ||
        ia->second.messages != ib->second.messages)
      return false;
  }
  return true;
}

query_result run_traced(const graph& g, int p, bool trace, int threads) {
  listing_query q;
  q.p = p;
  q.trace = trace;
  return listing_session(g, {.threads = threads}).run(q);
}

graph workload_for(int p) {
  switch (p) {
    case 3: return gen::gnp(120, 0.08, 7);
    case 4: return gen::gnp(60, 0.2, 11);
    case 5: return gen::gnp(48, 0.3, 13);
    default: return gen::gnp(40, 0.42, 17);
  }
}

// The tentpole invariant: replaying a trace under the measured model
// reconstructs the live per-phase ledger bit for bit — for both drivers,
// every supported arity, and more than one worker count.
TEST(TraceReplay, MeasuredModelReproducesLiveLedger) {
  for (int p = 3; p <= kCongestMaxP; ++p) {
    const graph g = workload_for(p);
    for (int threads : {1, 4}) {
      const auto r = run_traced(g, p, true, threads);
      ASSERT_NE(r.report.trace, nullptr) << "p=" << p;
      const cost_ledger replayed =
          replay_ledger(*r.report.trace, replay_model::measured);
      EXPECT_TRUE(ledgers_equal(replayed, r.report.ledger))
          << "p=" << p << " threads=" << threads;
    }
  }
}

TEST(TraceReplay, DisabledTracingChangesNothing) {
  for (int p : {3, 4}) {
    const graph g = workload_for(p);
    const auto off = run_traced(g, p, false, 2);
    const auto on = run_traced(g, p, true, 2);
    EXPECT_EQ(off.report.trace, nullptr);
    ASSERT_NE(on.report.trace, nullptr);
    EXPECT_TRUE(off.cliques == on.cliques);
    EXPECT_TRUE(ledgers_equal(off.report.ledger, on.report.ledger));
    EXPECT_EQ(on.report.trace_stats.events,
              std::int64_t(on.report.trace->events().size()));
    EXPECT_EQ(off.report.trace_stats.events, 0);
  }
}

TEST(TraceReplay, TraceIsDeterministicAcrossThreadCounts) {
  for (int p : {3, 5}) {
    const graph g = workload_for(p);
    const auto one = run_traced(g, p, true, 1);
    const auto four = run_traced(g, p, true, 4);
    ASSERT_NE(one.report.trace, nullptr);
    ASSERT_NE(four.report.trace, nullptr);
    EXPECT_TRUE(*one.report.trace == *four.report.trace) << "p=" << p;
    EXPECT_TRUE(one.report.trace_stats == four.report.trace_stats);
  }
}

TEST(TraceReplay, SessionApiCarriesTraceThrough) {
  const graph g = workload_for(4);
  listing_session session(
      g, {.engine = listing_engine::congest_sim, .threads = 2});
  listing_query q;
  q.p = 4;
  q.trace = true;
  const auto r = session.run(q);
  ASSERT_NE(r.report.trace, nullptr);
  EXPECT_GT(r.report.trace_stats.events, 0);
  EXPECT_TRUE(ledgers_equal(
      replay_ledger(*r.report.trace, replay_model::measured),
      r.report.ledger));
  // Phase wall-clock timings ride along on every congest run.
  EXPECT_TRUE(r.report.phase_seconds.contains("total"));
  EXPECT_GE(r.report.phase_seconds.at("total"), 0.0);
  // The Lemma 41 exhaustive sweep runs, and is timed, only at p >= 4.
  EXPECT_TRUE(r.report.phase_seconds.contains("exhaustive"));
  q.p = 3;
  const auto r3 = session.run(q);
  EXPECT_TRUE(r3.report.phase_seconds.contains("total"));
  EXPECT_FALSE(r3.report.phase_seconds.contains("exhaustive"));
}

TEST(TraceSerialization, BinaryRoundTripIsExact) {
  const graph g = workload_for(3);
  const auto r = run_traced(g, 3, true, 1);
  ASSERT_NE(r.report.trace, nullptr);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  r.report.trace->write_binary(ss);
  const trace_log back = trace_log::read_binary(ss);
  EXPECT_TRUE(back == *r.report.trace);
  EXPECT_TRUE(ledgers_equal(replay_ledger(back, replay_model::measured),
                            r.report.ledger));
}

TEST(TraceSerialization, BinaryReaderRejectsGarbage) {
  {
    std::stringstream ss;
    ss << "NOTATRACE-----------------";
    EXPECT_THROW(trace_log::read_binary(ss), precondition_error);
  }
  {
    // Valid prefix, then truncation mid-tables.
    const graph g = gen::gnp(40, 0.1, 3);
    const auto r = run_traced(g, 3, true, 1);
    std::stringstream full(std::ios::in | std::ios::out | std::ios::binary);
    r.report.trace->write_binary(full);
    const std::string bytes = full.str();
    std::stringstream cut(bytes.substr(0, bytes.size() / 2),
                          std::ios::in | std::ios::binary);
    EXPECT_THROW(trace_log::read_binary(cut), precondition_error);
  }
}

TEST(TraceSerialization, JsonlHeaderCarriesVersionAndTables) {
  const graph g = workload_for(3);
  const auto r = run_traced(g, 3, true, 1);
  std::ostringstream os;
  r.report.trace->write_jsonl(os);
  const std::string text = os.str();
  const std::string header = text.substr(0, text.find('\n'));
  EXPECT_NE(header.find("\"trace_format\": 1"), std::string::npos);
  EXPECT_NE(header.find("\"phases\""), std::string::npos);
  EXPECT_NE(header.find("\"scopes\""), std::string::npos);
  // One line per event after the header.
  std::int64_t lines = 0;
  for (char c : text)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines - 1, std::int64_t(r.report.trace->events().size()));
}

// On an exchange-only trace the congestion-spec model charges exactly the
// measured cost (max directed pair multiplicity IS the exchange cost rule).
// A one-hop `exchange` event, which older traces carry, replays the same.
TEST(ReplayModels, SpecEqualsMeasuredOnOneHopTrace) {
  const vertex n = 16;
  cost_ledger ledger;
  trace_recorder rec;
  congested_clique clique(n, ledger, &rec);
  message_batch io;
  for (vertex v = 0; v < n; ++v) {
    io.push({v, vertex((v + 1) % n), 0, 1, 0});
    io.push({v, vertex((v + 1) % n), 0, 2, 0});
  }
  clique.exchange(io, "hop");
  trace_log log;
  log.absorb(rec, 0, 0, n, 0.5);
  EXPECT_TRUE(ledgers_equal(replay_ledger(log, replay_model::measured),
                            replay_ledger(log, replay_model::congestion_spec)));
  EXPECT_TRUE(
      ledgers_equal(replay_ledger(log, replay_model::measured), ledger));
  ASSERT_EQ(log.events().size(), 1u);
  trace_event one_hop = log.events()[0];
  one_hop.kind = trace_event_kind::exchange;
  const trace_scope& scope = log.scopes()[size_t(one_hop.scope)];
  for (const auto m : {replay_model::measured, replay_model::congestion_spec,
                       replay_model::cs20}) {
    const auto want = replay_event_cost(log.events()[0], scope, m);
    const auto got = replay_event_cost(one_hop, scope, m);
    EXPECT_EQ(got.rounds, want.rounds) << replay_model_name(m);
    EXPECT_EQ(got.messages, want.messages) << replay_model_name(m);
  }
}

TEST(ReplayModels, Cs20ChargesRoutesPositively) {
  const graph g = workload_for(3);
  const auto r = run_traced(g, 3, true, 1);
  ASSERT_NE(r.report.trace, nullptr);
  ASSERT_GT(r.report.trace_stats.routes, 0)
      << "workload must exercise the router";
  const cost_ledger cs20 = replay_ledger(*r.report.trace, replay_model::cs20);
  EXPECT_GT(cs20.rounds(), 0);
  EXPECT_EQ(cs20.messages(), r.report.ledger.messages())
      << "models re-charge rounds, never messages";
  // Per-event: the closed form is positive on every route.
  const auto& scopes = r.report.trace->scopes();
  for (const auto& e : r.report.trace->events()) {
    if (e.kind != trace_event_kind::route || e.batch == 0) continue;
    const auto c =
        replay_event_cost(e, scopes[size_t(e.scope)], replay_model::cs20);
    EXPECT_GT(c.rounds, 0);
  }
}

TEST(ReplayModels, ParseNames) {
  replay_model m;
  EXPECT_TRUE(parse_replay_model("measured", m));
  EXPECT_EQ(m, replay_model::measured);
  EXPECT_TRUE(parse_replay_model("spec", m));
  EXPECT_EQ(m, replay_model::congestion_spec);
  EXPECT_TRUE(parse_replay_model("congestion_spec", m));
  EXPECT_EQ(m, replay_model::congestion_spec);
  EXPECT_TRUE(parse_replay_model("cs20", m));
  EXPECT_EQ(m, replay_model::cs20);
  EXPECT_FALSE(parse_replay_model("nonsense", m));
}

TEST(TraceShape, BatchShapeCountsEndpoints) {
  const std::vector<message> batch = {
      {0, 3, 0, 0, 0}, {0, 3, 0, 1, 0}, {0, 4, 0, 2, 0},
      {1, 3, 0, 3, 0}, {2, 3, 0, 4, 0},
  };
  const auto s = shape_of_batch(batch, 8);
  EXPECT_EQ(s.srcs_touched, 3);  // 0, 1, 2
  EXPECT_EQ(s.src_max, 3);       // src 0 sends three
  EXPECT_EQ(s.dsts_touched, 2);  // 3, 4
  EXPECT_EQ(s.dst_max, 4);       // dst 3 receives four
  const auto empty = shape_of_batch({}, 8);
  EXPECT_EQ(empty.srcs_touched, 0);
  EXPECT_EQ(empty.dst_max, 0);
}

TEST(TraceShape, ExchangeEventArcHistogram) {
  cost_ledger ledger;
  trace_recorder rec;
  congested_clique clique(8, ledger, &rec);
  message_batch io;
  // Arc (0 -> 1) three times, (2 -> 3) once: 2 distinct arcs, max mult 3.
  io.push({0, 1, 0, 1, 0});
  io.push({0, 1, 0, 2, 0});
  io.push({0, 1, 0, 3, 0});
  io.push({2, 3, 0, 4, 0});
  const auto rounds = clique.exchange(io, "x");
  ASSERT_EQ(rec.events().size(), 1u);
  const trace_event& e = rec.events()[0];
  EXPECT_EQ(e.kind, trace_event_kind::clique_exchange);
  EXPECT_EQ(e.batch, 4);
  EXPECT_EQ(e.arcs_touched, 2);
  EXPECT_EQ(e.arc_max, 3);
  EXPECT_EQ(e.arc_max, rounds);  // exchange cost rule
  EXPECT_EQ(e.arc_sum, e.batch);
  EXPECT_EQ(e.dsts_touched, 2);
  EXPECT_EQ(e.dst_max, 3);
  EXPECT_EQ(e.srcs_touched, 2);
  EXPECT_EQ(e.src_max, 3);
}

TEST(TraceShape, RouterReportsArcsTouched) {
  const graph g = gen::hypercube(4);
  cluster_router router(g, 8);
  message_batch io;
  prng rng(5);
  for (vertex v = 0; v < g.num_vertices(); ++v)
    io.push({v, vertex(rng.next_below(std::uint64_t(g.num_vertices()))), 0,
             std::uint64_t(v), 0});
  const auto stats = router.route(io);
  EXPECT_GT(stats.arcs_touched, 0);
  // Paths run over the router's BFS-tree arcs, all of which are directed
  // graph edges — the batch can never touch more arcs than the graph has.
  EXPECT_LE(stats.arcs_touched, 2 * g.num_edges());
}

TEST(TraceSummary, CountsAndDensity) {
  const graph g = workload_for(4);
  const auto r = run_traced(g, 4, true, 2);
  ASSERT_NE(r.report.trace, nullptr);
  const trace_summary s = r.report.trace->summarize();
  EXPECT_TRUE(s == r.report.trace_stats);
  EXPECT_EQ(s.events,
            s.exchanges + s.clique_exchanges + s.routes + s.charges);
  EXPECT_EQ(s.scopes, std::int64_t(r.report.trace->scopes().size()));
  EXPECT_EQ(s.phases, std::int64_t(r.report.trace->phases().size()));
  EXPECT_GE(s.mean_dst_density, 0.0);
  EXPECT_LE(s.mean_dst_density, 1.0);
  EXPECT_GE(s.max_rounds, 0);
}

}  // namespace
}  // namespace dcl
