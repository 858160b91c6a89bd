// Multi-process sharded serving benchmark (DESIGN.md §14): a forked worker
// fleet behind one shard_coordinator versus a single-process
// listing_session, per (engine × mode × shards × p) cell: collect cells for
// both engines, count cells for local_kclist. Reports per-query latency
// (best of 3 on a warm fleet), bind time, and the wire footprint of ONE
// query (frames/bytes/flushes the workers sent for it, from stats-frame
// deltas with the stats frames themselves taken out) — the aggregation
// ratio bytes/frames is the buffered-transport number tracked across
// commits.
//
//   ./bench_shard [--smoke] [out.json]
//
// Gates (every mode, every cell), each exiting nonzero:
//   * the sharded clique set and count AND — under congest_sim — the full
//     ledger must be bit-identical to the solo session (a clean exit IS
//     the differential gate);
//   * a local_kclist count query must put less than kCountWireLimit bytes
//     on the wire: each worker answers with its rooted count, never tuples;
//   * a congest_sim p = 3 collect query must put at most
//     kCongestTupleWireRatio times the bytes of the local_kclist p = 3
//     collect query with the same shard count on the wire: K3 clusters
//     emit each triangle once, so the tuples shipped are nearly the
//     distinct set, as they are for kClist.

#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/api/session.hpp"
#include "graph/generators.hpp"
#include "shard/coordinator.hpp"
#include "shard/launch.hpp"

namespace {

using namespace dcl;
using shard::wire_stats;

constexpr int kShardCounts[] = {1, 2, 4};
constexpr std::int64_t kCountWireLimit = 1024;
constexpr double kCongestTupleWireRatio = 1.25;

struct cell {
  std::string engine;
  std::string mode;
  int shards = 0;
  int p = 0;
  double bind_seconds = 0.0;
  double query_seconds = 0.0;
  double solo_seconds = 0.0;
  std::int64_t cliques = 0;
  std::int64_t wire_frames = 0;
  std::int64_t wire_bytes = 0;
  std::int64_t wire_flushes = 0;
  bool identical = false;
};

void emit_cell(std::ostringstream& js, bool& first, const cell& c) {
  js << (first ? "" : ",") << "\n    {\"engine\": \"" << c.engine
     << "\", \"mode\": \"" << c.mode << "\", \"shards\": " << c.shards
     << ", \"p\": " << c.p
     << ", \"bind_seconds\": " << c.bind_seconds
     << ", \"query_seconds\": " << c.query_seconds
     << ", \"solo_seconds\": " << c.solo_seconds
     << ", \"cliques\": " << c.cliques
     << ", \"wire_frames\": " << c.wire_frames
     << ", \"wire_bytes\": " << c.wire_bytes
     << ", \"wire_flushes\": " << c.wire_flushes << ", \"identical\": "
     << (c.identical ? "true" : "false") << "}";
  first = false;
}

/// What the workers have sent so far, summed over the fleet.
wire_stats fleet_sent(shard::shard_coordinator& coord) {
  wire_stats t;
  for (const auto& s : coord.worker_stats()) {
    t.frames_sent += s.wire.frames_sent;
    t.bytes_sent += s.wire.bytes_sent;
    t.flushes += s.wire.flushes;
  }
  return t;
}

wire_stats minus(const wire_stats& a, const wire_stats& b) {
  wire_stats d;
  d.frames_sent = a.frames_sent - b.frames_sent;
  d.bytes_sent = a.bytes_sent - b.bytes_sent;
  d.flushes = a.flushes - b.flushes;
  return d;
}

/// The wire footprint of one run of `query`. A worker snapshots its
/// counters before it sends the stats frame, so each reading includes the
/// previous reading's stats frames: two back-to-back readings measure
/// those, and they are taken out of the query's delta.
wire_stats one_query_wire(shard::shard_coordinator& coord,
                          const std::function<void()>& query) {
  const wire_stats a = fleet_sent(coord);
  const wire_stats b = fleet_sent(coord);
  query();
  const wire_stats c = fleet_sent(coord);
  return minus(minus(c, b), minus(b, a));
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke")
      smoke = true;
    else
      pos.push_back(argv[i]);
  }
  const std::string out_path = pos.empty() ? "BENCH_shard.json" : pos[0];

  const vertex n = smoke ? 120 : 600;
  const double prob = smoke ? 0.15 : 0.05;
  const graph g = gen::gnp(n, prob, 7);
  const std::vector<int> arities = smoke ? std::vector<int>{3}
                                         : std::vector<int>{3, 4};

  std::ostringstream js;
  js << "{\n  \"benchmark\": \"shard\",\n  " << bench::meta_json() << ",\n"
     << "  \"graph\": {\"family\": \"gnp\", \"n\": " << n
     << ", \"prob\": " << prob << "},\n  \"shards_swept\": [1, 2, 4],\n"
     << "  \"count_wire_limit_bytes\": " << kCountWireLimit << ",\n"
     << "  \"congest_tuple_wire_ratio\": " << kCongestTupleWireRatio << ",\n"
     << "  \"results\": [";
  bool first = true;
  bool all_identical = true;
  bool count_wire_ok = true;
  // p = 3 collect wire bytes per shard count, per engine.
  std::map<int, std::int64_t> congest_k3_wire, local_k3_wire;

  for (const auto engine :
       {listing_engine::congest_sim, listing_engine::local_kclist}) {
    session_options sopt;
    sopt.engine = engine;
    // Forked children must not inherit pool threads, so the solo session
    // the fleet forks from runs one thread, and so does every worker.
    sopt.threads = 1;
    listing_session solo(g, sopt);
    std::vector<sink_mode> modes = {sink_mode::collect};
    if (engine == listing_engine::local_kclist)
      modes.push_back(sink_mode::count);
    for (const sink_mode mode : modes) {
      for (const int p : arities) {
        listing_query q;
        q.p = p;
        q.mode = mode;
        const double solo_seconds =
            bench::best_seconds([&] { solo.run(q); });
        const query_result want = solo.run(q);
        for (const int shards : kShardCounts) {
          cell c;
          c.engine = engine == listing_engine::congest_sim ? "congest_sim"
                                                           : "local_kclist";
          c.mode = mode == sink_mode::count ? "count" : "collect";
          c.shards = shards;
          c.p = p;
          c.solo_seconds = solo_seconds;

          auto workers = shard::launch_fork_workers(shards);
          shard::shard_options opt;
          opt.partitioner.scheme = shard::partition_scheme::hashed;
          opt.partitioner.seed = 17;
          opt.worker_session = sopt;
          const double t0 = bench::now_seconds();
          shard::shard_coordinator coord(g, shard::take_links(workers), opt);
          c.bind_seconds = bench::now_seconds() - t0;
          c.query_seconds = bench::best_seconds([&] { coord.run(q); });
          std::optional<query_result> got;
          const wire_stats wire =
              one_query_wire(coord, [&] { got = coord.run(q); });
          c.cliques = got->count;
          c.wire_frames = wire.frames_sent;
          c.wire_bytes = wire.bytes_sent;
          c.wire_flushes = wire.flushes;
          c.identical =
              got->cliques == want.cliques && got->count == want.count &&
              got->report.emitted == want.report.emitted &&
              (engine != listing_engine::congest_sim ||
               (got->report.ledger == want.report.ledger &&
                got->report.levels == want.report.levels &&
                got->report.duplicates == want.report.duplicates));
          all_identical = all_identical && c.identical;
          if (engine == listing_engine::local_kclist &&
              mode == sink_mode::count && c.wire_bytes >= kCountWireLimit) {
            std::cerr << "bench_shard: GATE FAILED: a local count query on "
                      << shards << " shards put " << c.wire_bytes
                      << " bytes on the wire (limit " << kCountWireLimit
                      << ")\n";
            count_wire_ok = false;
          }
          if (mode == sink_mode::collect && p == 3)
            (engine == listing_engine::congest_sim ? congest_k3_wire
                                                   : local_k3_wire)[shards] =
                c.wire_bytes;
          coord.shutdown();
          for (auto& w : workers)
            if (shard::wait_worker(w) != 0) all_identical = false;
          emit_cell(js, first, c);
        }
      }
    }
  }
  js << "\n  ],\n  \"all_identical\": "
     << (all_identical ? "true" : "false") << "\n}\n";

  const int rc = bench::emit_json(out_path, js.str());
  if (rc != 0) return rc;
  if (!all_identical) {
    std::cerr << "bench_shard: GATE FAILED: a sharded run diverged from "
                 "the single-process session (see \"identical\" cells)\n";
    return 3;
  }
  if (!count_wire_ok) return 4;
  for (const auto& [shards, bytes] : congest_k3_wire) {
    const std::int64_t local = local_k3_wire[shards];
    if (double(bytes) > kCongestTupleWireRatio * double(local)) {
      std::cerr << "bench_shard: GATE FAILED: a congest p = 3 collect query on "
                << shards << " shards put " << bytes << " bytes on the wire, "
                << "over " << kCongestTupleWireRatio << "x the local "
                << "engine's " << local << "\n";
      return 5;
    }
  }
  return 0;
}
