// The multi-process shard runtime (DESIGN.md §14): partitioner and slice
// contracts, DAG-root partition exactness (each shard's rooted count and
// collect run, in process), payload codec round-trips with
// truncation/garbage rejection, bind hardening and the reply contract,
// frame-layer preamble/version/EOF discipline and its one-write-per-frame
// pattern,
// and — the acceptance gate — the differential sweep: sharded runs over
// forked worker processes, shards ∈ {1, 2, 4}, p = 3..6, both engines,
// must produce clique sets AND full listing_report ledgers bit-identical
// to a single-process session, including the serialized trace bytes.
// Failure semantics ride along: a worker that answers `error` keeps
// serving, a SIGKILLed worker degrades the coordinator with shard_error.

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <cstdint>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/api/session.hpp"
#include "enumkernel/orient.hpp"
#include "graph/generators.hpp"
#include "shard/channel.hpp"
#include "shard/coordinator.hpp"
#include "shard/launch.hpp"
#include "shard/partition.hpp"
#include "shard/serialize.hpp"
#include "shard/wire.hpp"
#include "shard/worker.hpp"
#include "support/check.hpp"

namespace dcl {
namespace {

using shard::frame;
using shard::frame_reader;
using shard::frame_type;
using shard::frame_writer;
using shard::shard_error;
using shard::wire_buf;
using shard::wire_cursor;

void expect_report_identical(const listing_report& a,
                             const listing_report& b) {
  EXPECT_EQ(a.ledger, b.ledger);
  ASSERT_EQ(a.ledger.phases().size(), b.ledger.phases().size());
  auto ita = a.ledger.phases().begin();
  for (auto itb = b.ledger.phases().begin(); itb != b.ledger.phases().end();
       ++ita, ++itb) {
    EXPECT_EQ(ita->first, itb->first);
    EXPECT_EQ(ita->second.rounds, itb->second.rounds) << ita->first;
    EXPECT_EQ(ita->second.messages, itb->second.messages) << ita->first;
  }
  EXPECT_EQ(a.model_decomposition_rounds, b.model_decomposition_rounds);
  EXPECT_EQ(a.levels, b.levels);
  EXPECT_EQ(a.emitted, b.emitted);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.used_fallback, b.used_fallback);
  EXPECT_DOUBLE_EQ(a.max_normalized_load, b.max_normalized_load);
}

std::string trace_bytes(const trace_log& t) {
  std::ostringstream os(std::ios::binary);
  t.write_binary(os);
  return os.str();
}

// --- partitioner + slices ---------------------------------------------------

TEST(ShardPartition, SchemesCoverEveryVertexAndAreDeterministic) {
  const vertex n = 257;
  for (const auto scheme :
       {shard::partition_scheme::block, shard::partition_scheme::hashed}) {
    for (int shards : {1, 2, 3, 4, 7}) {
      shard::partitioner_spec spec;
      spec.scheme = scheme;
      spec.seed = 99;
      std::vector<int> owners;
      for (vertex v = 0; v < n; ++v) {
        const int s = shard_of_vertex(spec, v, n, shards);
        ASSERT_GE(s, 0);
        ASSERT_LT(s, shards);
        owners.push_back(s);
        EXPECT_EQ(s, shard_of_vertex(spec, v, n, shards));  // pure
      }
      if (shards > 1) {
        // Both schemes spread a couple hundred vertices over every shard.
        std::set<int> used(owners.begin(), owners.end());
        EXPECT_EQ(int(used.size()), shards)
            << shard::partition_scheme_name(scheme);
      }
    }
  }
}

TEST(ShardPartition, BlockSchemeIsContiguousRanges) {
  shard::partitioner_spec spec;  // block
  // ceil(10/4) = 3: owners 0001112223 — nondecreasing, starts at 0.
  int prev = 0;
  for (vertex v = 0; v < 10; ++v) {
    const int s = shard_of_vertex(spec, v, 10, 4);
    EXPECT_GE(s, prev);
    prev = s;
  }
  EXPECT_EQ(shard_of_vertex(spec, 0, 10, 4), 0);
  EXPECT_EQ(shard_of_vertex(spec, 9, 10, 4), 3);
}

TEST(ShardPartition, SliceContainsClosedNeighborhoodsAscending) {
  const graph g = gen::gnp(80, 0.1, 5);
  shard::partitioner_spec spec;
  spec.scheme = shard::partition_scheme::hashed;
  spec.seed = 3;
  const int shards = 3;
  for (int s = 0; s < shards; ++s) {
    const shard::graph_slice sl =
        shard::build_graph_slice(g, spec, s, shards);
    EXPECT_EQ(sl.full_n, g.num_vertices());
    // Remap strictly ascending (the monotone property the canonical-order
    // argument rests on).
    for (std::size_t i = 1; i < sl.to_original.size(); ++i)
      EXPECT_LT(sl.to_original[i - 1], sl.to_original[i]);
    std::set<vertex> members(sl.to_original.begin(), sl.to_original.end());
    for (vertex v = 0; v < g.num_vertices(); ++v) {
      if (shard_of_vertex(spec, v, g.num_vertices(), shards) != s) continue;
      EXPECT_TRUE(members.count(v));  // owned vertex present
      for (vertex u : g.neighbors(v))
        EXPECT_TRUE(members.count(u));  // whole open neighborhood too
    }
  }
}

// --- payload codecs ---------------------------------------------------------

// DAG-root ownership: each shard's worker, run in process on its bind,
// roots the kernel at the vertices it owns, so the shards' counts sum to
// the solo count and their collect runs partition the solo set — for every
// shard count and partitioner.
TEST(ShardPartition, RootedShardsPartitionTheSoloSet) {
  const graph graphs[] = {gen::gnp(50, 0.3, 31), gen::ring_of_cliques(4, 8),
                          gen::planted_cliques(90, 0.04, 2, 8, 61)};
  for (const graph& g : graphs) {
    shard::shard_options opt;
    opt.worker_session.engine = listing_engine::local_kclist;
    listing_session solo(g, opt.worker_session);
    const auto rank = enumkernel::vertex_rank(g);
    for (const auto scheme :
         {shard::partition_scheme::block, shard::partition_scheme::hashed}) {
      opt.partitioner = {scheme, 17};
      for (int shards = 1; shards <= 4; ++shards) {
        std::vector<std::unique_ptr<shard::local_shard>> fleet;
        for (int i = 0; i < shards; ++i)
          fleet.push_back(std::make_unique<shard::local_shard>(
              shard::make_bind(g, opt, rank, i, shards)));
        for (int p = 3; p <= 6; ++p) {
          listing_query q;
          q.p = p;
          const query_result want = solo.run(q);
          listing_query qc = q;
          qc.mode = sink_mode::count;
          std::int64_t counted = 0;
          clique_set listed(p);
          std::int64_t listed_total = 0;
          for (auto& worker : fleet) {
            const shard::shard_result c = worker->serve(1, qc);
            EXPECT_TRUE(c.raw_tuples.empty());
            counted += c.emitted;
            const shard::shard_result l = worker->serve(2, q);
            EXPECT_EQ(l.emitted, c.emitted);
            listed_total += l.emitted;
            listed.add_flat(l.raw_tuples);
          }
          const std::string cell =
              "scheme=" + std::string(shard::partition_scheme_name(scheme)) +
              " shards=" + std::to_string(shards) +
              " p=" + std::to_string(p);
          EXPECT_EQ(counted, want.count) << cell;
          EXPECT_EQ(listed.normalize(), 0) << "shards overlap: " << cell;
          EXPECT_EQ(listed_total, want.count) << cell;
          EXPECT_EQ(listed, want.cliques) << cell;
        }
      }
    }
  }
}

listing_query sample_query() {
  listing_query q;
  q.p = 5;
  q.mode = sink_mode::count;
  q.lb = lb_engine::unbalanced;
  q.seed = 0xDEADBEEFCAFEF00Dull;
  q.epsilon = 0.25;
  q.beta = 3.5;
  q.gamma = 7.0;
  q.max_levels = 9;
  q.base_case_edges = 17;
  q.stream_batch_tuples = 123;
  q.trace = true;
  return q;
}

TEST(ShardCodec, QueryRoundTrip) {
  const listing_query q = sample_query();
  wire_buf b;
  shard::encode_query(b, q);
  wire_cursor c(b.view());
  const listing_query d = shard::decode_query(c);
  c.expect_exhausted("query");
  EXPECT_EQ(d.p, q.p);
  EXPECT_EQ(d.mode, q.mode);
  EXPECT_EQ(d.lb, q.lb);
  EXPECT_EQ(d.seed, q.seed);
  EXPECT_DOUBLE_EQ(d.epsilon, q.epsilon);
  EXPECT_DOUBLE_EQ(d.beta, q.beta);
  EXPECT_DOUBLE_EQ(d.gamma, q.gamma);
  EXPECT_EQ(d.max_levels, q.max_levels);
  EXPECT_EQ(d.base_case_edges, q.base_case_edges);
  EXPECT_EQ(d.stream_batch_tuples, q.stream_batch_tuples);
  EXPECT_EQ(d.trace, q.trace);
}

TEST(ShardCodec, EveryTruncationPrefixOfAQueryIsRejected) {
  wire_buf b;
  shard::encode_query(b, sample_query());
  const auto full = b.view();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    wire_cursor c(full.subspan(0, cut));
    EXPECT_THROW(shard::decode_query(c), shard_error) << "cut=" << cut;
  }
}

TEST(ShardCodec, GarbageEnumByteIsRejectedNotMaterialized) {
  wire_buf b;
  shard::encode_query(b, sample_query());
  std::vector<std::uint8_t> bytes(b.view().begin(), b.view().end());
  bytes[4] = 200;  // the sink_mode byte, straight after the i32 arity
  wire_cursor c(bytes);
  EXPECT_THROW(shard::decode_query(c), shard_error);
}

// Every bind field off its default: the bind message is the only way the
// session-wide kernel traversal and vector tier reach a worker.
shard::shard_bind sample_bind() {
  shard::shard_bind m;
  m.shard = 2;
  m.shards = 3;
  m.part.scheme = shard::partition_scheme::hashed;
  m.part.seed = 0x0123456789ABCDEFull;
  shard::partitioner_spec slice_spec;
  const graph g = gen::ring_of_cliques(4, 5);
  m.slice = shard::build_graph_slice(g, slice_spec, 2, 3);
  m.engine = listing_engine::local_kclist;
  const auto rank = enumkernel::vertex_rank(g);
  for (const vertex v : m.slice.to_original)
    m.rank.push_back(rank[std::size_t(v)]);
  m.threads = 3;
  m.kernel = enumkernel::kernel_mode::bitmap;
  m.simd = simd_mode::scalar;
  return m;
}

TEST(ShardCodec, BindRoundTrip) {
  const shard::shard_bind m = sample_bind();
  wire_buf b;
  shard::encode_bind(b, m);
  wire_cursor c(b.view());
  const shard::shard_bind d = shard::decode_bind(c);
  EXPECT_EQ(d.shard, m.shard);
  EXPECT_EQ(d.shards, m.shards);
  EXPECT_EQ(d.part, m.part);
  EXPECT_EQ(d.slice.full_n, m.slice.full_n);
  EXPECT_EQ(d.slice.to_original, m.slice.to_original);
  EXPECT_EQ(d.slice.local.num_vertices(), m.slice.local.num_vertices());
  EXPECT_EQ(d.slice.local.edges(), m.slice.local.edges());
  EXPECT_EQ(d.engine, m.engine);
  EXPECT_EQ(d.rank, m.rank);
  EXPECT_EQ(d.threads, m.threads);
  EXPECT_EQ(d.kernel, enumkernel::kernel_mode::bitmap);
  EXPECT_EQ(d.simd, simd_mode::scalar);
}

TEST(ShardCodec, EveryTruncationPrefixOfABindIsRejected) {
  wire_buf b;
  shard::encode_bind(b, sample_bind());
  const auto full = b.view();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    wire_cursor c(full.subspan(0, cut));
    EXPECT_THROW(shard::decode_bind(c), shard_error) << "cut=" << cut;
  }
}

TEST(ShardCodec, BindSimdByteOutOfRangeIsRejected) {
  // The simd byte closes the bind payload; 3 is one past the last tier.
  wire_buf b;
  shard::encode_bind(b, sample_bind());
  std::vector<std::uint8_t> bytes(b.view().begin(), b.view().end());
  ASSERT_EQ(bytes.back(), std::uint8_t(simd_mode::scalar));
  bytes.back() = 3;
  wire_cursor c(bytes);
  EXPECT_THROW(shard::decode_bind(c), shard_error);
}

// --- bind hardening: each field a corrupted bind could abuse -----------------

void expect_bind_rejected(const shard::shard_bind& m) {
  wire_buf b;
  shard::encode_bind(b, m);
  wire_cursor c(b.view());
  EXPECT_THROW(shard::decode_bind(c), shard_error);
}

TEST(ShardCodec, BindRankCountOtherThanSliceVerticesIsRejected) {
  shard::shard_bind m = sample_bind();
  m.rank.pop_back();
  expect_bind_rejected(m);
  m = sample_bind();
  m.rank.push_back(m.slice.full_n - 1);
  expect_bind_rejected(m);
}

TEST(ShardCodec, BindRankOutsideTheGraphIsRejected) {
  shard::shard_bind m = sample_bind();
  m.rank[0] = m.slice.full_n;
  expect_bind_rejected(m);
  m.rank[0] = -1;
  expect_bind_rejected(m);
}

TEST(ShardCodec, BindDuplicateRankIsRejected) {
  shard::shard_bind m = sample_bind();
  ASSERT_GE(m.rank.size(), 2u);
  m.rank[1] = m.rank[0];
  expect_bind_rejected(m);
}

TEST(ShardCodec, BindRanksUnderCongestAreRejected) {
  shard::shard_bind m = sample_bind();
  m.engine = listing_engine::congest_sim;
  expect_bind_rejected(m);
  m.rank.clear();
  wire_buf b;
  shard::encode_bind(b, m);
  wire_cursor c(b.view());
  EXPECT_NO_THROW(shard::decode_bind(c));
}

TEST(ShardCodec, BindThreadsAboveTheCapAreRejected) {
  shard::shard_bind m = sample_bind();
  m.threads = shard::kMaxShardThreads + 1;
  expect_bind_rejected(m);
  m.threads = INT32_MAX;
  expect_bind_rejected(m);
  m.threads = shard::kMaxShardThreads;  // the cap itself is allowed
  wire_buf b;
  shard::encode_bind(b, m);
  wire_cursor c(b.view());
  EXPECT_EQ(shard::decode_bind(c).threads, shard::kMaxShardThreads);
}

// --- forged counts: a count the payload cannot hold is a shard_error (the
// one exception the coordinator drains every peer on and reports as that
// shard's failure), never std::length_error from reserving it ------------

/// The encoded i64 at `at`, and a copy of `bytes` with it replaced by `n`.
std::int64_t count_at(std::span<const std::uint8_t> bytes, std::size_t at) {
  std::int64_t n = 0;
  std::memcpy(&n, bytes.data() + at, sizeof n);
  return n;
}

std::vector<std::uint8_t> with_count(std::span<const std::uint8_t> bytes,
                                     std::size_t at, std::int64_t n) {
  std::vector<std::uint8_t> out(bytes.begin(), bytes.end());
  std::memcpy(out.data() + at, &n, sizeof n);
  return out;
}

/// 2^62, the bytes left after the count plus one, and the first count the
/// bytes left cannot hold at `min_bytes` per element.
std::vector<std::int64_t> forged_counts(std::span<const std::uint8_t> bytes,
                                        std::size_t at,
                                        std::size_t min_bytes) {
  const auto remaining = std::int64_t(bytes.size() - at - 8);
  return {std::int64_t(1) << 62, remaining + 1,
          remaining / std::int64_t(min_bytes) + 1};
}

TEST(ShardCodec, ForgedSliceEdgeCountIsAShardError) {
  const shard::shard_bind m = sample_bind();
  wire_buf b;
  shard::encode_bind(b, m);
  // shard, shards, scheme, seed; the slice's full_n, local_n and remap.
  const std::size_t at =
      4 + 4 + 1 + 8 + 4 + 4 + 8 + 4 * m.slice.to_original.size();
  ASSERT_EQ(count_at(b.view(), at), m.slice.local.num_edges());
  for (const std::int64_t n : forged_counts(b.view(), at, 8)) {
    const auto bytes = with_count(b.view(), at, n);
    wire_cursor c(bytes);
    EXPECT_THROW(shard::decode_bind(c), shard_error) << "count=" << n;
  }
}

TEST(ShardCodec, ForgedScopedLedgerCountIsAShardError) {
  shard::shard_result r;
  r.qid = 5;
  r.p = 3;
  r.raw_tuples = {0, 1, 2};
  r.emitted = 1;
  shard_scoped_ledger sl;
  sl.level = 1;
  sl.branch = 2;
  sl.ledger.charge("list", 3, 9);
  r.scoped.push_back(sl);
  wire_buf b;
  shard::encode_result(b, r);
  // qid, p, the tuple vector, emitted.
  const std::size_t at = 8 + 4 + 8 + 4 * r.raw_tuples.size() + 8;
  ASSERT_EQ(count_at(b.view(), at), 1);
  for (const std::int64_t n : forged_counts(b.view(), at, 36)) {
    const auto bytes = with_count(b.view(), at, n);
    wire_cursor c(bytes);
    EXPECT_THROW(shard::decode_result(c), shard_error) << "count=" << n;
  }
}

TEST(ShardCodec, LedgerRoundTripPreservesTotalsSeparateFromPhases) {
  // A parallel-merged ledger's total is NOT the sum of its phase entries
  // (max-rounds semantics), so the codec must carry both independently.
  cost_ledger a;
  a.charge("alpha", 10, 100);
  cost_ledger b;
  b.charge("beta", 7, 50);
  a.merge_parallel(b);  // total rounds = max(10,7) = 10, not 17
  wire_buf buf;
  shard::encode_ledger(buf, a);
  wire_cursor c(buf.view());
  const cost_ledger d = shard::decode_ledger(c);
  EXPECT_EQ(d, a);
  EXPECT_EQ(d.rounds(), a.rounds());
  EXPECT_EQ(d.messages(), a.messages());
}

TEST(ShardCodec, LedgerDuplicatePhaseLabelRejected) {
  cost_ledger l;
  l.charge("x", 1, 2);
  wire_buf buf;
  shard::encode_ledger(buf, l);
  // Append the same phase entry again and bump the count by hand.
  std::vector<std::uint8_t> bytes(buf.view().begin(), buf.view().end());
  const std::size_t phase_entry = bytes.size() - (8 + 1 + 8 + 8);
  std::vector<std::uint8_t> dup(bytes.begin() + phase_entry, bytes.end());
  bytes.insert(bytes.end(), dup.begin(), dup.end());
  bytes[16] = 2;  // phase count lives after the two i64 totals
  wire_cursor c(bytes);
  EXPECT_THROW(shard::decode_ledger(c), shard_error);
}

TEST(ShardCodec, SliceRoundTripAndEndpointValidation) {
  const graph g = gen::ring_of_cliques(4, 5);
  shard::partitioner_spec spec;
  const shard::graph_slice sl = shard::build_graph_slice(g, spec, 1, 3);
  wire_buf b;
  shard::encode_slice(b, sl);
  wire_cursor c(b.view());
  const shard::graph_slice d = shard::decode_slice(c);
  EXPECT_EQ(d.full_n, sl.full_n);
  EXPECT_EQ(d.to_original, sl.to_original);
  EXPECT_EQ(d.local.num_vertices(), sl.local.num_vertices());
  EXPECT_EQ(d.local.edges(), sl.local.edges());

  // A remap that is not strictly ascending must be rejected.
  shard::graph_slice bad = sl;
  if (bad.to_original.size() >= 2)
    std::swap(bad.to_original[0], bad.to_original[1]);
  wire_buf bb;
  shard::encode_slice(bb, bad);
  wire_cursor cb(bb.view());
  EXPECT_THROW(shard::decode_slice(cb), shard_error);
}

TEST(ShardCodec, ResultRoundTripAndConsistencyChecks) {
  shard::shard_result r;
  r.qid = 42;
  r.p = 3;
  r.raw_tuples = {0, 1, 2, 1, 2, 3};
  r.emitted = 2;
  shard_scoped_ledger sl;
  sl.level = 0;
  sl.branch = 4;
  sl.ledger.charge("list", 3, 9);
  r.scoped.push_back(sl);
  r.model_decomposition_rounds = 11;
  r.levels.push_back({10, 4, 2, 2, 0, 0, 1});
  r.used_fallback = true;
  r.max_normalized_load = 1.5;
  r.trace_blob = {1, 2, 3};
  wire_buf b;
  shard::encode_result(b, r);
  {
    wire_cursor c(b.view());
    const shard::shard_result d = shard::decode_result(c);
    EXPECT_EQ(d.qid, r.qid);
    EXPECT_EQ(d.raw_tuples, r.raw_tuples);
    EXPECT_EQ(d.emitted, r.emitted);
    ASSERT_EQ(d.scoped.size(), 1u);
    EXPECT_EQ(d.scoped[0].level, sl.level);
    EXPECT_EQ(d.scoped[0].branch, sl.branch);
    EXPECT_EQ(d.scoped[0].ledger, sl.ledger);
    EXPECT_EQ(d.levels, r.levels);
    EXPECT_EQ(d.used_fallback, r.used_fallback);
    EXPECT_EQ(d.trace_blob, r.trace_blob);
  }
  // Tuple buffer not a multiple of p → rejected.
  shard::shard_result bad = r;
  bad.raw_tuples.push_back(9);
  wire_buf bb;
  shard::encode_result(bb, bad);
  wire_cursor cb(bb.view());
  EXPECT_THROW(shard::decode_result(cb), shard_error);

  // A negative emitted count → rejected.
  shard::shard_result negative = r;
  negative.raw_tuples.clear();
  negative.emitted = -1;
  wire_buf nb;
  shard::encode_result(nb, negative);
  wire_cursor nc(nb.view());
  EXPECT_THROW(shard::decode_result(nc), shard_error);

  // A local count reply is one count and no tuples; it round-trips.
  shard::shard_result count;
  count.qid = 7;
  count.p = 4;
  count.emitted = 391969;
  wire_buf kb;
  shard::encode_result(kb, count);
  {
    wire_cursor c(kb.view());
    const shard::shard_result d = shard::decode_result(c);
    EXPECT_EQ(d.emitted, count.emitted);
    EXPECT_TRUE(d.raw_tuples.empty());
  }
  EXPECT_LT(kb.view().size(), 128u);

  // A reply holding only p, tuples and emitted = tuples / p round-trips.
  shard::shard_result bare;
  bare.p = 3;
  bare.raw_tuples = {0, 1, 2, 3, 4, 5};
  bare.emitted = 2;
  wire_buf eb;
  shard::encode_result(eb, bare);
  {
    wire_cursor c(eb.view());
    EXPECT_EQ(shard::decode_result(c).emitted, 2);
  }

  // The reply contract, per query mode and engine.
  using shard::check_reply;
  const auto local = listing_engine::local_kclist;
  const auto congest = listing_engine::congest_sim;
  EXPECT_NO_THROW(check_reply(count, sink_mode::count, local, 0));
  EXPECT_NO_THROW(check_reply(r, sink_mode::collect, local, 0));
  EXPECT_NO_THROW(check_reply(r, sink_mode::stream, local, 0));
  EXPECT_NO_THROW(check_reply(r, sink_mode::count, congest, 0));
  EXPECT_NO_THROW(check_reply(bare, sink_mode::collect, local, 0));
  // Tuples in a local count reply.
  EXPECT_THROW(check_reply(r, sink_mode::count, local, 1), shard_error);
  // A count without its tuples where tuples are due.
  for (const auto mode : {sink_mode::collect, sink_mode::stream})
    EXPECT_THROW(check_reply(count, mode, local, 1), shard_error);
  EXPECT_THROW(check_reply(count, sink_mode::count, congest, 1), shard_error);
  // emitted disagreeing with the tuples shipped.
  shard::shard_result off = r;
  off.emitted = 3;
  EXPECT_THROW(check_reply(off, sink_mode::collect, local, 1), shard_error);
  EXPECT_THROW(check_reply(off, sink_mode::count, congest, 1), shard_error);
}

TEST(ShardCodec, TraceBlobRoundTripsBitIdentically) {
  const graph g = gen::gnp(40, 0.25, 9);
  listing_session s(g);
  listing_query q;
  q.p = 3;
  q.trace = true;
  const query_result r = s.run(q);
  ASSERT_NE(r.report.trace, nullptr);
  wire_buf b;
  shard::encode_trace(b, *r.report.trace);
  wire_cursor c(b.view());
  const trace_log d = shard::decode_trace(c);
  EXPECT_EQ(d, *r.report.trace);
  EXPECT_EQ(trace_bytes(d), trace_bytes(*r.report.trace));

  // A truncated embedded blob is a shard_error, not a precondition_error.
  wire_cursor ct(b.view().subspan(0, b.view().size() / 2));
  EXPECT_THROW(shard::decode_trace(ct), shard_error);
}

// --- frame layer ------------------------------------------------------------

TEST(ShardWire, FramesRoundTripThroughMemoryChannel) {
  auto [a, b] = shard::make_memory_channel_pair();
  frame_writer w(*a);
  wire_buf payload;
  payload.put(std::int32_t(7));
  w.send(frame_type::bind, payload.view());
  w.send(frame_type::shutdown, {});
  frame_reader r(*b);
  frame f;
  ASSERT_TRUE(r.next(f));
  EXPECT_EQ(f.type, frame_type::bind);
  wire_cursor c(f.payload);
  EXPECT_EQ(c.get<std::int32_t>(), 7);
  ASSERT_TRUE(r.next(f));
  EXPECT_EQ(f.type, frame_type::shutdown);
  EXPECT_TRUE(f.payload.empty());
  a.reset();  // writer gone → orderly EOF
  EXPECT_FALSE(r.next(f));
}

TEST(ShardWire, EveryFrameIsOneWriteWithThePreambleAhead) {
  // The stream layout is native-endian; the literal below is spelled for
  // a little-endian host.
  if (std::endian::native != std::endian::little)
    GTEST_SKIP() << "expected stream spelled little-endian";
  auto [a, b] = shard::make_memory_channel_pair();
  frame_writer w(*a);
  EXPECT_EQ(a->writes(), 0);  // nothing, not even the preamble, before a frame
  const std::uint8_t query[3] = {0x01, 0x02, 0x03};
  const std::uint8_t result[1] = {0xFF};
  const std::vector<std::uint8_t> first = {
      'D', 'C', 'L', 'S', 'H', 'A', 'R', 'D', 4, 0, 0, 0,  // magic, v4
      3, 0, 0, 0, 3, 0, 0, 0, 0x01, 0x02, 0x03};  // len 3, query, reserved
  const std::vector<std::uint8_t> rest = {
      0, 0, 0, 0, 6, 0, 0, 0,       // len 0, stats_req
      1, 0, 0, 0, 4, 0, 0, 0, 0xFF  // len 1, result
  };
  const auto drain = [&b](std::size_t n) {
    std::vector<std::uint8_t> got(n);
    std::size_t at = 0;
    while (at < n) at += b->read_some(got.data() + at, n - at);
    return got;
  };
  w.send(frame_type::query, query);
  EXPECT_EQ(a->writes(), 1);  // the preamble went out with the first frame
  EXPECT_EQ(drain(first.size()), first);
  w.send(frame_type::stats_req, {});
  EXPECT_EQ(a->writes(), 2);
  w.send(frame_type::result, result);
  EXPECT_EQ(a->writes(), 3);  // N sends, N writes
  EXPECT_EQ(drain(rest.size()), rest);
  EXPECT_EQ(w.stats().frames_sent, 3);
  EXPECT_EQ(w.stats().flushes, 3);
  EXPECT_EQ(w.stats().bytes_sent,
            std::int64_t(first.size() - 12 + rest.size()));  // no preamble
}

TEST(ShardWire, BadMagicAndBadVersionAreRejected) {
  EXPECT_EQ(shard::kWireVersion, 4u);
  {
    auto [a, b] = shard::make_memory_channel_pair();
    const char junk[12] = {'N', 'O', 'T', 'A', 'M', 'A',
                           'G', 'I', 'C', 1,   0,   0};
    a->write_all(junk, sizeof junk);
    frame_reader r(*b);
    frame f;
    EXPECT_THROW(r.next(f), shard_error);
  }
  // The previous version (a v3 peer, whose bind still carries a grain) and
  // the next one are both refused at the preamble.
  for (const std::uint32_t v :
       {shard::kWireVersion - 1, shard::kWireVersion + 1}) {
    auto [a, b] = shard::make_memory_channel_pair();
    std::vector<std::uint8_t> pre(shard::kWireMagic,
                                  shard::kWireMagic + 8);
    pre.insert(pre.end(), reinterpret_cast<const std::uint8_t*>(&v),
               reinterpret_cast<const std::uint8_t*>(&v) + 4);
    a->write_all(pre.data(), pre.size());
    frame_reader r(*b);
    frame f;
    EXPECT_THROW(r.next(f), shard_error) << "version " << v;
  }
}

TEST(ShardWire, OversizedLengthUnknownTypeAndTruncationAreRejected) {
  auto make_preambled = [] {
    auto pair = shard::make_memory_channel_pair();
    std::vector<std::uint8_t> pre(shard::kWireMagic,
                                  shard::kWireMagic + 8);
    const std::uint32_t v = shard::kWireVersion;
    pre.insert(pre.end(), reinterpret_cast<const std::uint8_t*>(&v),
               reinterpret_cast<const std::uint8_t*>(&v) + 4);
    pair.first->write_all(pre.data(), pre.size());
    return pair;
  };
  {  // oversized payload length must fail before allocating
    auto [a, b] = make_preambled();
    const std::uint32_t len = shard::kMaxFramePayload + 1;
    const std::uint16_t type = 3, reserved = 0;
    a->write_all(&len, 4);
    a->write_all(&type, 2);
    a->write_all(&reserved, 2);
    frame_reader r(*b);
    frame f;
    EXPECT_THROW(r.next(f), shard_error);
  }
  {  // unknown frame type
    auto [a, b] = make_preambled();
    const std::uint32_t len = 0;
    const std::uint16_t type = 99, reserved = 0;
    a->write_all(&len, 4);
    a->write_all(&type, 2);
    a->write_all(&reserved, 2);
    frame_reader r(*b);
    frame f;
    EXPECT_THROW(r.next(f), shard_error);
  }
  {  // EOF mid-frame = truncation, not an orderly end
    auto [a, b] = make_preambled();
    const std::uint32_t len = 100;
    const std::uint16_t type = 3, reserved = 0;
    a->write_all(&len, 4);
    a->write_all(&type, 2);
    a->write_all(&reserved, 2);
    a->write_all("partial", 7);
    a.reset();
    frame_reader r(*b);
    frame f;
    EXPECT_THROW(r.next(f), shard_error);
  }
  {  // clean EOF at a frame boundary is false, never a throw
    auto [a, b] = make_preambled();
    a.reset();
    frame_reader r(*b);
    frame f;
    EXPECT_FALSE(r.next(f));
  }
}

// --- the differential sweep (the PR's acceptance gate) ----------------------

shard::shard_options sharded_options(listing_engine engine) {
  shard::shard_options opt;
  // Hashed spreads branch owners across shards even when cluster
  // representatives cluster at low vertex ids (block would park most
  // congest work on shard 0).
  opt.partitioner.scheme = shard::partition_scheme::hashed;
  opt.partitioner.seed = 17;
  opt.worker_session.engine = engine;
  return opt;
}

TEST(ShardDifferential, ShardedRunsBitIdenticalToSoloBothEngines) {
  struct workload {
    graph g;
    int p;
  };
  const workload cases[] = {
      {gen::gnp(60, 0.18, 3), 3},
      {gen::ring_of_cliques(5, 7), 4},
      {gen::gnp(50, 0.3, 31), 5},
      {gen::ring_of_cliques(4, 8), 6},
  };
  for (const auto engine :
       {listing_engine::congest_sim, listing_engine::local_kclist}) {
    for (const auto& [g, p] : cases) {
      listing_query q;
      q.p = p;
      session_options sopt;
      sopt.engine = engine;
      listing_session solo(g, sopt);
      const query_result want = solo.run(q);
      for (int shards : {1, 2, 4}) {
        auto workers = shard::launch_fork_workers(shards);
        shard::shard_options opt = sharded_options(engine);
        shard::shard_coordinator coord(g, shard::take_links(workers), opt);
        const query_result got = coord.run(q);
        EXPECT_EQ(got.cliques, want.cliques)
            << "engine=" << int(engine) << " p=" << p
            << " shards=" << shards;
        EXPECT_EQ(got.count, want.count);
        if (engine == listing_engine::congest_sim)
          expect_report_identical(got.report, want.report);
        else
          EXPECT_EQ(got.report.emitted, want.report.emitted);
        coord.shutdown();
        for (auto& w : workers) EXPECT_EQ(shard::wait_worker(w), 0);
      }
    }
  }
}

TEST(ShardDifferential, BoundKernelAndSimdReachWorkersAndMatchSolo) {
  // Forced bitmap traversal on the scalar tier, set once in the workers'
  // session options and shipped in the bind message, must still fold back
  // to the auto/auto solo answer (p = 5 so the bitmap descent really runs).
  const graph g = gen::gnp(50, 0.3, 31);
  listing_query q;
  q.p = 5;
  for (const auto engine :
       {listing_engine::congest_sim, listing_engine::local_kclist}) {
    listing_session solo(g, {.engine = engine});
    const query_result want = solo.run(q);
    auto workers = shard::launch_fork_workers(2);
    shard::shard_options opt = sharded_options(engine);
    opt.worker_session.kernel = enumkernel::kernel_mode::bitmap;
    opt.worker_session.simd = simd_mode::scalar;
    shard::shard_coordinator coord(g, shard::take_links(workers), opt);
    const query_result got = coord.run(q);
    EXPECT_EQ(got.cliques, want.cliques) << "engine=" << int(engine);
    EXPECT_EQ(got.count, want.count);
    if (engine == listing_engine::congest_sim)
      expect_report_identical(got.report, want.report);
    coord.shutdown();
    for (auto& w : workers) EXPECT_EQ(shard::wait_worker(w), 0);
  }
}

TEST(ShardDifferential, CountAndStreamModesMatchSolo) {
  const graph g = gen::gnp(60, 0.2, 11);
  listing_query q;
  q.p = 3;
  listing_session solo(g, {});
  const query_result want = solo.run(q);

  auto workers = shard::launch_fork_workers(2);
  shard::shard_coordinator coord(
      g, shard::take_links(workers),
      sharded_options(listing_engine::congest_sim));

  listing_query qc = q;
  qc.mode = sink_mode::count;
  const query_result counted = coord.run(qc);
  EXPECT_EQ(counted.count, want.count);
  EXPECT_EQ(counted.cliques.size(), 0);
  expect_report_identical(counted.report, want.report);

  listing_query qs = q;
  qs.mode = sink_mode::stream;
  qs.stream_batch_tuples = 7;
  clique_set restreamed(q.p);
  const query_result streamed =
      coord.run(qs, [&](std::span<const vertex> batch) {
        EXPECT_EQ(batch.size() % std::size_t(q.p), 0u);
        EXPECT_LE(batch.size(), std::size_t(q.p) * 7);
        restreamed.add_flat(batch);
      });
  EXPECT_EQ(streamed.count, want.count);
  EXPECT_EQ(restreamed, want.cliques);

  coord.shutdown();
  for (auto& w : workers) EXPECT_EQ(shard::wait_worker(w), 0);
}

TEST(ShardDifferential, LocalCountIsOneCountPerShardAndStreamMatchesSolo) {
  const graph g = gen::planted_cliques(120, 0.05, 3, 9, 41);
  for (const int p : {3, 5}) {
    listing_query q;
    q.p = p;
    listing_session solo(g, {.engine = listing_engine::local_kclist});
    const query_result want = solo.run(q);
    auto workers = shard::launch_fork_workers(3);
    shard::shard_coordinator coord(
        g, shard::take_links(workers),
        sharded_options(listing_engine::local_kclist));

    listing_query qc = q;
    qc.mode = sink_mode::count;
    const auto sent = [&] {
      std::int64_t bytes = 0;
      for (const auto& s : coord.worker_stats()) bytes += s.wire.bytes_sent;
      return bytes;
    };
    const std::int64_t b0 = sent();
    const std::int64_t b1 = sent();  // b1 - b0: one stats frame per worker
    const query_result counted = coord.run(qc);
    const std::int64_t b2 = sent();
    EXPECT_EQ(counted.count, want.count);
    EXPECT_EQ(counted.report.emitted, want.count);
    EXPECT_EQ(counted.cliques.size(), 0);
    // Three result frames of a few dozen bytes: no tuples on the wire.
    EXPECT_LT((b2 - b1) - (b1 - b0), 3 * 128) << "p=" << p;

    listing_query qs = q;
    qs.mode = sink_mode::stream;
    qs.stream_batch_tuples = 5;
    clique_set restreamed(p);
    const query_result streamed =
        coord.run(qs, [&](std::span<const vertex> batch) {
          EXPECT_LE(batch.size(), std::size_t(p) * 5);
          restreamed.add_flat(batch);
        });
    EXPECT_EQ(streamed.count, want.count);
    EXPECT_EQ(restreamed, want.cliques);
    coord.shutdown();
    for (auto& w : workers) EXPECT_EQ(shard::wait_worker(w), 0);
  }
}

TEST(ShardDifferential, MergedTraceBytesEqualSolo) {
  const graph g = gen::ring_of_cliques(5, 7);
  listing_query q;
  q.p = 4;
  q.trace = true;
  listing_session solo(g, {});
  const query_result want = solo.run(q);
  ASSERT_NE(want.report.trace, nullptr);

  auto workers = shard::launch_fork_workers(2);
  shard::shard_coordinator coord(
      g, shard::take_links(workers),
      sharded_options(listing_engine::congest_sim));
  const query_result got = coord.run(q);
  ASSERT_NE(got.report.trace, nullptr);
  EXPECT_EQ(*got.report.trace, *want.report.trace);
  EXPECT_EQ(trace_bytes(*got.report.trace),
            trace_bytes(*want.report.trace));
  EXPECT_EQ(got.report.trace_stats, want.report.trace_stats);
  coord.shutdown();
  for (auto& w : workers) EXPECT_EQ(shard::wait_worker(w), 0);
}

TEST(ShardDifferential, RepeatedQueriesOnOneFleetStayIdentical) {
  const graph g = gen::gnp(50, 0.25, 23);
  listing_session solo(g, {});
  auto workers = shard::launch_fork_workers(2);
  shard::shard_coordinator coord(
      g, shard::take_links(workers),
      sharded_options(listing_engine::congest_sim));
  for (int p = 3; p <= 5; ++p) {
    listing_query q;
    q.p = p;
    const query_result want = solo.run(q);
    const query_result got = coord.run(q);
    EXPECT_EQ(got.cliques, want.cliques) << "p=" << p;
    expect_report_identical(got.report, want.report);
  }
  const auto stats = coord.worker_stats();
  ASSERT_EQ(stats.size(), 2u);
  for (const auto& s : stats) {
    EXPECT_EQ(s.queries, 3);
    EXPECT_EQ(s.errors, 0);
    EXPECT_GT(s.wire.frames_sent, 0);
    EXPECT_GT(s.wire.bytes_received, 0);
  }
  coord.shutdown();
  for (auto& w : workers) EXPECT_EQ(shard::wait_worker(w), 0);
}

// --- failure semantics ------------------------------------------------------

TEST(ShardFailure, WorkerErrorFrameFailsTheQueryNotTheWorker) {
  // Drive a worker directly over the raw wire: a query that decodes fine
  // but fails engine validation must come back as an `error` frame, and
  // the very next query must still be served.
  const graph g = gen::gnp(30, 0.2, 5);
  auto workers = shard::launch_fork_workers(1);
  frame_writer w(*workers[0].link);
  frame_reader r(*workers[0].link);

  shard::shard_bind bind;
  bind.shard = 0;
  bind.shards = 1;
  bind.slice = shard::identity_slice(g);
  wire_buf bb;
  shard::encode_bind(bb, bind);
  w.send(frame_type::bind, bb.view());
  frame f;
  ASSERT_TRUE(r.next(f));
  ASSERT_EQ(f.type, frame_type::bind_ok);

  listing_query bad;
  bad.p = 3;
  bad.epsilon = 0.999999;  // decodes fine; validate_query then rejects the
  bad.max_levels = 0;      // max_levels at the engine boundary
  wire_buf qb;
  qb.put(std::uint64_t(1));
  shard::encode_query(qb, bad);
  w.send(frame_type::query, qb.view());
  ASSERT_TRUE(r.next(f));
  EXPECT_EQ(f.type, frame_type::error);
  wire_cursor c(f.payload);
  EXPECT_EQ(c.get<std::uint64_t>(), 1u);
  EXPECT_FALSE(c.get_string().empty());

  listing_query good;
  good.p = 3;
  wire_buf gb;
  gb.put(std::uint64_t(2));
  shard::encode_query(gb, good);
  w.send(frame_type::query, gb.view());
  ASSERT_TRUE(r.next(f));
  EXPECT_EQ(f.type, frame_type::result);
  wire_cursor rc(f.payload);
  const shard::shard_result res = shard::decode_result(rc);
  EXPECT_EQ(res.qid, 2u);
  EXPECT_GT(res.emitted, 0);

  w.send(frame_type::shutdown, {});
  ASSERT_TRUE(r.next(f));
  EXPECT_EQ(f.type, frame_type::bye);
  EXPECT_EQ(shard::wait_worker(workers[0]), 0);
}

TEST(ShardFailure, CoordinatorSurfacesWorkerErrorsAsShardError) {
  const graph g = gen::gnp(40, 0.2, 7);
  auto workers = shard::launch_fork_workers(2);
  shard::shard_coordinator coord(
      g, shard::take_links(workers),
      sharded_options(listing_engine::congest_sim));
  // Local validation rejects before anything hits the wire...
  listing_query bad;
  bad.p = 99;
  EXPECT_THROW(coord.run(bad), precondition_error);
  // ...and the fleet is untouched: a good query still folds clean.
  listing_query good;
  good.p = 3;
  EXPECT_GT(coord.run(good).count, 0);
  coord.shutdown();
  for (auto& w : workers) EXPECT_EQ(shard::wait_worker(w), 0);
}

TEST(ShardFailure, KilledWorkerDegradesTheCoordinator) {
  const graph g = gen::gnp(40, 0.2, 13);
  auto workers = shard::launch_fork_workers(2);
  std::vector<std::unique_ptr<shard::byte_channel>> links;
  for (auto& w : workers) links.push_back(std::move(w.link));
  shard::shard_coordinator coord(
      g, std::move(links), sharded_options(listing_engine::congest_sim));
  shard::kill_worker(workers[1]);  // SIGKILL mid-fleet
  listing_query q;
  q.p = 3;
  EXPECT_THROW(coord.run(q), shard_error);
  // Degraded for good: later queries refuse up front.
  EXPECT_THROW(coord.run(q), shard_error);
  coord.shutdown();
  EXPECT_EQ(shard::wait_worker(workers[0]), 0);
}

TEST(ShardFailure, StreamModeRequiresTheSinkOverload) {
  const graph g = gen::gnp(20, 0.2, 3);
  auto workers = shard::launch_fork_workers(1);
  shard::shard_coordinator coord(
      g, shard::take_links(workers),
      sharded_options(listing_engine::congest_sim));
  listing_query q;
  q.p = 3;
  q.mode = sink_mode::stream;
  EXPECT_THROW(coord.run(q), precondition_error);
  listing_query qc;
  qc.p = 3;
  EXPECT_THROW(coord.run(qc, [](std::span<const vertex>) {}),
               precondition_error);
  coord.shutdown();
  for (auto& w : workers) EXPECT_EQ(shard::wait_worker(w), 0);
}

// --- exec-based launch (tools/shard_worker) ---------------------------------

#ifdef DCL_SHARD_WORKER_EXE
TEST(ShardExec, ExecWorkersServeTheSameDifferentialContract) {
  const graph g = gen::gnp(50, 0.2, 19);
  listing_session solo(g, {});
  listing_query q;
  q.p = 3;
  const query_result want = solo.run(q);
  auto workers = shard::launch_exec_workers(DCL_SHARD_WORKER_EXE, 2);
  shard::shard_coordinator coord(
      g, shard::take_links(workers),
      sharded_options(listing_engine::congest_sim));
  const query_result got = coord.run(q);
  EXPECT_EQ(got.cliques, want.cliques);
  expect_report_identical(got.report, want.report);
  coord.shutdown();
  for (auto& w : workers) EXPECT_EQ(shard::wait_worker(w), 0);
}
#endif

}  // namespace
}  // namespace dcl
