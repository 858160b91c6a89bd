#include "shard/serialize.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "support/check.hpp"

namespace dcl::shard {

namespace {

/// Range-checked enum decode: a byte outside the enum's value set is a
/// protocol violation, not a precondition bug.
template <typename E>
E get_enum(wire_cursor& c, std::uint8_t max_value, const char* what) {
  const auto raw = c.get<std::uint8_t>();
  if (raw > max_value)
    throw shard_error(std::string("shard payload: invalid ") + what +
                      " value " + std::to_string(int(raw)));
  return E(raw);
}

template <typename E>
void put_enum(wire_buf& b, E v) {
  b.put(std::uint8_t(v));
}

void put_bool(wire_buf& b, bool v) { b.put(std::uint8_t(v ? 1 : 0)); }

bool get_bool(wire_cursor& c, const char* what) {
  const auto raw = c.get<std::uint8_t>();
  if (raw > 1)
    throw shard_error(std::string("shard payload: invalid ") + what);
  return raw == 1;
}

/// An element count read from the peer, bounded by what the rest of the
/// payload could hold at `min_bytes` per element: a forged count fails as
/// a protocol error before anything is reserved for it.
std::int64_t get_element_count(wire_cursor& c, std::size_t min_bytes,
                               const char* what) {
  const auto n = c.get<std::int64_t>();
  if (n < 0) throw shard_error(std::string("shard payload: negative ") + what);
  if (std::uint64_t(n) > c.remaining() / min_bytes)
    throw shard_error(std::string("shard payload: ") + what + " " +
                      std::to_string(n) + " exceeds the bytes left");
  return n;
}

/// A local bind's ranks are distinct global ranks, one per slice vertex; a
/// congest bind carries none (its workers orient nothing).
void check_bind_rank(const shard_bind& m) {
  if (m.engine == listing_engine::congest_sim) {
    if (!m.rank.empty())
      throw shard_error("shard payload: congest_sim bind carries ranks");
    return;
  }
  if (m.rank.size() != m.slice.to_original.size())
    throw shard_error("shard payload: bind rank count != slice vertices");
  std::vector<vertex> sorted = m.rank;
  std::sort(sorted.begin(), sorted.end());
  if (!sorted.empty() &&
      (sorted.front() < 0 || sorted.back() >= m.slice.full_n))
    throw shard_error("shard payload: bind rank outside [0, full_n)");
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
    throw shard_error("shard payload: duplicate bind rank");
}

}  // namespace

void encode_query(wire_buf& b, const listing_query& q) {
  b.put(std::int32_t(q.p));
  put_enum(b, q.mode);
  put_enum(b, q.lb);
  b.put(q.seed);
  b.put(q.epsilon);
  b.put(q.beta);
  b.put(q.gamma);
  b.put(std::int32_t(q.max_levels));
  b.put(q.base_case_edges);
  b.put(q.stream_batch_tuples);
  put_bool(b, q.trace);
}

listing_query decode_query(wire_cursor& c) {
  listing_query q;
  q.p = c.get<std::int32_t>();
  q.mode = get_enum<sink_mode>(c, std::uint8_t(sink_mode::stream), "mode");
  q.lb = get_enum<lb_engine>(c, std::uint8_t(lb_engine::unbalanced), "lb");
  q.seed = c.get<std::uint64_t>();
  q.epsilon = c.get<double>();
  q.beta = c.get<double>();
  q.gamma = c.get<double>();
  q.max_levels = c.get<std::int32_t>();
  q.base_case_edges = c.get<std::int64_t>();
  q.stream_batch_tuples = c.get<std::int64_t>();
  q.trace = get_bool(c, "trace flag");
  return q;
}

void encode_slice(wire_buf& b, const graph_slice& s) {
  b.put(std::int32_t(s.full_n));
  b.put(std::int32_t(s.local.num_vertices()));
  b.put_vector(s.to_original);
  b.put(std::int64_t(s.local.edges().size()));
  for (const edge& e : s.local.edges()) {
    b.put(e.u);
    b.put(e.v);
  }
}

graph_slice decode_slice(wire_cursor& c) {
  graph_slice s;
  s.full_n = c.get<std::int32_t>();
  const vertex local_n = c.get<std::int32_t>();
  if (s.full_n < 0 || local_n < 0 || local_n > s.full_n)
    throw shard_error("shard payload: implausible slice vertex counts");
  s.to_original = c.get_vector<vertex>();
  if (vertex(s.to_original.size()) != local_n)
    throw shard_error("shard payload: slice remap length != local n");
  vertex prev = -1;
  for (vertex v : s.to_original) {
    if (v <= prev || v >= s.full_n)
      throw shard_error(
          "shard payload: slice remap must be ascending in [0, full_n)");
    prev = v;
  }
  // An edge is two vertex ids on the wire.
  const std::int64_t m = get_element_count(c, 2 * sizeof(vertex),
                                           "slice edge count");
  edge_list edges;
  edges.reserve(std::size_t(m));
  for (std::int64_t i = 0; i < m; ++i) {
    const vertex u = c.get<vertex>();
    const vertex v = c.get<vertex>();
    if (u < 0 || v < 0 || u >= local_n || v >= local_n || u == v)
      throw shard_error("shard payload: slice edge endpoint out of range");
    edges.push_back({u, v});
  }
  s.local = graph(local_n, edges);
  return s;
}

void encode_ledger(wire_buf& b, const cost_ledger& l) {
  b.put(l.rounds());
  b.put(l.messages());
  b.put(std::int64_t(l.phases().size()));
  for (const auto& [label, cost] : l.phases()) {
    b.put_string(label);
    b.put(cost.rounds);
    b.put(cost.messages);
  }
}

cost_ledger decode_ledger(wire_cursor& c) {
  phase_cost total;
  total.rounds = c.get<std::int64_t>();
  total.messages = c.get<std::int64_t>();
  const std::int64_t n = c.get<std::int64_t>();
  if (n < 0) throw shard_error("shard payload: negative phase count");
  std::map<std::string, phase_cost, std::less<>> phases;
  for (std::int64_t i = 0; i < n; ++i) {
    std::string label = c.get_string();
    phase_cost cost;
    cost.rounds = c.get<std::int64_t>();
    cost.messages = c.get<std::int64_t>();
    if (!phases.emplace(std::move(label), cost).second)
      throw shard_error("shard payload: duplicate ledger phase label");
  }
  return cost_ledger::from_parts(total, std::move(phases));
}

void encode_scoped_ledgers(wire_buf& b,
                           const std::vector<shard_scoped_ledger>& v) {
  b.put(std::int64_t(v.size()));
  for (const auto& s : v) {
    b.put(s.level);
    b.put(s.branch);
    encode_ledger(b, s.ledger);
  }
}

std::vector<shard_scoped_ledger> decode_scoped_ledgers(wire_cursor& c) {
  // Level, branch, and a ledger's two totals and phase count.
  constexpr std::size_t kMinScopedBytes = sizeof(std::int32_t) +
                                          sizeof(std::int64_t) +
                                          3 * sizeof(std::int64_t);
  const std::int64_t n =
      get_element_count(c, kMinScopedBytes, "scoped-ledger count");
  std::vector<shard_scoped_ledger> v;
  v.reserve(std::size_t(n));
  for (std::int64_t i = 0; i < n; ++i) {
    shard_scoped_ledger s;
    s.level = c.get<std::int32_t>();
    s.branch = c.get<std::int64_t>();
    s.ledger = decode_ledger(c);
    v.push_back(std::move(s));
  }
  return v;
}

void encode_trace(wire_buf& b, const trace_log& t) {
  // Reuse the trace binary format wholesale (its reader already rejects
  // truncation/bad magic/bad version) and length-prefix the blob.
  std::ostringstream os(std::ios::binary);
  t.write_binary(os);
  const std::string blob = os.str();
  b.put_string(blob);
}

trace_log read_trace_blob(std::string_view blob, const std::string& who) {
  std::istringstream is(std::string(blob), std::ios::binary);
  try {
    return trace_log::read_binary(is);
  } catch (const precondition_error& e) {
    // The embedded reader's rejection is a peer/protocol failure here.
    throw shard_error(who + ": bad trace blob: " + e.what());
  }
}

trace_log decode_trace(wire_cursor& c) {
  return read_trace_blob(c.get_string(), "shard payload");
}

void encode_bind(wire_buf& b, const shard_bind& m) {
  b.put(std::int32_t(m.shard));
  b.put(std::int32_t(m.shards));
  put_enum(b, m.part.scheme);
  b.put(m.part.seed);
  encode_slice(b, m.slice);
  put_enum(b, m.engine);
  b.put_vector(m.rank);
  b.put(std::int32_t(m.threads));
  put_enum(b, m.kernel);
  put_enum(b, m.simd);
}

shard_bind decode_bind(wire_cursor& c) {
  shard_bind m;
  m.shard = c.get<std::int32_t>();
  m.shards = c.get<std::int32_t>();
  if (m.shards < 1 || m.shard < 0 || m.shard >= m.shards)
    throw shard_error("shard payload: bind shard index out of range");
  m.part.scheme = get_enum<partition_scheme>(
      c, std::uint8_t(partition_scheme::hashed), "partition scheme");
  m.part.seed = c.get<std::uint64_t>();
  m.slice = decode_slice(c);
  m.engine = get_enum<listing_engine>(
      c, std::uint8_t(listing_engine::local_kclist), "engine");
  m.rank = c.get_vector<vertex>();
  check_bind_rank(m);
  m.threads = c.get<std::int32_t>();
  if (m.threads > kMaxShardThreads)
    throw shard_error("shard payload: bind threads " +
                      std::to_string(m.threads) + " above the cap " +
                      std::to_string(kMaxShardThreads));
  m.kernel = get_enum<enumkernel::kernel_mode>(
      c, std::uint8_t(enumkernel::kernel_mode::bitmap), "kernel mode");
  m.simd = get_enum<simd_mode>(c, std::uint8_t(simd_mode::avx2),
                               "simd mode");
  c.expect_exhausted("bind");
  return m;
}

void encode_result(wire_buf& b, const shard_result& m) {
  b.put(m.qid);
  b.put(std::int32_t(m.p));
  b.put_vector(m.raw_tuples);
  b.put(m.emitted);
  encode_scoped_ledgers(b, m.scoped);
  b.put(m.model_decomposition_rounds);
  b.put_vector(m.levels);
  put_bool(b, m.used_fallback);
  b.put(m.max_normalized_load);
  b.put_vector(m.trace_blob);
}

shard_result decode_result(wire_cursor& c) {
  shard_result m;
  m.qid = c.get<std::uint64_t>();
  m.p = c.get<std::int32_t>();
  if (m.p < 2)
    throw shard_error("shard payload: implausible result arity");
  m.raw_tuples = c.get_vector<vertex>();
  if (m.raw_tuples.size() % std::size_t(m.p) != 0)
    throw shard_error(
        "shard payload: result tuple buffer not a multiple of p");
  m.emitted = c.get<std::int64_t>();
  if (m.emitted < 0)
    throw shard_error("shard payload: negative result emitted count");
  m.scoped = decode_scoped_ledgers(c);
  m.model_decomposition_rounds = c.get<std::int64_t>();
  m.levels = c.get_vector<level_stats>();
  m.used_fallback = get_bool(c, "used_fallback flag");
  m.max_normalized_load = c.get<double>();
  m.trace_blob = c.get_vector<std::uint8_t>();
  c.expect_exhausted("result");
  return m;
}

void check_reply(const shard_result& r, sink_mode mode,
                 listing_engine engine, int shard) {
  const std::int64_t tuples = std::int64_t(r.raw_tuples.size()) / r.p;
  if (engine == listing_engine::local_kclist && mode == sink_mode::count) {
    if (!r.raw_tuples.empty())
      throw shard_error("shard " + std::to_string(shard) +
                        " answered a local count with tuples");
  } else if (r.emitted != tuples) {
    throw shard_error("shard " + std::to_string(shard) + " reported " +
                      std::to_string(r.emitted) + " emitted for " +
                      std::to_string(tuples) + " shipped tuples");
  }
}

void encode_worker_stats(wire_buf& b, const shard_worker_stats& m) {
  b.put(std::int32_t(m.shard));
  b.put(m.queries);
  b.put(m.errors);
  b.put(m.wire.frames_sent);
  b.put(m.wire.bytes_sent);
  b.put(m.wire.flushes);
  b.put(m.wire.frames_received);
  b.put(m.wire.bytes_received);
}

shard_worker_stats decode_worker_stats(wire_cursor& c) {
  shard_worker_stats m;
  m.shard = c.get<std::int32_t>();
  m.queries = c.get<std::int64_t>();
  m.errors = c.get<std::int64_t>();
  m.wire.frames_sent = c.get<std::int64_t>();
  m.wire.bytes_sent = c.get<std::int64_t>();
  m.wire.flushes = c.get<std::int64_t>();
  m.wire.frames_received = c.get<std::int64_t>();
  m.wire.bytes_received = c.get<std::int64_t>();
  c.expect_exhausted("worker stats");
  return m;
}

}  // namespace dcl::shard
