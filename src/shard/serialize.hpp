#pragma once
// Binary payload codecs for the shard protocol (DESIGN.md §14): graph
// slices, listing_query, raw collector tuples, cost ledgers, scoped-ledger
// lists, report metadata, and embedded trace blobs. Same discipline as the
// trace binary format (src/congest/trace): native endianness, trivially-
// copyable fields memcpy'd through small put/get templates, every read
// bounds-checked — a truncated or garbage payload throws shard_error
// before a single out-of-range byte is consumed. Enum bytes are range-
// checked on decode, so a frame from a confused peer fails loudly instead
// of materializing an invalid query.

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/api/session.hpp"
#include "shard/channel.hpp"
#include "shard/partition.hpp"
#include "shard/wire.hpp"

namespace dcl::shard {

/// Append-only payload builder.
class wire_buf {
 public:
  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    append_bytes(bytes_, &v, sizeof(T));
  }

  void put_string(std::string_view s) {
    put(std::int64_t(s.size()));
    append_bytes(bytes_, s.data(), s.size());
  }

  template <typename T>
  void put_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put(std::int64_t(v.size()));
    append_bytes(bytes_, v.data(), v.size() * sizeof(T));
  }

  std::span<const std::uint8_t> view() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked payload reader; every decode_* consumes from one of
/// these and throws shard_error on truncation or invalid values.
class wire_cursor {
 public:
  explicit wire_cursor(std::span<const std::uint8_t> bytes)
      : bytes_(bytes) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    need(sizeof(T), "fixed field");
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::string get_string() {
    const std::int64_t n = get_count("string length");
    if (n == 0) return {};
    need(std::size_t(n), "string body");
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_),
                  std::size_t(n));
    pos_ += std::size_t(n);
    return s;
  }

  template <typename T>
  std::vector<T> get_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::int64_t n = get_count("vector length");
    if (n == 0) return {};
    need(std::size_t(n) * sizeof(T), "vector body");
    std::vector<T> v(static_cast<std::size_t>(n));
    std::memcpy(v.data(), bytes_.data() + pos_, v.size() * sizeof(T));
    pos_ += v.size() * sizeof(T);
    return v;
  }

  bool exhausted() const { return pos_ == bytes_.size(); }
  std::size_t remaining() const { return bytes_.size() - pos_; }

  /// Decoders call this last: trailing bytes mean a framing bug or version
  /// skew, both worth failing on.
  void expect_exhausted(const char* what) const {
    if (!exhausted())
      throw shard_error(std::string("shard payload: trailing bytes after ") +
                        what);
  }

 private:
  std::int64_t get_count(const char* what) {
    const auto n = get<std::int64_t>();
    if (n < 0 || std::size_t(n) > bytes_.size())
      throw shard_error(std::string("shard payload: implausible ") + what);
    return n;
  }

  void need(std::size_t n, const char* what) const {
    if (bytes_.size() - pos_ < n)
      throw shard_error(std::string("shard payload: truncated reading ") +
                        what);
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

// --- protocol messages ------------------------------------------------------

/// Largest worker pool a bind may ask for. A bind is peer input: the cap
/// keeps a corrupted threads field from spawning billions of threads.
inline constexpr int kMaxShardThreads = 1024;

/// bind: everything a worker needs to stand up its engine — including the
/// kernel traversal and vector tier, which are session-wide and never
/// travel with a query.
struct shard_bind {
  int shard = 0;
  int shards = 1;
  partitioner_spec part;
  graph_slice slice;
  listing_engine engine = listing_engine::congest_sim;
  /// local_kclist: the global rank of each slice vertex (rank[i] belongs
  /// to slice.to_original[i]) in the coordinator's one orientation of the
  /// whole graph, so every slice orients by the same order and each clique
  /// is rooted at one vertex fleet-wide. Empty under congest_sim.
  std::vector<vertex> rank;
  int threads = 1;  ///< <= 0 → hardware concurrency; <= kMaxShardThreads
  enumkernel::kernel_mode kernel = enumkernel::kernel_mode::auto_select;
  simd_mode simd = simd_mode::auto_select;
};

/// result: one shard's answer to one query. A local-engine count reply is
/// `emitted` alone (the shard's rooted count, no tuples); every other reply
/// ships its tuples and emitted = tuples / p (see check_reply).
struct shard_result {
  std::uint64_t qid = 0;
  int p = 0;
  std::vector<vertex> raw_tuples;  ///< stride p, unfinalized
  std::int64_t emitted = 0;
  std::vector<shard_scoped_ledger> scoped;
  // The structural report fields every shard computes identically (the
  // coordinator cross-checks them across shards).
  std::int64_t model_decomposition_rounds = 0;
  std::vector<level_stats> levels;
  bool used_fallback = false;
  double max_normalized_load = 0.0;
  std::vector<std::uint8_t> trace_blob;  ///< trace_log binary; empty = none
};

/// stats: a worker's serve-loop counters.
struct shard_worker_stats {
  int shard = 0;
  std::int64_t queries = 0;
  std::int64_t errors = 0;
  wire_stats wire;
};

// --- codecs -----------------------------------------------------------------

void encode_query(wire_buf& b, const listing_query& q);
listing_query decode_query(wire_cursor& c);

void encode_slice(wire_buf& b, const graph_slice& s);
graph_slice decode_slice(wire_cursor& c);

void encode_ledger(wire_buf& b, const cost_ledger& l);
cost_ledger decode_ledger(wire_cursor& c);

void encode_scoped_ledgers(wire_buf& b,
                           const std::vector<shard_scoped_ledger>& v);
std::vector<shard_scoped_ledger> decode_scoped_ledgers(wire_cursor& c);

void encode_trace(wire_buf& b, const trace_log& t);
trace_log decode_trace(wire_cursor& c);

void encode_bind(wire_buf& b, const shard_bind& m);
shard_bind decode_bind(wire_cursor& c);

void encode_result(wire_buf& b, const shard_result& m);
shard_result decode_result(wire_cursor& c);

/// The reply contract the coordinator holds every decoded result to,
/// given the query's mode and the fleet's engine: a local-engine count
/// reply carries no tuples; every other reply carries emitted = tuples / p
/// (congest workers ship their raw tuples in every mode, for the
/// cross-shard dedup). Throws shard_error naming `shard` otherwise.
void check_reply(const shard_result& r, sink_mode mode,
                 listing_engine engine, int shard);

void encode_worker_stats(wire_buf& b, const shard_worker_stats& m);
shard_worker_stats decode_worker_stats(wire_cursor& c);

}  // namespace dcl::shard
