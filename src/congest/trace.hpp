#pragma once
// Message-layer trace recording (DESIGN.md §10). When a query enables
// tracing, every communication event the simulation charges —
// congested_clique::exchange batches, cluster_comm::route batches, and
// analytic charges — is recorded as one compact trace_event: phase label
// (interned), batch size, measured rounds, the ledger delta, a per-arc
// histogram summary (distinct arcs / max multiplicity / total, taken from
// the substrate's charge counters), and per-endpoint density stats
// (distinct sources/destinations touched and the max per-endpoint count).
// A recorded trace replays against alternative cost models
// (congest/replay.hpp) without re-running the listing.
//
// Ownership mirrors the cost_ledger: each concurrent cluster task records
// into its own trace_recorder, and the driver absorbs recorders into the
// run-level trace_log in cluster-index order, tagging each with a
// trace_scope (recursion level, parallel branch, cluster size, conductance
// certificate). The resulting log is therefore a pure function of (graph,
// query) — bit-identical for every sim_threads value.
//
// Tracing disabled is a no-op on the hot path: the substrates hold a
// nullable trace_recorder* and the only added cost is one pointer null
// check per exchange.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "congest/message.hpp"
#include "congest/router.hpp"

namespace dcl {

/// Bumped whenever the serialized layout (binary or JSONL) changes; the
/// binary reader rejects any other version, so stale readers fail loudly
/// instead of misparsing.
inline constexpr std::uint32_t kTraceFormatVersion = 1;

/// Branch id of events charged sequentially into the run ledger (fallback
/// gathers); every other branch of a level merges with parallel (max-
/// rounds) semantics. Cluster branches use the cluster index (>= 0).
inline constexpr std::int64_t kTraceBranchSequential = -1;
/// Branch id of the K_p exhaustive-search sweep that runs alongside the
/// clusters of a level.
inline constexpr std::int64_t kTraceBranchExhaustive = -2;

enum class trace_event_kind : std::uint8_t {
  exchange = 0,         ///< one-hop batch over graph edges (no longer
                        ///< recorded; older traces still read and replay)
  clique_exchange = 1,  ///< congested_clique::exchange (all-to-all)
  route = 2,            ///< cluster_comm::route batch
  charge = 3,           ///< analytic closed-form charge
};

std::string_view trace_event_kind_name(trace_event_kind k);

/// Per-endpoint density summary of one batch: how many distinct sources /
/// destinations the batch touches and the heaviest endpoint's share.
struct trace_batch_shape {
  std::int64_t srcs_touched = 0;
  std::int64_t src_max = 0;  ///< max messages originating at one source
  std::int64_t dsts_touched = 0;
  std::int64_t dst_max = 0;  ///< max messages addressed to one destination

  friend bool operator==(const trace_batch_shape&,
                         const trace_batch_shape&) = default;
};

struct trace_event {
  trace_event_kind kind = trace_event_kind::charge;
  std::int32_t phase = -1;  ///< index into the owning log/recorder's table
  std::int32_t scope = -1;  ///< index into trace_log::scopes(); -1 until
                            ///< absorbed
  std::int64_t n = 0;       ///< receiver id space of the batch
  std::int64_t batch = 0;   ///< messages handed to the primitive
  std::int64_t rounds = 0;  ///< measured rounds, exactly as charged
  std::int64_t messages = 0;  ///< ledger message delta (hop-messages for
                              ///< routes, batch size for exchanges)
  // Per-arc histogram summary. Exchanges: distinct directed (src, dst)
  // pairs, the max pair multiplicity (== rounds by the exchange cost rule),
  // and the total (== batch). Routes: distinct directed tree arcs used,
  // the max per-arc load, and the total hop-messages.
  std::int64_t arcs_touched = 0;
  std::int64_t arc_max = 0;
  std::int64_t arc_sum = 0;
  // Destination/source density stats: how concentrated the batch's
  // traffic is at its endpoints.
  std::int64_t dsts_touched = 0;
  std::int64_t dst_max = 0;
  std::int64_t srcs_touched = 0;
  std::int64_t src_max = 0;
  // Route-only extras.
  std::int64_t max_path = 0;
  std::int32_t tree_depth = 0;

  friend bool operator==(const trace_event&, const trace_event&) = default;
};

/// One merge scope of the run: a (recursion level, parallel branch) pair
/// plus the metadata replay models need (cluster size, conductance
/// certificate). Replay rebuilds the live ledger by charging each branch's
/// events into its own ledger, merging branches of a level with parallel
/// semantics, and chaining levels (and the sequential branch) additively.
struct trace_scope {
  std::int32_t level = -1;
  std::int64_t branch = kTraceBranchSequential;
  std::int64_t n = 0;      ///< cluster (or graph) size of the scope
  double phi = 0.0;        ///< certified conductance; 0 when not applicable

  friend bool operator==(const trace_scope&, const trace_scope&) = default;
};

/// Aggregate stats of a trace, cheap enough to ride inside listing_report.
struct trace_summary {
  std::int64_t events = 0;
  std::int64_t exchanges = 0;
  std::int64_t clique_exchanges = 0;
  std::int64_t routes = 0;
  std::int64_t charges = 0;
  std::int64_t scopes = 0;
  std::int64_t phases = 0;
  std::int64_t batch_messages = 0;    ///< Σ batch over exchange/route events
  std::int64_t route_hop_messages = 0;
  std::int64_t max_batch = 0;
  std::int64_t max_rounds = 0;        ///< largest single-event charge
  /// Mean over exchange/route events of dsts_touched / n — how much of the
  /// receiver space a typical batch addresses.
  double mean_dst_density = 0.0;

  friend bool operator==(const trace_summary&, const trace_summary&) = default;
};

/// Recycled counting scratch for trace_batch_shape: two per-endpoint
/// counters with sparse touched-list resets, so shape extraction is O(batch)
/// per event with no allocation once warm.
class trace_shape_scratch {
 public:
  trace_batch_shape compute(std::span<const message> batch, std::int64_t n);

 private:
  std::vector<std::int32_t> src_count_, dst_count_;
  std::vector<vertex> src_touched_, dst_touched_;
};

/// Convenience one-shot shape extraction (allocates; benches and tests).
trace_batch_shape shape_of_batch(std::span<const message> batch,
                                 std::int64_t n);

/// The per-task event sink. One recorder per cluster task (like its
/// cost_ledger); the driver absorbs it into the run's trace_log afterwards.
/// Phase labels are interned locally and remapped at absorb time.
class trace_recorder {
 public:
  /// One charged congested-clique batch. `rounds` (== the max pair
  /// multiplicity) and `pairs` (distinct directed (src, dst) pairs) come
  /// from the clique's charge; the batch supplies the endpoint shape.
  void record_exchange(std::string_view phase,
                       std::span<const message> batch, std::int64_t n,
                       std::int64_t rounds, std::int64_t pairs);

  /// One routed batch: the arc histogram comes from the router's `stats`,
  /// the endpoint shape from the batch itself.
  void record_route(std::string_view phase, std::span<const message> batch,
                    std::int64_t n, const route_stats& stats,
                    std::int32_t tree_depth);

  /// One analytic closed-form charge.
  void record_charge(std::string_view phase, std::int64_t rounds,
                     std::int64_t messages);

  const std::vector<trace_event>& events() const { return events_; }
  const std::vector<std::string>& phases() const { return phases_; }
  bool empty() const { return events_.empty(); }
  void clear();

 private:
  std::int32_t intern(std::string_view phase);
  trace_event& append(trace_event_kind kind, std::string_view phase);
  /// append() plus the batch's size and endpoint shape.
  trace_event& append_batch(trace_event_kind kind, std::string_view phase,
                            std::span<const message> batch, std::int64_t n);

  std::vector<trace_event> events_;
  std::vector<std::string> phases_;
  std::map<std::string, std::int32_t, std::less<>> phase_ids_;
  trace_shape_scratch shape_;
};

/// The assembled, deterministic run trace: a flat event list in (level
/// ascending, branch in driver fold order, per-branch program order), plus
/// the scope and phase tables. Serializable as versioned JSONL (human- and
/// diff-friendly) or binary (machine round-trip; native endianness).
class trace_log {
 public:
  /// Appends every event of `rec` under a new scope. Call in the driver's
  /// deterministic fold order; the log inherits its determinism from it.
  void absorb(const trace_recorder& rec, std::int32_t level,
              std::int64_t branch, std::int64_t n, double phi);

  /// Appends one scope of another log — scope metadata plus its events,
  /// phases re-interned into this log's table. The shard coordinator stitches
  /// per-worker traces back together with this: splicing every shard's scopes
  /// in the solo driver's fold order (level ascending; exhaustive branch
  /// before clusters; run-sequential scope last) reproduces the
  /// single-process trace_log — and therefore its binary bytes — exactly.
  void splice_scope(const trace_log& src, std::int32_t scope_idx);

  const std::vector<trace_event>& events() const { return events_; }
  const std::vector<trace_scope>& scopes() const { return scopes_; }
  const std::vector<std::string>& phases() const { return phases_; }
  std::string_view phase_name(std::int32_t id) const;

  trace_summary summarize() const;

  /// Line 1: a header object with trace_format/phases/scopes; then one
  /// event per line.
  void write_jsonl(std::ostream& os) const;
  /// Magic + version header, then the three tables. The reader throws
  /// precondition_error on a bad magic, version, or truncated stream.
  void write_binary(std::ostream& os) const;
  static trace_log read_binary(std::istream& is);

  friend bool operator==(const trace_log&, const trace_log&) = default;

 private:
  std::vector<trace_event> events_;
  std::vector<trace_scope> scopes_;
  std::vector<std::string> phases_;
  std::map<std::string, std::int32_t, std::less<>> phase_ids_;
};

}  // namespace dcl
