#pragma once
// The CONGEST recursion driver, one level loop for every 3 <= p <= 6:
//   Lemma 33 / Theorem 32 — deterministic triangle listing, n^{1/3+o(1)};
//   Lemma 38 / Theorem 36 — deterministic K_p listing (p >= 4), n^{1-2/p+o(1)}.
//
// Per level: expander-decompose the residual graph, derive cluster anatomy,
// list within clusters (in parallel — cluster ledgers merge with max-rounds
// semantics), retire the fully-processed E− edges, recurse on the rest.
// Only the per-cluster step depends on p: Lemma 34 at p = 3; at p >= 4 the
// Lemma 41 exhaustive sweep, then per cluster the Lemma 43 E′ delivery, the
// Lemma 44 overload deferral and Lemma 37 (DESIGN.md §2.4).
// Lemma 8 bounds the residual to a constant fraction, giving logarithmic
// depth; a gather-to-leader fallback guarantees unconditional progress on
// degenerate inputs (DESIGN.md §2.6 — it never fires on benchmark families,
// and the report records if it did).

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "congest/cost.hpp"
#include "congest/trace.hpp"
#include "core/listing/k3_cluster.hpp"
#include "expander/anatomy.hpp"
#include "graph/clique_enum.hpp"

namespace dcl {

namespace runtime {
class thread_pool;
class query_scratch;
}

/// Execution backend behind dcl::listing_session:
///   congest_sim  — the paper's simulated CONGEST algorithms (default);
///   local_kclist — the shared-memory kClist engine (src/local/), exact and
///                  fast, with no round/message accounting.
enum class listing_engine { congest_sim, local_kclist };

/// Largest arity the CONGEST driver implements (Theorem 36 machinery); the
/// local_kclist engine goes up to enumkernel::kMaxCliqueArity.
inline constexpr int kCongestMaxP = 6;

/// Output mode of one query (DESIGN.md §9):
///   collect — materialize the canonical clique_set (historical behavior);
///   count   — only the distinct-clique count: the local engine runs its
///             counting twin with no materialization at all, congest_sim
///             finalizes its dedup collector in place without copying the
///             set out;
///   stream  — hand the canonical tuples to a batched caller sink in the
///             deterministic merge order (requires the sink-taking run
///             overload of listing_session).
enum class sink_mode { collect, count, stream };

/// Everything that may change between two runs against the same bound
/// graph. The graph-binding half (engine, worker-pool size, DAG
/// orientation, kernel traversal and vector tier) lives in session_options
/// (core/api/session.hpp).
struct listing_query {
  int p = 3;                                ///< clique arity
  sink_mode mode = sink_mode::collect;      ///< output shape of this run
  lb_engine lb = lb_engine::deterministic;  ///< congest_sim load balancing
  std::uint64_t seed = 0;      ///< used only by the randomized lb engine
  double epsilon = 0.0;        ///< 0 → 1/18 (p != 4) or 1/12 (p = 4)
  double beta = 2.0;           ///< V−_C degree threshold factor (p >= 4)
  double gamma = 12.0;         ///< overloaded-cluster threshold (p >= 4)
  int max_levels = 64;
  std::int64_t base_case_edges = 64;  ///< gather centrally below this
  /// stream mode: max tuples per sink invocation (>= 1). A presentation
  /// knob only — the concatenated stream is invariant under it.
  std::int64_t stream_batch_tuples = 4096;
  /// congest_sim: record every transport exchange/route/charge into a
  /// trace_log (listing_report::trace) for replay-driven cost experiments
  /// (congest/replay.hpp, DESIGN.md §10). Does not change any output —
  /// cliques and the ledger are bit-identical with tracing on or off; off
  /// is a no-op on the hot path (one pointer null check per exchange).
  /// Ignored by local_kclist (no CONGEST accounting there to trace).
  bool trace = false;
};

struct level_stats {
  std::int64_t edges_before = 0;
  std::int64_t edges_removed = 0;
  std::int64_t clusters = 0;
  std::int64_t clusters_listed = 0;
  std::int64_t deferred_clusters = 0;  ///< overloaded (p >= 4 only)
  std::int64_t bad_vertices = 0;       ///< Σ |S_C| (p >= 4 only)
  std::int64_t low_degree_targets = 0;

  friend bool operator==(const level_stats&, const level_stats&) = default;
};

/// One parallel branch's ledger tagged with its position in the solo merge
/// tree: (recursion level, branch id) exactly as trace scopes are tagged —
/// branch >= 0 is a cluster index, kTraceBranchExhaustive the per-level
/// exhaustive sweep, and level == -1 / kTraceBranchSequential the
/// fallback-gather charges. The shard coordinator rebuilds the solo ledger
/// from these: merge_parallel within a level and merge_sequential across
/// levels are associative and commutative per phase, so folding every
/// shard's scoped ledgers level by level reproduces the single-process
/// ledger bit for bit (DESIGN.md §14).
struct shard_scoped_ledger {
  std::int32_t level = -1;
  std::int64_t branch = kTraceBranchSequential;
  cost_ledger ledger;
};

/// Work-ownership filter for multi-process sharded congest runs. Every
/// worker replicates the deterministic control plane — decomposition,
/// anatomy, E′ delivery and the overload test, residual-edge retirement —
/// which is a pure function of the level graph, independent of listing
/// output; only branches this plan owns are actually listed (and charged
/// into exportable ledgers). `owner` must be a pure function of its
/// arguments, identical across every worker of the run; the representative
/// handed to it is the smallest vertex of the branch's cluster (or target
/// set). A null owner or shards <= 1 owns everything (the solo path).
struct congest_shard_plan {
  int shard = 0;
  int shards = 1;
  std::function<int(std::int32_t level, std::int64_t branch, vertex rep)>
      owner;
  /// When set, the driver appends one entry per branch it listed, in fold
  /// order — the worker's half of the coordinator's ledger rebuild.
  std::vector<shard_scoped_ledger>* scoped = nullptr;

  bool owns(std::int32_t level, std::int64_t branch, vertex rep) const {
    return shards <= 1 || !owner || owner(level, branch, rep) == shard;
  }
};

/// The recursion skeleton of one bound graph, memoized per session
/// (DESIGN.md §2.1): for every (p, resolved ε, β, γ) key and recursion
/// level, the cluster anatomy that level's decomposition produced. Those
/// four query fields are every input that reaches a level graph or its
/// anatomy — ε and p/β shape the decomposition and anatomy, γ decides which
/// clusters defer and so which edges the next level keeps — while lb, seed,
/// mode, trace, the stream batch size, max_levels and base_case_edges only
/// choose what is listed or whether a level is reached. A hit therefore
/// returns exactly the anatomy a cold run would rebuild, and the driver
/// skips decompose and build_anatomy; everything that charges the ledger,
/// emits cliques or records trace events still runs per query. Level graphs
/// are not kept: each query re-derives them with the same edge retirement.
///
/// Thread-safe: lookups and publication take one mutex, the caller computes
/// a miss outside it, and the first publisher of a (key, level) wins — a
/// racing publisher computed the same bytes. At most kMaxKeys keys are
/// held; publishing a new key evicts the oldest.
class skeleton_memo {
 public:
  static constexpr std::size_t kMaxKeys = 8;

  struct key {
    int p = 3;
    double epsilon = 0.0;  ///< resolved (never the 0 default sentinel)
    double beta = 0.0;
    double gamma = 0.0;
  };
  using level_anatomy = std::shared_ptr<const std::vector<cluster_anatomy>>;

  /// The anatomy of `level` under `k`, or null on a miss. `cur` is the
  /// caller's level graph: a hit built from a graph of another (n, m) is a
  /// broken key and fails DCL_ENSURE instead of being served.
  level_anatomy find(const key& k, int level, const graph& cur);
  /// Records `anatomy` as the skeleton of `level` under `k`, built from
  /// `cur`; an entry already present is kept (first writer wins).
  void publish(const key& k, int level, const graph& cur,
               level_anatomy anatomy);

 private:
  struct level_entry {
    vertex n = 0;
    std::int64_t m = 0;
    level_anatomy anatomy;  ///< null: this level not yet published
  };
  struct slot {
    key k;
    std::vector<level_entry> levels;  ///< indexed by recursion level
  };
  slot* lookup(const key& k);  ///< caller holds mu_

  std::mutex mu_;
  std::deque<slot> slots_;  ///< oldest key first
};

struct listing_report {
  cost_ledger ledger;  ///< simulated rounds/messages (levels sequential,
                       ///< clusters within a level parallel)
  std::int64_t model_decomposition_rounds = 0;  ///< CS20-formula charge,
                                                ///< reported separately
  std::vector<level_stats> levels;
  std::int64_t emitted = 0;
  std::int64_t duplicates = 0;
  bool used_fallback = false;
  /// max over clusters of the Thm 6 per-vertex load L (see
  /// cluster_listing_stats::max_normalized_load).
  double max_normalized_load = 0.0;
  /// Wall-clock seconds per driver stage ("decompose", "anatomy",
  /// "clusters", "exhaustive" at p >= 4 only, "fallback", "total"),
  /// accumulated across levels. Observability only: values depend on the
  /// machine and thread count; every simulated number above stays
  /// deterministic. On a skeleton_memo hit "decompose" and "anatomy" add
  /// only the lookup (~0).
  std::map<std::string, double> phase_seconds;
  /// The recorded transport trace when listing_query::trace was set (null
  /// otherwise), with its aggregate stats. Replaying `trace` under
  /// replay_model::measured reproduces `ledger` bit-identically.
  std::shared_ptr<const trace_log> trace;
  trace_summary trace_stats;
};

/// Theorems 32 and 36 for 3 <= q.p <= kCongestMaxP. Appends every K_p of
/// g into `out` (arity q.p, must be unfinalized) and returns this run's
/// fresh report — the driver never touches caller-held report state. The
/// caller finalizes `out` to fit its sink mode and owns the
/// emitted/duplicates bookkeeping afterwards.
/// `pool` supplies the cluster-parallel workers; `scratch` supplies every
/// piece of mutable per-run workspace (per-worker-slot transports and
/// kernel scratch) — the driver touches no state shared beyond its
/// arguments, so any number of runs may share one read-only graph, and a
/// listing_session serves concurrent run() calls by handing each one a
/// private leased scratch (DESIGN.md §12). Output equals the sequential
/// ground truth exactly (tested property).
///
/// `plan`, when given, restricts listing to the branches the plan owns
/// (sharded execution, DESIGN.md §14): control-plane structure — levels,
/// stats, residual retirement, model rounds, used_fallback — is computed
/// identically on every shard, while cliques, ledger charges, and trace
/// scopes come only from owned branches.
///
/// `exec` is how every cluster's final local enumeration (and the driver's
/// sorted intersections) execute — the session's bind-time resolution of
/// session_options::{kernel, simd}. Every output is bit-identical for
/// every config.
///
/// `memo`, when given, is the caller's skeleton_memo for `g`: levels it
/// holds skip decompose and build_anatomy, levels it lacks are computed and
/// published. Every output is bit-identical with or without it; null is the
/// cold path.
listing_report list_cliques_congest(const graph& g, const listing_query& q,
                                    runtime::thread_pool& pool,
                                    runtime::query_scratch& scratch,
                                    clique_collector& out,
                                    const congest_shard_plan* plan = nullptr,
                                    enumkernel::exec_config exec = {},
                                    skeleton_memo* memo = nullptr);

}  // namespace dcl
