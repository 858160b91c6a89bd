#pragma once
// The shard worker's serve loop (DESIGN.md §14). One worker process binds
// the engine its bind frame names — a listing_session on the full graph
// under congest_sim, a local_shard on its slice under local_kclist — then
// answers query frames until shutdown (clean: replies `bye` and returns)
// or EOF (coordinator died: returns quietly). A query that throws inside
// the engine is answered with an `error` frame — the worker survives and
// keeps serving; only protocol-level failures (garbage frames, truncation)
// tear the loop down.

#include <cstdint>
#include <vector>

#include "enumkernel/limits.hpp"
#include "enumkernel/orient.hpp"
#include "runtime/scratch.hpp"
#include "runtime/thread_pool.hpp"
#include "shard/channel.hpp"
#include "shard/serialize.hpp"
#include "shard/wire.hpp"

namespace dcl::shard {

/// The local-engine worker: its slice oriented by the shipped global ranks,
/// and the kClist drivers rooted at the slice vertices this shard owns. A
/// clique's lowest-rank vertex u has every other member in N+(u) ⊆ N[u],
/// which u's owner holds whole, so every clique is enumerated by exactly
/// one shard and no filter runs. Exposed so tests can run one shard's
/// reply in process.
class local_shard {
 public:
  /// `bind.engine` must be local_kclist, its ranks validated (decode_bind).
  explicit local_shard(shard_bind bind);

  /// Count: the shard's rooted count alone. Collect and stream: its rooted
  /// cliques as one canonical run in original vertex ids.
  shard_result serve(std::uint64_t qid, const listing_query& q);

 private:
  shard_bind bind_;
  enumkernel::dag dag_;
  std::vector<vertex> owned_;  ///< slice vertices it roots at, ascending
  runtime::thread_pool pool_;
  runtime::query_scratch scratch_;
  enumkernel::exec_config exec_;
};

/// Runs the serve loop over `ch` until shutdown or EOF. Throws shard_error
/// on protocol violations (the process wrapper turns that into a nonzero
/// exit).
void run_shard_worker(byte_channel& ch, const wire_options& wopt = {});

}  // namespace dcl::shard
