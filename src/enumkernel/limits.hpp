#pragma once
// Kernel-wide constants shared across every layer. Every enumeration entry
// point — the kernel itself, the graph-layer adapters, the local engine,
// and the session's validate_query — checks p against kMaxCliqueArity, so
// an oversized arity is rejected at the API boundary instead of deep
// inside the enumerator. kernel_mode and exec_config live here (not
// kernel.hpp) so thin headers like session_options and the driver
// signatures can name them without pulling in the whole kernel.

#include "support/simd.hpp"

namespace dcl::enumkernel {

/// Largest supported clique arity (the enumerator's per-level state and
/// emitted-tuple buffers are statically bounded by it).
inline constexpr int kMaxCliqueArity = 32;

/// Per-egonet enumeration strategy (DESIGN.md §11; full semantics on the
/// kernel in kernel.hpp). The level descent runs either on the scalar
/// adjacency-compaction path or on dense adjacency bitmaps (word-parallel
/// AND + popcount); auto_select decides per egonet from a density/size
/// heuristic. Outputs — clique sets, counts, stream batches, CONGEST
/// reports — are bit-identical across modes; only the traversal changes.
enum class kernel_mode { auto_select, scalar, bitmap };

/// How every kernel call of one run executes: the traversal and the
/// resolved vector backend table. A listing_session resolves its
/// session_options::{kernel, simd} pair into one exec_config at bind
/// (resolve_exec) and hands that value down to every lister and kernel
/// entry, so no call site resolves a mode on its own. A default-
/// constructed config is auto_select on the detected tier. Purely a
/// performance choice: every output is bit-identical for every config.
struct exec_config {
  kernel_mode kernel = kernel_mode::auto_select;
  const simd::simd_ops* ops = simd::detected_ops();  ///< never null
};

/// The bind-time resolver: a tier the machine cannot run degrades to the
/// scalar table (see simd::ops_for).
inline exec_config resolve_exec(kernel_mode kernel, simd_mode simd) {
  return {kernel, simd::ops_for(simd)};
}

}  // namespace dcl::enumkernel
