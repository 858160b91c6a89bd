#pragma once
// Kernel-wide constants shared across every layer. Every enumeration entry
// point — the kernel itself, the graph-layer adapters, the local engine,
// and the session's validate_query — checks p against kMaxCliqueArity, so
// an oversized arity is rejected at the API boundary instead of deep
// inside the enumerator. kernel_mode lives here (not kernel.hpp) so thin
// headers like session_options and the driver signatures can name the knob
// without pulling in the whole kernel.

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

}  // namespace dcl::enumkernel
