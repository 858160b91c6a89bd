#pragma once
// Width-agnostic SIMD primitives with runtime CPU dispatch (DESIGN.md §13).
//
// The enumeration kernel's bitmap loops (row AND-descent, popcount
// counting, bit-scan listing) and the graph layer's sorted-intersection
// walks are the per-word hot paths of every engine. This header exposes
// them as a table of width-agnostic function pointers (`simd_ops`) with
// two backends — scalar and AVX2 — selected once per process from cpuid.
// A session picks its tier once, at bind, through session_options::simd;
// the resolved table (enumkernel::exec_config) is what the kernel and the
// drivers receive, so no call site resolves a mode on its own.
//
// Determinism contract: every primitive is an exact integer/bitwise
// computation (no floating point, no reordered reductions — OR and ADD
// over disjoint lanes are associative-commutative on these domains), and
// every backend produces bit-identical results for identical inputs. The
// kernel keeps its emission order regardless of tier, so clique sets,
// counts, stream batches, reports, and trace bytes are invariant across
// simd_mode × kernel_mode × engines × sim_threads (tested).
//
// Dispatch contract: a backend unavailable at compile time (the AVX2 TU
// builds a stub unless the compiler accepts -mavx2) or at run time (CPU
// lacks the feature) degrades to scalar — a forced simd_mode::avx2 on a
// non-AVX2 machine runs scalar rather than faulting.
// `DCL_SIMD=scalar|avx2|auto` and `DCL_FORCE_SCALAR=1` override detection
// process-wide (read once, cached).
//
// This header lives at the bottom of the include graph (no project
// includes), so thin headers — graph.hpp, limits.hpp, session.hpp — can
// name the tier without pulling in the kernel.

#include <bit>
#include <cstdint>

namespace dcl {

/// Vector backend selection (session_options::simd). auto_select resolves
/// to the best tier the CPU supports (AVX2 on x86-64, scalar otherwise); a
/// fixed tier that the machine cannot run falls back to scalar. Purely a
/// performance knob: outputs are bit-identical across all values.
enum class simd_mode { auto_select, scalar, avx2 };

namespace simd {

/// Backend table. All word counts are in 64-bit words; all span lengths in
/// elements. Pointers may be unaligned; n == 0 is valid everywhere.
struct simd_ops {
  simd_mode tier;    ///< the tier this table implements (never auto_select)
  const char* name;  ///< "scalar" / "avx2"

  /// The bitmap kernel's whole counting base level in one call: for every
  /// set bit a of mask[0..words), add popcount(rows[a*words..] & mask).
  /// Coarse on purpose — egonets are often 1-2 words wide, so per-word
  /// dispatch would drown in call overhead; this amortizes one indirect
  /// call over the full candidate sweep.
  std::int64_t (*bitmap_base_count)(const std::uint64_t* rows,
                                    std::int32_t words,
                                    const std::uint64_t* mask);

  /// |a ∩ b| over strictly-ascending int32 ranges (adjacency lists are
  /// duplicate-free by construction; the block-compare kernels rely on it).
  std::int64_t (*intersect_size)(const std::int32_t* a, std::int64_t na,
                                 const std::int32_t* b, std::int64_t nb);

  /// a ∩ b written ascending to `out` (capacity >= min(na, nb)); returns
  /// the match count. Same strictly-ascending precondition.
  std::int64_t (*intersect_into)(const std::int32_t* a, std::int64_t na,
                                 const std::int32_t* b, std::int64_t nb,
                                 std::int32_t* out);
};

/// The scalar table: always available, the reference every backend must
/// match bit for bit (tested in test_simd).
const simd_ops* scalar_ops();

namespace detail {
/// Per-backend tables, or nullptr when the TU was compiled without the
/// matching ISA (so a generic build never references missing intrinsics).
const simd_ops* avx2_table();
}  // namespace detail

/// True when the running CPU supports AVX2 (independent of whether the
/// backend was compiled in).
bool cpu_has_avx2();

/// Pure tier choice from capability bits — the testable core of detection:
/// force_scalar wins, then AVX2, else scalar.
constexpr simd_mode choose_mode(bool has_avx2, bool force_scalar) {
  if (force_scalar) return simd_mode::scalar;
  return has_avx2 ? simd_mode::avx2 : simd_mode::scalar;
}

/// Pure resolution of a DCL_SIMD-style override ("scalar"/"avx2"/"auto"/
/// unset) against capability bits. An explicit tier the machine cannot run
/// degrades to scalar — never a fault. Unrecognized values behave like
/// "auto".
simd_mode resolve_mode(const char* env, bool has_avx2, bool force_scalar);

/// The process-wide tier auto_select resolves to: resolve_mode over the
/// real CPU bits and the DCL_SIMD / DCL_FORCE_SCALAR environment, computed
/// once and cached (the env is part of process identity, not per-query
/// state).
simd_mode detected_mode();

/// The table for a requested mode: auto_select → detected_mode(); a fixed
/// tier returns its table when compiled in AND supported by the CPU, else
/// the scalar table (the graceful-fallback edge of the dispatch contract).
/// Never null. Called once per session bind (enumkernel::resolve_exec),
/// never per kernel call.
const simd_ops* ops_for(simd_mode mode);

/// ops_for(simd_mode::auto_select): the table a caller that picked no tier
/// gets — the default of enumkernel::exec_config and of the graph layer's
/// intersection routines.
const simd_ops* detected_ops();

/// Knob spelling for logs / bench JSON.
const char* simd_mode_name(simd_mode mode);

/// Minimum shorter-range length before the intersection routines hand a
/// merge walk to the vector backend: below this the block setup costs more
/// than the scalar walk (measured in bench_enum_kernel's intersection
/// rows; the gallop path is unaffected — skewed pairs gallop first).
inline constexpr std::int64_t kVectorIntersectMin = 16;

}  // namespace simd
}  // namespace dcl
