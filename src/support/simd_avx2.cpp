// AVX2 backend for support/simd.hpp. This is the only TU compiled with
// -mavx2 (CMake sets the flag per source file when the compiler accepts
// it); everywhere else the project stays generic, so the binary runs on
// pre-AVX2 machines — dispatch just never hands out this table there.
// Without the flag (non-x86 targets, older compilers) the TU compiles to
// a nullptr stub and ops_for() degrades to scalar.

#include "support/simd.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace dcl::simd {
namespace {

using u64 = std::uint64_t;
using i64 = std::int64_t;
using i32 = std::int32_t;

// ------------------------------------------------------------- bit words
//
// All word primitives are exact lane-wise integer ops; the only
// "reductions" are ADDs of disjoint lane subtotals, order-independent on
// integers — the determinism argument of DESIGN.md §13.

/// Mula's vpshufb nibble-LUT popcount for one 256-bit lane group,
/// accumulated as per-byte counts (safe for one vector: max 8 per byte).
inline __m256i popcount_epi8(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

inline i64 hsum_epi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return _mm_cvtsi128_si64(s) + _mm_extract_epi64(s, 1);
}

i64 avx2_popcount_words(const u64* w, i32 n) {
  // Small spans (the typical egonet is 1-2 words wide) stay on hardware
  // popcnt — vector setup would cost more than it saves.
  if (n < 8) {
    i64 total = 0;
    for (i32 i = 0; i < n; ++i) total += std::popcount(w[i]);
    return total;
  }
  i32 i = 0;
  __m256i acc = _mm256_setzero_si256();
  const __m256i zero = _mm256_setzero_si256();
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(popcount_epi8(v), zero));
  }
  i64 total = hsum_epi64(acc);
  for (; i < n; ++i) total += std::popcount(w[i]);
  return total;
}

i64 avx2_and_popcount_words(const u64* a, const u64* b, i32 n) {
  if (n < 8) {
    i64 total = 0;
    for (i32 i = 0; i < n; ++i) total += std::popcount(a[i] & b[i]);
    return total;
  }
  i32 i = 0;
  __m256i acc = _mm256_setzero_si256();
  const __m256i zero = _mm256_setzero_si256();
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(popcount_epi8(v), zero));
  }
  i64 total = hsum_epi64(acc);
  for (; i < n; ++i) total += std::popcount(a[i] & b[i]);
  return total;
}

i64 avx2_bitmap_base_count(const u64* rows, i32 words, const u64* mask) {
  i64 total = 0;
  if (words == 4) {
    // One 256-bit vector per row: hoist the mask and keep the whole
    // candidate sweep in registers — the width the wide-egonet bench case
    // exercises (n in (192, 256]).
    const __m256i m =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask));
    const __m256i zero = _mm256_setzero_si256();
    __m256i acc = _mm256_setzero_si256();
    for (i32 wi = 0; wi < 4; ++wi) {
      u64 bits = mask[wi];
      while (bits != 0) {
        const i32 a = (wi << 6) + std::countr_zero(bits);
        bits &= bits - 1;
        const __m256i row = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(rows + std::size_t(a) * 4));
        acc = _mm256_add_epi64(
            acc,
            _mm256_sad_epu8(popcount_epi8(_mm256_and_si256(row, m)), zero));
      }
    }
    return hsum_epi64(acc);
  }
  for (i32 wi = 0; wi < words; ++wi) {
    u64 bits = mask[wi];
    while (bits != 0) {
      const i32 a = (wi << 6) + std::countr_zero(bits);
      bits &= bits - 1;
      total += avx2_and_popcount_words(
          rows + std::size_t(a) * std::size_t(words), mask, words);
    }
  }
  return total;
}

// ----------------------------------------------------- set intersection
//
// 8x8 block all-pairs compare over strictly-ascending int32 ranges:
// compare the current 8-lane blocks of a and b in all 64 pairings (7
// lane rotations of b), then advance whichever block's max is smaller
// (both on a tie). Strict ascent makes each value unique per range, so
// every match is found exactly once and the a-lane match mask emits in
// ascending order. Duplicate elements would break this — adjacency lists
// are duplicate-free by construction (graph.hpp documents the contract).

const __m256i kRotate1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);

/// Accumulated a-lane match mask of the all-pairs compare (bit l set iff
/// a[l] occurs in the b block).
inline int block_match_mask(__m256i va, __m256i vb) {
  __m256i cmp = _mm256_cmpeq_epi32(va, vb);
  for (int r = 1; r < 8; ++r) {
    vb = _mm256_permutevar8x32_epi32(vb, kRotate1);
    cmp = _mm256_or_si256(cmp, _mm256_cmpeq_epi32(va, vb));
  }
  return _mm256_movemask_ps(_mm256_castsi256_ps(cmp));
}

i64 avx2_intersect_size(const i32* a, i64 na, const i32* b, i64 nb) {
  i64 i = 0, j = 0, count = 0;
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    count += std::popcount(unsigned(block_match_mask(va, vb)));
    const i32 amax = a[i + 7], bmax = b[j + 7];
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

i64 avx2_intersect_into(const i32* a, i64 na, const i32* b, i64 nb,
                        i32* out) {
  i64 i = 0, j = 0, count = 0;
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    // Matched a-lanes extract in ascending lane order; successive steps
    // only ever add strictly larger values (the advanced block's new
    // elements exceed every previously compared max), so `out` stays
    // ascending with no post-sort.
    unsigned mask = unsigned(block_match_mask(va, vb));
    while (mask != 0) {
      const int lane = std::countr_zero(mask);
      mask &= mask - 1;
      out[count++] = a[i + lane];
    }
    const i32 amax = a[i + 7], bmax = b[j + 7];
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      out[count++] = a[i];
      ++i;
      ++j;
    }
  }
  return count;
}

constexpr simd_ops kAvx2Ops = {
    simd_mode::avx2,          "avx2",
    avx2_popcount_words,      avx2_and_popcount_words,
    avx2_bitmap_base_count,   avx2_intersect_size,
    avx2_intersect_into,
};

}  // namespace

namespace detail {
const simd_ops* avx2_table() { return &kAvx2Ops; }
}  // namespace detail

}  // namespace dcl::simd

#else  // !defined(__AVX2__)

namespace dcl::simd::detail {
const simd_ops* avx2_table() { return nullptr; }
}  // namespace dcl::simd::detail

#endif
