#include "support/simd.hpp"

#include <cstdlib>
#include <cstring>

namespace dcl::simd {

// ------------------------------------------------------- scalar backend
// The reference semantics. Plain word loops: the compiler may auto-
// vectorize them, but every operation is exact integer arithmetic, so the
// results are identical however the loop is scheduled.

namespace {

std::int64_t scalar_popcount_words(const std::uint64_t* w, std::int32_t n) {
  std::int64_t total = 0;
  for (std::int32_t i = 0; i < n; ++i) total += std::popcount(w[i]);
  return total;
}

std::int64_t scalar_and_popcount_words(const std::uint64_t* a,
                                       const std::uint64_t* b,
                                       std::int32_t n) {
  std::int64_t total = 0;
  for (std::int32_t i = 0; i < n; ++i) total += std::popcount(a[i] & b[i]);
  return total;
}

std::int64_t scalar_bitmap_base_count(const std::uint64_t* rows,
                                      std::int32_t words,
                                      const std::uint64_t* mask) {
  std::int64_t total = 0;
  for (std::int32_t wi = 0; wi < words; ++wi) {
    std::uint64_t bits = mask[wi];
    while (bits != 0) {
      const std::int32_t a = (wi << 6) + std::countr_zero(bits);
      bits &= bits - 1;
      const std::uint64_t* row = rows + std::size_t(a) * std::size_t(words);
      for (std::int32_t wj = 0; wj < words; ++wj)
        total += std::popcount(row[wj] & mask[wj]);
    }
  }
  return total;
}

std::int64_t scalar_intersect_size(const std::int32_t* a, std::int64_t na,
                                   const std::int32_t* b, std::int64_t nb) {
  std::int64_t i = 0, j = 0, count = 0;
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

std::int64_t scalar_intersect_into(const std::int32_t* a, std::int64_t na,
                                   const std::int32_t* b, std::int64_t nb,
                                   std::int32_t* out) {
  std::int64_t i = 0, j = 0, count = 0;
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

constexpr simd_ops kScalarOps = {
    simd_mode::scalar,         "scalar",
    scalar_popcount_words,     scalar_and_popcount_words,
    scalar_bitmap_base_count,  scalar_intersect_size,
    scalar_intersect_into,
};

}  // namespace

const simd_ops* scalar_ops() { return &kScalarOps; }

// ----------------------------------------------------- feature detection

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

simd_mode resolve_mode(const char* env, bool has_avx2, bool force_scalar) {
  if (force_scalar) return simd_mode::scalar;
  if (env != nullptr) {
    if (std::strcmp(env, "scalar") == 0) return simd_mode::scalar;
    if (std::strcmp(env, "avx2") == 0)
      return has_avx2 ? simd_mode::avx2 : simd_mode::scalar;
    // "auto" and unrecognized values fall through to detection.
  }
  return choose_mode(has_avx2, /*force_scalar=*/false);
}

simd_mode detected_mode() {
  // A backend counts as available only when BOTH the CPU supports it and
  // its table was compiled in — either gap degrades to scalar.
  static const simd_mode mode = [] {
    const bool avx2 = cpu_has_avx2() && detail::avx2_table() != nullptr;
    const char* force = std::getenv("DCL_FORCE_SCALAR");
    const bool force_scalar =
        force != nullptr && force[0] != '\0' && std::strcmp(force, "0") != 0;
    return resolve_mode(std::getenv("DCL_SIMD"), avx2, force_scalar);
  }();
  return mode;
}

const simd_ops* ops_for(simd_mode mode) {
  if (mode == simd_mode::auto_select) mode = detected_mode();
  if (mode == simd_mode::avx2)
    if (const simd_ops* t = detail::avx2_table();
        t != nullptr && cpu_has_avx2())
      return t;
  return &kScalarOps;
}

const simd_ops* detected_ops() { return ops_for(simd_mode::auto_select); }

const char* simd_mode_name(simd_mode mode) {
  switch (mode) {
    case simd_mode::auto_select:
      return "auto_select";
    case simd_mode::scalar:
      return "scalar";
    case simd_mode::avx2:
      return "avx2";
  }
  return "?";
}

}  // namespace dcl::simd
