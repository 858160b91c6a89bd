#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "enumkernel/limits.hpp"
#include "support/prng.hpp"
#include "support/simd.hpp"

namespace dcl {
namespace {

using simd::simd_ops;

// Every backend this build can actually run: scalar always, a vector table
// only when it was both compiled in and the CPU supports it (the same
// condition ops_for uses). On an AVX2 machine this exercises scalar+AVX2;
// elsewhere scalar alone; the differential bodies are identical.
std::vector<const simd_ops*> runnable_tables() {
  std::vector<const simd_ops*> tables = {simd::scalar_ops()};
  if (simd::cpu_has_avx2() && simd::detail::avx2_table() != nullptr)
    tables.push_back(simd::detail::avx2_table());
  return tables;
}

// ------------------------------------------------------- word primitives
// Naive references written independently of src/support/simd.cpp, so the
// scalar backend is itself under test, not just the vector tiers.

std::vector<std::uint64_t> random_words(std::size_t n, prng& rng,
                                        int density_shift) {
  // density_shift ANDs several draws together, thinning the bit density so
  // the tests cover near-empty words (tail paths) as well as dense.
  std::vector<std::uint64_t> w(n);
  for (auto& x : w) {
    x = rng.next();
    for (int s = 0; s < density_shift; ++s) x &= rng.next();
  }
  return w;
}

TEST(Simd, BitmapBaseCountMatchesNaive) {
  prng rng(99);
  for (const simd_ops* ops : runnable_tables()) {
    SCOPED_TRACE(ops->name);
    // words == 4 is the AVX2 one-lane-per-row special case; the rest hit
    // the general path (including words > 4 tails). The AVX2 row step
    // vectorizes from 8 words, so 9 and 13 run several 4-word lanes plus a
    // scalar tail.
    for (const std::int32_t words : {1, 2, 3, 4, 5, 7, 8, 9, 13}) {
      for (const int density : {0, 3}) {
        const auto mask = random_words(std::size_t(words), rng, density);
        const auto rows =
            random_words(std::size_t(words) * 64 * std::size_t(words), rng,
                         density);
        std::int64_t want = 0;
        for (std::int32_t wi = 0; wi < words; ++wi) {
          std::uint64_t bits = mask[std::size_t(wi)];
          while (bits != 0) {
            const std::int32_t a = (wi << 6) + std::countr_zero(bits);
            bits &= bits - 1;
            for (std::int32_t wj = 0; wj < words; ++wj)
              want += std::popcount(
                  rows[std::size_t(a) * std::size_t(words) +
                       std::size_t(wj)] &
                  mask[std::size_t(wj)]);
          }
        }
        EXPECT_EQ(ops->bitmap_base_count(rows.data(), words, mask.data()),
                  want)
            << "words=" << words << " density=" << density;
      }
    }
  }
}

TEST(Simd, BitmapBaseCountEmptyMask) {
  for (const simd_ops* ops : runnable_tables()) {
    SCOPED_TRACE(ops->name);
    const std::vector<std::uint64_t> mask(4, 0), rows(4 * 64 * 4, ~0ull);
    EXPECT_EQ(ops->bitmap_base_count(rows.data(), 4, mask.data()), 0);
  }
}

// --------------------------------------------------------- intersections

std::vector<std::int32_t> random_ascending(std::int64_t len, std::int32_t lo,
                                           std::int32_t hi, prng& rng) {
  std::vector<std::int32_t> v;
  std::int32_t x = lo;
  while (std::int64_t(v.size()) < len && x < hi) {
    x += std::int32_t(rng.next_below(std::uint64_t(hi - lo) / 8 + 1)) + 1;
    if (x < hi) v.push_back(x);
  }
  return v;  // strictly ascending by construction
}

void check_intersection(const simd_ops* ops,
                        const std::vector<std::int32_t>& a,
                        const std::vector<std::int32_t>& b) {
  std::vector<std::int32_t> want;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(want));
  EXPECT_EQ(ops->intersect_size(a.data(), std::int64_t(a.size()), b.data(),
                                std::int64_t(b.size())),
            std::int64_t(want.size()));
  std::vector<std::int32_t> out(std::min(a.size(), b.size()) + 1,
                                -999);
  const std::int64_t n =
      ops->intersect_into(a.data(), std::int64_t(a.size()), b.data(),
                          std::int64_t(b.size()), out.data());
  ASSERT_EQ(n, std::int64_t(want.size()));
  for (std::int64_t i = 0; i < n; ++i)
    EXPECT_EQ(out[std::size_t(i)], want[std::size_t(i)]);
}

TEST(Simd, IntersectionsMatchStdSetIntersection) {
  prng rng(1234);
  for (const simd_ops* ops : runnable_tables()) {
    SCOPED_TRACE(ops->name);
    // Lengths cover empty, sub-block, one 8-lane block, block+tail, many
    // blocks; overlap regimes from disjoint to identical.
    for (const std::int64_t na : {0, 1, 7, 8, 9, 16, 17, 40, 64, 200}) {
      for (const std::int64_t nb : {0, 1, 8, 15, 33, 64, 500}) {
        auto a = random_ascending(na, 0, 4000, rng);
        auto b = random_ascending(nb, 0, 4000, rng);
        check_intersection(ops, a, b);
      }
    }
  }
}

TEST(Simd, IntersectionIdenticalAndDisjointRanges) {
  prng rng(5);
  for (const simd_ops* ops : runnable_tables()) {
    SCOPED_TRACE(ops->name);
    const auto a = random_ascending(100, 0, 10000, rng);
    check_intersection(ops, a, a);  // everything matches
    std::vector<std::int32_t> odd, even;
    for (std::int32_t i = 0; i < 200; ++i) {
      even.push_back(2 * i);
      odd.push_back(2 * i + 1);
    }
    check_intersection(ops, even, odd);  // interleaved, nothing matches
    check_intersection(ops, even, even);
  }
}

TEST(Simd, IntersectionMatchesAcrossBlockBoundaries) {
  // Adversarial for the block kernels (8x8 on AVX2, 4x4 on NEON): matches
  // sitting exactly on the first / last lane of a block, and runs where
  // one side's block max equals the other's (the advance-both tie case).
  for (const simd_ops* ops : runnable_tables()) {
    SCOPED_TRACE(ops->name);
    std::vector<std::int32_t> a, b;
    for (std::int32_t i = 0; i < 64; ++i) a.push_back(i * 3);
    for (std::int32_t i = 0; i < 64; ++i) b.push_back(i * 3);  // tie blocks
    check_intersection(ops, a, b);
    b.clear();
    for (std::int32_t i = 0; i < 64; ++i) b.push_back(i * 3 + (i % 8 == 7));
    check_intersection(ops, a, b);
    // The same last-lane perturbation at 4-lane granularity, plus a
    // lane-0-only match pattern — the NEON block width's boundary cases
    // (harmless extra coverage for the other tiers).
    b.clear();
    for (std::int32_t i = 0; i < 64; ++i) b.push_back(i * 3 + (i % 4 == 3));
    check_intersection(ops, a, b);
    b.clear();
    for (std::int32_t i = 0; i < 64; ++i) b.push_back(i * 3 + (i % 4 != 0));
    check_intersection(ops, a, b);
    // Skewed: a single short block galloping through a long range.
    std::vector<std::int32_t> s = {5, 800, 801, 802, 900, 1000, 1600, 1601,
                                   1700, 1701, 1702, 1703, 1704, 1705, 1706,
                                   1707};
    std::vector<std::int32_t> l;
    for (std::int32_t i = 0; i < 2000; ++i) l.push_back(i);
    check_intersection(ops, s, l);
  }
}

// ------------------------------------------------------------- dispatch

TEST(Simd, ChooseModePrecedence) {
  using simd::choose_mode;
  EXPECT_EQ(choose_mode(false, false), simd_mode::scalar);
  EXPECT_EQ(choose_mode(true, false), simd_mode::avx2);
  // DCL_FORCE_SCALAR beats the capability bit.
  EXPECT_EQ(choose_mode(true, true), simd_mode::scalar);
  EXPECT_EQ(choose_mode(false, true), simd_mode::scalar);
}

TEST(Simd, ResolveModeHonorsEnvAndDegradesGracefully) {
  using simd::resolve_mode;
  // Explicit tiers resolve when the CPU has them...
  EXPECT_EQ(resolve_mode("avx2", /*has_avx2=*/true, false), simd_mode::avx2);
  EXPECT_EQ(resolve_mode("scalar", true, false), simd_mode::scalar);
  // ...and degrade to scalar when not.
  EXPECT_EQ(resolve_mode("avx2", /*has_avx2=*/false, false),
            simd_mode::scalar);
  // auto / unset / unrecognized fall through to capability detection.
  EXPECT_EQ(resolve_mode("auto", true, false), simd_mode::avx2);
  EXPECT_EQ(resolve_mode(nullptr, true, false), simd_mode::avx2);
  EXPECT_EQ(resolve_mode("sse9", true, false), simd_mode::avx2);
  EXPECT_EQ(resolve_mode(nullptr, false, false), simd_mode::scalar);
  // DCL_FORCE_SCALAR wins over an explicit DCL_SIMD tier.
  EXPECT_EQ(resolve_mode("avx2", true, true), simd_mode::scalar);
}

TEST(Simd, OpsForNeverReturnsAnUnrunnableTable) {
  // Whatever this machine is, every mode must resolve to a table that is
  // compiled in and CPU-supported — a forced tier the machine cannot run
  // degrades to scalar instead of faulting (tier stays truthful: the
  // returned table reports what it actually is). Both resolution paths are
  // inputs: ops_for itself and the bind-time resolver whose table every
  // session hands to the kernel and drivers.
  const auto check = [](const simd_ops* ops, simd_mode requested) {
    ASSERT_NE(ops, nullptr);
    EXPECT_NE(ops->tier, simd_mode::auto_select);
    if (ops->tier == simd_mode::avx2) {
      EXPECT_TRUE(simd::cpu_has_avx2());
    }
    if (requested == simd_mode::scalar) {
      EXPECT_EQ(ops, simd::scalar_ops());
    }
    // And the table must answer a trivial query correctly.
    const std::int32_t a[3] = {1, 4, 9}, b[2] = {4, 9};
    EXPECT_EQ(ops->intersect_size(a, 3, b, 2), 2);
  };
  for (const simd_mode m :
       {simd_mode::auto_select, simd_mode::scalar, simd_mode::avx2}) {
    check(simd::ops_for(m), m);
    for (const auto k :
         {enumkernel::kernel_mode::auto_select, enumkernel::kernel_mode::scalar,
          enumkernel::kernel_mode::bitmap}) {
      const enumkernel::exec_config exec = enumkernel::resolve_exec(k, m);
      EXPECT_EQ(exec.kernel, k);
      check(exec.ops, m);
    }
  }
  check(enumkernel::exec_config{}.ops, simd_mode::auto_select);
  EXPECT_EQ(simd::ops_for(simd_mode::auto_select)->tier,
            simd::detected_mode());
  EXPECT_EQ(simd::detected_ops(), simd::ops_for(simd_mode::auto_select));
}

TEST(Simd, ModeNames) {
  EXPECT_STREQ(simd::simd_mode_name(simd_mode::scalar), "scalar");
  EXPECT_STREQ(simd::simd_mode_name(simd_mode::avx2), "avx2");
  EXPECT_STREQ(simd::simd_mode_name(simd_mode::auto_select), "auto_select");
}

}  // namespace
}  // namespace dcl
