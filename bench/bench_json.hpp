#pragma once
// Shared helpers for every bench: wall-clock timing, per-query latency
// percentiles, and the checked emit path — print the document to stdout
// for humans and write it to the BENCH_*.json file CI archives. A file
// that cannot be written is a hard failure — a bench that exits 0 without
// its JSON would silently empty the perf trajectory.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/simd.hpp"
#include "support/stats.hpp"

namespace dcl::bench {

inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-3 wall time for one configuration.
template <typename Fn>
double best_seconds(Fn&& fn) {
  double best = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_seconds();
    fn();
    best = std::min(best, now_seconds() - t0);
  }
  return best;
}

/// Per-query latency distribution over a sample set. Percentiles are
/// dcl::percentile's nearest rank (the ceil(q*n)-th smallest), so a
/// reported p99 is an observed latency, never an interpolation below one.
struct latency_summary {
  std::int64_t samples = 0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  double mean = 0.0, min = 0.0, max = 0.0;
};

/// Summarizes latency samples (seconds, any order).
inline latency_summary summarize_latencies(const std::vector<double>& xs) {
  latency_summary s;
  if (xs.empty()) return s;
  const auto d = dcl::summarize(xs);
  s.samples = std::int64_t(d.count);
  s.p50 = dcl::percentile(xs, 50);
  s.p95 = dcl::percentile(xs, 95);
  s.p99 = dcl::percentile(xs, 99);
  s.mean = d.mean;
  s.min = d.min;
  s.max = d.max;
  return s;
}

/// The commit every BENCH_*.json row is attributed to: $GITHUB_SHA in CI,
/// `git rev-parse HEAD` locally, "unknown" outside a checkout.
inline std::string git_sha() {
  if (const char* env = std::getenv("GITHUB_SHA"); env != nullptr && *env)
    return env;
  std::string sha = "unknown";
  if (FILE* p = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    std::array<char, 64> buf{};
    if (std::fgets(buf.data(), int(buf.size()), p) != nullptr) {
      sha.assign(buf.data());
      while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
        sha.pop_back();
      if (sha.empty()) sha = "unknown";
    }
    ::pclose(p);
  }
  return sha;
}

inline std::string utc_timestamp() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// One `"meta": {...}` JSON member shared by every standalone bench: the
/// provenance a perf trajectory needs to interpret a number — commit,
/// machine width, build type, CPU vector features (a bitmap_vector column
/// is meaningless without knowing which tier ran), and when it ran.
inline std::string meta_json() {
  std::ostringstream os;
  os << "\"meta\": {\"git_sha\": \"" << git_sha()
     << "\", \"hardware_concurrency\": "
     << std::thread::hardware_concurrency() << ", \"build\": \""
#ifdef NDEBUG
     << "release"
#else
     << "debug"
#endif
     << "\", \"cpu_avx2\": " << (simd::cpu_has_avx2() ? "true" : "false")
     << ", \"simd_detected\": \""
     << simd::simd_mode_name(simd::detected_mode())
     << "\", \"timestamp_utc\": \"" << utc_timestamp() << "\"}";
  return os.str();
}

/// Returns the process exit code: 0 on success, 1 if the file could not be
/// written (with a diagnostic on stderr).
inline int emit_json(const std::string& path, const std::string& body) {
  std::cout << body;
  std::ofstream out(path);
  out << body;
  out.flush();
  if (!out) {
    std::cerr << "error: could not write " << path << "\n";
    return 1;
  }
  return 0;
}

}  // namespace dcl::bench
