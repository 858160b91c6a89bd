#pragma once
// Benchmark-side spans for the traced run. Each span carries a name, start
// and end (seconds on the steady clock since the log was created), the
// index of its parent span (-1 at top level) and the query id it belongs
// to. Spans stay in memory until the run ends; then write_jsonl() dumps
// them and self_times() rolls them up per name as self time: a span's
// duration minus the part covered by its direct children. Spans nest
// strictly — the benchmark opens them on one thread around calls into the
// program — so children never overlap each other.

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::int32_t parent = -1;
  std::int64_t query = -1;

  double seconds() const { return end - start; }
};

class span_log {
 public:
  span_log() : origin_(std::chrono::steady_clock::now()) {}

  /// RAII span: opens on construction, closes on destruction or close().
  class scope {
   public:
    scope(span_log& log, std::string name, std::int64_t query)
        : log_(&log), idx_(log.open(std::move(name), query)) {}
    ~scope() { close(); }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

    /// Ends the span and returns its duration in seconds.
    double close() {
      if (log_ != nullptr) {
        seconds_ = log_->close(idx_);
        log_ = nullptr;
      }
      return seconds_;
    }

   private:
    span_log* log_;
    std::int32_t idx_;
    double seconds_ = 0.0;
  };

  struct rollup {
    std::int64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  /// Per-name totals: span count, inclusive seconds, self seconds.
  std::map<std::string, rollup> self_times() const {
    std::vector<double> covered(spans_.size(), 0.0);
    for (const span& s : spans_)
      if (s.parent >= 0) covered[std::size_t(s.parent)] += s.seconds();
    std::map<std::string, rollup> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      rollup& r = out[spans_[i].name];
      ++r.count;
      r.total_s += spans_[i].seconds();
      r.self_s += spans_[i].seconds() - covered[i];
    }
    return out;
  }

  void write_jsonl(std::ostream& os) const {
    os.precision(9);
    for (const span& s : spans_)
      os << "{\"name\": \"" << s.name << "\", \"start\": " << s.start
         << ", \"end\": " << s.end << ", \"parent\": " << s.parent
         << ", \"query\": " << s.query << "}\n";
  }

 private:
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  std::int32_t open(std::string name, std::int64_t query) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), now(), 0.0, parent, query});
    stack_.push_back(std::int32_t(spans_.size() - 1));
    return stack_.back();
  }

  double close(std::int32_t idx) {
    span& s = spans_[std::size_t(idx)];
    s.end = now();
    if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
    return s.seconds();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<span> spans_;
  std::vector<std::int32_t> stack_;
};

}  // namespace perfbench
