#include "congest/trace.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <type_traits>

#include "support/check.hpp"

namespace dcl {

std::string_view trace_event_kind_name(trace_event_kind k) {
  switch (k) {
    case trace_event_kind::exchange: return "exchange";
    case trace_event_kind::clique_exchange: return "clique_exchange";
    case trace_event_kind::route: return "route";
    case trace_event_kind::charge: return "charge";
  }
  return "unknown";
}

trace_batch_shape trace_shape_scratch::compute(std::span<const message> batch,
                                               std::int64_t n) {
  trace_batch_shape s;
  if (std::int64_t(src_count_.size()) < n) {
    src_count_.assign(size_t(n), 0);
    dst_count_.assign(size_t(n), 0);
  }
  for (const auto& m : batch) {
    DCL_EXPECTS(m.src >= 0 && m.src < n && m.dst >= 0 && m.dst < n,
                "trace shape: endpoint outside receiver space");
    if (++src_count_[size_t(m.src)] == 1) src_touched_.push_back(m.src);
    if (++dst_count_[size_t(m.dst)] == 1) dst_touched_.push_back(m.dst);
  }
  s.srcs_touched = std::int64_t(src_touched_.size());
  s.dsts_touched = std::int64_t(dst_touched_.size());
  for (const vertex v : src_touched_) {
    s.src_max = std::max<std::int64_t>(s.src_max, src_count_[size_t(v)]);
    src_count_[size_t(v)] = 0;
  }
  for (const vertex v : dst_touched_) {
    s.dst_max = std::max<std::int64_t>(s.dst_max, dst_count_[size_t(v)]);
    dst_count_[size_t(v)] = 0;
  }
  src_touched_.clear();
  dst_touched_.clear();
  return s;
}

trace_batch_shape shape_of_batch(std::span<const message> batch,
                                 std::int64_t n) {
  trace_shape_scratch scratch;
  return scratch.compute(batch, n);
}

std::int32_t trace_recorder::intern(std::string_view phase) {
  const auto it = phase_ids_.find(phase);
  if (it != phase_ids_.end()) return it->second;
  const auto id = std::int32_t(phases_.size());
  phases_.emplace_back(phase);
  phase_ids_.emplace(phases_.back(), id);
  return id;
}

trace_event& trace_recorder::append(trace_event_kind kind,
                                    std::string_view phase) {
  trace_event& e = events_.emplace_back();
  e.kind = kind;
  e.phase = intern(phase);
  return e;
}

void trace_recorder::record_exchange(trace_event_kind kind,
                                     std::string_view phase,
                                     std::span<const message> delivered,
                                     std::int64_t n, std::int64_t rounds) {
  trace_event& e = append(kind, phase);
  e.n = n;
  e.batch = std::int64_t(delivered.size());
  e.rounds = rounds;
  e.messages = e.batch;
  // Receiver order makes equal (src, dst) pairs contiguous: the directed
  // arc histogram falls out of one linear scan.
  std::int64_t run = 0;
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    const bool same = i > 0 && delivered[i].src == delivered[i - 1].src &&
                      delivered[i].dst == delivered[i - 1].dst;
    run = same ? run + 1 : 1;
    if (!same) ++e.arcs_touched;
    e.arc_max = std::max(e.arc_max, run);
  }
  e.arc_sum = e.batch;
  const auto shape = shape_.compute(delivered, n);
  e.srcs_touched = shape.srcs_touched;
  e.src_max = shape.src_max;
  e.dsts_touched = shape.dsts_touched;
  e.dst_max = shape.dst_max;
}

void trace_recorder::record_route(std::string_view phase,
                                  const trace_batch_shape& shape,
                                  std::int64_t batch_size, std::int64_t n,
                                  const route_stats& stats,
                                  std::int32_t tree_depth) {
  trace_event& e = append(trace_event_kind::route, phase);
  e.n = n;
  e.batch = batch_size;
  e.rounds = stats.rounds;
  e.messages = stats.messages;
  e.arcs_touched = stats.arcs_touched;
  e.arc_max = stats.max_edge_load;
  e.arc_sum = stats.messages;
  e.srcs_touched = shape.srcs_touched;
  e.src_max = shape.src_max;
  e.dsts_touched = shape.dsts_touched;
  e.dst_max = shape.dst_max;
  e.max_path = stats.max_path;
  e.tree_depth = tree_depth;
}

void trace_recorder::record_charge(std::string_view phase, std::int64_t rounds,
                                   std::int64_t messages) {
  trace_event& e = append(trace_event_kind::charge, phase);
  e.rounds = rounds;
  e.messages = messages;
}

void trace_recorder::clear() {
  events_.clear();
  phases_.clear();
  phase_ids_.clear();
}

void trace_log::absorb(const trace_recorder& rec, std::int32_t level,
                       std::int64_t branch, std::int64_t n, double phi) {
  const auto scope = std::int32_t(scopes_.size());
  scopes_.push_back({level, branch, n, phi});
  // Remap the recorder's local phase ids into the log's table.
  std::vector<std::int32_t> remap;
  remap.reserve(rec.phases().size());
  for (const auto& name : rec.phases()) {
    const auto it = phase_ids_.find(name);
    if (it != phase_ids_.end()) {
      remap.push_back(it->second);
    } else {
      const auto id = std::int32_t(phases_.size());
      phases_.push_back(name);
      phase_ids_.emplace(name, id);
      remap.push_back(id);
    }
  }
  for (trace_event e : rec.events()) {
    e.phase = remap[size_t(e.phase)];
    e.scope = scope;
    events_.push_back(e);
  }
}

void trace_log::splice_scope(const trace_log& src, std::int32_t scope_idx) {
  DCL_EXPECTS(scope_idx >= 0 && std::size_t(scope_idx) < src.scopes_.size(),
              "splice_scope: scope index out of range");
  const auto scope = std::int32_t(scopes_.size());
  scopes_.push_back(src.scopes_[size_t(scope_idx)]);
  // Re-intern phases on first use, in event order — the same first-seen
  // order absorb() produces, so a log assembled scope by scope carries the
  // identical phase table (and identical serialized bytes) as one built
  // from the recorders directly.
  for (trace_event e : src.events_) {
    if (e.scope != scope_idx) continue;
    const std::string& name = src.phases_[size_t(e.phase)];
    const auto it = phase_ids_.find(name);
    if (it != phase_ids_.end()) {
      e.phase = it->second;
    } else {
      const auto id = std::int32_t(phases_.size());
      phases_.push_back(name);
      phase_ids_.emplace(name, id);
      e.phase = id;
    }
    e.scope = scope;
    events_.push_back(e);
  }
}

std::string_view trace_log::phase_name(std::int32_t id) const {
  DCL_EXPECTS(id >= 0 && std::size_t(id) < phases_.size(),
              "phase id out of range");
  return phases_[size_t(id)];
}

trace_summary trace_log::summarize() const {
  trace_summary s;
  s.events = std::int64_t(events_.size());
  s.scopes = std::int64_t(scopes_.size());
  s.phases = std::int64_t(phases_.size());
  double density_sum = 0.0;
  std::int64_t density_events = 0;
  for (const auto& e : events_) {
    switch (e.kind) {
      case trace_event_kind::exchange: ++s.exchanges; break;
      case trace_event_kind::clique_exchange: ++s.clique_exchanges; break;
      case trace_event_kind::route:
        ++s.routes;
        s.route_hop_messages += e.messages;
        break;
      case trace_event_kind::charge: ++s.charges; break;
    }
    if (e.kind != trace_event_kind::charge) {
      s.batch_messages += e.batch;
      s.max_batch = std::max(s.max_batch, e.batch);
      if (e.n > 0) {
        density_sum += double(e.dsts_touched) / double(e.n);
        ++density_events;
      }
    }
    s.max_rounds = std::max(s.max_rounds, e.rounds);
  }
  if (density_events > 0) s.mean_dst_density = density_sum / density_events;
  return s;
}

namespace {

void json_escape(std::ostream& os, std::string_view sv) {
  for (const char c : sv) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

}  // namespace

void trace_log::write_jsonl(std::ostream& os) const {
  os << "{\"trace_format\": " << kTraceFormatVersion << ", \"phases\": [";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"';
    json_escape(os, phases_[i]);
    os << '"';
  }
  os << "], \"scopes\": [";
  for (std::size_t i = 0; i < scopes_.size(); ++i) {
    const auto& sc = scopes_[i];
    if (i > 0) os << ", ";
    os << "{\"level\": " << sc.level << ", \"branch\": " << sc.branch
       << ", \"n\": " << sc.n << ", \"phi\": " << sc.phi << "}";
  }
  os << "]}\n";
  for (const auto& e : events_) {
    os << "{\"kind\": \"" << trace_event_kind_name(e.kind)
       << "\", \"phase\": " << e.phase << ", \"scope\": " << e.scope
       << ", \"n\": " << e.n << ", \"batch\": " << e.batch
       << ", \"rounds\": " << e.rounds << ", \"messages\": " << e.messages
       << ", \"arcs\": " << e.arcs_touched << ", \"arc_max\": " << e.arc_max
       << ", \"arc_sum\": " << e.arc_sum << ", \"dsts\": " << e.dsts_touched
       << ", \"dst_max\": " << e.dst_max << ", \"srcs\": " << e.srcs_touched
       << ", \"src_max\": " << e.src_max << ", \"max_path\": " << e.max_path
       << ", \"tree_depth\": " << e.tree_depth << "}\n";
  }
}

namespace {

constexpr char kTraceMagic[8] = {'D', 'C', 'L', 'T', 'R', 'A', 'C', 'E'};

template <typename T>
void wr(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T rd(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  DCL_EXPECTS(bool(is), "truncated trace stream");
  return v;
}

}  // namespace

void trace_log::write_binary(std::ostream& os) const {
  os.write(kTraceMagic, sizeof(kTraceMagic));
  wr(os, kTraceFormatVersion);
  wr(os, std::uint64_t(phases_.size()));
  for (const auto& p : phases_) {
    wr(os, std::uint64_t(p.size()));
    os.write(p.data(), std::streamsize(p.size()));
  }
  wr(os, std::uint64_t(scopes_.size()));
  for (const auto& sc : scopes_) {
    wr(os, sc.level);
    wr(os, sc.branch);
    wr(os, sc.n);
    wr(os, sc.phi);
  }
  wr(os, std::uint64_t(events_.size()));
  for (const auto& e : events_) {
    wr(os, std::uint8_t(e.kind));
    wr(os, e.phase);
    wr(os, e.scope);
    wr(os, e.n);
    wr(os, e.batch);
    wr(os, e.rounds);
    wr(os, e.messages);
    wr(os, e.arcs_touched);
    wr(os, e.arc_max);
    wr(os, e.arc_sum);
    wr(os, e.dsts_touched);
    wr(os, e.dst_max);
    wr(os, e.srcs_touched);
    wr(os, e.src_max);
    wr(os, e.max_path);
    wr(os, e.tree_depth);
  }
}

trace_log trace_log::read_binary(std::istream& is) {
  char magic[8];
  is.read(magic, sizeof(magic));
  DCL_EXPECTS(bool(is) && std::memcmp(magic, kTraceMagic, 8) == 0,
              "not a dcl trace stream (bad magic)");
  const auto version = rd<std::uint32_t>(is);
  DCL_EXPECTS(version == kTraceFormatVersion,
              "unsupported trace format version");
  trace_log log;
  const auto nphases = rd<std::uint64_t>(is);
  for (std::uint64_t i = 0; i < nphases; ++i) {
    const auto len = rd<std::uint64_t>(is);
    DCL_EXPECTS(len < (1u << 20), "implausible phase label length");
    std::string p(size_t(len), '\0');
    is.read(p.data(), std::streamsize(len));
    DCL_EXPECTS(bool(is), "truncated trace stream");
    log.phase_ids_.emplace(p, std::int32_t(log.phases_.size()));
    log.phases_.push_back(std::move(p));
  }
  const auto nscopes = rd<std::uint64_t>(is);
  for (std::uint64_t i = 0; i < nscopes; ++i) {
    trace_scope sc;
    sc.level = rd<std::int32_t>(is);
    sc.branch = rd<std::int64_t>(is);
    sc.n = rd<std::int64_t>(is);
    sc.phi = rd<double>(is);
    log.scopes_.push_back(sc);
  }
  const auto nevents = rd<std::uint64_t>(is);
  for (std::uint64_t i = 0; i < nevents; ++i) {
    trace_event e;
    const auto kind = rd<std::uint8_t>(is);
    DCL_EXPECTS(kind <= std::uint8_t(trace_event_kind::charge),
                "unknown trace event kind");
    e.kind = trace_event_kind(kind);
    e.phase = rd<std::int32_t>(is);
    e.scope = rd<std::int32_t>(is);
    DCL_EXPECTS(e.phase >= 0 && std::uint64_t(e.phase) < nphases,
                "trace event phase id out of range");
    DCL_EXPECTS(e.scope >= 0 && std::uint64_t(e.scope) < nscopes,
                "trace event scope id out of range");
    e.n = rd<std::int64_t>(is);
    e.batch = rd<std::int64_t>(is);
    e.rounds = rd<std::int64_t>(is);
    e.messages = rd<std::int64_t>(is);
    e.arcs_touched = rd<std::int64_t>(is);
    e.arc_max = rd<std::int64_t>(is);
    e.arc_sum = rd<std::int64_t>(is);
    e.dsts_touched = rd<std::int64_t>(is);
    e.dst_max = rd<std::int64_t>(is);
    e.srcs_touched = rd<std::int64_t>(is);
    e.src_max = rd<std::int64_t>(is);
    e.max_path = rd<std::int64_t>(is);
    e.tree_depth = rd<std::int32_t>(is);
    log.events_.push_back(e);
  }
  return log;
}

}  // namespace dcl
