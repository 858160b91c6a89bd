#pragma once
// Framed message layer over a byte_channel (DESIGN.md §14). The protocol
// is request/reply — every frame is one the peer is waiting for, or the
// reply it waits on — so a frame never has company to aggregate with:
// frame_writer::send writes each frame to the channel in one write_all,
// the stream preamble riding ahead of the first frame. One writer per peer
// (the coordinator holds one per worker).
//
// Stream layout: a 12-byte preamble (8-byte magic + u32 version) once per
// direction, then frames. Frame = u32 payload length + u16 type + u16
// reserved(0) + payload. Native endianness, like the trace binary format —
// the loopback transport never crosses a byte-order boundary, and a future
// cross-endian TCP deployment bumps kWireVersion rather than silently
// misparsing. The reader rejects bad magic, unknown versions, unknown
// types, oversized lengths, and mid-frame EOF (truncation) with
// shard_error; a clean EOF at a frame boundary is the orderly
// end-of-stream.

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "shard/channel.hpp"

namespace dcl::shard {

inline constexpr char kWireMagic[8] = {'D', 'C', 'L', 'S',
                                       'H', 'A', 'R', 'D'};
/// Bumped on any layout change; both directions reject a mismatch, so a
/// mixed-version coordinator and worker fail at the preamble instead of
/// misparsing. Version 2: the query payload no longer carries the kernel
/// and simd bytes (they ride only in the bind message). Version 3: the
/// bind carries each slice vertex's global rank instead of an orientation
/// byte, and a local count reply is its emitted count alone. Version 4:
/// the bind no longer carries a chunk grain (workers use
/// local::kDefaultGrain).
inline constexpr std::uint32_t kWireVersion = 4;

/// Refuses absurd frame lengths before allocating (a garbage stream must
/// fail loudly, not OOM).
inline constexpr std::uint32_t kMaxFramePayload = 1u << 30;

enum class frame_type : std::uint16_t {
  bind = 1,       ///< coordinator → worker: graph slice + session options
  bind_ok = 2,    ///< worker → coordinator: slice bound, ready
  query = 3,      ///< coordinator → worker: qid + listing_query
  result = 4,     ///< worker → coordinator: qid + shard_result_payload
  error = 5,      ///< worker → coordinator: qid + message (query failed)
  stats_req = 6,  ///< coordinator → worker: stats snapshot request
  stats = 7,      ///< worker → coordinator: worker_stats_payload
  shutdown = 8,   ///< coordinator → worker: serve loop ends after ack
  bye = 9,        ///< worker → coordinator: shutdown ack, stream closing
};

/// Appends n raw bytes to buf. Grow-then-copy rather than a ranged
/// vector::insert: GCC 12's -Wstringop-overflow misfires on an inlined
/// insert into an empty vector.
inline void append_bytes(std::vector<std::uint8_t>& buf, const void* src,
                         std::size_t n) {
  if (n == 0) return;  // empty spans may carry a null data pointer
  const std::size_t at = buf.size();
  buf.resize(at + n);
  std::memcpy(buf.data() + at, src, n);
}

struct frame {
  frame_type type = frame_type::error;
  std::vector<std::uint8_t> payload;
};

struct wire_stats {
  std::int64_t frames_sent = 0;
  std::int64_t bytes_sent = 0;    ///< payload + headers, excluding preamble
  std::int64_t flushes = 0;       ///< write_all calls issued
  std::int64_t frames_received = 0;
  std::int64_t bytes_received = 0;
};

/// The sending half for one peer. Not thread-safe (one writer per peer by
/// design).
class frame_writer {
 public:
  explicit frame_writer(byte_channel& ch) : ch_(&ch) {}

  /// Writes one frame to the channel in a single write_all; the first
  /// frame carries the stream preamble ahead of it.
  void send(frame_type type, std::span<const std::uint8_t> payload);

  const wire_stats& stats() const { return stats_; }

 private:
  byte_channel* ch_;
  bool preamble_sent_ = false;
  std::vector<std::uint8_t> buf_;  ///< the frame being written, reused
  wire_stats stats_;
};

/// The receiving half: validates the preamble on first use, then yields
/// frames. Blocking; not thread-safe.
class frame_reader {
 public:
  explicit frame_reader(byte_channel& ch) : ch_(&ch) {}

  /// Reads the next frame. Returns false on orderly EOF at a frame
  /// boundary; throws shard_error on bad preamble, unknown type, oversized
  /// length, or truncation mid-frame.
  bool next(frame& out);

  const wire_stats& stats() const { return stats_; }

 private:
  /// Reads exactly n bytes. Returns false on EOF before the first byte
  /// (only legal when eof_ok); throws on EOF mid-read.
  bool read_exact(void* dst, std::size_t n, bool eof_ok);

  byte_channel* ch_;
  bool preamble_checked_ = false;
  wire_stats stats_;
};

}  // namespace dcl::shard
