#include "shard/wire.hpp"

#include <cstring>
#include <string>

namespace dcl::shard {

namespace {

bool known_frame_type(std::uint16_t t) {
  return t >= std::uint16_t(frame_type::bind) &&
         t <= std::uint16_t(frame_type::bye);
}

}  // namespace

frame_writer::frame_writer(byte_channel& ch, wire_options opt)
    : ch_(&ch), opt_(opt) {
  append_bytes(pending_, kWireMagic, sizeof kWireMagic);
  const std::uint32_t v = kWireVersion;
  append_bytes(pending_, &v, sizeof v);
  oldest_ = std::chrono::steady_clock::now();
}

void frame_writer::send(frame_type type,
                        std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxFramePayload)
    throw shard_error("frame_writer: payload exceeds kMaxFramePayload");
  if (pending_.empty()) oldest_ = std::chrono::steady_clock::now();
  const std::uint32_t len = std::uint32_t(payload.size());
  const std::uint16_t ty = std::uint16_t(type);
  const std::uint16_t reserved = 0;
  append_bytes(pending_, &len, sizeof len);
  append_bytes(pending_, &ty, sizeof ty);
  append_bytes(pending_, &reserved, sizeof reserved);
  append_bytes(pending_, payload.data(), payload.size());
  ++stats_.frames_sent;
  stats_.bytes_sent += std::int64_t(sizeof len + sizeof ty + sizeof reserved +
                                    payload.size());
  if (pending_.size() >= opt_.aggregate_bytes ||
      opt_.flush_delay <= std::chrono::milliseconds::zero())
    flush();
}

void frame_writer::flush() {
  if (pending_.empty()) return;
  ch_->write_all(pending_.data(), pending_.size());
  pending_.clear();
  ++stats_.flushes;
}

void frame_writer::poll() {
  if (pending_.empty()) return;
  if (std::chrono::steady_clock::now() - oldest_ >= opt_.flush_delay) flush();
}

bool frame_reader::read_exact(void* dst, std::size_t n, bool eof_ok) {
  auto* p = static_cast<std::uint8_t*>(dst);
  std::size_t got = 0;
  while (got < n) {
    const std::size_t r = ch_->read_some(p + got, n - got);
    if (r == 0) {
      if (got == 0 && eof_ok) return false;
      throw shard_error("frame_reader: truncated stream (peer ended " +
                        std::to_string(got) + "/" + std::to_string(n) +
                        " bytes into a read)");
    }
    got += r;
  }
  return true;
}

bool frame_reader::next(frame& out) {
  if (!preamble_checked_) {
    char magic[sizeof kWireMagic];
    if (!read_exact(magic, sizeof magic, /*eof_ok=*/true))
      return false;  // stream closed before any traffic
    if (std::memcmp(magic, kWireMagic, sizeof magic) != 0)
      throw shard_error("frame_reader: bad magic (not a DCLSHARD stream)");
    std::uint32_t version = 0;
    read_exact(&version, sizeof version, /*eof_ok=*/false);
    if (version != kWireVersion)
      throw shard_error("frame_reader: wire version " +
                        std::to_string(version) + " != expected " +
                        std::to_string(kWireVersion));
    preamble_checked_ = true;
  }
  std::uint32_t len = 0;
  if (!read_exact(&len, sizeof len, /*eof_ok=*/true)) return false;
  if (len > kMaxFramePayload)
    throw shard_error("frame_reader: frame length " + std::to_string(len) +
                      " exceeds kMaxFramePayload (garbage stream?)");
  std::uint16_t ty = 0, reserved = 0;
  read_exact(&ty, sizeof ty, /*eof_ok=*/false);
  read_exact(&reserved, sizeof reserved, /*eof_ok=*/false);
  if (!known_frame_type(ty) || reserved != 0)
    throw shard_error("frame_reader: unknown frame type " +
                      std::to_string(ty));
  out.type = frame_type(ty);
  out.payload.resize(len);
  if (len > 0) read_exact(out.payload.data(), len, /*eof_ok=*/false);
  ++stats_.frames_received;
  stats_.bytes_received += std::int64_t(sizeof len + sizeof ty +
                                        sizeof reserved + len);
  return true;
}

}  // namespace dcl::shard
