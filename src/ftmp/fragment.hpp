// fragment.hpp — transparent fragmentation of large GIOP payloads.
//
// FTMP rides UDP datagrams, which bound a Regular message's payload (the
// practical IP limit is ~64 KiB, and LAN MTUs make smaller fragments
// kinder still). GIOP 1.0 — the version the paper maps — has no Fragment
// support of its own, so the stack fragments transparently below GIOP:
// a large payload is split into chunks, each sent as its own Regular
// message (same connection id and request number) whose payload carries a
// small fragment header. Because Regular messages from one source are
// delivered in total order, reassembly is strictly sequential per source:
// no reordering buffer is needed, only the in-progress message.
//
// A member that joins mid-message sees a tail without the head; such
// orphan fragments are dropped (the replica-recovery protocol gives
// joiners their state independently, so nothing is lost).
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/ids.hpp"

namespace ftcorba::ftmp {

/// Fragment chunk header: magic + message id + index + total count.
inline constexpr std::uint8_t kFragMagic[4] = {'F', 'T', 'M', 'F'};
inline constexpr std::size_t kFragHeaderSize = 4 + 8 + 4 + 4;

/// Regular payloads larger than this are sent as fragments of at most this
/// many data bytes each: every datagram stays under the ~64 KiB UDP limit
/// with headroom for the FTMP and fragment headers.
inline constexpr std::size_t kMaxRegularPayload = 60000;

/// True if a Regular payload is a fragment chunk.
[[nodiscard]] inline bool looks_like_fragment(BytesView payload) {
  if (payload.size() < kFragHeaderSize) return false;
  for (std::size_t i = 0; i < 4; ++i) {
    if (payload[i] != kFragMagic[i]) return false;
  }
  return true;
}

/// Splits `payload` into chunks of at most `max_chunk` data bytes, each
/// prefixed with the fragment header. `message_id` must be unique per
/// sender (a counter).
[[nodiscard]] inline std::vector<Bytes> make_fragments(BytesView payload,
                                                       std::size_t max_chunk,
                                                       std::uint64_t message_id) {
  const std::uint32_t total =
      static_cast<std::uint32_t>((payload.size() + max_chunk - 1) / max_chunk);
  std::vector<Bytes> out;
  out.reserve(total);
  for (std::uint32_t index = 0; index < total; ++index) {
    const std::size_t begin = std::size_t(index) * max_chunk;
    const std::size_t len = std::min(max_chunk, payload.size() - begin);
    Writer w(ByteOrder::kBig);
    for (std::uint8_t b : kFragMagic) w.u8(b);
    w.u64(message_id);
    w.u32(index);
    w.u32(total);
    w.raw(payload.subspan(begin, len));
    out.push_back(std::move(w).take());
  }
  return out;
}

/// Per-group, per-receiver reassembly of fragment chunks arriving in total
/// order. One in-progress message per source at a time (sequential
/// delivery guarantees it).
class Reassembler {
 public:
  /// Feeds one delivered Regular payload from `source`. Returns the
  /// complete original payload (in a pooled, recyclable buffer) when the
  /// final chunk arrives, nullopt while the message is still partial or the
  /// chunk had to be discarded (orphan tail, corrupt header).
  [[nodiscard]] std::optional<SharedBytes> feed(ProcessorId source, BytesView payload) {
    Reader r(payload, ByteOrder::kBig);
    try {
      for (std::size_t i = 0; i < 4; ++i) {
        if (r.u8() != kFragMagic[i]) return std::nullopt;
      }
      const std::uint64_t message_id = r.u64();
      const std::uint32_t index = r.u32();
      const std::uint32_t total = r.u32();
      if (total == 0 || index >= total) {
        dropped_ += 1;
        return std::nullopt;
      }
      InProgress& ip = in_progress_[source];
      if (index == 0) {
        // Reassemble into a pooled buffer: its capacity is recycled once
        // the delivered message is released upstream.
        ip = InProgress{message_id, total, 0, pool_acquire(0)};
      } else if (ip.message_id != message_id || ip.next_index != index ||
                 ip.total != total) {
        // Orphan tail (joined mid-message) or sender restart: discard.
        in_progress_.erase(source);
        dropped_ += 1;
        return std::nullopt;
      }
      const BytesView chunk = r.rest();
      ip.data.insert(ip.data.end(), chunk.begin(), chunk.end());
      detail::note_copied_bytes(chunk.size());
      ip.next_index += 1;
      if (ip.next_index == ip.total) {
        Bytes whole = std::move(ip.data);
        in_progress_.erase(source);
        reassembled_ += 1;
        return SharedBytes::share_pooled(std::move(whole));
      }
      return std::nullopt;
    } catch (const CodecError&) {
      dropped_ += 1;
      return std::nullopt;
    }
  }

  /// Discards any partial message from `source` (membership removal).
  void forget(ProcessorId source) { in_progress_.erase(source); }

  /// Messages fully reassembled.
  [[nodiscard]] std::uint64_t reassembled() const { return reassembled_; }
  /// Chunks discarded (orphans / corrupt).
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Sources with a message in flight.
  [[nodiscard]] std::size_t in_flight() const { return in_progress_.size(); }

 private:
  struct InProgress {
    std::uint64_t message_id = 0;
    std::uint32_t total = 0;
    std::uint32_t next_index = 0;
    Bytes data;
  };
  std::map<ProcessorId, InProgress> in_progress_;
  std::uint64_t reassembled_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace ftcorba::ftmp
