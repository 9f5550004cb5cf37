// rmp.hpp — the Reliable Multicast Protocol layer (§5): per-source sequence
// numbers, gap detection, negative acknowledgments (RetransmitRequest),
// retransmission by any processor that holds a message, and source-ordered
// delivery to ROMP.
//
// One Rmp instance serves one processor group on one processor. The class
// is sans-IO: inputs are decoded messages plus the current time; outputs
// (messages to deliver upward, NACKs and retransmissions to send) are
// drained by the owning GroupSession, which stamps headers and encodes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/metrics.hpp"
#include "ftmp/config.hpp"
#include "ftmp/messages.hpp"

namespace ftcorba::ftmp {

/// Minimum spacing between successive RetransmitRequests for one source's
/// gaps (rate-limits NACKs while a retransmission is in flight). The
/// answering side spaces its retransmissions of one message the same way
/// (kRetransmitInterval, rmp.cpp).
inline constexpr Duration kNackInterval = 5 * kMillisecond;

/// RMP asks the session to multicast a RetransmitRequest for a block of
/// messages missing from `missing_from`.
struct NackOut {
  ProcessorId missing_from{};
  SeqNum start = 0;
  SeqNum stop = 0;
};

/// RMP asks the session to re-multicast a stored message. `raw` is a pooled
/// copy of the stored original with the retransmission flag set (the flag is
/// patched on this cold path so the store can hold zero-copy arrival slices
/// untouched).
struct RetransmitOut {
  SharedBytes raw;
};

/// An output produced by the RMP layer itself.
using RmpOut = std::variant<NackOut, RetransmitOut>;

/// This instance's counters (the E4 bench and tests read them); each also
/// adds to the process-global ftmp_rmp_* counter of its name.
struct RmpStats {
  metrics::Counter duplicates_ignored;
  metrics::Counter nacks_sent;
  metrics::Counter retransmissions_sent;
  metrics::Counter dropped_unknown_source;
  metrics::Counter dropped_stale_incarnation;
  metrics::Counter delivered_in_order;
  metrics::Counter ooo_dropped;  ///< drops at the max_out_of_order_buffer cap
};

/// Reliable source-ordered multicast (one group, one processor).
class Rmp {
 public:
  Rmp(ProcessorId self, const Config& config);

  // ---- source (sender stream) management, driven by membership ----

  /// Starts tracking `src`; the first expected sequence number is
  /// `expect_after + 1` (a brand-new source starts at 1, so pass 0; a
  /// joining member passes the seq from the AddProcessor body).
  /// `min_timestamp` guards against incarnation aliasing: reliable
  /// messages from `src` with header timestamp <= it are rejected (a
  /// re-added member's legitimate messages all exceed its AddProcessor's
  /// timestamp, which it witnessed; straggler retransmissions from the
  /// previous incarnation do not).
  void add_source(ProcessorId src, SeqNum expect_after, Timestamp min_timestamp = 0);

  /// Stops tracking `src`'s stream and discards its out-of-order buffer.
  /// Stored (retransmittable) copies of its messages are kept so lagging
  /// members can still recover them; call purge_store later to drop those.
  void remove_source(ProcessorId src);

  /// Drops every stored message originated by `src` (after a removed
  /// member's messages can no longer be needed by any survivor).
  void purge_store(ProcessorId src);

  /// True if `src` is currently tracked.
  [[nodiscard]] bool has_source(ProcessorId src) const;

  /// Highest sequence number received contiguously (no gaps before it)
  /// from `src`. This is the value reported in Membership bodies.
  [[nodiscard]] SeqNum contiguous(ProcessorId src) const;

  /// Highest sequence number seen at all from `src` (possibly with gaps).
  [[nodiscard]] SeqNum highest_seen(ProcessorId src) const;

  /// True when no gaps exist for `src` (contiguous == highest seen).
  [[nodiscard]] bool complete(ProcessorId src) const;

  // ---- sending side ----

  /// Allocates the next sequence number for an outgoing reliable message.
  [[nodiscard]] SeqNum assign_seq() { return ++last_sent_; }

  /// Sequence number of the most recent reliable message sent (carried in
  /// Heartbeat and RetransmitRequest headers).
  [[nodiscard]] SeqNum last_sent() const { return last_sent_; }

  /// Stores an encoded reliable message (own or received) so it can answer
  /// future RetransmitRequests. Keyed by (original source, seq). The slice
  /// is retained as-is — for a received message this pins the arrival
  /// buffer instead of copying it; the retransmission flag is patched into
  /// a pooled copy only when a retransmission is actually sent.
  void store(ProcessorId src, SeqNum seq, SharedBytes raw);

  /// Records that this processor multicast something to the group at `now`
  /// (resets the heartbeat timer).
  void note_sent(TimePoint now) { last_sent_time_ = now; }

  /// True if a Heartbeat should be multicast now (§5: nothing multicast
  /// within the heartbeat interval).
  [[nodiscard]] bool heartbeat_due(TimePoint now) const {
    return now - last_sent_time_ >= config_.heartbeat_interval;
  }

  // ---- receiving side ----

  /// Handles a reliable message (Regular, Connect, AddProcessor,
  /// RemoveProcessor, Suspect, Membership), presented as a Frame: decoded
  /// header + the raw datagram slice (body not yet decoded). Returns the
  /// frames that are now deliverable in source order (possibly empty,
  /// possibly several when a gap fills). May queue NACKs.
  [[nodiscard]] std::vector<Frame> on_reliable(TimePoint now, Frame frame);

  /// Takes this member's own reliable message in at send, as its loopback
  /// arrival would (on_reliable), if it is the next one of a tracked own
  /// stream: every earlier own message is already in. Returns the frames
  /// now deliverable in source order (empty when it was not taken in). The
  /// loopback copy that follows is dropped without counting as a
  /// duplicate.
  [[nodiscard]] std::vector<Frame> take_own(TimePoint now, Frame frame);

  /// Handles a Heartbeat header: updates gap knowledge from the carried
  /// sequence number and schedules NACKs for revealed gaps. The heartbeat
  /// itself is passed to ROMP by the session (unreliable direct delivery).
  void on_heartbeat(TimePoint now, const Header& header);

  /// Handles a RetransmitRequest: queues retransmissions of stored
  /// messages in the requested range, subject to the any-holder policy and
  /// rate limit.
  void on_retransmit_request(TimePoint now, const RetransmitRequestBody& body);

  /// Periodic maintenance: re-issues NACKs for still-missing blocks.
  void on_tick(TimePoint now);

  /// Raises gap knowledge: some message (src, seq) is known to exist (e.g.
  /// cited in a Membership body's current sequence numbers) even though no
  /// packet carrying that seq was seen. Triggers NACK-based recovery so
  /// survivors equalize their message sets during a membership change.
  void note_exists(TimePoint now, ProcessorId src, SeqNum seq);

  /// Returns the stored encoded message for (src, seq) if this processor
  /// holds it — byte-identical to the original transmission; callers that
  /// re-multicast it apply with_retransmission_flag first. Used by the
  /// sponsor to re-multicast an AddProcessor toward a new member.
  [[nodiscard]] std::optional<BytesView> stored(ProcessorId src, SeqNum seq) const;

  /// Pins the store on behalf of a joining member (`token`): messages from
  /// each listed source above its listed sequence number are exempt from
  /// stability release until unpin_store(token). Closes the race where a
  /// message between the AddProcessor's resume point and the join becoming
  /// effective is purged group-wide before the joiner can fetch it.
  void pin_store(std::uint32_t token, const std::vector<std::pair<ProcessorId, SeqNum>>& floors);

  /// Drops the pin installed under `token` (the joiner has caught up or
  /// the join was abandoned).
  void unpin_store(std::uint32_t token);

  /// Releases stored copies of `src`'s messages with seq <= `up_to`
  /// (called by ROMP when they become stable, §6 buffer management).
  void release(ProcessorId src, SeqNum up_to);

  /// Drains the NACK/retransmission outputs queued since the last call.
  [[nodiscard]] std::vector<RmpOut> take_output();

  // ---- introspection (tests, E7 bench) ----

  /// Bytes currently held in the retransmission store.
  [[nodiscard]] std::size_t stored_bytes() const {
    return static_cast<std::size_t>(metrics_.store_bytes.value());
  }
  /// Messages currently held in the retransmission store.
  [[nodiscard]] std::size_t stored_count() const;
  /// Messages buffered out-of-order (received, awaiting gap fill).
  [[nodiscard]] std::size_t out_of_order_count() const {
    return static_cast<std::size_t>(metrics_.out_of_order.value());
  }
  /// Layer counters.
  [[nodiscard]] const RmpStats& stats() const { return stats_; }

 private:
  struct SourceState {
    SeqNum contiguous = 0;    // all seqs <= this received
    SeqNum highest_seen = 0;  // max seq observed (gaps possible)
    Timestamp min_timestamp = 0;  // incarnation floor (see add_source)
    std::map<SeqNum, Frame> out_of_order;
    TimePoint last_nack = -1'000'000'000;
    TimePoint gap_open_since = -1;  // when the oldest open gap was detected
    // Own stream only: the highest seq whose first copy came back over the
    // network (its loopback).
    SeqNum looped_back = 0;
  };

  // This instance's shares of the process-global gauges, and the shared
  // histogram (docs/METRICS.md).
  struct Instruments {
    metrics::Gauge store_bytes;
    metrics::Gauge out_of_order;
    metrics::HistogramHandle gap_repair_ms;
  };

  void update_gap_state(TimePoint now, SourceState& st);

  /// Takes a frame that is neither stale nor a duplicate into `src`'s
  /// stream: stores it, returns what became contiguous, and buffers and
  /// NACKs what did not.
  [[nodiscard]] std::vector<Frame> accept(TimePoint now, SourceState& st,
                                          ProcessorId src, Frame frame);

  void detect_gaps(TimePoint now, SourceState& st, ProcessorId src);
  void queue_nacks(TimePoint now, SourceState& st, ProcessorId src);

  ProcessorId self_;
  Config config_;
  SeqNum last_sent_ = 0;
  TimePoint last_sent_time_ = 0;
  std::unordered_map<ProcessorId, SourceState> sources_;
  // One stored message: the encoded bytes, byte-identical to the original
  // transmission (for a received message a slice of the arrival buffer;
  // the retransmission flag is patched at send time), and when this
  // processor last retransmitted it.
  struct Stored {
    SharedBytes raw;
    TimePoint last_retransmit = -1'000'000'000;  // never
  };
  // Retransmission store, keyed by (source, seq).
  std::map<std::pair<std::uint32_t, SeqNum>, Stored> store_;
  // Active store pins: token -> (source -> keep messages with seq > floor).
  std::map<std::uint32_t, std::map<std::uint32_t, SeqNum>> pins_;
  std::vector<RmpOut> output_;
  RmpStats stats_;
  Instruments metrics_;
};

}  // namespace ftcorba::ftmp
