// flow.hpp — flow control and backpressure for one group session
// (docs/FLOW.md): a stability-driven send window, a bounded FIFO of parked
// sends, and queue-watermark backpressure toward the ORB.
//
// The paper's §6 buffer management reclaims RMP's retransmission store only
// when ack timestamps prove stability — so one slow or lossy receiver
// stalls reclamation group-wide and every sender's store grows without
// bound, while nothing throttles senders. This subsystem closes that loop:
//
//   * Send window. A sender may have at most flow_window_messages /
//     flow_window_bytes of its own Regular messages multicast-but-unstable.
//     The window is fed by ROMP's existing stability notices (the same
//     collect_stable() feed that drives Rmp::release), so "unstable" means
//     exactly "still pinned in every member's retransmission store".
//   * Parked sends. Excess sends, and every send made during a §7 rebind
//     flush, wait in a bounded FIFO; the session releases them in order as
//     stability frees the window and once the flush completes. A send
//     arriving with the queue at capacity is dropped and counted.
//   * Backpressure. From the moment the queue reaches its high watermark
//     until it falls back to its low one, the group is congested: the ORB
//     polls that predicate (Stack::connection_congested) and defers new
//     client requests.
//
// Sans-IO like the sibling layers: the FlowController only does
// bookkeeping; the owning GroupSession drives it and transmits. With
// flow_window_messages == 0 (default) only the flush parks sends, and the
// session behaves exactly as it did without the subsystem.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/metrics.hpp"
#include "ftmp/config.hpp"

namespace ftcorba::ftmp {

/// Result of a non-blocking ordered send (GroupSession::try_send_regular).
enum class SendStatus : std::uint8_t {
  kSent,      ///< multicast immediately
  kQueued,    ///< parked (send window full, or a §7 flush is in progress)
  kRejected,  ///< dropped: the bounded flow send queue was at capacity
  kInactive,  ///< this processor is not an active member of the group
};

[[nodiscard]] inline const char* to_string(SendStatus s) {
  switch (s) {
    case SendStatus::kSent: return "sent";
    case SendStatus::kQueued: return "queued";
    case SendStatus::kRejected: return "rejected";
    case SendStatus::kInactive: return "inactive";
  }
  return "?";
}

/// This controller's counters for tests and the E11 bench; each Counter
/// also adds to the process-global ftmp_flow_* counter of its name.
struct FlowStats {
  metrics::Counter pacing_stalls;      ///< sends parked (window full or flush)
  metrics::Counter queue_drops;        ///< sends rejected (queue at capacity)
  metrics::Counter queue_high_events;  ///< high-watermark crossings
  metrics::Counter releases;           ///< parked sends released (window or flush)
  std::uint64_t queue_highwater = 0;   ///< this controller's peak queue depth
};

/// Flow control for one group session. Owned and driven by GroupSession.
class FlowController {
 public:
  /// A Regular payload parked while the send window is full or a §7 flush
  /// runs.
  struct Parked {
    ConnectionId connection;
    RequestNum request_num;
    Bytes giop;
  };

  explicit FlowController(const Config& config);

  /// True when the send window is configured. When false, may_send always
  /// passes and the queue holds only sends parked during a §7 flush
  /// (disabled default — the session must behave exactly as before the
  /// subsystem existed).
  [[nodiscard]] bool window_enabled() const {
    return config_.flow_window_messages > 0;
  }

  // ---- stability-driven send window ----

  /// True when a Regular payload of roughly `approx_bytes` may be multicast
  /// now: the window has room and no earlier send is parked (FIFO fairness).
  [[nodiscard]] bool may_send(std::size_t approx_bytes) const;

  /// Accounts one of our own reliable Regular messages as in flight
  /// (multicast but not yet stable).
  void note_sent(SeqNum seq, std::size_t encoded_bytes);

  /// Stability advanced over our own stream: messages with seq <= `up_to`
  /// left every member's retransmission store, freeing window space.
  void on_stable(SeqNum up_to);

  [[nodiscard]] std::size_t in_flight_messages() const { return in_flight_.size(); }
  [[nodiscard]] std::size_t in_flight_bytes() const {
    return static_cast<std::size_t>(metrics_.window_bytes.value());
  }

  // ---- bounded FIFO of parked sends ----

  /// Parks a send the window refused, or one made during a §7 flush.
  /// Returns false — counting the drop — when the queue is at
  /// flow_send_queue_limit.
  [[nodiscard]] bool park(Parked&& p);

  /// Pops the oldest parked send if the window now has room for it (always,
  /// while the window is off). The session does not call it during a flush.
  [[nodiscard]] std::optional<Parked> release_one();

  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

  /// True from the park that reaches the high watermark until the release
  /// that reaches the low one — the congestion predicate the ORB polls via
  /// Stack::connection_congested.
  [[nodiscard]] bool over_high_watermark() const { return over_high_; }

  /// Watermarks: 3/4 and 1/4 of the queue limit (64 and 16 when unlimited).
  [[nodiscard]] std::size_t high_watermark() const;
  [[nodiscard]] std::size_t low_watermark() const;

  [[nodiscard]] const FlowStats& stats() const { return stats_; }

 private:
  Config config_;

  // Own multicast-but-unstable Regular messages: seq -> encoded size.
  std::map<SeqNum, std::size_t> in_flight_;

  std::deque<Parked> queue_;
  bool over_high_ = false;

  FlowStats stats_;

  // This controller's shares of the occupancy gauges, and the process-wide
  // instruments it only sets or observes (docs/METRICS.md).
  struct Instruments {
    metrics::Gauge window_messages;
    metrics::Gauge window_bytes;
    metrics::Gauge queue_depth;
    metrics::GaugeHandle queue_highwater;
  };
  Instruments metrics_;
};

}  // namespace ftcorba::ftmp
