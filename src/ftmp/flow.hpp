// flow.hpp — flow control and backpressure for one group session
// (docs/FLOW.md): a stability-driven send window, a bounded FIFO of parked
// sends, queue-watermark backpressure toward the ORB, and slow-receiver
// lag monitoring.
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
//   * Parked sends. Excess sends wait in a bounded FIFO; the session
//     releases them as stability frees the window. A send arriving with
//     the queue at capacity is dropped, counted and traced.
//   * Backpressure. Crossing the queue's high watermark fires a
//     FlowListener callback (and the ORB defers new client requests);
//     falling below the low watermark fires the matching release.
//   * Slow receivers. Each member's stability lag — how far its ack
//     timestamp trails the group maximum — is tracked; past flow_lag_warn
//     a structured trace event and metrics fire, past flow_lag_evict the
//     member is reported to PGMP as suspect (default off).
//
// Sans-IO like the sibling layers: the FlowController only does
// bookkeeping; the owning GroupSession drives it and transmits. With
// flow_window_messages == 0 (default) every entry point is a no-op and the
// session behaves exactly as it did without the subsystem.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
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

/// Queue-watermark transitions surfaced to the layer above. The ORB defers
/// new client requests between kQueueHigh and kQueueLow.
enum class FlowSignal : std::uint8_t { kQueueHigh, kQueueLow };

/// Receives watermark callbacks; install via Stack::set_flow_listener.
class FlowListener {
 public:
  virtual ~FlowListener() = default;
  virtual void on_flow(ProcessorGroupId group, FlowSignal signal) = 0;
};

/// Counters for tests and the E11 bench.
struct FlowStats {
  std::uint64_t pacing_stalls = 0;      ///< sends parked (window full)
  std::uint64_t queue_drops = 0;        ///< sends rejected (queue at capacity)
  std::uint64_t queue_high_events = 0;  ///< high-watermark crossings
  std::uint64_t releases = 0;           ///< parked sends released by stability
  std::uint64_t lag_warnings = 0;       ///< members newly past flow_lag_warn
  std::uint64_t evict_reports = 0;      ///< members reported past flow_lag_evict
  std::uint64_t queue_highwater = 0;    ///< peak parked-queue depth
};

/// Flow control for one group session. Owned and driven by GroupSession.
class FlowController {
 public:
  /// A Regular payload parked while the send window is full.
  struct Parked {
    ConnectionId connection;
    RequestNum request_num;
    Bytes giop;
  };

  FlowController(ProcessorId self, ProcessorGroupId group, const Config& config);

  /// Returns this instance's contribution to the process-global occupancy
  /// gauges. A session dropped with messages still in flight (eviction,
  /// crash in a sim harness) must not leave the gauges elevated forever.
  ~FlowController();

  FlowController(const FlowController&) = delete;
  FlowController& operator=(const FlowController&) = delete;

  /// True when the send window is configured. When false, may_send always
  /// passes and the queue is never used (disabled default — the session
  /// must behave exactly as before the subsystem existed).
  [[nodiscard]] bool window_enabled() const {
    return config_.flow_window_messages > 0;
  }

  /// True when slow-receiver lag monitoring is configured (independent of
  /// the send window).
  [[nodiscard]] bool lag_enabled() const {
    return config_.flow_lag_warn > 0 || config_.flow_lag_evict > 0;
  }

  // ---- stability-driven send window ----

  /// True when a Regular payload of roughly `approx_bytes` may be multicast
  /// now: the window has room and no earlier send is parked (FIFO fairness).
  [[nodiscard]] bool may_send(std::size_t approx_bytes) const;

  /// Accounts one of our own reliable Regular messages as in flight
  /// (multicast but not yet stable).
  void note_sent(TimePoint now, SeqNum seq, std::size_t encoded_bytes);

  /// Stability advanced over our own stream: messages with seq <= `up_to`
  /// left every member's retransmission store, freeing window space.
  void on_stable(TimePoint now, SeqNum up_to);

  [[nodiscard]] std::size_t in_flight_messages() const { return in_flight_.size(); }
  [[nodiscard]] std::size_t in_flight_bytes() const { return in_flight_bytes_; }

  // ---- bounded FIFO of parked sends ----

  /// Parks a send the window refused. Returns false — counting and tracing
  /// the drop — when the queue is at flow_send_queue_limit.
  [[nodiscard]] bool park(TimePoint now, Parked&& p);

  /// Pops the oldest parked send if the window now has room for it.
  [[nodiscard]] std::optional<Parked> release_one(TimePoint now);

  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

  /// True between a kQueueHigh signal and the matching kQueueLow — the
  /// congestion predicate the ORB polls via Stack::connection_congested.
  [[nodiscard]] bool over_high_watermark() const { return over_high_; }

  /// Drains watermark transitions recorded since the last call (the
  /// session forwards them to the installed FlowListener).
  [[nodiscard]] std::vector<FlowSignal> take_signals();

  /// Watermarks: 3/4 and 1/4 of the queue limit (64 and 16 when unlimited).
  [[nodiscard]] std::size_t high_watermark() const;
  [[nodiscard]] std::size_t low_watermark() const;

  // ---- slow-receiver lag ----

  /// Feeds the per-member ack timestamps (ROMP's last-ack knowledge, self
  /// included) and applies the warn/evict thresholds. Internally throttled
  /// to one evaluation per heartbeat interval. Returns the members newly
  /// past flow_lag_evict, which the session reports to PGMP as suspects.
  [[nodiscard]] std::vector<ProcessorId> observe_lag(
      TimePoint now, const std::vector<std::pair<ProcessorId, Timestamp>>& acks);

  /// Drops lag state for a member that left the group.
  void forget_member(ProcessorId member);

  [[nodiscard]] const FlowStats& stats() const { return stats_; }

 private:
  void trace(TimePoint now, metrics::TraceKind kind, std::uint64_t a = 0,
             std::uint64_t b = 0) const;

  ProcessorId self_;
  ProcessorGroupId group_;
  Config config_;

  // Own multicast-but-unstable Regular messages: seq -> encoded size.
  std::map<SeqNum, std::size_t> in_flight_;
  std::size_t in_flight_bytes_ = 0;

  std::deque<Parked> queue_;
  bool over_high_ = false;
  std::vector<FlowSignal> signals_;

  // Members currently past the warn threshold / reported for eviction
  // (cleared with hysteresis so one excursion fires one event).
  std::set<ProcessorId> lag_warned_;
  std::set<ProcessorId> lag_reported_;
  TimePoint last_lag_check_ = -1'000'000'000;

  FlowStats stats_;

  // Process-global instruments shared by every FlowController in the
  // process (docs/METRICS.md): gauges aggregate via add() deltas like the
  // sibling layers' instruments.
  struct Instruments {
    metrics::GaugeHandle window_messages;
    metrics::GaugeHandle window_bytes;
    metrics::GaugeHandle queue_depth;
    metrics::GaugeHandle queue_highwater;
    metrics::CounterHandle pacing_stalls;
    metrics::CounterHandle queue_dropped;
    metrics::CounterHandle queue_high_events;
    metrics::CounterHandle releases;
    metrics::CounterHandle lag_warnings;
    metrics::CounterHandle evict_reports;
    metrics::HistogramHandle member_lag;
  };
  Instruments metrics_;
};

}  // namespace ftcorba::ftmp
