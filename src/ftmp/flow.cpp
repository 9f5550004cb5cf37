#include "ftmp/flow.hpp"

#include <algorithm>
#include <utility>

namespace ftcorba::ftmp {

FlowController::FlowController(const Config& config) : config_(config) {
  metrics_.window_messages = metrics::Gauge(
      "ftmp_flow_window_in_flight_messages",
      "Own Regular messages multicast but not yet stable (send-window "
      "occupancy)",
      "messages", "flow");
  metrics_.window_bytes = metrics::Gauge(
      "ftmp_flow_window_in_flight_bytes",
      "Encoded bytes of own Regular messages multicast but not yet stable",
      "bytes", "flow");
  metrics_.queue_depth = metrics::Gauge(
      "ftmp_flow_send_queue_depth",
      "Sends parked in the flow-control FIFO awaiting window space",
      "messages", "flow");
  metrics_.queue_highwater = metrics::gauge(
      "ftmp_flow_send_queue_highwater",
      "Peak parked-send queue depth observed since the last metrics reset",
      "messages", "flow");
  stats_.pacing_stalls = metrics::Counter(
      "ftmp_flow_pacing_stalls_total",
      "Sends parked because the stability-driven send window was full or a "
      "rebind flush was in progress",
      "sends", "flow");
  stats_.queue_drops = metrics::Counter(
      "ftmp_flow_send_queue_dropped_total",
      "Sends rejected because the parked-send queue was at capacity",
      "sends", "flow");
  stats_.queue_high_events = metrics::Counter(
      "ftmp_flow_queue_high_events_total",
      "Parked-send queue crossings of the high watermark (backpressure "
      "raised toward the ORB)",
      "events", "flow");
  stats_.releases = metrics::Counter(
      "ftmp_flow_releases_total",
      "Parked sends released after stability freed window space or a rebind "
      "flush completed",
      "sends", "flow");
}

bool FlowController::may_send(std::size_t approx_bytes) const {
  if (!window_enabled()) return true;
  if (!queue_.empty()) return false;  // FIFO fairness: park behind the queue
  if (in_flight_.size() >= config_.flow_window_messages) return false;
  if (config_.flow_window_bytes > 0 && !in_flight_.empty() &&
      in_flight_bytes() + approx_bytes > config_.flow_window_bytes) {
    return false;
  }
  return true;
}

void FlowController::note_sent(SeqNum seq, std::size_t encoded_bytes) {
  if (!window_enabled()) return;
  if (!in_flight_.emplace(seq, encoded_bytes).second) return;
  metrics_.window_messages.add(1);
  metrics_.window_bytes.add(static_cast<std::int64_t>(encoded_bytes));
}

void FlowController::on_stable(SeqNum up_to) {
  if (!window_enabled()) return;
  auto end = in_flight_.upper_bound(up_to);
  std::size_t freed_msgs = 0;
  std::size_t freed_bytes = 0;
  for (auto it = in_flight_.begin(); it != end; ++it) {
    freed_msgs += 1;
    freed_bytes += it->second;
  }
  if (freed_msgs == 0) return;
  in_flight_.erase(in_flight_.begin(), end);
  metrics_.window_messages.add(-static_cast<std::int64_t>(freed_msgs));
  metrics_.window_bytes.add(-static_cast<std::int64_t>(freed_bytes));
}

bool FlowController::park(Parked&& p) {
  if (queue_.size() >= kFlowSendQueueLimit) {
    stats_.queue_drops.add();
    return false;
  }
  queue_.push_back(std::move(p));
  stats_.pacing_stalls.add();
  metrics_.queue_depth.add(1);
  stats_.queue_highwater = std::max<std::uint64_t>(stats_.queue_highwater, queue_.size());
  // Against the gauge itself, not the controller's own peak: after a
  // metrics reset the gauge must see this controller's queue refill.
  const auto depth = static_cast<std::int64_t>(queue_.size());
  if (depth > metrics_.queue_highwater.value()) metrics_.queue_highwater.set(depth);
  if (!over_high_ && queue_.size() >= kFlowHighWatermark) {
    over_high_ = true;
    stats_.queue_high_events.add();
  }
  return true;
}

std::optional<FlowController::Parked> FlowController::release_one() {
  if (queue_.empty()) return std::nullopt;
  if (window_enabled()) {
    if (in_flight_.size() >= config_.flow_window_messages) return std::nullopt;
    if (config_.flow_window_bytes > 0 && !in_flight_.empty() &&
        in_flight_bytes() + queue_.front().giop.size() > config_.flow_window_bytes) {
      return std::nullopt;
    }
  }
  Parked out = std::move(queue_.front());
  queue_.pop_front();
  stats_.releases.add();
  metrics_.queue_depth.add(-1);
  if (over_high_ && queue_.size() <= kFlowLowWatermark) over_high_ = false;
  return out;
}

}  // namespace ftcorba::ftmp
