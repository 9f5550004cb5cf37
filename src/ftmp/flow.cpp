#include "ftmp/flow.hpp"

#include <algorithm>

namespace ftcorba::ftmp {

FlowController::FlowController(ProcessorId self, const Config& config)
    : self_(self), config_(config) {
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
  stats_.lag_warnings = metrics::Counter(
      "ftmp_flow_lag_warnings_total",
      "Members newly observed past flow_lag_warn stability lag", "members",
      "flow");
  stats_.evict_reports = metrics::Counter(
      "ftmp_flow_evict_reports_total",
      "Members reported to PGMP as suspect past flow_lag_evict stability lag",
      "members", "flow");
  metrics_.member_lag = metrics::histogram(
      "ftmp_flow_member_lag_ts",
      "Per-member stability lag: group-max ack timestamp minus the member's "
      "ack timestamp, sampled once per heartbeat interval",
      "timestamp", "flow", metrics::timestamp_gap_buckets());
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

std::size_t FlowController::high_watermark() const {
  if (config_.flow_send_queue_limit > 0) {
    return std::max<std::size_t>(1, config_.flow_send_queue_limit * 3 / 4);
  }
  return 64;  // unlimited queue: a fixed default keeps backpressure alive
}

std::size_t FlowController::low_watermark() const {
  const std::size_t low =
      config_.flow_send_queue_limit > 0 ? config_.flow_send_queue_limit / 4 : 16;
  // The release must sit strictly below the raise or the listener flaps.
  return std::min(low, high_watermark() - 1);
}

bool FlowController::park(Parked&& p) {
  if (config_.flow_send_queue_limit > 0 &&
      queue_.size() >= config_.flow_send_queue_limit) {
    stats_.queue_drops.add();
    return false;
  }
  queue_.push_back(std::move(p));
  stats_.pacing_stalls.add();
  metrics_.queue_depth.add(1);
  if (queue_.size() > stats_.queue_highwater) {
    stats_.queue_highwater = queue_.size();
    if (static_cast<std::int64_t>(stats_.queue_highwater) >
        metrics_.queue_highwater.value()) {
      metrics_.queue_highwater.set(
          static_cast<std::int64_t>(stats_.queue_highwater));
    }
  }
  if (!over_high_ && queue_.size() >= high_watermark()) {
    over_high_ = true;
    stats_.queue_high_events.add();
    signals_.push_back(FlowSignal::kQueueHigh);
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
  if (over_high_ && queue_.size() <= low_watermark()) {
    over_high_ = false;
    signals_.push_back(FlowSignal::kQueueLow);
  }
  return out;
}

std::vector<FlowSignal> FlowController::take_signals() {
  std::vector<FlowSignal> out;
  out.swap(signals_);
  return out;
}

std::vector<ProcessorId> FlowController::observe_lag(
    TimePoint now, const std::vector<std::pair<ProcessorId, Timestamp>>& acks) {
  std::vector<ProcessorId> evict;
  if (!lag_enabled() || acks.empty()) return evict;
  if (now - last_lag_check_ < config_.heartbeat_interval) return evict;
  last_lag_check_ = now;

  Timestamp max_ack = 0;
  for (const auto& [q, ack] : acks) max_ack = std::max(max_ack, ack);
  for (const auto& [q, ack] : acks) {
    if (q == self_) continue;  // a sender never evicts itself for lagging
    const std::uint64_t lag = max_ack - ack;
    metrics_.member_lag.observe(static_cast<double>(lag));
    if (config_.flow_lag_warn > 0) {
      if (lag > config_.flow_lag_warn) {
        if (lag_warned_.insert(q).second) stats_.lag_warnings.add();
      } else if (lag <= config_.flow_lag_warn / 2) {
        lag_warned_.erase(q);  // hysteresis: one event per excursion
      }
    }
    if (config_.flow_lag_evict > 0) {
      if (lag > config_.flow_lag_evict) {
        if (lag_reported_.insert(q).second) {
          stats_.evict_reports.add();
          evict.push_back(q);
        }
      } else if (lag <= config_.flow_lag_evict / 2) {
        lag_reported_.erase(q);
      }
    }
  }
  return evict;
}

void FlowController::forget_member(ProcessorId member) {
  lag_warned_.erase(member);
  lag_reported_.erase(member);
}

}  // namespace ftcorba::ftmp
