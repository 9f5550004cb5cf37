#include "ftmp/romp.hpp"

#include <algorithm>

namespace ftcorba::ftmp {

bool is_totally_ordered(MessageType t) {
  switch (t) {
    case MessageType::kRegular:
    case MessageType::kConnect:
    case MessageType::kAddProcessor:
    case MessageType::kRemoveProcessor:
      return true;
    default:
      return false;
  }
}

bool is_reliable(MessageType t) {
  switch (t) {
    case MessageType::kRegular:
    case MessageType::kConnect:
    case MessageType::kAddProcessor:
    case MessageType::kRemoveProcessor:
    case MessageType::kSuspect:
    case MessageType::kMembership:
    case MessageType::kStateRequest:
    case MessageType::kStateChunk:
    case MessageType::kStateDigest:
    case MessageType::kOrderInfo:
      return true;
    default:
      return false;
  }
}

Romp::Romp(ProcessorId self, const Config& config)
    : self_(self), clock_(config.clock_mode, config.clock_skew) {
  metrics_.ordered_delivered = metrics::counter(
      "ftmp_romp_ordered_delivered_total",
      "Messages delivered upward in total (timestamp, source) order",
      "messages", "romp");
  metrics_.stability_releases = metrics::counter(
      "ftmp_romp_stability_releases_total",
      "Per-source release notices issued to RMP when messages became stable",
      "releases", "romp");
  metrics_.ordering_wait_ms = metrics::histogram(
      "ftmp_romp_ordering_wait_ms",
      "Wall-clock wait from source-ordered arrival to total-order delivery",
      "ms", "romp", metrics::latency_buckets_ms());
  metrics_.stability_lag = metrics::histogram(
      "ftmp_romp_stability_lag_ts",
      "Delivered-vs-stable gap: message timestamp minus the stable timestamp "
      "at delivery (buffer-reclaim lag, paper section 6)",
      "timestamp", "romp", metrics::timestamp_gap_buckets());
}

void Romp::set_members(const std::vector<ProcessorId>& members) {
  members_.clear();
  members_.insert(members.begin(), members.end());
}

void Romp::add_member(ProcessorId member, Timestamp initial_bound) {
  members_.insert(member);
  Timestamp& b = bounds_[member];
  b = std::max(b, initial_bound);
}

void Romp::reset_source(ProcessorId src, SeqNum floor) {
  consumed_up_to_[src] = floor;
  consumed_ahead_.erase(src);
  last_ordered_[src] = floor;
  unstable_.erase(src);
}

void Romp::remove_member(ProcessorId member) {
  members_.erase(member);
  bounds_.erase(member);
  last_acks_.erase(member);
  unstable_.erase(member);
}

Timestamp Romp::ack_timestamp() const {
  Timestamp acc = clock_.latest();
  for (ProcessorId q : members_) {
    auto it = bounds_.find(q);
    const Timestamp b = it == bounds_.end() ? 0 : it->second;
    acc = std::min(acc, b);
  }
  return acc;
}

Timestamp Romp::bound(ProcessorId q) const {
  auto it = bounds_.find(q);
  return it == bounds_.end() ? 0 : it->second;
}

Timestamp Romp::min_bound() const {
  if (members_.empty()) return 0;
  Timestamp acc = ~Timestamp{0};
  for (ProcessorId q : members_) acc = std::min(acc, bound(q));
  return acc;
}

void Romp::observe_header(const Header& h) {
  clock_.witness(h.message_timestamp);
  Timestamp& ack = last_acks_[h.source];
  ack = std::max(ack, h.ack_timestamp);
}

void Romp::on_source_ordered(const Header& h) {
  observe_header(h);
  Timestamp& b = bounds_[h.source];
  b = std::max(b, h.message_timestamp);
  unstable_[h.source][h.message_timestamp] = h.sequence_number;
  // Suspect/Membership and the other control messages are consumed on
  // arrival (Fig. 3: reliable, source-ordered, not totally ordered).
  if (!is_totally_ordered(h.type)) {
    mark_consumed(h.source, h.sequence_number);
  } else if (h.source != self_) {
    heard_ = std::max(heard_, h.message_timestamp);
  }
}

void Romp::note_delivered(const Header& h, TimePoint arrival, TimePoint now) {
  SeqNum& lo = last_ordered_[h.source];
  lo = std::max(lo, h.sequence_number);
  mark_consumed(h.source, h.sequence_number);
  if (now > 0 && arrival > 0) {
    metrics_.ordering_wait_ms.observe(to_ms(now - arrival));
  }
  const Timestamp ts = h.message_timestamp;
  const Timestamp stable = stable_timestamp();
  metrics_.stability_lag.observe(ts > stable ? double(ts - stable) : 0.0);
  metrics_.ordered_delivered.add();
}

void Romp::mark_consumed(ProcessorId src, SeqNum seq) {
  SeqNum& up_to = consumed_up_to_[src];
  if (seq != up_to + 1) {
    if (seq > up_to) consumed_ahead_[src].insert(seq);
    return;
  }
  up_to = seq;
  auto& ahead = consumed_ahead_[src];
  auto it = ahead.begin();
  while (it != ahead.end() && *it == up_to + 1) {
    up_to = *it;
    it = ahead.erase(it);
  }
}

SeqNum Romp::consumed_up_to(ProcessorId src) const {
  auto it = consumed_up_to_.find(src);
  return it == consumed_up_to_.end() ? 0 : it->second;
}

void Romp::on_heartbeat(const Header& header, SeqNum contiguous_seq) {
  observe_header(header);
  if (header.sequence_number == contiguous_seq) {
    Timestamp& b = bounds_[header.source];
    b = std::max(b, header.message_timestamp);
  }
}

SeqNum Romp::last_ordered_seq(ProcessorId src) const {
  auto it = last_ordered_.find(src);
  return it == last_ordered_.end() ? 0 : it->second;
}

Timestamp Romp::stable_timestamp() const {
  Timestamp acc = ~Timestamp{0};
  for (ProcessorId q : members_) {
    auto it = last_acks_.find(q);
    acc = std::min(acc, it == last_acks_.end() ? 0 : it->second);
  }
  return members_.empty() ? 0 : acc;
}

Timestamp Romp::last_ack(ProcessorId q) const {
  auto it = last_acks_.find(q);
  return it == last_acks_.end() ? 0 : it->second;
}

std::vector<std::pair<ProcessorId, SeqNum>> Romp::collect_stable() {
  std::vector<std::pair<ProcessorId, SeqNum>> out;
  const Timestamp stable = stable_timestamp();
  if (stable <= last_stable_) return out;
  last_stable_ = stable;
  for (auto& [src, by_ts] : unstable_) {
    // Find the largest timestamp <= stable; everything up to its seq is
    // reclaimable.
    auto it = by_ts.upper_bound(stable);
    if (it == by_ts.begin()) continue;
    --it;
    out.emplace_back(src, it->second);
    by_ts.erase(by_ts.begin(), std::next(it));
    metrics_.stability_releases.add();
  }
  return out;
}

}  // namespace ftcorba::ftmp
