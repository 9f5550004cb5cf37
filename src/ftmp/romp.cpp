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

void Romp::admit(ProcessorId member, SeqNum floor, Timestamp initial_bound) {
  members_.insert(member);
  Source& s = sources_[member];
  const Timestamp bound = std::max(s.bound, initial_bound);
  const Timestamp last_ack = s.last_ack;
  s = Source{};
  s.bound = bound;
  s.last_ack = last_ack;
  s.consumed_up_to = floor;
  if (initial_bound > 0) {
    // A joiner admitted at its AddProcessor's ordering point. Greet it, and
    // again once it is heard above the Add: if it started listening after
    // this greeting, that second one still reaches it.
    s.greet_above = initial_bound;
    owe_ack();
  }
}

void Romp::expel(ProcessorId member) {
  members_.erase(member);
  sources_.erase(member);
}

Timestamp Romp::ack_timestamp() const {
  Timestamp acc = clock_.latest();
  for (ProcessorId q : members_) acc = std::min(acc, bound(q));
  return acc;
}

Timestamp Romp::bound(ProcessorId q) const {
  auto it = sources_.find(q);
  return it == sources_.end() ? 0 : it->second.bound;
}

Timestamp Romp::min_bound() const {
  if (members_.empty()) return 0;
  Timestamp acc = ~Timestamp{0};
  for (ProcessorId q : members_) acc = std::min(acc, bound(q));
  return acc;
}

Romp::Source& Romp::observe_header(const Header& h) {
  clock_.witness(h.message_timestamp);
  Source& s = sources_[h.source];
  s.last_ack = std::max(s.last_ack, h.ack_timestamp);
  if (s.greet_above != 0 && h.message_timestamp > s.greet_above) {
    s.greet_above = 0;
    owe_ack();
  }
  return s;
}

void Romp::on_source_ordered(const Header& h) {
  Source& s = observe_header(h);
  s.bound = std::max(s.bound, h.message_timestamp);
  s.unstable[h.message_timestamp] = h.sequence_number;
  // Suspect/Membership and the other control messages are consumed on
  // arrival (Fig. 3: reliable, source-ordered, not totally ordered).
  if (!is_totally_ordered(h.type)) {
    mark_consumed(h.source, h.sequence_number);
  } else if (h.source != self_) {
    heard_ = std::max(heard_, h.message_timestamp);
    if (h.type != MessageType::kRegular) {
      urgent_ = std::max(urgent_, h.message_timestamp);
    }
  }
}

void Romp::note_delivered(const Header& h, TimePoint arrival, TimePoint now) {
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
  Source& s = sources_[src];
  if (seq != s.consumed_up_to + 1) {
    if (seq > s.consumed_up_to) s.consumed_ahead.insert(seq);
    return;
  }
  s.consumed_up_to = seq;
  auto it = s.consumed_ahead.begin();
  while (it != s.consumed_ahead.end() && *it == s.consumed_up_to + 1) {
    s.consumed_up_to = *it;
    it = s.consumed_ahead.erase(it);
  }
}

SeqNum Romp::consumed_up_to(ProcessorId src) const {
  auto it = sources_.find(src);
  return it == sources_.end() ? 0 : it->second.consumed_up_to;
}

void Romp::on_heartbeat(const Header& header, SeqNum contiguous_seq) {
  Source& s = observe_header(header);
  if (header.sequence_number == contiguous_seq) {
    s.bound = std::max(s.bound, header.message_timestamp);
  }
}

Timestamp Romp::stable_timestamp() const {
  Timestamp acc = ~Timestamp{0};
  for (ProcessorId q : members_) acc = std::min(acc, last_ack(q));
  return members_.empty() ? 0 : acc;
}

Timestamp Romp::last_ack(ProcessorId q) const {
  auto it = sources_.find(q);
  return it == sources_.end() ? 0 : it->second.last_ack;
}

std::vector<std::pair<ProcessorId, SeqNum>> Romp::collect_stable() {
  std::vector<std::pair<ProcessorId, SeqNum>> out;
  const Timestamp stable = stable_timestamp();
  if (stable <= last_stable_) return out;
  last_stable_ = stable;
  for (auto& [src, source] : sources_) {
    // Find the largest timestamp <= stable; everything up to its seq is
    // reclaimable.
    auto& by_ts = source.unstable;
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
