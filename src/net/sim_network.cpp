#include "net/sim_network.hpp"

#include <algorithm>

namespace ftcorba::net {

SimNetwork::SimNetwork(LinkModel defaults, std::uint64_t seed)
    : defaults_(defaults), root_rng_(seed) {
  metrics_.packets_sent = metrics::counter(
      "net_packets_sent_total", "Datagrams handed to the simulated wire",
      "datagrams", "net");
  metrics_.bytes_sent = metrics::counter(
      "net_bytes_sent_total", "Payload bytes handed to the simulated wire",
      "bytes", "net");
  metrics_.deliveries = metrics::counter(
      "net_receiver_deliveries_total",
      "Per-receiver datagram deliveries (multicast fan-out counted per "
      "subscriber)",
      "datagrams", "net");
  metrics_.drops = metrics::counter(
      "net_receiver_drops_total",
      "Per-receiver drops: injected loss, partitions, crashed hosts",
      "datagrams", "net");
  metrics_.duplicates = metrics::counter(
      "net_receiver_duplicates_total", "Per-receiver injected duplicates",
      "datagrams", "net");
}

void SimNetwork::attach(ProcessorId node) { nodes_.insert(node.raw()); }

void SimNetwork::crash(ProcessorId node) { crashed_.insert(node.raw()); }

void SimNetwork::revive(ProcessorId node) { crashed_.erase(node.raw()); }

bool SimNetwork::crashed(ProcessorId node) const {
  return crashed_.contains(node.raw());
}

void SimNetwork::subscribe(ProcessorId node, McastAddress addr) {
  subs_[addr.raw()].insert(node.raw());
}

void SimNetwork::unsubscribe(ProcessorId node, McastAddress addr) {
  auto it = subs_.find(addr.raw());
  if (it != subs_.end()) it->second.erase(node.raw());
}

void SimNetwork::set_partition(const std::vector<std::vector<ProcessorId>>& cells) {
  partition_cell_.clear();
  partitioned_ = !cells.empty();
  std::uint32_t cell_id = 0;
  for (const auto& cell : cells) {
    for (ProcessorId p : cell) partition_cell_[p.raw()] = cell_id;
    ++cell_id;
  }
}

namespace {
constexpr std::uint64_t link_key(ProcessorId from, ProcessorId to) {
  return (std::uint64_t(from.raw()) << 32) | to.raw();
}
}  // namespace

void SimNetwork::block_link(ProcessorId from, ProcessorId to) {
  blocked_links_.insert(link_key(from, to));
}

void SimNetwork::unblock_link(ProcessorId from, ProcessorId to) {
  blocked_links_.erase(link_key(from, to));
}

void SimNetwork::clear_blocked_links() { blocked_links_.clear(); }

bool SimNetwork::link_blocked(ProcessorId from, ProcessorId to) const {
  return blocked_links_.contains(link_key(from, to));
}

void SimNetwork::set_oneway_partition(const std::vector<ProcessorId>& from_cell,
                                      const std::vector<ProcessorId>& to_cell) {
  for (ProcessorId f : from_cell) {
    for (ProcessorId t : to_cell) {
      if (f != t) block_link(f, t);
    }
  }
}

void SimNetwork::set_link(ProcessorId from, ProcessorId to, LinkModel model) {
  link_overrides_[{from.raw(), to.raw()}] = model;
}

const LinkModel& SimNetwork::link(ProcessorId from, ProcessorId to) const {
  auto it = link_overrides_.find({from.raw(), to.raw()});
  return it != link_overrides_.end() ? it->second : defaults_;
}

bool SimNetwork::reachable(ProcessorId from, ProcessorId to) const {
  if (crashed_.contains(from.raw()) || crashed_.contains(to.raw())) return false;
  if (blocked_links_.contains(link_key(from, to))) return false;
  if (!partitioned_) return true;
  // Nodes absent from every named cell implicitly share one extra cell, so a
  // partial set_partition never silently black-holes unmentioned nodes.
  constexpr std::uint32_t kRestCell = 0xFFFFFFFFu;
  auto a = partition_cell_.find(from.raw());
  auto b = partition_cell_.find(to.raw());
  const std::uint32_t cell_a = a != partition_cell_.end() ? a->second : kRestCell;
  const std::uint32_t cell_b = b != partition_cell_.end() ? b->second : kRestCell;
  return cell_a == cell_b;
}

Rng& SimNetwork::link_rng(ProcessorId from, ProcessorId to) {
  auto key = std::make_pair(from.raw(), to.raw());
  auto it = link_rngs_.find(key);
  if (it == link_rngs_.end()) {
    const std::uint64_t stream =
        (std::uint64_t(from.raw()) << 32) | std::uint64_t(to.raw());
    it = link_rngs_.emplace(key, root_rng_.split(stream)).first;
  }
  return it->second;
}

void SimNetwork::enqueue(TimePoint at, ProcessorId dest, const Datagram& d) {
  queue_.push(QueuedDelivery{at, tie_counter_++, dest, d});
}

void SimNetwork::send(TimePoint now, ProcessorId from, const Datagram& datagram) {
  stats_.packets_sent += 1;
  stats_.bytes_sent += datagram.payload.size();
  metrics_.packets_sent.add();
  metrics_.bytes_sent.add(datagram.payload.size());
  if (tap_) tap_(now, from, datagram);
  if (crashed_.contains(from.raw())) return;  // a crashed host emits nothing
  auto it = subs_.find(datagram.addr.raw());
  if (it == subs_.end()) return;

  // Uplink serialization: with finite bandwidth the packet leaves the
  // sender only when its previous transmissions have drained. One
  // transmission serves every receiver (multicast on a shared medium).
  TimePoint depart = now;
  const LinkModel& sender_model = link(from, from);
  if (sender_model.bandwidth_bps > 0 || sender_model.per_packet_cost > 0) {
    TimePoint& free_at = uplink_free_at_[from.raw()];
    depart = std::max(now, free_at);
    Duration tx_time = sender_model.per_packet_cost;
    if (sender_model.bandwidth_bps > 0) {
      tx_time += static_cast<Duration>(
          double(datagram.payload.size()) * 8.0 * double(kSecond) /
          sender_model.bandwidth_bps);
    }
    free_at = depart + tx_time;
    depart = free_at;
  }

  // Deterministic fan-out order: sorted receiver ids.
  std::vector<std::uint32_t> receivers(it->second.begin(), it->second.end());
  std::sort(receivers.begin(), receivers.end());

  for (std::uint32_t raw_dest : receivers) {
    const ProcessorId dest{raw_dest};
    if (dest == from) {
      // Host loopback: lossless, negligible delay.
      enqueue(depart + 1 * kMicrosecond, dest, datagram);
      stats_.receiver_deliveries += 1;
      metrics_.deliveries.add();
      continue;
    }
    if (!reachable(from, dest)) {
      stats_.receiver_drops += 1;
      metrics_.drops.add();
      continue;
    }
    const LinkModel& m = link(from, dest);
    Rng& rng = link_rng(from, dest);
    double p_loss = m.loss;
    if (m.burst_loss > 0) {
      // Gilbert–Elliott: advance the two-state chain once per packet. Gated
      // on burst_loss so default configs draw nothing extra from the RNG.
      bool& bad = ge_bad_[{from.raw(), dest.raw()}];
      bad = bad ? !rng.chance(m.burst_exit) : rng.chance(m.burst_enter);
      if (bad) p_loss = m.burst_loss;
    }
    if (rng.chance(p_loss)) {
      stats_.receiver_drops += 1;
      metrics_.drops.add();
      continue;
    }
    Duration extra = m.jitter > 0 ? rng.next_in(0, m.jitter) : 0;
    enqueue(depart + m.delay + extra, dest, datagram);
    stats_.receiver_deliveries += 1;
    metrics_.deliveries.add();
    if (rng.chance(m.duplicate)) {
      Duration extra2 = m.jitter > 0 ? rng.next_in(0, m.jitter) : 0;
      enqueue(depart + m.delay + extra2 + 1, dest, datagram);
      stats_.receiver_duplicates += 1;
      metrics_.duplicates.add();
    }
  }
}

std::optional<TimePoint> SimNetwork::next_delivery_time() const {
  if (queue_.empty()) return std::nullopt;
  return queue_.top().at;
}

std::optional<Delivery> SimNetwork::pop_due(TimePoint until) {
  if (queue_.empty() || queue_.top().at > until) return std::nullopt;
  const QueuedDelivery& top = queue_.top();
  Delivery out{top.at, top.dest, top.datagram};
  queue_.pop();
  // A packet already in flight toward a node that crashed meanwhile is lost.
  if (crashed_.contains(out.dest.raw()) || !nodes_.contains(out.dest.raw())) {
    stats_.receiver_drops += 1;
    stats_.receiver_deliveries -= 1;
    metrics_.drops.add();
    return pop_due(until);
  }
  return out;
}

}  // namespace ftcorba::net
