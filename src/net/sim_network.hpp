// sim_network.hpp — a deterministic discrete-event model of an IP-multicast
// network.
//
// This is the substitute for the paper's LAN testbed (DESIGN.md S2): every
// protocol state machine in this repository is sans-IO, and in tests and
// benchmarks it is driven by this simulator, which provides:
//
//   * best-effort multicast fan-out to all subscribers of an address,
//     including local loopback to the sender (lossless, as on a real host);
//   * per-receiver independent packet loss, delay and jitter, duplication,
//     and reordering (jitter naturally reorders);
//   * crashes and network partitions, for fault-injection tests;
//   * full determinism: equal seeds yield byte-identical runs;
//   * wire statistics (packets/bytes sent, dropped, delivered) that the
//     benchmark harness reports as "network traffic".
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "net/packet.hpp"

namespace ftcorba::net {

/// Fault/latency model of every (sender, receiver) link. Individual links
/// can be overridden via SimNetwork::set_link.
struct LinkModel {
  /// Probability in [0,1] that a given receiver does not get a packet.
  double loss = 0.0;
  /// Probability in [0,1] that a receiver gets a packet twice.
  double duplicate = 0.0;
  /// Fixed one-way propagation + processing delay.
  Duration delay = 100 * kMicrosecond;
  /// Uniform extra delay in [0, jitter] added per packet per receiver.
  /// Jitter > delay gap between packets produces reordering.
  Duration jitter = 20 * kMicrosecond;
  /// Transmit bandwidth per sender in bits/s; 0 = infinite. Each sender's
  /// packets serialize onto its uplink (one transmission per multicast, as
  /// on a shared medium), which is what makes asymmetric protocols — e.g. a
  /// sequencer emitting a ticket per message — saturate realistically.
  double bandwidth_bps = 0;
  /// Fixed per-datagram transmit cost added to the uplink serialization
  /// time, independent of size — models per-packet overhead (interrupt,
  /// syscall, driver ring, inter-frame gap) that makes many small datagrams
  /// slower than one large one, which is exactly what egress batching
  /// (docs/BATCHING.md) trades against. 0 (default) adds nothing and, with
  /// bandwidth_bps == 0, leaves the uplink entirely unserialized so
  /// existing seeded runs are byte-identical.
  Duration per_packet_cost = 0;
  /// Gilbert–Elliott correlated-loss model. When `burst_loss` > 0 the link
  /// is a two-state Markov chain advanced once per packet: in the good
  /// state packets drop with probability `loss`, in the bad state with
  /// `burst_loss`; the chain enters the bad state with `burst_enter` and
  /// leaves it with `burst_exit` per packet. This produces the bursty,
  /// correlated loss real LANs exhibit (and uniform `loss` does not).
  /// burst_loss == 0 (default) disables the model and draws nothing extra
  /// from the link RNG, so existing seeded runs are byte-identical.
  double burst_loss = 0.0;
  double burst_enter = 0.0;  ///< P(good -> bad) per packet.
  double burst_exit = 0.0;   ///< P(bad -> good) per packet.
};

/// A packet due for delivery to one node.
struct Delivery {
  TimePoint at{};
  ProcessorId dest{};
  Datagram datagram;
};

/// Counters describing everything that crossed the simulated wire.
struct WireStats {
  std::uint64_t packets_sent = 0;      ///< send() calls (one per multicast).
  std::uint64_t bytes_sent = 0;        ///< payload bytes across send() calls.
  std::uint64_t receiver_deliveries = 0;  ///< per-receiver handed-up packets.
  std::uint64_t receiver_drops = 0;       ///< per-receiver losses (incl. partition/crash).
  std::uint64_t receiver_duplicates = 0;  ///< extra copies delivered.
};

/// Deterministic discrete-event IP-multicast simulator.
///
/// Usage pattern (see ftmp::SimHarness):
///   net.attach(p); net.subscribe(p, addr); ... net.unsubscribe(p, addr);
///   net.send(now, p, datagram);
///   while (auto d = net.pop_due(until)) { ...hand to stack d->dest... }
class SimNetwork {
 public:
  /// Creates a network with the given default link model; `seed` fixes all
  /// random choices (loss, jitter, duplication).
  explicit SimNetwork(LinkModel defaults = {}, std::uint64_t seed = 1);

  /// Registers a node. Idempotent.
  void attach(ProcessorId node);

  /// Marks a node crashed: packets from/to it vanish, its subscriptions
  /// stay, and it can be revived with `revive`.
  void crash(ProcessorId node);

  /// Clears the crashed flag.
  void revive(ProcessorId node);

  /// True if `node` is currently crashed.
  [[nodiscard]] bool crashed(ProcessorId node) const;

  /// Subscribes a node to a multicast address (IGMP join equivalent).
  void subscribe(ProcessorId node, McastAddress addr);

  /// Unsubscribes a node from a multicast address (IGMP leave equivalent):
  /// no later send to `addr` reaches it, its own loopback copy included.
  /// Deliveries already queued still arrive.
  void unsubscribe(ProcessorId node, McastAddress addr);

  /// Multicasts a datagram from `from` at time `now`. Fan-out, loss, delay
  /// and duplication are decided immediately (deterministically); resulting
  /// deliveries are queued. Loopback to the sender is lossless with minimal
  /// delay, as on a real host with IP_MULTICAST_LOOP.
  void send(TimePoint now, ProcessorId from, const Datagram& datagram);

  /// Splits the network: nodes in different cells cannot exchange packets.
  /// Each inner vector is one cell; nodes absent from every cell implicitly
  /// form one extra shared cell of their own — partitioning off a subset
  /// never silently black-holes the nodes you did not mention (they keep
  /// talking to each other, but to nobody inside a named cell). Pass {} to
  /// heal.
  void set_partition(const std::vector<std::vector<ProcessorId>>& cells);

  /// Heals any partition.
  void heal() { set_partition({}); }

  // ---- one-way (asymmetric) partitions ----
  // A directed block drops every packet `from` sends toward `to` while the
  // reverse direction keeps working — the asymmetric failure mode (half-dead
  // NICs, unidirectional switch faults) symmetric set_partition cannot
  // express. Blocks compose with set_partition: a pair is reachable only if
  // neither mechanism severs it.

  /// Blocks the directed (sender → receiver) pair. Idempotent.
  void block_link(ProcessorId from, ProcessorId to);

  /// Removes a directed block (no-op if absent).
  void unblock_link(ProcessorId from, ProcessorId to);

  /// Removes every directed block.
  void clear_blocked_links();

  /// True if the directed pair is currently blocked.
  [[nodiscard]] bool link_blocked(ProcessorId from, ProcessorId to) const;

  /// Convenience: blocks every directed pair from a member of `from_cell`
  /// toward a member of `to_cell` (a one-way partition cell). Undo with
  /// unblock_link / clear_blocked_links.
  void set_oneway_partition(const std::vector<ProcessorId>& from_cell,
                            const std::vector<ProcessorId>& to_cell);

  /// Overrides the link model for one directed (sender → receiver) pair.
  void set_link(ProcessorId from, ProcessorId to, LinkModel model);

  /// Drops every per-link override (the chaos engine recomputes the full
  /// override set from its active fault list after any change).
  void clear_link_overrides() { link_overrides_.clear(); }

  /// Time of the earliest queued delivery, if any.
  [[nodiscard]] std::optional<TimePoint> next_delivery_time() const;

  /// Pops the earliest delivery if it is due at or before `until`.
  [[nodiscard]] std::optional<Delivery> pop_due(TimePoint until);

  /// Wire statistics accumulated since construction (or reset_stats()).
  [[nodiscard]] const WireStats& stats() const { return stats_; }

  /// Zeroes the wire statistics.
  void reset_stats() { stats_ = {}; }

  /// Installs a wire tap invoked once per send() with the sender and the
  /// datagram (before loss is applied). Benches use it to account traffic
  /// per protocol message type.
  void set_tap(std::function<void(TimePoint, ProcessorId, const Datagram&)> tap) {
    tap_ = std::move(tap);
  }

 private:
  struct QueuedDelivery {
    TimePoint at;
    std::uint64_t tie;  // FIFO tie-break for equal timestamps (determinism).
    ProcessorId dest;
    Datagram datagram;
  };
  struct QueueOrder {
    bool operator()(const QueuedDelivery& a, const QueuedDelivery& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.tie > b.tie;
    }
  };
  struct PairHash {
    std::size_t operator()(const std::pair<std::uint32_t, std::uint32_t>& p) const {
      return std::hash<std::uint64_t>{}((std::uint64_t(p.first) << 32) | p.second);
    }
  };

  [[nodiscard]] const LinkModel& link(ProcessorId from, ProcessorId to) const;
  [[nodiscard]] bool reachable(ProcessorId from, ProcessorId to) const;
  [[nodiscard]] Rng& link_rng(ProcessorId from, ProcessorId to);
  void enqueue(TimePoint at, ProcessorId dest, const Datagram& d);

  LinkModel defaults_;
  Rng root_rng_;
  std::unordered_set<std::uint32_t> nodes_;
  std::unordered_set<std::uint32_t> crashed_;
  std::unordered_map<std::uint32_t, std::unordered_set<std::uint32_t>> subs_;  // addr -> nodes
  std::unordered_map<std::pair<std::uint32_t, std::uint32_t>, LinkModel, PairHash> link_overrides_;
  std::unordered_map<std::pair<std::uint32_t, std::uint32_t>, Rng, PairHash> link_rngs_;
  // Gilbert–Elliott per-directed-link burst state (true = bad state).
  std::unordered_map<std::pair<std::uint32_t, std::uint32_t>, bool, PairHash> ge_bad_;
  // Directed (sender, receiver) pairs severed by one-way partitions.
  std::unordered_set<std::uint64_t> blocked_links_;
  std::unordered_map<std::uint32_t, std::uint32_t> partition_cell_;  // node -> cell id
  std::unordered_map<std::uint32_t, TimePoint> uplink_free_at_;  // sender -> time
  bool partitioned_ = false;
  std::priority_queue<QueuedDelivery, std::vector<QueuedDelivery>, QueueOrder> queue_;
  std::uint64_t tie_counter_ = 0;
  WireStats stats_;

  // Process-global instruments mirroring WireStats (docs/METRICS.md);
  // unlike stats_, these aggregate across every SimNetwork in the process
  // and are reset via metrics::reset_all.
  struct Instruments {
    metrics::CounterHandle packets_sent;
    metrics::CounterHandle bytes_sent;
    metrics::CounterHandle deliveries;
    metrics::CounterHandle drops;
    metrics::CounterHandle duplicates;
  };
  Instruments metrics_;
  std::function<void(TimePoint, ProcessorId, const Datagram&)> tap_;
};

}  // namespace ftcorba::net
