// shard.hpp — the sharded multi-core runtime (docs/SHARDING.md): N stack
// shards, each a complete single-threaded FTMP stack pinned to its own
// thread, with logical groups partitioned across shards by a stable demux
// key. An I/O front thread performs the header-only ingress decode, routes
// each frame to its owning shard over a bounded lock-free SPSC ring
// (spsc_ring.hpp) carrying ref-counted SharedBytes slices — zero copies,
// zero allocations per handoff — and collects egress datagrams from
// per-shard SPSC rings for batched transmission (sendmmsg via
// ShardedUdpDriver, udp_front.hpp).
//
// Two operating modes, selected by RuntimeConfig:
//
//   * Inline (shards == 1 and inline_single_shard, the default): no threads
//     are spawned, no rings are built, and every call passes straight
//     through to the single Stack. Behavior — bytes on the wire, events,
//     counters, determinism — is identical to driving the Stack directly;
//     the runtime layer is inert (pinned by
//     tests/runtime/runtime_equivalence_test.cpp).
//   * Threaded (shards > 1, or 1 shard with inline_single_shard off): one
//     thread per shard plus the caller acting as the I/O front thread.
//     Time comes from the host monotonic clock; the control-plane calls
//     (create_group, open_connection, serve_connections, ...) must complete
//     before start(). After start() the interaction surface is ingest /
//     drain_egress / take_events plus post_send for application traffic.
//
// Thread-safety contract: exactly one thread (the "front thread") may call
// ingest / drain_egress / tick / take_events. Any thread may call
// post_send / shard_stats / subscriptions.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/metrics.hpp"
#include "ftmp/config.hpp"
#include "ftmp/events.hpp"
#include "ftmp/stack.hpp"
#include "net/packet.hpp"
#include "runtime/spsc_ring.hpp"
#include "runtime/timer_wheel.hpp"

namespace ftcorba::runtime {

/// Monotonic wall time as a TimePoint (nanoseconds) — the time source of
/// the threaded mode and of ShardedUdpDriver.
[[nodiscard]] inline TimePoint wall_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64 finalizer — the demux hash. Deterministic across runs and
/// platforms, so a group's owning shard is a pure function of its id and
/// the shard count.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Runtime-layer configuration (the protocol itself is ftmp::Config).
struct RuntimeConfig {
  /// Number of stack shards. 1 (default) with inline_single_shard keeps the
  /// runtime a zero-cost passthrough around a single Stack.
  std::size_t shards = 1;

  /// When true (default) a 1-shard runtime runs inline on the caller's
  /// thread — no threads, no rings, deterministic. Benches force this off
  /// to measure the 1-shard row through the same threaded machinery as the
  /// multi-shard rows.
  bool inline_single_shard = true;

  /// How groups map to shards: kHash applies mix64 to the group id (stable,
  /// no state); kRoundRobin assigns shards in registration order
  /// (create_group / expect_join), giving exact balance for benchmarks.
  enum class Placement : std::uint8_t { kHash, kRoundRobin };
  Placement placement = Placement::kHash;

  /// Capacity of each shard's ingress frame ring (front -> shard). Threaded
  /// mode only: an inline runtime builds no rings.
  std::size_t ingress_ring_capacity = 4096;

  /// Ingress overflow policy: false (default) backpressures the front
  /// thread (yield-spin until the shard catches up, counted as stalls);
  /// true drops the frame like a congested NIC queue (counted as drops —
  /// RMP recovers via retransmission).
  bool drop_when_full = false;
};

/// Point-in-time counters for one shard (tests, benches, ftmp_inspect).
struct ShardStats {
  std::uint64_t frames_in = 0;        ///< frames popped and fed to the stack
  std::uint64_t delivered = 0;        ///< DeliveredMessage events emitted
  std::uint64_t egress_datagrams = 0; ///< datagrams pushed toward the front
  std::uint64_t ring_drops = 0;       ///< ingress frames dropped (drop_when_full)
  std::uint64_t ingress_stalls = 0;   ///< front backpressure waits on this shard
  std::uint64_t egress_stalls = 0;    ///< shard waits on a full egress ring
  std::uint64_t ticks = 0;            ///< timer-wheel fires (Stack::tick calls)
  std::size_t ingress_depth = 0;      ///< ingress ring occupancy snapshot
  std::size_t egress_depth = 0;       ///< egress ring occupancy snapshot
};

/// N stack shards behind one routing front. See the header comment for the
/// mode and threading contract.
class ShardedRuntime {
 public:
  ShardedRuntime(ProcessorId self, FtDomainId domain, McastAddress domain_addr,
                 ftmp::Config stack_config = {}, RuntimeConfig config = {});
  ~ShardedRuntime();

  ShardedRuntime(const ShardedRuntime&) = delete;
  ShardedRuntime& operator=(const ShardedRuntime&) = delete;

  [[nodiscard]] ProcessorId id() const { return self_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] bool inline_mode() const { return inline_mode_; }
  [[nodiscard]] bool running() const { return running_.load(std::memory_order_acquire); }

  // ---- control plane (inline mode: any time; threaded: before start) ----

  void create_group(TimePoint now, ProcessorGroupId group, McastAddress addr,
                    const std::vector<ProcessorId>& members);
  void expect_join(ProcessorGroupId group, McastAddress addr);
  bool add_processor(TimePoint now, ProcessorGroupId group, ProcessorId new_member);
  bool remove_processor(TimePoint now, ProcessorGroupId group, ProcessorId member);
  bool leave_group(TimePoint now, ProcessorGroupId group);
  bool rebind_group(TimePoint now, ProcessorGroupId group, McastAddress new_addr);
  void serve_connections(ProcessorGroupId group);
  void open_connection(TimePoint now, const ConnectionId& connection,
                       McastAddress server_domain_addr,
                       const std::vector<ProcessorId>& client_processors);

  /// Inline mode / stopped only (reads shard stack state).
  [[nodiscard]] bool connection_ready(const ConnectionId& connection) const;

  /// Sends a GIOP payload on a connection. Inline mode: synchronous, same
  /// result as Stack::send. Threaded: the send (payload copied once) is
  /// posted to the owning shard's command queue and picked up within one
  /// loop iteration; returns true if the runtime is running.
  bool send(TimePoint now, const ConnectionId& connection, RequestNum request_num,
            BytesView giop);

  // ---- lifecycle ----

  /// Spawns the shard threads (threaded mode; no-op inline). Idempotent.
  void start();

  /// Requests shutdown, lets every shard drain its ingress ring and command
  /// queue, keeps collecting egress while the threads wind down, joins
  /// them. Egress produced during the drain remains available via
  /// drain_egress. Idempotent; also called by the destructor.
  void stop();

  // ---- front-thread IO ----

  /// Routes one received datagram to its owning shard. Inline mode:
  /// synchronous Stack::on_datagram. Threaded: header-only decode for the
  /// demux key, then a zero-copy SPSC push (an FTMB batch is split here and
  /// each sub-frame routed independently, as slices of the arrival buffer).
  void ingest(TimePoint now, const net::Datagram& datagram);

  /// Inline mode: advances the single stack's timers (threaded shards tick
  /// themselves from their timer wheels; then this is a no-op).
  void tick(TimePoint now);

  /// Appends every produced datagram to `out` (per-shard egress rings in
  /// shard order; inline: Stack::take_packets).
  void drain_egress(std::vector<net::Datagram>& out);

  /// Drains upward events from every shard, shard order preserved within a
  /// shard (cross-shard interleaving is collection order).
  [[nodiscard]] std::vector<ftmp::Event> take_events();

  /// Union of every shard's current subscriptions.
  [[nodiscard]] std::vector<McastAddress> subscriptions() const;

  // ---- introspection ----

  /// The shard that owns `group` right now (route table, else demux hash).
  [[nodiscard]] std::size_t shard_of_group(ProcessorGroupId group) const;

  [[nodiscard]] ShardStats shard_stats(std::size_t shard) const;

  /// Sum of delivered counters across shards (cheap liveness probe for
  /// benches while the fleet is running).
  [[nodiscard]] std::uint64_t delivered_total() const;

  /// Direct access to a shard's stack — inline mode or stopped only.
  [[nodiscard]] ftmp::Stack& stack(std::size_t shard);

 private:
  struct Inbound {
    TimePoint now = 0;
    net::Datagram datagram;
  };

  // The front <-> shard handoff. Only a threaded runtime builds it: an
  // inline runtime never touches a ring, and their slots (4096 x 48 B
  // ingress + 8192 x 40 B egress at the defaults, 512 KiB) would be most
  // of what it allocates.
  struct Rings {
    Rings(std::size_t ingress_capacity, std::size_t egress_capacity)
        : ingress(ingress_capacity), egress(egress_capacity) {}

    SpscRing<Inbound> ingress;       // producer: front thread; consumer: shard
    SpscRing<net::Datagram> egress;  // producer: shard; consumer: front thread
  };

  struct Shard {
    std::unique_ptr<ftmp::Stack> stack;
    std::unique_ptr<Rings> rings;  // null in inline mode
    std::thread thread;

    // Command queue: application sends and late control ops, run on the
    // shard thread with its current time. Cold path, mutex-protected.
    std::mutex cmd_mu;
    std::vector<std::function<void(ftmp::Stack&, TimePoint)>> cmds;
    std::atomic<bool> has_cmds{false};

    // Event buffer (shard thread appends, front thread swaps out).
    std::mutex ev_mu;
    std::vector<ftmp::Event> events;

    // Published copy of the stack's subscriptions (shard thread refreshes
    // on tick; any thread reads under sub_mu).
    mutable std::mutex sub_mu;
    std::vector<McastAddress> subs;

    // ShardStats' counts, each added to by one side and readable from any
    // thread. The first kMetricShards shards register theirs under
    // per-shard names (docs/METRICS.md); both stall counts share one.
    metrics::Counter frames_in;         // shard thread (inline: front)
    metrics::Counter delivered;         // shard thread (inline: front)
    metrics::Counter egress_datagrams;  // shard thread (inline: front)
    metrics::Counter ring_drops;        // front thread
    metrics::Counter ingress_stalls;    // front thread
    metrics::Counter egress_stalls;     // shard thread
    metrics::Counter ticks;             // shard thread
    metrics::GaugeHandle m_depth;
  };

  // Route-table writers hold route_mu_ and bump route_gen_; the front
  // thread keeps a private copy refreshed when the generation moves.
  struct RouteTable {
    std::unordered_map<std::uint32_t, std::uint32_t> group_to_shard;
    std::map<ConnectionId, std::uint32_t> conn_to_shard;
    std::uint32_t serve_shard = 0;
  };

  [[nodiscard]] std::size_t default_shard(ProcessorGroupId group) const;
  std::size_t assign_group(ProcessorGroupId group);  // records + returns
  std::size_t assign_conn(const ConnectionId& conn);
  void refresh_route_cache() const;
  [[nodiscard]] std::size_t route_frame(const ftmp::HeaderView& hv,
                                        const net::Datagram& datagram);
  void enqueue(std::size_t shard, TimePoint now, net::Datagram d);
  void post(std::size_t shard, std::function<void(ftmp::Stack&, TimePoint)> fn);
  void shard_main(std::size_t index);
  void run_stack_step(Shard& sh, TimePoint now);

  ProcessorId self_;
  FtDomainId domain_;
  McastAddress domain_addr_;
  ftmp::Config stack_config_;
  RuntimeConfig config_;
  bool inline_mode_ = false;

  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex route_mu_;
  RouteTable routes_;
  std::uint32_t next_rr_shard_ = 0;  // kRoundRobin assignment cursor
  std::atomic<std::uint64_t> route_gen_{1};
  // Front-thread cache of the route table (single front thread contract).
  mutable RouteTable route_cache_;
  mutable std::uint64_t route_cache_gen_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::size_t> exited_{0};  // shards done with their loops

  // Egress collected while stop() joins the shard threads.
  std::vector<net::Datagram> parting_egress_;

  // Process-global aggregate instruments (docs/METRICS.md).
  metrics::CounterHandle m_routed_;
  metrics::CounterHandle m_split_subframes_;
  metrics::CounterHandle m_malformed_;
  metrics::CounterHandle m_drops_;
  metrics::CounterHandle m_stalls_;
  metrics::CounterHandle m_egress_;
  metrics::GaugeHandle m_shards_;
};

}  // namespace ftcorba::runtime
