// udp_front.hpp — binds a ShardedRuntime to real UDP IP-Multicast sockets:
// the I/O front thread of the sharded runtime (docs/SHARDING.md).
//
// One poll drains the kernel with a recvmmsg burst into pooled buffers,
// routes each datagram to its owning shard (header-only decode, zero-copy
// SPSC handoff), ticks (inline mode), collects every shard's egress, and
// ends as every driver step does: Joins::transmit (ftmp/joins.hpp) joins
// the union of shard subscriptions, leaves what no shard lists any more,
// and then transmits the egress with sendmmsg bursts. The same loop works
// for the inline single-shard runtime, where it drives one Stack directly —
// the way to run a plain stack over real sockets (examples/udp_demo.cpp).
// Events stay queued in the runtime (ShardedRuntime::take_events).
#pragma once

#include <vector>

#include "common/clock.hpp"
#include "ftmp/joins.hpp"
#include "net/udp_multicast.hpp"
#include "runtime/shard.hpp"

namespace ftcorba::runtime {

/// Front-thread poll loop binding a ShardedRuntime to UdpMulticastTransport.
/// Single-threaded: the thread running poll_once is the runtime's front
/// thread.
class ShardedUdpDriver {
 public:
  ShardedUdpDriver(ShardedRuntime& runtime,
                   net::UdpMulticastTransport::Options options,
                   std::size_t receive_batch = 64);

  /// One iteration: waits up to `max_wait` for traffic, ingests the burst,
  /// ticks (inline mode), drains egress, then joins, leaves and transmits
  /// through Joins::transmit. Returns the number of datagrams ingested.
  std::size_t poll_once(Duration max_wait);

  [[nodiscard]] net::UdpMulticastTransport& transport() { return transport_; }

 private:
  ShardedRuntime& runtime_;
  net::UdpMulticastTransport transport_;
  std::size_t receive_batch_;
  ftmp::Joins joins_;
  std::vector<net::Datagram> egress_;  // reused drain scratch
};

}  // namespace ftcorba::runtime
