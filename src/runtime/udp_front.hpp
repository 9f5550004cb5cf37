// udp_front.hpp — binds a ShardedRuntime to real UDP IP-Multicast sockets:
// the I/O front thread of the sharded runtime (docs/SHARDING.md).
//
// One loop iteration drains the kernel with a recvmmsg burst into pooled
// buffers, routes each datagram to its owning shard (header-only decode,
// zero-copy SPSC handoff), collects every shard's egress, brings the
// transport's group joins in line with the union of shard subscriptions,
// and then transmits the egress with sendmmsg bursts. The same loop works
// for the inline single-shard runtime, where it drives one Stack directly —
// the way to run a plain stack over real sockets (examples/udp_demo.cpp).
#pragma once

#include <vector>

#include "common/clock.hpp"
#include "ftmp/events.hpp"
#include "net/udp_multicast.hpp"
#include "runtime/shard.hpp"

namespace ftcorba::runtime {

/// Front-thread poll loop binding a ShardedRuntime to UdpMulticastTransport.
/// Single-threaded: the thread running poll_once/run_for is the runtime's
/// front thread.
class ShardedUdpDriver {
 public:
  ShardedUdpDriver(ShardedRuntime& runtime,
                   net::UdpMulticastTransport::Options options,
                   std::size_t receive_batch = 64);

  /// One iteration: waits up to `max_wait` for traffic, ingests the burst,
  /// ticks (inline mode), drains egress, syncs subscriptions and then
  /// transmits the egress. Returns the number of datagrams ingested.
  std::size_t poll_once(Duration max_wait);

  /// Runs poll_once until `wall` time has elapsed.
  void run_for(Duration wall);

  /// Drains events the runtime emitted since the last call.
  [[nodiscard]] std::vector<ftmp::Event> take_events();

  [[nodiscard]] net::UdpMulticastTransport& transport() { return transport_; }

 private:
  void sync_subscriptions();

  ShardedRuntime& runtime_;
  net::UdpMulticastTransport transport_;
  std::size_t receive_batch_;
  std::vector<McastAddress> joined_;
  std::vector<net::Datagram> egress_;  // reused drain scratch
};

}  // namespace ftcorba::runtime
