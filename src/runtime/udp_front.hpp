// udp_front.hpp — binds a ShardedRuntime to real UDP IP-Multicast sockets:
// the way to run a stack over real sockets (examples/udp_demo.cpp).
//
// One poll drains the kernel with a recvmmsg burst into pooled buffers,
// ingests each datagram, ticks, drains the egress, and ends as every
// driver step does: Joins::transmit (ftmp/joins.hpp) joins what the stack
// subscribes to, leaves what it no longer lists, and then transmits the
// egress with sendmmsg bursts. Events stay queued in the runtime
// (ShardedRuntime::take_events).
#pragma once

#include <vector>

#include "common/clock.hpp"
#include "ftmp/joins.hpp"
#include "net/udp_multicast.hpp"
#include "runtime/shard.hpp"

namespace ftcorba::runtime {

/// Poll loop binding a ShardedRuntime to UdpMulticastTransport.
class ShardedUdpDriver {
 public:
  ShardedUdpDriver(ShardedRuntime& runtime,
                   net::UdpMulticastTransport::Options options,
                   std::size_t receive_batch = 64);

  /// One iteration: waits up to `max_wait` for traffic, ingests the burst,
  /// ticks, drains egress, then joins, leaves and transmits through
  /// Joins::transmit. Returns the number of datagrams ingested.
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
