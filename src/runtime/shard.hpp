// shard.hpp — the runtime a member runs over real sockets: one
// single-threaded FTMP stack (DESIGN.md S8), whose driver-facing calls
// ShardedUdpDriver (udp_front.hpp) makes. Every call passes straight
// through to the Stack, so the bytes on the wire, the events and the
// counters are those of driving the Stack directly (pinned by
// tests/runtime/runtime_equivalence_test.cpp). The application reaches the
// control plane (create_group, open_connection, send, ...) through
// stack(0).
#pragma once

#include <chrono>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "ftmp/config.hpp"
#include "ftmp/events.hpp"
#include "ftmp/stack.hpp"
#include "net/packet.hpp"

namespace ftcorba::runtime {

/// Monotonic wall time as a TimePoint (nanoseconds): the time source of
/// ShardedUdpDriver.
[[nodiscard]] inline TimePoint wall_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64 finalizer: a stateless mix, identical across runs and
/// platforms.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One processor's Stack behind the calls a UDP driver step makes.
class ShardedRuntime {
 public:
  ShardedRuntime(ProcessorId self, FtDomainId domain, McastAddress domain_addr,
                 ftmp::Config config = {})
      : stack_(self, domain, domain_addr, config) {}

  /// Stack::on_datagram.
  void ingest(TimePoint now, const net::Datagram& datagram) {
    stack_.on_datagram(now, datagram);
  }

  /// Stack::tick.
  void tick(TimePoint now) { stack_.tick(now); }

  /// Appends Stack::take_packets to `out`.
  void drain_egress(std::vector<net::Datagram>& out) {
    std::vector<net::Datagram> packets = stack_.take_packets();
    out.insert(out.end(), std::make_move_iterator(packets.begin()),
               std::make_move_iterator(packets.end()));
  }

  /// Stack::take_events.
  [[nodiscard]] std::vector<ftmp::Event> take_events() {
    return stack_.take_events();
  }

  /// Stack::subscriptions (ascending, no duplicates).
  [[nodiscard]] std::vector<McastAddress> subscriptions() const {
    return stack_.subscriptions();
  }

  /// The stack. Index 0 is the only one; any other throws
  /// std::out_of_range.
  [[nodiscard]] ftmp::Stack& stack(std::size_t index) {
    if (index != 0) throw std::out_of_range("ShardedRuntime: one stack, index 0");
    return stack_;
  }

 private:
  ftmp::Stack stack_;
};

}  // namespace ftcorba::runtime
