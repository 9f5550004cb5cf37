// udp_multicast.hpp — real IP-Multicast transport over POSIX UDP sockets
// (DESIGN.md S3). The paper's FTMP "operates over IP Multicast"; this class
// provides exactly that substrate for deployments, while tests/benches use
// the deterministic SimNetwork. Both drive the same sans-IO protocol
// stacks.
//
// Address scheme: McastAddress raw value a maps to the administratively
// scoped IPv4 group 239.192.((a >> 8) & 0xFF).(a & 0xFF), one UDP port for
// the whole fault-tolerance domain. One socket is opened per joined group,
// bound to the group address itself so the kernel demultiplexes groups for
// us.
//
// Receive path (docs/BUFFERS.md §1): the kernel writes datagrams into a
// scratch area the transport owns (one 64 KiB slot per datagram of a
// recvmmsg burst, allocated on first use and never zero-filled), and each
// datagram is then copied once into a pooled buffer of exactly its size.
// Retained messages therefore pin only their own bytes, not a 64 KiB
// arrival buffer each.
#pragma once

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/metrics.hpp"
#include "net/packet.hpp"

namespace ftcorba::net {

/// Thrown when a socket operation fails irrecoverably (errno text included).
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what) : std::runtime_error(what) {}
};

/// Blocking/poll-based UDP multicast endpoint.
class UdpMulticastTransport {
 public:
  struct Options {
    /// UDP port shared by every group of the domain.
    std::uint16_t port = 30551;
    /// Interface used for sending and joining (loopback works for
    /// same-host multi-process runs).
    std::string interface_ip = "127.0.0.1";
    /// Whether the sender receives its own multicasts (FTMP requires it:
    /// a member orders its own messages through the same path).
    bool loopback = true;
    /// IP TTL for multicasts (1 = link-local).
    int ttl = 1;
  };

  explicit UdpMulticastTransport(Options options);
  ~UdpMulticastTransport();

  UdpMulticastTransport(const UdpMulticastTransport&) = delete;
  UdpMulticastTransport& operator=(const UdpMulticastTransport&) = delete;

  /// Joins a multicast group; subsequent receive() calls can return
  /// datagrams addressed to it. Idempotent.
  void join(McastAddress addr);

  /// Leaves a group and closes its socket.
  void leave(McastAddress addr);

  /// Sends one datagram to the group address.
  void send(const Datagram& datagram);

  /// Sends a burst of datagrams with one sendmmsg(2) syscall on Linux
  /// (falls back to per-datagram send() elsewhere). The egress batching
  /// layer (docs/BATCHING.md) hands the driver several datagrams per drain;
  /// this collapses the per-datagram syscall cost the same way batching
  /// collapses per-datagram wire cost.
  void send_many(const std::vector<Datagram>& datagrams);

  /// Waits up to `timeout` for a datagram on any joined group.
  /// Returns std::nullopt on timeout.
  [[nodiscard]] std::optional<Datagram> receive(Duration timeout);

  /// Waits up to `timeout` for traffic, then drains up to `max_batch`
  /// datagrams per ready group socket with one recvmmsg(2) syscall each on
  /// Linux (single recv fallback elsewhere), each copied into a right-sized
  /// pooled buffer. Returns an empty vector on timeout.
  [[nodiscard]] std::vector<Datagram> receive_many(Duration timeout,
                                                   std::size_t max_batch = 16);

  /// Dotted-quad group IP for a McastAddress (exposed for logging/tests).
  [[nodiscard]] static std::string group_ip(McastAddress addr);

  /// The same group address as a host-order IPv4 value, computed without
  /// going through text (the send path's destination).
  [[nodiscard]] static std::uint32_t group_ipv4(McastAddress addr);

 private:
  /// One scratch slot holds any UDP datagram.
  static constexpr std::size_t kSlotBytes = 65536;

  int open_group_socket(McastAddress addr);
  /// Polls every joined group socket; false on timeout or EINTR.
  [[nodiscard]] bool wait_readable(Duration timeout);
  /// The receive scratch area, grown to at least `slots` slots.
  [[nodiscard]] std::uint8_t* scratch(std::size_t slots);
  /// Counts one received datagram and copies it out of the scratch area.
  [[nodiscard]] Datagram take_datagram(std::uint32_t addr,
                                       const std::uint8_t* data,
                                       std::size_t len);

  Options options_;
  int send_fd_ = -1;
  // Joined groups in join order: the poll set and each entry's group,
  // changed only by join and leave so every receive reuses them.
  std::vector<pollfd> fds_;
  std::vector<std::uint32_t> fd_addrs_;

  // Receive scratch: scratch_slots_ slots of kSlotBytes, allocated on the
  // first receive (never in the constructor or join) and left uninitialised.
  std::unique_ptr<std::uint8_t[]> scratch_;
  std::size_t scratch_slots_ = 0;
#ifdef __linux__
  // recvmmsg headers, one per scratch slot (built when the scratch grows).
  std::vector<iovec> recv_iovs_;
  std::vector<mmsghdr> recv_msgs_;
  // sendmmsg headers, kept across calls.
  std::vector<sockaddr_in> send_dests_;
  std::vector<iovec> send_iovs_;
  std::vector<mmsghdr> send_msgs_;
#endif

  // Process-global instruments (docs/METRICS.md).
  struct Instruments {
    metrics::CounterHandle datagrams_out;
    metrics::CounterHandle bytes_out;
    metrics::CounterHandle datagrams_in;
    metrics::CounterHandle bytes_in;
  };
  Instruments metrics_;
};

}  // namespace ftcorba::net
