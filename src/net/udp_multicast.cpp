#include "net/udp_multicast.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace ftcorba::net {

namespace {
[[noreturn]] void fail(const std::string& op) {
  throw TransportError(op + ": " + std::strerror(errno));
}

sockaddr_in group_sockaddr(McastAddress addr, std::uint16_t port) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(UdpMulticastTransport::group_ipv4(addr));
  return sa;
}
}  // namespace

std::string UdpMulticastTransport::group_ip(McastAddress addr) {
  const std::uint32_t raw = addr.raw();
  return "239.192." + std::to_string((raw >> 8) & 0xFF) + "." +
         std::to_string(raw & 0xFF);
}

std::uint32_t UdpMulticastTransport::group_ipv4(McastAddress addr) {
  return (239u << 24) | (192u << 16) | (addr.raw() & 0xFFFFu);
}

UdpMulticastTransport::UdpMulticastTransport(Options options)
    : options_(std::move(options)) {
  metrics_.datagrams_out = metrics::counter(
      "net_udp_datagrams_out_total", "Datagrams sent on the UDP multicast driver",
      "datagrams", "net");
  metrics_.bytes_out = metrics::counter(
      "net_udp_bytes_out_total", "Bytes sent on the UDP multicast driver",
      "bytes", "net");
  metrics_.datagrams_in = metrics::counter(
      "net_udp_datagrams_in_total",
      "Datagrams received on the UDP multicast driver", "datagrams", "net");
  metrics_.bytes_in = metrics::counter(
      "net_udp_bytes_in_total", "Bytes received on the UDP multicast driver",
      "bytes", "net");
  send_fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (send_fd_ < 0) fail("socket(send)");

  in_addr iface{};
  if (::inet_pton(AF_INET, options_.interface_ip.c_str(), &iface) != 1) {
    ::close(send_fd_);
    throw TransportError("bad interface ip: " + options_.interface_ip);
  }
  if (::setsockopt(send_fd_, IPPROTO_IP, IP_MULTICAST_IF, &iface, sizeof(iface)) < 0) {
    int saved = errno;
    ::close(send_fd_);
    errno = saved;
    fail("setsockopt(IP_MULTICAST_IF)");
  }
  const unsigned char ttl = static_cast<unsigned char>(options_.ttl);
  (void)::setsockopt(send_fd_, IPPROTO_IP, IP_MULTICAST_TTL, &ttl, sizeof(ttl));
  const unsigned char loop = options_.loopback ? 1 : 0;
  (void)::setsockopt(send_fd_, IPPROTO_IP, IP_MULTICAST_LOOP, &loop, sizeof(loop));
}

UdpMulticastTransport::~UdpMulticastTransport() {
  if (send_fd_ >= 0) ::close(send_fd_);
  for (const pollfd& p : fds_) ::close(p.fd);
}

int UdpMulticastTransport::open_group_socket(McastAddress addr) {
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) fail("socket(recv)");
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
#ifdef SO_REUSEPORT
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
#endif

  // Bind to the group address itself so this socket only sees this group.
  const sockaddr_in bind_addr = group_sockaddr(addr, options_.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&bind_addr),
             sizeof(bind_addr)) < 0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    fail("bind(group)");
  }

  ip_mreq mreq{};
  mreq.imr_multiaddr = bind_addr.sin_addr;
  if (::inet_pton(AF_INET, options_.interface_ip.c_str(), &mreq.imr_interface) != 1) {
    ::close(fd);
    throw TransportError("bad interface ip");
  }
  if (::setsockopt(fd, IPPROTO_IP, IP_ADD_MEMBERSHIP, &mreq, sizeof(mreq)) < 0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    fail("setsockopt(IP_ADD_MEMBERSHIP)");
  }
  return fd;
}

void UdpMulticastTransport::join(McastAddress addr) {
  if (std::find(fd_addrs_.begin(), fd_addrs_.end(), addr.raw()) !=
      fd_addrs_.end()) {
    return;
  }
  fds_.push_back(pollfd{open_group_socket(addr), POLLIN, 0});
  fd_addrs_.push_back(addr.raw());
}

void UdpMulticastTransport::leave(McastAddress addr) {
  auto it = std::find(fd_addrs_.begin(), fd_addrs_.end(), addr.raw());
  if (it == fd_addrs_.end()) return;
  const auto i = it - fd_addrs_.begin();
  ::close(fds_[std::size_t(i)].fd);
  fds_.erase(fds_.begin() + i);
  fd_addrs_.erase(it);
}

void UdpMulticastTransport::send(const Datagram& datagram) {
  const sockaddr_in dest = group_sockaddr(datagram.addr, options_.port);
  const ssize_t n =
      ::sendto(send_fd_, datagram.payload.data(), datagram.payload.size(), 0,
               reinterpret_cast<const sockaddr*>(&dest), sizeof(dest));
  if (n < 0) fail("sendto");
  metrics_.datagrams_out.add();
  metrics_.bytes_out.add(static_cast<std::uint64_t>(n));
}

void UdpMulticastTransport::send_many(const std::vector<Datagram>& datagrams) {
  if (datagrams.empty()) return;
#ifdef __linux__
  // One syscall for the whole burst: each message carries its own
  // destination group address on the shared send socket.
  const std::size_t count = datagrams.size();
  send_dests_.resize(count);
  send_iovs_.resize(count);
  send_msgs_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    send_dests_[i] = group_sockaddr(datagrams[i].addr, options_.port);
    send_iovs_[i].iov_base = const_cast<std::uint8_t*>(datagrams[i].payload.data());
    send_iovs_[i].iov_len = datagrams[i].payload.size();
    send_msgs_[i] = mmsghdr{};
    send_msgs_[i].msg_hdr.msg_name = &send_dests_[i];
    send_msgs_[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
    send_msgs_[i].msg_hdr.msg_iov = &send_iovs_[i];
    send_msgs_[i].msg_hdr.msg_iovlen = 1;
  }
  std::size_t sent = 0;
  while (sent < count) {
    const int n = ::sendmmsg(send_fd_, send_msgs_.data() + sent,
                             static_cast<unsigned>(count - sent), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("sendmmsg");
    }
    for (int i = 0; i < n; ++i) {
      metrics_.datagrams_out.add();
      metrics_.bytes_out.add(send_msgs_[sent + std::size_t(i)].msg_len);
    }
    sent += static_cast<std::size_t>(n);
  }
#else
  for (const Datagram& d : datagrams) send(d);
#endif
}

bool UdpMulticastTransport::wait_readable(Duration timeout) {
  // poll(2) counts whole milliseconds: round up, so only 0 does not wait.
  const int timeout_ms = static_cast<int>(
      (std::max<Duration>(0, timeout) + kMillisecond - 1) / kMillisecond);
  const int ready = ::poll(fds_.data(), fds_.size(), timeout_ms);
  if (ready < 0) {
    if (errno == EINTR) return false;
    fail("poll");
  }
  return ready > 0;
}

std::uint8_t* UdpMulticastTransport::scratch(std::size_t slots) {
  if (scratch_slots_ < slots) {
    // Left uninitialised: zero-filling would touch every page up front,
    // while the kernel only writes as much of a slot as a datagram needs.
    scratch_ = std::make_unique_for_overwrite<std::uint8_t[]>(slots * kSlotBytes);
    scratch_slots_ = slots;
#ifdef __linux__
    recv_iovs_.resize(slots);
    recv_msgs_.resize(slots);
    for (std::size_t m = 0; m < slots; ++m) {
      recv_iovs_[m].iov_base = scratch_.get() + m * kSlotBytes;
      recv_iovs_[m].iov_len = kSlotBytes;
      recv_msgs_[m] = mmsghdr{};
      recv_msgs_[m].msg_hdr.msg_iov = &recv_iovs_[m];
      recv_msgs_[m].msg_hdr.msg_iovlen = 1;
    }
#endif
  }
  return scratch_.get();
}

Datagram UdpMulticastTransport::take_datagram(std::uint32_t addr,
                                              const std::uint8_t* data,
                                              std::size_t len) {
  metrics_.datagrams_in.add();
  metrics_.bytes_in.add(len);
  // The one copy on the receive path: a pooled buffer of exactly `len`
  // bytes, which every later layer slices without copying.
  return Datagram{McastAddress{addr}, SharedBytes::copy_of({data, len})};
}

std::vector<Datagram> UdpMulticastTransport::receive_many(Duration timeout,
                                                          std::size_t max_batch) {
  std::vector<Datagram> out;
  if (fds_.empty() || max_batch == 0 || !wait_readable(timeout)) return out;
#ifdef __linux__
  std::uint8_t* area = scratch(max_batch);
#else
  std::uint8_t* area = scratch(1);
#endif
  for (std::size_t i = 0; i < fds_.size(); ++i) {
    if (!(fds_[i].revents & POLLIN)) continue;
#ifdef __linux__
    // Drain the socket with one syscall into the scratch slots.
    const int n = ::recvmmsg(fds_[i].fd, recv_msgs_.data(),
                             static_cast<unsigned>(max_batch), MSG_DONTWAIT,
                             nullptr);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      fail("recvmmsg");
    }
    for (int m = 0; m < n; ++m) {
      out.push_back(take_datagram(fd_addrs_[i], area + std::size_t(m) * kSlotBytes,
                                  recv_msgs_[std::size_t(m)].msg_len));
    }
#else
    const ssize_t n = ::recv(fds_[i].fd, area, kSlotBytes, 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EINTR) continue;
      fail("recv");
    }
    out.push_back(take_datagram(fd_addrs_[i], area, static_cast<std::size_t>(n)));
#endif
  }
  return out;
}

}  // namespace ftcorba::net
