// Tests for the real UDP multicast transport. Environments without
// loopback multicast support (containers, sandboxes) skip gracefully.
#include <arpa/inet.h>
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "net/udp_multicast.hpp"

namespace ftcorba::net {
namespace {

constexpr McastAddress kAddr{0x0105};  // 239.192.1.5

TEST(UdpMulticast, GroupIpMapping) {
  EXPECT_EQ(UdpMulticastTransport::group_ip(McastAddress{0}), "239.192.0.0");
  EXPECT_EQ(UdpMulticastTransport::group_ip(McastAddress{0x0105}), "239.192.1.5");
  EXPECT_EQ(UdpMulticastTransport::group_ip(McastAddress{0xFFFF}), "239.192.255.255");
}

// The send path computes destinations arithmetically; it must name the
// same group as the dotted quad the logs print.
TEST(UdpMulticast, ComputedGroupAddressMatchesDottedQuad) {
  std::vector<McastAddress> addrs{McastAddress{0}, McastAddress{0x0105},
                                  McastAddress{0xFFFF}};
  Rng rng(0x9e0u);
  for (int i = 0; i < 64; ++i) {
    addrs.push_back(McastAddress{static_cast<std::uint32_t>(rng.next_u64())});
  }
  for (McastAddress a : addrs) {
    const std::string ip = UdpMulticastTransport::group_ip(a);
    in_addr parsed{};
    ASSERT_EQ(::inet_pton(AF_INET, ip.c_str(), &parsed), 1) << ip;
    EXPECT_EQ(parsed.s_addr, htonl(UdpMulticastTransport::group_ipv4(a)))
        << "raw " << a.raw() << " -> " << ip;
  }
}

TEST(UdpMulticast, LoopbackSendReceive) {
  UdpMulticastTransport::Options options;
  options.port = 31999;
  try {
    UdpMulticastTransport sender(options);
    UdpMulticastTransport receiver(options);
    receiver.join(kAddr);
    sender.send(Datagram{kAddr, bytes_of("over-the-wire")});
    // A couple of tries: the kernel may need a moment.
    for (int i = 0; i < 10; ++i) {
      auto got = receiver.receive(100 * kMillisecond);
      if (got) {
        EXPECT_EQ(got->addr, kAddr);
        EXPECT_EQ(got->payload, bytes_of("over-the-wire"));
        return;
      }
    }
    GTEST_SKIP() << "multicast loopback not functional in this environment";
  } catch (const TransportError& e) {
    GTEST_SKIP() << "UDP multicast unavailable: " << e.what();
  }
}

TEST(UdpMulticast, SelfLoopbackWhenEnabled) {
  UdpMulticastTransport::Options options;
  options.port = 32001;
  options.loopback = true;
  try {
    UdpMulticastTransport endpoint(options);
    endpoint.join(kAddr);
    endpoint.send(Datagram{kAddr, bytes_of("self")});
    for (int i = 0; i < 10; ++i) {
      auto got = endpoint.receive(100 * kMillisecond);
      if (got) {
        EXPECT_EQ(got->payload, bytes_of("self"));
        return;
      }
    }
    GTEST_SKIP() << "multicast loopback not functional in this environment";
  } catch (const TransportError& e) {
    GTEST_SKIP() << "UDP multicast unavailable: " << e.what();
  }
}

TEST(UdpMulticast, ReceiveTimesOutQuietly) {
  UdpMulticastTransport::Options options;
  options.port = 32003;
  try {
    UdpMulticastTransport endpoint(options);
    endpoint.join(kAddr);
    EXPECT_FALSE(endpoint.receive(10 * kMillisecond).has_value());
  } catch (const TransportError& e) {
    GTEST_SKIP() << "UDP multicast unavailable: " << e.what();
  }
}

// A burst of datagrams from 1 B to 60 000 B comes back intact, in order,
// each in a buffer of exactly its own size, at one pool acquisition per
// datagram and none for a call that finds nothing.
TEST(UdpMulticast, ReceiveManyBurst) {
  UdpMulticastTransport::Options options;
  options.port = 32009;
  const std::vector<std::size_t> sizes{1, 45, 100, 1400, 1500, 8192, 9000, 20000,
                                       60000};
  std::vector<Datagram> burst;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    Bytes payload(sizes[i]);
    for (std::size_t b = 0; b < payload.size(); ++b) {
      payload[b] = static_cast<std::uint8_t>(i * 31 + b * 7);
    }
    burst.push_back(Datagram{kAddr, std::move(payload)});
  }
  try {
    UdpMulticastTransport sender(options);
    UdpMulticastTransport receiver(options);
    receiver.join(kAddr);
    sender.send_many(burst);
    alloc_stats_reset();
    std::vector<Datagram> got;
    for (int i = 0; i < 50 && got.size() < burst.size(); ++i) {
      for (Datagram& d : receiver.receive_many(100 * kMillisecond, 64)) {
        got.push_back(std::move(d));
      }
    }
    if (got.empty()) {
      GTEST_SKIP() << "multicast loopback not functional in this environment";
    }
    ASSERT_EQ(got.size(), burst.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].addr, kAddr);
      EXPECT_EQ(got[i].payload.size(), sizes[i]) << "datagram " << i;
      EXPECT_EQ(got[i].payload, burst[i].payload) << "datagram " << i;
    }
    const AllocStats after = alloc_stats();
    EXPECT_EQ(after.fresh_buffers + after.pool_hits, burst.size());
    EXPECT_TRUE(receiver.receive_many(10 * kMillisecond, 64).empty());
    const AllocStats idle = alloc_stats();
    EXPECT_EQ(idle.fresh_buffers, after.fresh_buffers);
    EXPECT_EQ(idle.pool_hits, after.pool_hits);
  } catch (const TransportError& e) {
    GTEST_SKIP() << "UDP multicast unavailable: " << e.what();
  }
}

TEST(UdpMulticast, JoinLeaveIdempotent) {
  UdpMulticastTransport::Options options;
  options.port = 32005;
  try {
    UdpMulticastTransport endpoint(options);
    endpoint.join(kAddr);
    endpoint.join(kAddr);
    endpoint.leave(kAddr);
    endpoint.leave(kAddr);
  } catch (const TransportError& e) {
    GTEST_SKIP() << "UDP multicast unavailable: " << e.what();
  }
}

}  // namespace
}  // namespace ftcorba::net
