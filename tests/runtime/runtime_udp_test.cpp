// Real-UDP smoke for the runtime: two nodes sharing two groups over
// loopback IP multicast, exchanging ordered messages through
// ShardedUdpDriver (recvmmsg in, sendmmsg out), a node that multicasts in
// the poll that subscribes it, a one-thread fleet of three that pauses as a
// whole, and a rebind that leaves its retired address. Environments without
// loopback multicast skip gracefully.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "runtime/udp_front.hpp"

namespace ftcorba::runtime {
namespace {

constexpr FtDomainId kDomain{1};
constexpr McastAddress kDomainAddr{0x0200};
constexpr std::uint16_t kPort = 32007;

ConnectionId test_conn() {
  return ConnectionId{FtDomainId{1}, ObjectGroupId{10}, FtDomainId{1},
                      ObjectGroupId{20}};
}

// Two nodes share two groups: one stack per node serves both, and each
// node delivers the message sent in each group.
TEST(RuntimeUdp, TwoNodesSharingTwoGroupsConvergeOverLoopbackMulticast) {
  ftmp::Config cfg;
  cfg.fault_timeout = 30 * kSecond;

  ShardedRuntime a(ProcessorId{1}, kDomain, kDomainAddr, cfg);
  ShardedRuntime b(ProcessorId{2}, kDomain, kDomainAddr, cfg);
  const std::vector<ProcessorId> members{ProcessorId{1}, ProcessorId{2}};
  const TimePoint t0 = wall_now();
  for (std::uint32_t g = 1; g <= 2; ++g) {
    for (ShardedRuntime* node : {&a, &b}) {
      node->stack(0).create_group(t0, ProcessorGroupId{g},
                                  McastAddress{0x0300 + g}, members);
    }
  }

  net::UdpMulticastTransport::Options options;
  options.port = kPort;
  try {
    ShardedUdpDriver drv_a(a, options);
    ShardedUdpDriver drv_b(b, options);

    for (std::uint32_t g = 1; g <= 2; ++g) {
      ASSERT_TRUE(b.stack(0).group(ProcessorGroupId{g})
                      ->send_regular(wall_now(), test_conn(), g,
                                     bytes_of("udp-g" + std::to_string(g))));
    }

    std::size_t received = 0;
    std::vector<ProcessorGroupId> delivered_a, delivered_b;
    const auto collect = [](ShardedRuntime& node,
                            std::vector<ProcessorGroupId>& groups) {
      for (const ftmp::Event& ev : node.take_events()) {
        if (const auto* m = std::get_if<ftmp::DeliveredMessage>(&ev)) {
          groups.push_back(m->group);
        }
      }
    };
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    while ((delivered_a.size() < 2 || delivered_b.size() < 2) &&
           std::chrono::steady_clock::now() < deadline) {
      received += drv_a.poll_once(2 * kMillisecond);
      received += drv_b.poll_once(2 * kMillisecond);
      collect(a, delivered_a);
      collect(b, delivered_b);
    }
    if (received == 0) {
      GTEST_SKIP() << "multicast loopback not functional in this environment";
    }
    std::sort(delivered_a.begin(), delivered_a.end());
    std::sort(delivered_b.begin(), delivered_b.end());
    const std::vector<ProcessorGroupId> both{ProcessorGroupId{1},
                                             ProcessorGroupId{2}};
    EXPECT_EQ(delivered_a, both) << "the receiver must deliver in both groups";
    EXPECT_EQ(delivered_b, both) << "the sender's own copies loop back";
  } catch (const net::TransportError& e) {
    GTEST_SKIP() << "UDP multicast unavailable: " << e.what();
  }
}

std::uint64_t counter(const std::string& name) {
  for (const metrics::Sample& s : metrics::snapshot()) {
    if (s.name == name) return s.counter;
  }
  return 0;
}

// A node creates a group and multicasts on it before the driver's next
// poll. The poll must join the group address before it sends: a datagram
// sent first never loops back, and the node then probes for it after
// kAckDelay and NACKs it. Here the own copy arrives: no probe, no NACK, no
// retransmission.
TEST(RuntimeUdp, CreateAndSendInOnePollGetsTheOwnCopyBack) {
  ftmp::Config cfg;
  cfg.fault_timeout = 30 * kSecond;
  ShardedRuntime node(ProcessorId{1}, kDomain, kDomainAddr, cfg);
  constexpr ProcessorGroupId kGroup{1};

  net::UdpMulticastTransport::Options options;
  options.port = 32011;
  try {
    ShardedUdpDriver drv(node, options);
    const std::uint64_t probes = counter("ftmp_rmp_own_gap_probes_total");
    const TimePoint t0 = wall_now();
    node.stack(0).create_group(t0, kGroup, McastAddress{0x0311}, {ProcessorId{1}});
    ftmp::GroupSession* session = node.stack(0).group(kGroup);
    ASSERT_NE(session, nullptr);
    ASSERT_TRUE(session->send_regular(t0, test_conn(), 1, bytes_of("first")));

    std::size_t received = 0;
    bool delivered = false;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!delivered && std::chrono::steady_clock::now() < deadline) {
      received += drv.poll_once(2 * kMillisecond);
      for (const ftmp::Event& ev : node.take_events()) {
        delivered = delivered || std::holds_alternative<ftmp::DeliveredMessage>(ev);
      }
    }
    if (received == 0) {
      GTEST_SKIP() << "multicast loopback not functional in this environment";
    }
    EXPECT_TRUE(delivered);
    EXPECT_EQ(session->rmp().stats().nacks_sent.value(), 0u);
    EXPECT_EQ(session->rmp().stats().retransmissions_sent.value(), 0u);
#if FTCORBA_METRICS_ENABLED
    EXPECT_EQ(counter("ftmp_rmp_own_gap_probes_total"), probes);
#else
    (void)probes;
#endif
  } catch (const net::TransportError& e) {
    GTEST_SKIP() << "UDP multicast unavailable: " << e.what();
  }
}

// One thread polls three default-config members in turn, as
// perfbench and udp_demo do. When the whole process pauses for three fault
// timeouts, every detector sleeps through the same silence it would
// otherwise count against the others: the pause must convict nobody.
TEST(RuntimeUdp, FleetWidePauseConvictsNobody) {
  const ftmp::Config cfg;
  constexpr ProcessorGroupId kGroup{1};
  const std::vector<ProcessorId> members{ProcessorId{1}, ProcessorId{2},
                                         ProcessorId{3}};
  std::vector<std::unique_ptr<ShardedRuntime>> nodes;
  const TimePoint t0 = wall_now();
  for (ProcessorId p : members) {
    nodes.push_back(std::make_unique<ShardedRuntime>(p, kDomain, kDomainAddr, cfg));
    nodes.back()->stack(0).create_group(t0, kGroup, McastAddress{0x0313}, members);
  }

  net::UdpMulticastTransport::Options options;
  options.port = 32013;
  try {
    std::vector<std::unique_ptr<ShardedUdpDriver>> drivers;
    for (auto& node : nodes) {
      drivers.push_back(std::make_unique<ShardedUdpDriver>(*node, options));
    }
    const std::uint64_t suspicions = counter("ftmp_pgmp_suspicions_total");
    std::size_t received = 0;
    std::size_t fault_views = 0;
    const auto run = [&](std::chrono::milliseconds span) {
      const auto until = std::chrono::steady_clock::now() + span;
      while (std::chrono::steady_clock::now() < until) {
        for (std::size_t i = 0; i < drivers.size(); ++i) {
          received += drivers[i]->poll_once(0);
          for (const ftmp::Event& ev : nodes[i]->take_events()) {
            const auto* view = std::get_if<ftmp::MembershipChanged>(&ev);
            if (view && view->reason == ftmp::MembershipChanged::Reason::kFault) {
              ++fault_views;
            }
          }
        }
      }
    };
    run(std::chrono::milliseconds(300));
    std::this_thread::sleep_for(std::chrono::nanoseconds(3 * cfg.fault_timeout));
    run(std::chrono::seconds(1));
    if (received == 0) {
      GTEST_SKIP() << "multicast loopback not functional in this environment";
    }
    EXPECT_EQ(fault_views, 0u);
    for (const auto& node : nodes) {
      EXPECT_EQ(node->stack(0).group(kGroup)->membership().members, members)
          << "at " << to_string(node->stack(0).id());
    }
#if FTCORBA_METRICS_ENABLED
    EXPECT_EQ(counter("ftmp_pgmp_suspicions_total"), suspicions);
#else
    (void)suspicions;
#endif
  } catch (const net::TransportError& e) {
    GTEST_SKIP() << "UDP multicast unavailable: " << e.what();
  }
}

// A group rebound to a new address (§7) leaves the old one once its retire
// window closes, so the driver closes that socket: a stray datagram sent
// there afterwards never reaches the member, while one sent to the new
// address still does (and counts as malformed).
TEST(RuntimeUdp, RebindLeavesTheRetiredAddress) {
  const ftmp::Config cfg;
  ShardedRuntime node(ProcessorId{1}, kDomain, kDomainAddr, cfg);
  constexpr ProcessorGroupId kGroup{1};
  constexpr McastAddress kOldAddr{0x0315};
  constexpr McastAddress kNewAddr{0x0316};
  node.stack(0).create_group(wall_now(), kGroup, kOldAddr, {ProcessorId{1}});

  net::UdpMulticastTransport::Options options;
  options.port = 32015;
  try {
    ShardedUdpDriver drv(node, options);
    net::UdpMulticastTransport stray(options);  // joins nothing, only sends
    ftmp::GroupSession* session = node.stack(0).group(kGroup);
    ASSERT_NE(session, nullptr);
    std::size_t received = 0;
    const auto poll_for = [&](std::chrono::milliseconds span) {
      const auto until = std::chrono::steady_clock::now() + span;
      while (std::chrono::steady_clock::now() < until) {
        received += drv.poll_once(1 * kMillisecond);
      }
    };
    poll_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(node.stack(0).rebind_group(wall_now(), kGroup, kNewAddr));
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while ((session->address() != kNewAddr || session->retiring_address()) &&
           std::chrono::steady_clock::now() < deadline) {
      received += drv.poll_once(1 * kMillisecond);
    }
    poll_for(std::chrono::milliseconds(10));
    if (received == 0) {
      GTEST_SKIP() << "multicast loopback not functional in this environment";
    }
    ASSERT_EQ(session->address(), kNewAddr);
    ASSERT_FALSE(session->retiring_address().has_value());

    const auto& malformed = node.stack(0).stats().malformed_datagrams;
    const std::uint64_t before = malformed.value();
    stray.send(net::Datagram{kOldAddr, bytes_of("not ftmp")});
    poll_for(std::chrono::milliseconds(100));
    EXPECT_EQ(malformed.value(), before) << "the retired address was not left";

    stray.send(net::Datagram{kNewAddr, bytes_of("not ftmp")});
    const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (malformed.value() == before && std::chrono::steady_clock::now() < until) {
      (void)drv.poll_once(1 * kMillisecond);
    }
    EXPECT_EQ(malformed.value(), before + 1) << "the new address must still hear";
  } catch (const net::TransportError& e) {
    GTEST_SKIP() << "UDP multicast unavailable: " << e.what();
  }
}

}  // namespace
}  // namespace ftcorba::runtime
