// Unit tests for the deterministic simulated multicast network.
#include <gtest/gtest.h>

#include "net/sim_network.hpp"

namespace ftcorba::net {
namespace {

constexpr McastAddress kAddr{1};

Datagram make(BytesView payload) { return Datagram{kAddr, Bytes(payload.begin(), payload.end())}; }

std::vector<Delivery> drain(SimNetwork& net, TimePoint until) {
  std::vector<Delivery> out;
  while (auto d = net.pop_due(until)) out.push_back(std::move(*d));
  return out;
}

TEST(SimNetwork, MulticastFanOutIncludesLoopback) {
  SimNetwork net({}, 1);
  for (std::uint32_t i = 1; i <= 3; ++i) {
    net.attach(ProcessorId{i});
    net.subscribe(ProcessorId{i}, kAddr);
  }
  net.send(0, ProcessorId{1}, make(bytes_of("x")));
  auto deliveries = drain(net, 1 * kSecond);
  ASSERT_EQ(deliveries.size(), 3u);  // 2 receivers + sender loopback
  bool self_seen = false;
  for (const Delivery& d : deliveries) {
    if (d.dest == ProcessorId{1}) self_seen = true;
    EXPECT_EQ(d.datagram.payload, bytes_of("x"));
  }
  EXPECT_TRUE(self_seen);
}

TEST(SimNetwork, OnlySubscribersReceive) {
  SimNetwork net({}, 1);
  for (std::uint32_t i = 1; i <= 3; ++i) net.attach(ProcessorId{i});
  net.subscribe(ProcessorId{2}, kAddr);
  net.send(0, ProcessorId{1}, make(bytes_of("x")));
  auto deliveries = drain(net, 1 * kSecond);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].dest, ProcessorId{2});
}

TEST(SimNetwork, UnsubscribeStopsDeliveryIncludingLoopback) {
  SimNetwork net({}, 1);
  for (std::uint32_t i = 1; i <= 2; ++i) {
    net.attach(ProcessorId{i});
    net.subscribe(ProcessorId{i}, kAddr);
  }
  net.unsubscribe(ProcessorId{1}, kAddr);
  net.send(0, ProcessorId{1}, make(bytes_of("x")));
  auto deliveries = drain(net, 1 * kSecond);
  ASSERT_EQ(deliveries.size(), 1u) << "the sender left: no loopback copy";
  EXPECT_EQ(deliveries[0].dest, ProcessorId{2});

  net.unsubscribe(ProcessorId{2}, kAddr);
  net.send(0, ProcessorId{2}, make(bytes_of("y")));
  EXPECT_TRUE(drain(net, 1 * kSecond).empty());

  net.subscribe(ProcessorId{1}, kAddr);  // a join after a leave works again
  net.send(0, ProcessorId{1}, make(bytes_of("z")));
  deliveries = drain(net, 1 * kSecond);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].dest, ProcessorId{1});
}

TEST(SimNetwork, DeterministicWithSameSeed) {
  auto run = [](std::uint64_t seed) {
    LinkModel lossy;
    lossy.loss = 0.5;
    SimNetwork net(lossy, seed);
    for (std::uint32_t i = 1; i <= 4; ++i) {
      net.attach(ProcessorId{i});
      net.subscribe(ProcessorId{i}, kAddr);
    }
    std::vector<std::pair<TimePoint, std::uint32_t>> log;
    for (int k = 0; k < 20; ++k) {
      net.send(k * kMillisecond, ProcessorId{std::uint32_t(1 + (k % 4))},
               make(bytes_of("m")));
    }
    while (auto d = net.pop_due(10 * kSecond)) {
      log.emplace_back(d->at, d->dest.raw());
    }
    return log;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(SimNetwork, LossRateApproximatelyRespected) {
  LinkModel lossy;
  lossy.loss = 0.3;
  SimNetwork net(lossy, 3);
  net.attach(ProcessorId{1});
  net.attach(ProcessorId{2});
  net.subscribe(ProcessorId{2}, kAddr);
  const int n = 5000;
  for (int i = 0; i < n; ++i) net.send(i, ProcessorId{1}, make(bytes_of("p")));
  const auto deliveries = drain(net, 100 * kSecond);
  const double rate = 1.0 - double(deliveries.size()) / n;
  EXPECT_NEAR(rate, 0.3, 0.03);
}

TEST(SimNetwork, LoopbackIsLossless) {
  LinkModel lossy;
  lossy.loss = 1.0;  // everything to others lost
  SimNetwork net(lossy, 3);
  net.attach(ProcessorId{1});
  net.attach(ProcessorId{2});
  net.subscribe(ProcessorId{1}, kAddr);
  net.subscribe(ProcessorId{2}, kAddr);
  net.send(0, ProcessorId{1}, make(bytes_of("p")));
  auto deliveries = drain(net, 1 * kSecond);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].dest, ProcessorId{1});
}

TEST(SimNetwork, CrashStopsTraffic) {
  SimNetwork net({}, 1);
  net.attach(ProcessorId{1});
  net.attach(ProcessorId{2});
  net.subscribe(ProcessorId{1}, kAddr);
  net.subscribe(ProcessorId{2}, kAddr);
  net.crash(ProcessorId{2});
  net.send(0, ProcessorId{1}, make(bytes_of("a")));  // to 2: dropped
  net.send(0, ProcessorId{2}, make(bytes_of("b")));  // from 2: dropped entirely
  auto deliveries = drain(net, 1 * kSecond);
  ASSERT_EQ(deliveries.size(), 1u);  // only 1's loopback of "a"
  EXPECT_EQ(deliveries[0].dest, ProcessorId{1});
}

TEST(SimNetwork, InFlightPacketLostWhenDestCrashes) {
  SimNetwork net({}, 1);
  net.attach(ProcessorId{1});
  net.attach(ProcessorId{2});
  net.subscribe(ProcessorId{2}, kAddr);
  net.send(0, ProcessorId{1}, make(bytes_of("x")));
  net.crash(ProcessorId{2});  // after send, before delivery
  EXPECT_TRUE(drain(net, 1 * kSecond).empty());
}

TEST(SimNetwork, PartitionBlocksAcrossCells) {
  SimNetwork net({}, 1);
  for (std::uint32_t i = 1; i <= 4; ++i) {
    net.attach(ProcessorId{i});
    net.subscribe(ProcessorId{i}, kAddr);
  }
  net.set_partition({{ProcessorId{1}, ProcessorId{2}}, {ProcessorId{3}, ProcessorId{4}}});
  net.send(0, ProcessorId{1}, make(bytes_of("x")));
  auto deliveries = drain(net, 1 * kSecond);
  ASSERT_EQ(deliveries.size(), 2u);  // loopback + P2 only
  for (const Delivery& d : deliveries) {
    EXPECT_LE(d.dest.raw(), 2u);
  }
  net.heal();
  net.send(1 * kSecond, ProcessorId{1}, make(bytes_of("y")));
  EXPECT_EQ(drain(net, 2 * kSecond).size(), 4u);
}

// Regression: nodes not named in any partition cell used to be black-holed
// entirely. They must instead form one implicit shared "rest" cell: still
// talking to each other, severed from every named cell.
TEST(SimNetwork, PartitionUnlistedNodesFormRestCell) {
  SimNetwork net({}, 1);
  for (std::uint32_t i = 1; i <= 4; ++i) {
    net.attach(ProcessorId{i});
    net.subscribe(ProcessorId{i}, kAddr);
  }
  net.set_partition({{ProcessorId{1}, ProcessorId{2}}});  // 3, 4 unlisted
  net.send(0, ProcessorId{3}, make(bytes_of("x")));
  auto deliveries = drain(net, 1 * kSecond);
  ASSERT_EQ(deliveries.size(), 2u);  // loopback + P4; named cell unreachable
  for (const Delivery& d : deliveries) {
    EXPECT_GE(d.dest.raw(), 3u);
  }
  // And the named cell cannot reach the rest cell either.
  net.send(1 * kSecond, ProcessorId{1}, make(bytes_of("y")));
  deliveries = drain(net, 2 * kSecond);
  ASSERT_EQ(deliveries.size(), 2u);  // loopback + P2
  for (const Delivery& d : deliveries) {
    EXPECT_LE(d.dest.raw(), 2u);
  }
}

TEST(SimNetwork, OneWayBlockIsAsymmetric) {
  SimNetwork net({}, 1);
  net.attach(ProcessorId{1});
  net.attach(ProcessorId{2});
  net.subscribe(ProcessorId{1}, kAddr);
  net.subscribe(ProcessorId{2}, kAddr);
  net.block_link(ProcessorId{1}, ProcessorId{2});
  EXPECT_TRUE(net.link_blocked(ProcessorId{1}, ProcessorId{2}));
  EXPECT_FALSE(net.link_blocked(ProcessorId{2}, ProcessorId{1}));

  net.send(0, ProcessorId{1}, make(bytes_of("a")));  // 1 -> 2 severed
  auto deliveries = drain(net, 1 * kSecond);
  ASSERT_EQ(deliveries.size(), 1u);  // loopback only
  EXPECT_EQ(deliveries[0].dest, ProcessorId{1});

  net.send(1 * kSecond, ProcessorId{2}, make(bytes_of("b")));  // 2 -> 1 fine
  deliveries = drain(net, 2 * kSecond);
  EXPECT_EQ(deliveries.size(), 2u);  // loopback + P1

  net.unblock_link(ProcessorId{1}, ProcessorId{2});
  net.send(2 * kSecond, ProcessorId{1}, make(bytes_of("c")));
  EXPECT_EQ(drain(net, 3 * kSecond).size(), 2u);
}

TEST(SimNetwork, OneWayPartitionCellsBlockEveryDirectedPair) {
  SimNetwork net({}, 1);
  for (std::uint32_t i = 1; i <= 4; ++i) {
    net.attach(ProcessorId{i});
    net.subscribe(ProcessorId{i}, kAddr);
  }
  net.set_oneway_partition({ProcessorId{1}, ProcessorId{2}},
                           {ProcessorId{3}, ProcessorId{4}});
  net.send(0, ProcessorId{1}, make(bytes_of("x")));
  auto deliveries = drain(net, 1 * kSecond);
  ASSERT_EQ(deliveries.size(), 2u);  // loopback + P2; 3 and 4 unreachable
  for (const Delivery& d : deliveries) EXPECT_LE(d.dest.raw(), 2u);
  // Reverse direction untouched.
  net.send(1 * kSecond, ProcessorId{3}, make(bytes_of("y")));
  EXPECT_EQ(drain(net, 2 * kSecond).size(), 4u);
  net.clear_blocked_links();
  net.send(2 * kSecond, ProcessorId{1}, make(bytes_of("z")));
  EXPECT_EQ(drain(net, 3 * kSecond).size(), 4u);
}

// Gilbert–Elliott correlated loss: same mean loss as a uniform model but the
// drops must cluster into bursts, and the chain must stay deterministic.
TEST(SimNetwork, GilbertElliottLossIsBurstyAndDeterministic) {
  auto run = [](std::uint64_t seed) {
    LinkModel ge;
    ge.loss = 0.0;        // good state: lossless
    ge.burst_loss = 0.9;  // bad state: near-total loss
    ge.burst_enter = 0.02;
    ge.burst_exit = 0.2;
    SimNetwork net(ge, seed);
    net.attach(ProcessorId{1});
    net.attach(ProcessorId{2});
    net.subscribe(ProcessorId{2}, kAddr);
    const int n = 4000;
    std::vector<bool> delivered(n, false);
    for (int i = 0; i < n; ++i) {
      net.send(i * kMillisecond, ProcessorId{1},
               Datagram{kAddr, Bytes{std::uint8_t(i & 0xFF), std::uint8_t(i >> 8)}});
    }
    while (auto d = net.pop_due(3600 * kSecond)) {
      const int idx = d->datagram.payload[0] | (d->datagram.payload[1] << 8);
      delivered[idx] = true;
    }
    return delivered;
  };
  const auto a = run(11);
  EXPECT_EQ(a, run(11)) << "GE chain must be a pure function of the seed";

  // Mean loss for these parameters: pi_bad = enter/(enter+exit) ~ 0.091,
  // overall ~ 8.2%. Check it is in a loose band, then check burstiness: the
  // number of loss runs must be far below the count a uniform model yields.
  int losses = 0, runs = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a[i]) {
      ++losses;
      if (i == 0 || a[i - 1]) ++runs;
    }
  }
  EXPECT_GT(losses, 100);
  EXPECT_LT(losses, 900);
  // Uniform loss at the same rate would give runs ~= losses * (1 - p); a
  // bursty chain packs losses into few runs (mean run length 1/exit = 5).
  EXPECT_LT(runs * 3, losses) << "losses should cluster into bursts";
}

TEST(SimNetwork, DuplicationDeliversTwice) {
  LinkModel dup;
  dup.duplicate = 1.0;
  SimNetwork net(dup, 1);
  net.attach(ProcessorId{1});
  net.attach(ProcessorId{2});
  net.subscribe(ProcessorId{2}, kAddr);
  net.send(0, ProcessorId{1}, make(bytes_of("x")));
  EXPECT_EQ(drain(net, 1 * kSecond).size(), 2u);
}

TEST(SimNetwork, JitterCanReorder) {
  LinkModel jittery;
  jittery.delay = 1 * kMillisecond;
  jittery.jitter = 10 * kMillisecond;
  SimNetwork net(jittery, 5);
  net.attach(ProcessorId{1});
  net.attach(ProcessorId{2});
  net.subscribe(ProcessorId{2}, kAddr);
  for (int i = 0; i < 50; ++i) {
    net.send(i * 100 * kMicrosecond, ProcessorId{1},
             Datagram{kAddr, Bytes{static_cast<std::uint8_t>(i)}});
  }
  auto deliveries = drain(net, 10 * kSecond);
  ASSERT_EQ(deliveries.size(), 50u);
  bool reordered = false;
  for (std::size_t i = 1; i < deliveries.size(); ++i) {
    if (deliveries[i].datagram.payload[0] < deliveries[i - 1].datagram.payload[0]) {
      reordered = true;
    }
  }
  EXPECT_TRUE(reordered) << "with jitter >> send spacing some reordering is expected";
}

TEST(SimNetwork, StatsAccounting) {
  SimNetwork net({}, 1);
  net.attach(ProcessorId{1});
  net.attach(ProcessorId{2});
  net.subscribe(ProcessorId{2}, kAddr);
  net.send(0, ProcessorId{1}, make(bytes_of("abcd")));
  EXPECT_EQ(net.stats().packets_sent, 1u);
  EXPECT_EQ(net.stats().bytes_sent, 4u);
  EXPECT_EQ(net.stats().receiver_deliveries, 1u);
  net.reset_stats();
  EXPECT_EQ(net.stats().packets_sent, 0u);
}

TEST(SimNetwork, PerLinkOverride) {
  SimNetwork net({}, 1);
  for (std::uint32_t i = 1; i <= 3; ++i) {
    net.attach(ProcessorId{i});
    net.subscribe(ProcessorId{i}, kAddr);
  }
  LinkModel broken;
  broken.loss = 1.0;
  net.set_link(ProcessorId{1}, ProcessorId{2}, broken);
  net.send(0, ProcessorId{1}, make(bytes_of("x")));
  auto deliveries = drain(net, 1 * kSecond);
  ASSERT_EQ(deliveries.size(), 2u);  // loopback + P3; P2's link drops all
  for (const Delivery& d : deliveries) EXPECT_NE(d.dest, ProcessorId{2});
}

}  // namespace
}  // namespace ftcorba::net
