// Unit tests for the mini-TCP channel behind the IIOP baseline.
#include <gtest/gtest.h>

#include "net/sim_network.hpp"
#include "orb/iiop_sim.hpp"

namespace ftcorba::orb {
namespace {

constexpr McastAddress kA{70};
constexpr McastAddress kB{71};
constexpr ProcessorId kPa{1};
constexpr ProcessorId kPb{2};

struct ChannelWorld {
  net::SimNetwork net;
  TcpSimEndpoint a{kA, kB};
  TcpSimEndpoint b{kB, kA};
  TimePoint now = 0;

  explicit ChannelWorld(net::LinkModel link = {}, std::uint64_t seed = 3)
      : net(link, seed) {
    net.attach(kPa);
    net.attach(kPb);
    net.subscribe(kPa, kA);
    net.subscribe(kPb, kB);
  }

  void pump() {
    for (net::Datagram& d : a.take_packets()) net.send(now, kPa, d);
    for (net::Datagram& d : b.take_packets()) net.send(now, kPb, d);
  }

  void run_for(Duration d) {
    const TimePoint until = now + d;
    while (now < until) {
      now += 1 * kMillisecond;
      while (auto delivery = net.pop_due(now)) {
        if (delivery->dest == kPa) {
          a.on_datagram(now, delivery->datagram.payload);
        } else {
          b.on_datagram(now, delivery->datagram.payload);
        }
        pump();
      }
      a.tick(now);
      b.tick(now);
      pump();
    }
  }
};

TEST(TcpSim, InOrderDelivery) {
  ChannelWorld w;
  for (int i = 0; i < 10; ++i) {
    w.a.send(w.now, bytes_of("msg" + std::to_string(i)));
  }
  w.pump();
  w.run_for(50 * kMillisecond);
  const auto got = w.b.take_delivered();
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(got[i], bytes_of("msg" + std::to_string(i)));
  }
  EXPECT_EQ(w.a.unacked(), 0u) << "cumulative acks must clear the window";
}

TEST(TcpSim, RecoversFromHeavyLoss) {
  net::LinkModel lossy;
  lossy.loss = 0.4;
  ChannelWorld w(lossy, /*seed=*/11);
  for (int i = 0; i < 20; ++i) {
    w.a.send(w.now, bytes_of(std::string("p").append(std::to_string(i))));
  }
  w.pump();
  w.run_for(3 * kSecond);
  const auto got = w.b.take_delivered();
  ASSERT_EQ(got.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(got[i], bytes_of(std::string("p").append(std::to_string(i))));
  }
}

TEST(TcpSim, BidirectionalTraffic) {
  ChannelWorld w;
  w.a.send(w.now, bytes_of("ping"));
  w.b.send(w.now, bytes_of("pong"));
  w.pump();
  w.run_for(50 * kMillisecond);
  EXPECT_EQ(w.b.take_delivered().size(), 1u);
  EXPECT_EQ(w.a.take_delivered().size(), 1u);
}

TEST(TcpSim, DuplicateSegmentsDeliveredOnce) {
  net::LinkModel dupy;
  dupy.duplicate = 0.8;
  ChannelWorld w(dupy, /*seed=*/5);
  for (int i = 0; i < 10; ++i) {
    w.a.send(w.now, bytes_of(std::string("d").append(std::to_string(i))));
  }
  w.pump();
  w.run_for(500 * kMillisecond);
  EXPECT_EQ(w.b.take_delivered().size(), 10u);
}

TEST(TcpSim, GarbageIgnored) {
  ChannelWorld w;
  w.a.on_datagram(w.now, bytes_of("not a segment"));
  w.a.send(w.now, bytes_of("still works"));
  w.pump();
  w.run_for(50 * kMillisecond);
  EXPECT_EQ(w.b.take_delivered().size(), 1u);
}

}  // namespace
}  // namespace ftcorba::orb
