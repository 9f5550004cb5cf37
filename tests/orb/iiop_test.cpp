// Tests for the IIOP-like point-to-point path (mini-TCP + GIOP).
#include <gtest/gtest.h>

#include "net/sim_network.hpp"
#include "orb/iiop_sim.hpp"

namespace ftcorba::orb {
namespace {

constexpr McastAddress kClientInbox{60};
constexpr McastAddress kServerInbox{61};
constexpr ProcessorId kClient{1};
constexpr ProcessorId kServer{2};

class EchoServant : public Servant {
 public:
  giop::ReplyStatus invoke(const std::string& operation, giop::CdrReader& in,
                           giop::CdrWriter& out) override {
    if (operation == "echo") {
      out.string(in.string());
      return giop::ReplyStatus::kNoException;
    }
    return giop::ReplyStatus::kSystemException;
  }
};

struct IiopWorld {
  net::SimNetwork net;
  IiopEndpoint client{kClientInbox, kServerInbox};
  IiopEndpoint server{kServerInbox, kClientInbox};
  TimePoint now = 0;

  explicit IiopWorld(net::LinkModel link = {}, std::uint64_t seed = 9)
      : net(link, seed) {
    net.attach(kClient);
    net.attach(kServer);
    net.subscribe(kClient, kClientInbox);
    net.subscribe(kServer, kServerInbox);
    server.serve(ObjectKey{"echo"}, std::make_shared<EchoServant>());
  }

  void pump(IiopEndpoint& ep, ProcessorId id) {
    for (net::Datagram& d : ep.take_packets()) net.send(now, id, d);
  }

  void run_for(Duration d) {
    const TimePoint until = now + d;
    while (now < until) {
      now += 1 * kMillisecond;
      while (auto delivery = net.pop_due(now)) {
        if (delivery->dest == kClient) {
          client.on_datagram(now, delivery->datagram.payload);
        } else {
          server.on_datagram(now, delivery->datagram.payload);
        }
      }
      client.tick(now);
      server.tick(now);
      pump(client, kClient);
      pump(server, kServer);
    }
  }
};

TEST(Iiop, RequestReplyRoundTrip) {
  IiopWorld w;
  std::string result;
  giop::CdrWriter args;
  args.string("ping");
  w.client.invoke(w.now, ObjectKey{"echo"}, "echo", args,
                  [&](const giop::Reply& reply) {
                    giop::CdrReader r(reply.body);
                    result = r.string();
                  });
  w.pump(w.client, kClient);
  w.run_for(100 * kMillisecond);
  EXPECT_EQ(result, "ping");
  EXPECT_EQ(w.client.pending(), 0u);
}

TEST(Iiop, ManyRequestsInOrder) {
  IiopWorld w;
  std::vector<std::string> results;
  for (int i = 0; i < 20; ++i) {
    giop::CdrWriter args;
    args.string(std::string("m").append(std::to_string(i)));
    w.client.invoke(w.now, ObjectKey{"echo"}, "echo", args,
                    [&](const giop::Reply& reply) {
                      giop::CdrReader r(reply.body);
                      results.push_back(r.string());
                    });
    w.pump(w.client, kClient);
    w.run_for(2 * kMillisecond);
  }
  w.run_for(200 * kMillisecond);
  ASSERT_EQ(results.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(results[i], std::string("m").append(std::to_string(i)));
  }
}

TEST(Iiop, ReliableUnderLoss) {
  net::LinkModel lossy;
  lossy.loss = 0.3;
  IiopWorld w(lossy, /*seed=*/13);
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    giop::CdrWriter args;
    args.string("x");
    w.client.invoke(w.now, ObjectKey{"echo"}, "echo", args,
                    [&](const giop::Reply&) { ++completed; });
    w.pump(w.client, kClient);
  }
  w.run_for(5 * kSecond);
  EXPECT_EQ(completed, 10);
}

TEST(Iiop, UnknownObjectGetsNoReply) {
  IiopWorld w;
  bool called = false;
  giop::CdrWriter args;
  w.client.invoke(w.now, ObjectKey{"nope"}, "echo", args,
                  [&](const giop::Reply&) { called = true; });
  w.pump(w.client, kClient);
  w.run_for(200 * kMillisecond);
  EXPECT_FALSE(called);
  EXPECT_EQ(w.client.pending(), 1u);
}

TEST(Iiop, ServantExceptionReportedAsSystemException) {
  IiopWorld w;
  giop::ReplyStatus status = giop::ReplyStatus::kNoException;
  giop::CdrWriter args;
  args.string("whatever");
  w.client.invoke(w.now, ObjectKey{"echo"}, "not-an-op", args,
                  [&](const giop::Reply& reply) { status = reply.status; });
  w.pump(w.client, kClient);
  w.run_for(100 * kMillisecond);
  EXPECT_EQ(status, giop::ReplyStatus::kSystemException);
}

}  // namespace
}  // namespace ftcorba::orb
