// Integration tests for PGMP logical-connection establishment (§4, §7):
// ConnectRequest/Connect, client-group joining of the server's processor
// group, connection sharing, and Connect-loss robustness.
#include <gtest/gtest.h>

#include "ftmp/sim_harness.hpp"

namespace ftcorba::ftmp {
namespace {

constexpr FtDomainId kClientDomain{1};
constexpr FtDomainId kServerDomain{2};
constexpr McastAddress kClientDomainAddr{100};
constexpr McastAddress kServerDomainAddr{101};
constexpr ProcessorGroupId kServerGroup{1};
constexpr McastAddress kServerGroupAddr{200};

ConnectionId conn_ab() {
  return ConnectionId{kClientDomain, ObjectGroupId{10}, kServerDomain, ObjectGroupId{20}};
}
ConnectionId conn_ab2() {
  return ConnectionId{kClientDomain, ObjectGroupId{11}, kServerDomain, ObjectGroupId{20}};
}

struct World {
  SimHarness h;
  std::vector<ProcessorId> servers{ProcessorId{1}, ProcessorId{2}, ProcessorId{3}};
  std::vector<ProcessorId> clients{ProcessorId{10}, ProcessorId{11}};

  explicit World(net::LinkModel link = {}, std::uint64_t seed = 5) : h(link, seed) {
    for (ProcessorId p : servers) h.add_processor(p, kServerDomain, kServerDomainAddr);
    for (ProcessorId p : clients) h.add_processor(p, kClientDomain, kClientDomainAddr);
    for (ProcessorId p : servers) {
      h.stack(p).create_group(h.now(), kServerGroup, kServerGroupAddr, servers);
      h.stack(p).serve_connections(kServerGroup);
    }
  }

  void open_from_clients(const ConnectionId& conn) {
    for (ProcessorId p : clients) {
      h.stack(p).open_connection(h.now(), conn, kServerDomainAddr, clients);
    }
  }

  bool clients_ready(const ConnectionId& conn) {
    for (ProcessorId p : clients) {
      if (!h.stack(p).connection_ready(conn)) return false;
    }
    return true;
  }
};

TEST(Connection, EstablishAcrossDomains) {
  World w;
  const TimePoint opened = w.h.now();
  w.open_from_clients(conn_ab());
  ASSERT_TRUE(w.h.run_until_pred([&] { return w.clients_ready(conn_ab()); },
                                 w.h.now() + 5 * kSecond))
      << "connection never established";
  // Members ack the Connect and the AddProcessors at once and greet each
  // joiner, so no step waits for a heartbeat: 9 ms here, 24 ms when every
  // joiner waited for the members' heartbeats.
  EXPECT_LE(w.h.now() - opened, 12 * kMillisecond);
  // The clients are now members of the server's processor group.
  for (ProcessorId p : w.clients) {
    auto* g = w.h.stack(p).group(kServerGroup);
    ASSERT_NE(g, nullptr);
    EXPECT_TRUE(g->is_member(p));
    EXPECT_EQ(w.h.stack(p).connection_group(conn_ab()), kServerGroup);
  }
  // Messages flow on the connection and reach both groups, totally ordered.
  w.h.clear_events();
  ASSERT_TRUE(w.h.stack(ProcessorId{10}).send(w.h.now(), conn_ab(), 1,
                                              bytes_of("request-1")));
  w.h.run_for(300 * kMillisecond);
  for (ProcessorId p : {ProcessorId{1}, ProcessorId{2}, ProcessorId{3},
                        ProcessorId{10}, ProcessorId{11}}) {
    auto msgs = w.h.delivered(p, kServerGroup);
    ASSERT_EQ(msgs.size(), 1u) << "at " << to_string(p);
    EXPECT_EQ(msgs[0].connection, conn_ab());
    EXPECT_EQ(msgs[0].request_num, 1u);
  }
}

// A sponsor re-multicasts a joiner's AddProcessor from the first tick
// after ordering it: P11 is admitted by that re-multicast, 3.3 ms after
// the open, before P10's NACK could fetch the Add for it. With the resend
// clock started at time 0, that re-multicast waited for
// kJoinRetryInterval, and P11 was admitted only through P10's NACK, at
// 8.1 ms.
TEST(Connection, SponsorResendsTheAddWithoutAPeersNack) {
  World w;
  const TimePoint opened = w.h.now();
  TimePoint admitted = 0;
  w.h.set_event_handler(ProcessorId{11}, [&](TimePoint now, const Event& e) {
    if (admitted == 0 && std::holds_alternative<MembershipChanged>(e)) admitted = now;
  });
  w.open_from_clients(conn_ab());
  ASSERT_TRUE(w.h.run_until_pred([&] { return w.clients_ready(conn_ab()); },
                                 w.h.now() + 5 * kSecond));
  ASSERT_NE(admitted, 0);
  EXPECT_LE(admitted - opened, 6 * kMillisecond);
}

TEST(Connection, SecondConnectionSharesGroup) {
  World w;
  w.open_from_clients(conn_ab());
  ASSERT_TRUE(w.h.run_until_pred([&] { return w.clients_ready(conn_ab()); },
                                 w.h.now() + 5 * kSecond));
  const TimePoint established_first = w.h.now();
  // A second logical connection between the same processors reuses the
  // existing processor group ("several logical connections [may] share the
  // same ... processor group and the same IP Multicast address", §7) and is
  // established much faster (no joins needed).
  w.open_from_clients(conn_ab2());
  ASSERT_TRUE(w.h.run_until_pred([&] { return w.clients_ready(conn_ab2()); },
                                 w.h.now() + 2 * kSecond));
  EXPECT_EQ(w.h.stack(ProcessorId{10}).connection_group(conn_ab2()), kServerGroup);
  (void)established_first;
}

TEST(Connection, SurvivesConnectLoss) {
  net::LinkModel lossy;
  lossy.loss = 0.3;
  World w(lossy, /*seed=*/31);
  w.open_from_clients(conn_ab());
  ASSERT_TRUE(w.h.run_until_pred([&] { return w.clients_ready(conn_ab()); },
                                 w.h.now() + 20 * kSecond))
      << "retransmitted ConnectRequest/Connect should eventually get through";
}

TEST(Connection, ReplyFlowsServerToClient) {
  World w;
  w.open_from_clients(conn_ab());
  ASSERT_TRUE(w.h.run_until_pred([&] { return w.clients_ready(conn_ab()); },
                                 w.h.now() + 5 * kSecond));
  w.h.clear_events();
  // Request from a client replica; reply from a server replica. Both ride
  // the same connection and are delivered to both groups (duplicate
  // detection is the layer above's job, §4).
  ASSERT_TRUE(w.h.stack(ProcessorId{10}).send(w.h.now(), conn_ab(), 7,
                                              bytes_of("request")));
  w.h.run_for(100 * kMillisecond);
  ASSERT_TRUE(w.h.stack(ProcessorId{1}).send(w.h.now(), conn_ab(), 7,
                                             bytes_of("reply")));
  w.h.run_for(300 * kMillisecond);
  auto at_client = w.h.delivered(ProcessorId{11}, kServerGroup);
  ASSERT_EQ(at_client.size(), 2u);
  EXPECT_EQ(at_client[0].giop_message, bytes_of("request"));
  EXPECT_EQ(at_client[1].giop_message, bytes_of("reply"));
}

}  // namespace
}  // namespace ftcorba::ftmp
