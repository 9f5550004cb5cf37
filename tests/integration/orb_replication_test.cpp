// End-to-end tests of the GIOP mapping (§3, §4): replicated invocations
// over FTMP with duplicate suppression, replica state consistency,
// recovery of a new replica through the ordered get-state cut, and
// replies withheld by a replica that already holds another one's copy.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "ft/replication.hpp"
#include "ftmp/fragment.hpp"
#include "ftmp/sim_harness.hpp"
#include "orb/orb.hpp"

namespace ftcorba {
namespace {

using ftmp::Event;
using ftmp::SimHarness;

constexpr FtDomainId kClientDomain{1};
constexpr FtDomainId kServerDomain{2};
constexpr McastAddress kClientDomainAddr{100};
constexpr McastAddress kServerDomainAddr{101};
constexpr ProcessorGroupId kServerGroup{1};
constexpr McastAddress kServerGroupAddr{200};
const orb::ObjectKey kCounterKey{"counter"};

ConnectionId client_conn() {
  return ConnectionId{kClientDomain, ObjectGroupId{10}, kServerDomain, ObjectGroupId{20}};
}
ConnectionId recovery_conn() {
  return ConnectionId{kServerDomain, ObjectGroupId{20}, kServerDomain, ObjectGroupId{20}};
}

/// GIOP Replies delivered at `p`: every reply a replica multicast, when
/// `p` misses none of them.
std::uint64_t replies_delivered(const SimHarness& h, ProcessorId p) {
  std::uint64_t n = 0;
  for (const Event& ev : h.events(p)) {
    const auto* dm = std::get_if<ftmp::DeliveredMessage>(&ev);
    if (dm && giop::decode(dm->giop_message).header.type == giop::MsgType::kReply) ++n;
  }
  return n;
}

/// Deterministic counter: "add"(longlong delta) -> new value; "get" -> value;
/// "mirror"(octets) -> the octets reversed, leaving the value alone.
class CounterMachine : public ft::StateMachine {
 public:
  giop::ReplyStatus apply(const std::string& operation, giop::CdrReader& in,
                          giop::CdrWriter& out) override {
    if (operation == "mirror") {
      Bytes octets = in.octet_seq();
      std::reverse(octets.begin(), octets.end());
      out.octet_seq(octets);
      return giop::ReplyStatus::kNoException;
    }
    if (operation == "add") {
      value_ += in.longlong_();
      out.longlong_(value_);
      return giop::ReplyStatus::kNoException;
    }
    if (operation == "get") {
      out.longlong_(value_);
      return giop::ReplyStatus::kNoException;
    }
    out.string("bad operation");
    return giop::ReplyStatus::kUserException;
  }
  [[nodiscard]] Bytes snapshot() const override {
    giop::CdrWriter w;
    w.longlong_(value_);
    return w.bytes();
  }
  void restore(BytesView snapshot) override {
    giop::CdrReader r(snapshot);
    value_ = r.longlong_();
  }
  [[nodiscard]] std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

struct World {
  SimHarness h;
  std::vector<ProcessorId> servers{ProcessorId{1}, ProcessorId{2}, ProcessorId{3}};
  std::vector<ProcessorId> clients{ProcessorId{10}, ProcessorId{11}};
  std::map<ProcessorId, std::unique_ptr<orb::Orb>> orbs;
  std::map<ProcessorId, std::shared_ptr<CounterMachine>> machines;
  std::map<ProcessorId, std::shared_ptr<ft::ActiveReplica>> replicas;
  int completions = 0;  // reply handlers run, over every client replica

  /// The first `client_count` (1 or 2) of P10 and P11 replicate the client.
  explicit World(net::LinkModel link = {}, std::uint64_t seed = 11,
                 std::size_t client_count = 2)
      : h(link, seed) {
    clients.resize(client_count);
    for (ProcessorId p : servers) h.add_processor(p, kServerDomain, kServerDomainAddr);
    for (ProcessorId p : clients) h.add_processor(p, kClientDomain, kClientDomainAddr);
    for (ProcessorId p : servers) {
      h.stack(p).create_group(h.now(), kServerGroup, kServerGroupAddr, servers);
      h.stack(p).serve_connections(kServerGroup);
    }
    for (ProcessorId p : h.processors()) attach_orb(p);
    for (ProcessorId p : servers) {
      machines[p] = std::make_shared<CounterMachine>();
      replicas[p] = std::make_shared<ft::ActiveReplica>(machines[p]);
      orbs[p]->activate(kCounterKey, replicas[p]);
    }
  }

  void attach_orb(ProcessorId p) {
    orbs[p] = std::make_unique<orb::Orb>(h.stack(p));
    orb::Orb* o = orbs[p].get();
    h.set_event_handler(p, [o](TimePoint t, const Event& ev) { o->on_event(t, ev); });
  }

  void connect_clients() {
    for (ProcessorId p : clients) {
      h.stack(p).open_connection(h.now(), client_conn(), kServerDomainAddr, clients);
    }
    ASSERT_TRUE(h.run_until_pred(
        [&] {
          for (ProcessorId p : clients) {
            if (!h.stack(p).connection_ready(client_conn())) return false;
          }
          return true;
        },
        h.now() + 5 * kSecond));
  }

  /// Issues the same logical invocation from every client replica (as the
  /// FT infrastructure does with active client replication, §4) and waits
  /// for the reply at each.
  std::int64_t replicated_add(std::int64_t delta) {
    std::map<ProcessorId, std::int64_t> results;
    for (ProcessorId p : clients) {
      giop::CdrWriter args;
      args.longlong_(delta);
      auto sent = orbs[p]->invoke(
          h.now(), client_conn(), kCounterKey, "add", args,
          [this, &results, p](const giop::Reply& reply, ByteOrder order) {
            giop::CdrReader r(reply.body, order);
            results[p] = r.longlong_();
            ++completions;
          });
      EXPECT_TRUE(sent.has_value());
    }
    EXPECT_TRUE(h.run_until_pred([&] { return results.size() == clients.size(); },
                                 h.now() + 5 * kSecond));
    EXPECT_EQ(results[clients[0]], results[clients[1]])
        << "client replicas must observe the same result";
    return results[clients[0]];
  }
};

TEST(OrbReplication, InvocationExecutedOncePerReplica) {
  World w;
  w.connect_clients();
  const std::int64_t result = w.replicated_add(5);
  EXPECT_EQ(result, 5);
  w.h.run_for(300 * kMillisecond);
  for (ProcessorId p : w.servers) {
    EXPECT_EQ(w.machines[p]->value(), 5) << "state divergence at " << to_string(p);
    // Two client replicas multicast the request, but dedup admits one.
    EXPECT_EQ(w.replicas[p]->applied(), 1u) << "duplicate execution at " << to_string(p);
  }
}

TEST(OrbReplication, SequenceOfInvocationsStaysConsistent) {
  World w;
  w.connect_clients();
  std::int64_t expected = 0;
  for (int i = 1; i <= 10; ++i) {
    expected += i;
    EXPECT_EQ(w.replicated_add(i), expected);
  }
  w.h.run_for(300 * kMillisecond);
  // Each client replica completed each invocation once (a late copy of a
  // reply runs no handler).
  EXPECT_EQ(w.completions, 10 * static_cast<int>(w.clients.size()));
  std::uint64_t dispatched = 0, withheld = 0, released = 0;
  for (ProcessorId p : w.servers) {
    EXPECT_EQ(w.machines[p]->value(), expected);
    EXPECT_EQ(w.replicas[p]->applied(), 10u);
    const orb::OrbStats s = w.orbs[p]->stats();
    dispatched += s.requests_dispatched;
    withheld += s.replies_withheld;
    released += s.replies_released;
    EXPECT_EQ(w.orbs[p]->withheld_replies(), 0u) << "a withheld reply never ended";
  }
  EXPECT_EQ(dispatched, 30u);
  // Every dispatch either multicast its reply or withheld it because
  // another replica's copy was on its way; a released reply was multicast.
  EXPECT_EQ(replies_delivered(w.h, w.clients[0]) + withheld - released, dispatched);
  EXPECT_GT(withheld, 0u);
}

// A request and its replies above kMaxRegularPayload travel as fragments.
// No replica withholds its reply: a stack holds another replica's reply
// only as fragments, which Stack::held_copies never counts. So all three
// replicas reply, and the client completes once and suppresses two copies.
TEST(OrbReplication, FragmentedInvocationThroughActiveReplicas) {
  World w({}, 11, /*client_count=*/1);
  w.connect_clients();
  const ProcessorId client = w.clients.front();
  Bytes argument(150'000);
  for (std::size_t i = 0; i < argument.size(); ++i) {
    argument[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  ASSERT_GT(argument.size(), 2 * ftmp::kMaxRegularPayload);
  giop::CdrWriter args;
  args.octet_seq(argument);
  const orb::OrbStats before = w.orbs[client]->stats();
  int completed = 0;
  Bytes result;
  ASSERT_TRUE(w.orbs[client]
                  ->invoke(w.h.now(), client_conn(), kCounterKey, "mirror", args,
                           [&](const giop::Reply& reply, ByteOrder order) {
                             giop::CdrReader r(reply.body, order);
                             result = r.octet_seq();
                             ++completed;
                           })
                  .has_value());
  ASSERT_TRUE(w.h.run_until_pred([&] { return completed > 0; }, w.h.now() + 5 * kSecond));
  w.h.run_for(300 * kMillisecond);

  EXPECT_EQ(completed, 1);
  EXPECT_EQ(result, Bytes(argument.rbegin(), argument.rend()));
  EXPECT_EQ(w.orbs[client]->stats().duplicates_suppressed,
            before.duplicates_suppressed + 2);
  for (ProcessorId p : w.servers) {
    EXPECT_EQ(w.replicas[p]->applied(), 1u) << "at " << to_string(p);
    EXPECT_EQ(w.orbs[p]->stats().requests_dispatched, 1u) << "at " << to_string(p);
    EXPECT_EQ(w.orbs[p]->stats().replies_withheld, 0u) << "at " << to_string(p);
  }
  // Every member of the server group reassembled the request and the
  // three replies.
  for (ProcessorId p : {ProcessorId{1}, ProcessorId{2}, ProcessorId{3}, client}) {
    EXPECT_EQ(w.h.stack(p).group(kServerGroup)->reassembler().reassembled(), 4u)
        << "at " << to_string(p);
  }
}

TEST(OrbReplication, SurvivesServerReplicaCrash) {
  World w;
  w.connect_clients();
  EXPECT_EQ(w.replicated_add(7), 7);
  w.h.crash(ProcessorId{3});
  // The group reconfigures; subsequent invocations still complete.
  std::int64_t result = 0;
  ASSERT_TRUE(w.h.run_until_pred(
      [&] {
        return w.h.stack(ProcessorId{1}).group(kServerGroup)->membership().members.size() == 4;
      },
      w.h.now() + 10 * kSecond))
      << "membership never settled after crash (3 servers + ... )";
  result = w.replicated_add(3);
  EXPECT_EQ(result, 10);
  for (ProcessorId p : {ProcessorId{1}, ProcessorId{2}}) {
    EXPECT_EQ(w.machines[p]->value(), 10);
  }
}

TEST(OrbReplication, NewReplicaRecoversThroughOrderedCut) {
  World w;
  w.connect_clients();
  EXPECT_EQ(w.replicated_add(100), 100);

  // P4 joins the server group.
  const ProcessorId p4{4};
  w.h.add_processor(p4, kServerDomain, kServerDomainAddr);
  w.attach_orb(p4);
  w.h.stack(p4).expect_join(kServerGroup, kServerGroupAddr);
  ASSERT_TRUE(w.h.stack(ProcessorId{1}).add_processor(w.h.now(), kServerGroup, p4));
  ASSERT_TRUE(w.h.run_until_pred(
      [&] {
        auto* g = w.h.stack(p4).group(kServerGroup);
        return g && g->is_member(p4);
      },
      w.h.now() + 5 * kSecond));
  w.h.stack(p4).serve_connections(kServerGroup);

  // Start recovery, with client traffic racing it.
  auto machine4 = std::make_shared<CounterMachine>();
  ft::ReplicaRecovery recovery(*w.orbs[p4], recovery_conn(), kCounterKey, machine4);
  ASSERT_TRUE(recovery.start(w.h.now()));
  EXPECT_EQ(w.replicated_add(20), 120);
  EXPECT_EQ(w.replicated_add(3), 123);
  ASSERT_TRUE(w.h.run_until_pred([&] { return recovery.done(); },
                                 w.h.now() + 5 * kSecond));
  w.h.run_for(300 * kMillisecond);
  EXPECT_EQ(machine4->value(), 123)
      << "snapshot + replay must reconstruct the replica state exactly";

  // And the new replica participates in subsequent invocations.
  EXPECT_EQ(w.replicated_add(1), 124);
  w.h.run_for(300 * kMillisecond);
  EXPECT_EQ(machine4->value(), 124);
}

// ---- withheld replies ----
//
// The server group is {P1, P2, P3}; only P2 and P3 host the counter, and
// P1's datagrams reach P3 2 ms late. In both engines P2 then delivers a
// request and replies before P3 delivers it (Lamport: P3 waits for P1's
// ack; LLFT: for P1's grant), so P3 finds P2's reply held and withholds
// its own. P2's datagrams reach P1 10 ms late, so an LLFT leader orders
// anything sent within 10 ms of P2's reply ahead of it.

constexpr ProcessorId kClient{10};
constexpr ProcessorId kReplier{2};
constexpr ProcessorId kWithholder{3};

struct WithholdWorld {
  SimHarness h;
  std::map<ProcessorId, std::unique_ptr<orb::Orb>> orbs;
  std::map<ProcessorId, std::shared_ptr<CounterMachine>> machines;

  explicit WithholdWorld(ftmp::OrderingMode mode) : h({}, 32) {
    ftmp::Config config;
    config.ordering_mode = mode;
    const std::vector<ProcessorId> servers{ProcessorId{1}, kReplier, kWithholder};
    for (ProcessorId p : servers) h.add_processor(p, kServerDomain, kServerDomainAddr, config);
    h.add_processor(kClient, kClientDomain, kClientDomainAddr, config);
    for (ProcessorId p : h.processors()) {
      orbs[p] = std::make_unique<orb::Orb>(h.stack(p));
      orb::Orb* o = orbs[p].get();
      h.set_event_handler(p, [o](TimePoint t, const Event& ev) { o->on_event(t, ev); });
    }
    for (ProcessorId p : servers) {
      h.stack(p).create_group(h.now(), kServerGroup, kServerGroupAddr, servers);
      h.stack(p).serve_connections(kServerGroup);
    }
    for (ProcessorId p : {kReplier, kWithholder}) {
      machines[p] = std::make_shared<CounterMachine>();
      orbs[p]->activate(kCounterKey, std::make_shared<ft::ActiveReplica>(machines[p]));
    }
    h.stack(kClient).open_connection(h.now(), client_conn(), kServerDomainAddr, {kClient});
    EXPECT_TRUE(h.run_until_pred(
        [&] {
          if (!h.stack(kClient).connection_ready(client_conn())) return false;
          for (ProcessorId p : servers) {
            if (!h.stack(p).group(kServerGroup)->is_member(kClient)) return false;
          }
          return true;
        },
        h.now() + 5 * kSecond));
    h.run_for(50 * kMillisecond);
    net::LinkModel late;
    late.delay = 2 * kMillisecond;
    h.network().set_link(ProcessorId{1}, kWithholder, late);
    late.delay = 10 * kMillisecond;
    h.network().set_link(kReplier, ProcessorId{1}, late);
  }

  /// Invokes "add"(delta) from the client; `results` collects each
  /// completion's value.
  void add(std::int64_t delta, std::vector<std::int64_t>& results) {
    giop::CdrWriter args;
    args.longlong_(delta);
    ASSERT_TRUE(orbs[kClient]->invoke(h.now(), client_conn(), kCounterKey, "add", args,
                                      [&results](const giop::Reply& reply, ByteOrder order) {
                                        giop::CdrReader r(reply.body, order);
                                        results.push_back(r.longlong_());
                                      }));
  }

  /// Runs until the withholder has withheld `n` replies in all.
  bool run_until_withheld(std::uint64_t n) {
    return h.run_until_pred(
        [&] { return orbs[kWithholder]->stats().replies_withheld == n; },
        h.now() + kSecond);
  }

  void set_links_to_client(bool blocked, const std::vector<ProcessorId>& from) {
    for (ProcessorId p : from) {
      if (blocked) {
        h.network().block_link(p, kClient);
      } else {
        h.network().unblock_link(p, kClient);
      }
    }
  }
};

class WithheldReply : public ::testing::TestWithParam<ftmp::OrderingMode> {};

TEST_P(WithheldReply, ACopyHeldBySurvivorsReachesTheClientWhenItsSenderCrashes) {
  WithholdWorld w(GetParam());
  std::vector<std::int64_t> results;
  w.add(5, results);
  ASSERT_TRUE(w.h.run_until_pred([&] { return results.size() == 1; }, w.h.now() + kSecond));
  EXPECT_EQ(w.orbs[kReplier]->stats().replies_withheld, 0u);
  EXPECT_EQ(w.orbs[kWithholder]->stats().replies_withheld, 1u);
  w.h.run_for(100 * kMillisecond);
  EXPECT_EQ(w.orbs[kWithholder]->withheld_replies(), 0u) << "ends when the copy is delivered";

  // The only reply the second invocation gets is lost at the client, and
  // its sender crashes right after the withholder withheld its own.
  w.set_links_to_client(true, {kReplier});
  w.add(7, results);
  ASSERT_TRUE(w.run_until_withheld(2));
  EXPECT_EQ(w.orbs[kReplier]->stats().requests_dispatched, 2u);
  EXPECT_EQ(w.orbs[kReplier]->stats().replies_withheld, 0u);
  EXPECT_EQ(results.size(), 1u);
  w.h.crash(kReplier);

  // The survivors install a view without it whose cut covers the copy they
  // hold; the client fetches it from them and completes, and the withheld
  // reply ends with the copy's delivery instead of being released.
  ASSERT_TRUE(w.h.run_until_pred([&] { return results.size() == 2; }, w.h.now() + 2 * kSecond));
  w.h.run_for(300 * kMillisecond);
  EXPECT_EQ(results, (std::vector<std::int64_t>{5, 12}));
  EXPECT_EQ(w.machines[kWithholder]->value(), 12);
  EXPECT_EQ(w.orbs[kWithholder]->stats().replies_released, 0u);
  EXPECT_EQ(w.orbs[kWithholder]->withheld_replies(), 0u);
}

TEST_P(WithheldReply, ReleasedWhenItsCopyIsDroppedUndelivered) {
  WithholdWorld w(GetParam());
  // The client hears nothing until it has asked for the replier's removal,
  // so its RemoveProcessor is stamped just above its request and below the
  // replier's reply, and (in LLFT) reaches the leader ahead of that reply.
  const std::vector<ProcessorId> servers{ProcessorId{1}, kReplier, kWithholder};
  w.set_links_to_client(true, servers);
  std::vector<std::int64_t> results;
  w.add(5, results);
  ASSERT_TRUE(w.run_until_withheld(1));
  EXPECT_EQ(w.orbs[kReplier]->stats().requests_dispatched, 1u);
  EXPECT_EQ(w.orbs[kReplier]->stats().replies_withheld, 0u);
  ASSERT_TRUE(w.h.stack(kClient).remove_processor(w.h.now(), kServerGroup, kReplier));
  w.h.run_for(kMillisecond);
  w.set_links_to_client(false, servers);

  // Every member orders the removal ahead of the reply, which is dropped
  // with its sender; the withholder then multicasts its own reply.
  ASSERT_TRUE(w.h.run_until_pred([&] { return results.size() == 1; }, w.h.now() + 2 * kSecond));
  w.h.run_for(300 * kMillisecond);
  EXPECT_EQ(results, (std::vector<std::int64_t>{5}));
  EXPECT_FALSE(w.h.stack(kWithholder).group(kServerGroup)->is_member(kReplier));
  EXPECT_EQ(w.orbs[kWithholder]->stats().replies_released, 1u);
  EXPECT_EQ(w.orbs[kWithholder]->withheld_replies(), 0u);
  EXPECT_EQ(w.orbs[kClient]->stats().duplicates_suppressed, 0u)
      << "the client never delivers the dropped copy";
}

INSTANTIATE_TEST_SUITE_P(Modes, WithheldReply,
                         ::testing::Values(ftmp::OrderingMode::kLamport,
                                           ftmp::OrderingMode::kLlft),
                         [](const ::testing::TestParamInfo<ftmp::OrderingMode>& param) {
                           return std::string(to_string(param.param));
                         });

}  // namespace
}  // namespace ftcorba
