// Prompt acknowledgement in the default Lamport mode (docs/ORDERING.md §2):
// a member that owes an ack for another member's ordered message sends one
// Heartbeat at its rank's slot of the ack schedule unless another send pays
// the debt first, and nothing else (own traffic, heartbeats, NACKs, other
// modes) arms it. Membership changes skip the schedule: their debts, a
// joiner's greetings and a rebind's flush are paid at once, and a member
// probes for an own datagram that never looped back.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "ftmp/group_session.hpp"
#include "ftmp/stack.hpp"

namespace ftcorba::ftmp {
namespace {

constexpr FtDomainId kDomain{1};
constexpr McastAddress kDomainAddr{100};
constexpr ProcessorGroupId kGroup{1};
constexpr McastAddress kGroupAddr{200};
constexpr Duration kTick = 500 * kMicrosecond;

ConnectionId test_conn() {
  return ConnectionId{FtDomainId{1}, ObjectGroupId{10}, FtDomainId{1},
                      ObjectGroupId{20}};
}

// Bare stacks P1..Pn on a lossless, zero-delay full-loopback wire, ticked
// every kTick. The heartbeat interval is long enough that no periodic
// heartbeat falls inside a test window, so every Heartbeat seen there is
// an ack. `spares` more stacks P(n+1)... start outside the group.
class Fleet {
 public:
  explicit Fleet(OrderingMode mode, int size = 3, int spares = 0) {
    Config config;
    config.ordering_mode = mode;
    config.heartbeat_interval = 200 * kMillisecond;
    config.fault_timeout = 2000 * kMillisecond;
    std::vector<ProcessorId> members;
    for (int p = 1; p <= size; ++p) members.push_back(ProcessorId{std::uint32_t(p)});
    for (ProcessorId p : members) {
      stacks_.push_back(std::make_unique<Stack>(p, kDomain, kDomainAddr, config));
      stacks_.back()->create_group(now_, kGroup, kGroupAddr, members);
    }
    for (int p = size + 1; p <= size + spares; ++p) {
      stacks_.push_back(std::make_unique<Stack>(ProcessorId{std::uint32_t(p)},
                                                kDomain, kDomainAddr, config));
    }
    // Settle: the founding heartbeats and any acks they provoke.
    for (int i = 0; i < 20; ++i) step();
  }

  Stack& stack(int p) { return *stacks_[p - 1]; }
  GroupSession& session(int p) { return *stacks_[p - 1]->group(kGroup); }
  [[nodiscard]] TimePoint now() const { return now_; }

  // A datagram from `from` does not reach `to` while `lose(from, to, its
  // header)` is true.
  void lose_if(std::function<bool(int from, int to, const Header&)> lose) {
    lose_ = std::move(lose);
  }

  // Called for every event member `p` raises, at the step that raised it.
  void on_event(std::function<void(int p, const Event&)> handler) {
    on_event_ = std::move(handler);
  }

  // Sends a Regular from member `p` now (before the next step's ticks).
  void send(int p, const std::string& text) {
    ASSERT_TRUE(session(p).send_regular(now_, test_conn(), ++request_,
                                        bytes_of(text)));
  }

  // Hands a datagram to member `p` as if it had arrived now.
  void inject(int p, Bytes datagram) {
    stacks_[p - 1]->on_datagram(now_,
                                net::Datagram{kGroupAddr, SharedBytes(std::move(datagram))});
  }

  // Advances one tick: every stack ticks, then every datagram sent since
  // the last step reaches every stack. Returns the headers member `watch`
  // sent during the step (every member's when `watch` is 0).
  std::vector<Header> step(int watch = 0) {
    now_ += kTick;
    std::vector<std::pair<int, net::Datagram>> wire;
    std::vector<Header> watched;
    for (std::size_t i = 0; i < stacks_.size(); ++i) {
      stacks_[i]->tick(now_);
      for (net::Datagram& d : stacks_[i]->take_packets()) {
        if (watch == 0 || int(i) + 1 == watch) {
          watched.push_back(decode_message(d.payload).header);
        }
        wire.emplace_back(int(i) + 1, std::move(d));
      }
    }
    for (const auto& [from, d] : wire) {
      const Header h = decode_message(d.payload).header;
      for (std::size_t i = 0; i < stacks_.size(); ++i) {
        if (!lose_ || !lose_(from, int(i) + 1, h)) stacks_[i]->on_datagram(now_, d);
      }
    }
    for (std::size_t i = 0; i < stacks_.size(); ++i) {
      for (const Event& e : stacks_[i]->take_events()) {
        if (on_event_) on_event_(int(i) + 1, e);
      }
    }
    return watched;
  }

  // Steps for `d` and returns when (relative to the start) and what member
  // `watch` (every member when 0) sent.
  std::vector<std::pair<Duration, Header>> record(int watch, Duration d) {
    std::vector<std::pair<Duration, Header>> out;
    const TimePoint start = now_;
    while (now_ - start < d) {
      // Packets a send queued before the step belong to this window too.
      for (const Header& h : step(watch)) out.emplace_back(now_ - start, h);
    }
    return out;
  }

  std::vector<std::pair<Duration, MessageType>> watch(int member, Duration d) {
    std::vector<std::pair<Duration, MessageType>> out;
    for (const auto& [at, h] : record(member, d)) out.emplace_back(at, h.type);
    return out;
  }

 private:
  TimePoint now_ = 1 * kMillisecond;
  RequestNum request_ = 0;
  std::vector<std::unique_ptr<Stack>> stacks_;
  std::function<void(int, const Event&)> on_event_;
  std::function<bool(int, int, const Header&)> lose_;
};

int count(const std::vector<std::pair<Duration, MessageType>>& sent, MessageType t) {
  int n = 0;
  for (const auto& [at, type] : sent) n += type == t;
  return n;
}

// The registry's value of a counter (0 with FTMP_METRICS=OFF).
std::uint64_t counter(const std::string& name) {
  for (const metrics::Sample& s : metrics::snapshot()) {
    if (s.name == name) return s.counter;
  }
  return 0;
}

// P4 is a joiner that hears nothing until P1-P3 have all ordered its
// AddProcessor and the sponsor has re-multicast it once: when it starts
// listening, when it receives its first copy of the Add, and when it
// installs.
struct LateJoin {
  TimePoint listening = 0;
  TimePoint first_copy = 0;
  TimePoint installed = 0;
};

LateJoin late_join(OrderingMode mode) {
  Fleet fleet(mode, 3, 1);
  bool deaf = true;
  bool resent = false;
  LateJoin j;
  fleet.lose_if([&](int, int to, const Header& h) {
    if (to != 4) return false;
    if (h.type == MessageType::kAddProcessor) {
      if (deaf) {
        resent = resent || h.retransmission;
      } else if (j.first_copy == 0) {
        j.first_copy = fleet.now();
      }
    }
    return deaf;
  });
  fleet.on_event([&](int p, const Event& e) {
    if (p == 4 && std::holds_alternative<MembershipChanged>(e)) j.installed = fleet.now();
  });
  fleet.stack(4).expect_join(kGroup, kGroupAddr);
  EXPECT_TRUE(fleet.stack(1).add_processor(fleet.now(), kGroup, ProcessorId{4}));
  const auto admitted = [&] {
    for (int p = 1; p <= 3; ++p) {
      if (!fleet.session(p).is_member(ProcessorId{4})) return false;
    }
    return true;
  };
  // Everything the members send until the sponsor's first re-multicast of
  // the Add, that one included, is lost to P4: their acks of the Add and
  // the greetings they send when they admit P4.
  while (!(admitted() && resent) && fleet.now() < 1 * kSecond) (void)fleet.step();
  EXPECT_TRUE(admitted() && resent);
  deaf = false;
  j.listening = fleet.now();
  while (j.installed == 0 && fleet.now() < 2 * kSecond) (void)fleet.step();
  EXPECT_NE(j.first_copy, 0) << to_string(mode);
  EXPECT_NE(j.installed, 0) << to_string(mode);
  return j;
}

TEST(PromptAck, IdleMemberAcksABurstOnceWithinAckDelay) {
  Fleet trio(OrderingMode::kLamport);
  std::vector<std::pair<Duration, MessageType>> p3;
  // Four Regulars from P2 within kAckDelay of the first one.
  for (int i = 0; i < 4; ++i) {
    trio.send(2, "burst#" + std::to_string(i));
    for (const Header& h : trio.step(3)) p3.emplace_back((i + 1) * kTick, h.type);
  }
  for (auto& sent : trio.watch(3, 10 * kMillisecond)) {
    p3.emplace_back(sent.first + 4 * kTick, sent.second);
  }
  ASSERT_EQ(p3.size(), 1u) << "one ack covers the whole burst";
  EXPECT_EQ(p3[0].second, MessageType::kHeartbeat);
  // The first Regular reached P3 at the end of step 1.
  EXPECT_GE(p3[0].first, kTick + kAckDelay);
  EXPECT_LE(p3[0].first, kTick + kAckDelay + kTick);
}

TEST(PromptAck, SendBeforeTheTimerPaysTheDebt) {
  Fleet trio(OrderingMode::kLamport);
  trio.send(2, "request");
  (void)trio.step();  // the request reaches P3: it owes an ack
  trio.send(3, "reply");
  const auto p3 = trio.watch(3, 10 * kMillisecond);
  EXPECT_EQ(count(p3, MessageType::kRegular), 1);
  EXPECT_EQ(count(p3, MessageType::kHeartbeat), 0) << "the reply was the ack";
}

TEST(PromptAck, OwnTrafficHeartbeatsAndNacksOweNothing) {
  Fleet trio(OrderingMode::kLamport);
  // Own Regular: P2 does not ack itself (P1 and P3 do).
  trio.send(2, "mine");
  EXPECT_EQ(count(trio.watch(2, 10 * kMillisecond), MessageType::kHeartbeat), 0);
  // A Heartbeat and a NACK from P1, each above everything P3 has stamped.
  const Rmp& rmp1 = trio.session(1).rmp();
  Header h;
  h.source = ProcessorId{1};
  h.destination_group = kGroup;
  h.type = MessageType::kHeartbeat;
  h.sequence_number = rmp1.last_sent();
  h.message_timestamp = trio.session(3).romp().clock() + 100;
  h.ack_timestamp = 1;
  trio.inject(3, encode_message(Message{h, HeartbeatBody{}}));
  EXPECT_TRUE(trio.watch(3, 10 * kMillisecond).empty()) << "heartbeat";
  h.type = MessageType::kRetransmitRequest;
  h.message_timestamp = trio.session(3).romp().clock() + 100;
  RetransmitRequestBody nack;
  nack.processor = ProcessorId{2};
  nack.start_seq = 1;
  nack.stop_seq = 1;
  trio.inject(3, encode_message(Message{h, nack}));
  const auto p3 = trio.watch(3, 10 * kMillisecond);
  EXPECT_EQ(count(p3, MessageType::kHeartbeat), 0) << "NACK";
}

TEST(PromptAck, OnlyTheDefaultLamportModeAcks) {
  for (OrderingMode mode : {OrderingMode::kLamport, OrderingMode::kLamportPaper,
                            OrderingMode::kLlft}) {
    Fleet trio(mode);
    trio.send(2, "request");
    EXPECT_EQ(count(trio.watch(3, 10 * kMillisecond), MessageType::kHeartbeat),
              mode == OrderingMode::kLamport ? 1 : 0)
        << to_string(mode);
  }
}

// The top-ranked member of a view of `size` sends one Regular; returns when
// each member acked it, counted from its arrival (-1: no ack).
std::vector<Duration> ack_offsets(int size) {
  Fleet fleet(OrderingMode::kLamport, size);
  fleet.send(size, "request");
  const auto sent = fleet.record(0, 10 * kMillisecond);
  EXPECT_FALSE(sent.empty());
  if (sent.empty()) return {};
  EXPECT_EQ(sent[0].second.type, MessageType::kRegular);
  const Duration arrived = sent[0].first;  // the wire is zero-delay
  std::vector<Duration> acks(std::size_t(size), -1);
  for (const auto& [at, h] : sent) {
    if (h.type != MessageType::kHeartbeat) continue;
    const auto p = h.source.raw();
    EXPECT_EQ(acks[p - 1], -1) << "P" << p << " acked twice";
    acks[p - 1] = at - arrived;
  }
  return acks;
}

// The first fleet tick at or after `slot`.
Duration on_tick(Duration slot) { return (slot + kTick - 1) / kTick * kTick; }

TEST(PromptAck, MembersAckInViewRankOrder) {
  // View {P1..P4}: the ranks below m - 2 = 2 share the first of four slots,
  // P3 (rank 2) takes the third. Every slot is a whole number of ticks.
  const std::vector<Duration> acks = ack_offsets(4);
  ASSERT_EQ(acks.size(), 4u);
  EXPECT_EQ(acks[0], kAckDelay / 4) << "P1";
  EXPECT_EQ(acks[1], kAckDelay / 4) << "P2";
  EXPECT_EQ(acks[2], 3 * kAckDelay / 4) << "P3";
  EXPECT_EQ(acks[3], -1) << "P4 owes no ack for its own message";
}

TEST(PromptAck, AThreeMemberViewStaggersEveryRank) {
  // m = 3: only rank 0 is below m - 2, so each rank keeps a slot of its own.
  const std::vector<Duration> acks = ack_offsets(3);
  ASSERT_EQ(acks.size(), 3u);
  EXPECT_EQ(acks[0], on_tick(kAckDelay / 3)) << "P1";
  EXPECT_EQ(acks[1], on_tick(2 * kAckDelay / 3)) << "P2";
  EXPECT_EQ(acks[2], -1) << "P3 owes no ack for its own message";
}

TEST(PromptAck, RanksFromTheCapUpShareTheLastSlot) {
  // n = 6 > kAckSlots: m = 4, ranks 0 and 1 share the first slot, rank 2
  // takes the third and ranks 3-5 share kAckDelay.
  const std::vector<Duration> acks = ack_offsets(6);
  ASSERT_EQ(acks.size(), 6u);
  EXPECT_EQ(acks[0], kAckDelay / 4) << "P1";
  EXPECT_EQ(acks[1], kAckDelay / 4) << "P2";
  EXPECT_EQ(acks[2], 3 * kAckDelay / 4) << "P3";
  EXPECT_EQ(acks[3], kAckDelay) << "P4";
  EXPECT_EQ(acks[4], kAckDelay) << "P5";
  EXPECT_EQ(acks[5], -1) << "P6 owes no ack for its own message";
}

TEST(PromptAck, TheThirdReplicaIsPaidByItsReply) {
  // P1-P3 are replicas that reply to P4's request as they deliver it.
  Fleet fleet(OrderingMode::kLamport, 4);
  std::vector<TimePoint> delivered(4, 0);
  fleet.on_event([&](int p, const Event& e) {
    const auto* m = std::get_if<DeliveredMessage>(&e);
    if (m == nullptr || m->source != ProcessorId{4} || p == 4) return;
    delivered[p - 1] = fleet.now();
    fleet.send(p, "reply");
  });
  const TimePoint requested = fleet.now();
  fleet.send(4, "request");
  const auto sent = fleet.record(0, 10 * kMillisecond);
  for (int p = 1; p <= 3; ++p) {
    ASSERT_NE(delivered[p - 1], 0) << "P" << p;
    // Two acks, P1's and P2's both at kAckDelay / 4, release the request:
    // one tick for it to reach the replicas, one for P3's reply to reach
    // P1 and P2.
    EXPECT_LE(delivered[p - 1] - requested, kAckDelay / 4 + 2 * kTick) << "P" << p;
  }
  // P1 and P2 each acked once before P3 delivered; P3 never acked the
  // request, because its reply paid the debt.
  const Duration p3_at = delivered[2] - requested;
  std::vector<int> acks_before(4, 0);
  for (const auto& [at, h] : sent) {
    if (h.type == MessageType::kHeartbeat && at <= p3_at) {
      ++acks_before[h.source.raw() - 1];
    }
  }
  EXPECT_EQ(acks_before[0], 1);
  EXPECT_EQ(acks_before[1], 1);
  EXPECT_EQ(acks_before[2], 0);
  EXPECT_LT(delivered[2], delivered[0]) << "P3 delivers before P1";
  EXPECT_LT(delivered[2], delivered[1]) << "P3 delivers before P2";
}

TEST(PromptAck, LateJoinerInstallsWithinTwoAckDelaysOfItsFirstAdd) {
  // The sponsor repeats its re-multicast of the Add kAckDelay later, and
  // the members greet P4 again when they first hear it, so that copy is
  // all P4 needs; the paper's rule waits for the next re-multicast and for
  // the members' heartbeats.
  const LateJoin j = late_join(OrderingMode::kLamport);
  EXPECT_LE(j.first_copy - j.listening, kAckDelay);
  EXPECT_LE(j.installed - j.first_copy, 2 * kAckDelay);
  const LateJoin paper = late_join(OrderingMode::kLamportPaper);
  EXPECT_GT(paper.installed - paper.first_copy, 10 * kAckDelay);
}

TEST(PromptAck, MembersGreetAJoinerWhenTheyAdmitIt) {
  // P4 hears the AddProcessor but none of the members' acks of it, and
  // they do not hear P4's: only the greeting each member sends when it
  // admits P4 carries the bounds P4 needs.
  Fleet fleet(OrderingMode::kLamport, 3, 1);
  bool admitted = false;
  fleet.lose_if([&](int from, int to, const Header& h) {
    return !admitted && h.type == MessageType::kHeartbeat && (from == 4 || to == 4);
  });
  TimePoint installed = 0;
  fleet.on_event([&](int p, const Event& e) {
    if (p == 4 && std::holds_alternative<MembershipChanged>(e)) installed = fleet.now();
  });
  fleet.stack(4).expect_join(kGroup, kGroupAddr);
  ASSERT_TRUE(fleet.stack(1).add_processor(fleet.now(), kGroup, ProcessorId{4}));
  while (!admitted && fleet.now() < 1 * kSecond) {
    (void)fleet.step();
    admitted = true;
    for (int p = 1; p <= 3; ++p) {
      admitted = admitted && fleet.session(p).is_member(ProcessorId{4});
    }
  }
  ASSERT_TRUE(admitted);
  EXPECT_EQ(installed, 0);
  const TimePoint at = fleet.now();
  while (installed == 0 && fleet.now() - at < 1 * kSecond) (void)fleet.step();
  EXPECT_LE(installed - at, kTick);
}

TEST(PromptAck, RemoveProcessorOrdersWithoutARankSlotWait) {
  Fleet fleet(OrderingMode::kLamport, 4);
  std::vector<TimePoint> ordered(4, 0);
  fleet.on_event([&](int p, const Event& e) {
    const auto* m = std::get_if<MembershipChanged>(&e);
    if (m != nullptr && m->reason == MembershipChanged::Reason::kProcessorRemoved) {
      ordered[p - 1] = fleet.now();
    }
  });
  const std::uint64_t acks = counter("ftmp_romp_acks_sent_total");
  const TimePoint sent = fleet.now();
  ASSERT_TRUE(fleet.stack(1).remove_processor(sent, kGroup, ProcessorId{4}));
  (void)fleet.record(0, 10 * kMillisecond);
  for (int p = 1; p <= 4; ++p) {
    ASSERT_NE(ordered[p - 1], 0) << "P" << p;
    // One tick for the RemoveProcessor to arrive, one for the acks it
    // raised: below the first rank slot's wait.
    EXPECT_LE(ordered[p - 1] - sent, 2 * kTick) << "P" << p;
  }
#if FTCORBA_METRICS_ENABLED
  EXPECT_EQ(counter("ftmp_romp_acks_sent_total") - acks, 3u) << "P2, P3 and P4";
#else
  (void)acks;
#endif
}

TEST(PromptAck, RebindFlushEndsOneAckAfterTheConnectOrders) {
  // The flush waits to hear every member above the Connect, its sender
  // too: each member acks where it orders the Connect.
  Fleet trio(OrderingMode::kLamport);
  const TimePoint sent = trio.now();
  ASSERT_TRUE(trio.session(1).rebind_address(sent, McastAddress{201}));
  const auto flushing = [&] {
    for (int p = 1; p <= 3; ++p) {
      if (trio.session(p).address() != McastAddress{201} || trio.session(p).flushing()) {
        return true;
      }
    }
    return false;
  };
  while (flushing() && trio.now() - sent < 500 * kMillisecond) (void)trio.step();
  // One tick each for the Connect, the acks that order it, and the acks
  // that end the flush.
  EXPECT_LE(trio.now() - sent, 3 * kTick);
}

TEST(PromptAck, SenderProbesForItsLostOwnCopy) {
  Fleet trio(OrderingMode::kLamport);
  bool lost = false;
  trio.lose_if([&](int from, int to, const Header& h) {
    if (lost || from != 2 || to != 2 || h.type != MessageType::kRegular) return false;
    return lost = true;
  });
  TimePoint delivered = 0;
  trio.on_event([&](int p, const Event& e) {
    if (p == 2 && std::holds_alternative<DeliveredMessage>(e)) delivered = trio.now();
  });
  const std::uint64_t probes = counter("ftmp_rmp_own_gap_probes_total");
  const TimePoint sent = trio.now();
  trio.send(2, "mine");
  while (delivered == 0 && trio.now() - sent < 500 * kMillisecond) (void)trio.step();
  ASSERT_TRUE(lost);
  ASSERT_NE(delivered, 0);
  // The probe kAckDelay after the send, its loopback, the NACK and the
  // retransmission: one tick each but the first, plus one of alignment.
  EXPECT_LE(delivered - sent, kAckDelay + 4 * kTick);
#if FTCORBA_METRICS_ENABLED
  EXPECT_EQ(counter("ftmp_rmp_own_gap_probes_total") - probes, 1u);
#else
  (void)probes;
#endif
}

}  // namespace
}  // namespace ftcorba::ftmp
