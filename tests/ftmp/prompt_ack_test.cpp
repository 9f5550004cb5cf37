// Prompt acknowledgement in the default Lamport mode (docs/ORDERING.md §2):
// a member that owes an ack for another member's ordered message sends one
// Heartbeat at its rank's slot of the ack schedule unless another send pays
// the debt first, and nothing else (own traffic, heartbeats, NACKs, other
// modes) arms it.
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
// an ack.
class Fleet {
 public:
  explicit Fleet(OrderingMode mode, int size = 3) {
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
    // Settle: the founding heartbeats and any acks they provoke.
    for (int i = 0; i < 20; ++i) step();
  }

  GroupSession& session(int p) { return *stacks_[p - 1]->group(kGroup); }
  [[nodiscard]] TimePoint now() const { return now_; }

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
    std::vector<net::Datagram> wire;
    std::vector<Header> watched;
    for (std::size_t i = 0; i < stacks_.size(); ++i) {
      stacks_[i]->tick(now_);
      for (net::Datagram& d : stacks_[i]->take_packets()) {
        if (watch == 0 || int(i) + 1 == watch) {
          watched.push_back(decode_message(d.payload).header);
        }
        wire.push_back(std::move(d));
      }
    }
    for (const net::Datagram& d : wire) {
      for (auto& s : stacks_) s->on_datagram(now_, d);
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
};

int count(const std::vector<std::pair<Duration, MessageType>>& sent, MessageType t) {
  int n = 0;
  for (const auto& [at, type] : sent) n += type == t;
  return n;
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

TEST(PromptAck, MembersAckInViewRankOrder) {
  Fleet fleet(OrderingMode::kLamport, 4);
  fleet.send(4, "request");
  const auto sent = fleet.record(0, 10 * kMillisecond);
  ASSERT_FALSE(sent.empty());
  ASSERT_EQ(sent[0].second.type, MessageType::kRegular);
  const Duration arrived = sent[0].first;  // the wire is zero-delay
  // View {P1..P4}: four slots of kAckDelay / 4, one per rank.
  std::vector<Duration> acks(4, -1);
  for (const auto& [at, h] : sent) {
    if (h.type != MessageType::kHeartbeat) continue;
    const int p = int(h.source.raw());
    ASSERT_EQ(acks[p - 1], -1) << "P" << p << " acked twice";
    acks[p - 1] = at - arrived;
  }
  EXPECT_EQ(acks[3], -1) << "P4 owes no ack for its own message";
  for (int p = 1; p <= 3; ++p) {
    const Duration slot = kAckDelay * p / 4;
    EXPECT_GE(acks[p - 1], slot - kTick) << "P" << p;
    EXPECT_LE(acks[p - 1], slot + kTick) << "P" << p;
  }
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
    // Two acks (P1 at kAckDelay / 4, P2 at kAckDelay / 2) release the
    // request: one tick for it to reach the replicas, one for P3's reply
    // to reach P1 and P2.
    EXPECT_LE(delivered[p - 1] - requested, 1 * kMillisecond + 2 * kTick)
        << "P" << p;
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

}  // namespace
}  // namespace ftcorba::ftmp
