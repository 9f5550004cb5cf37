// Unit tests for the ROMP layer (§6) and the Lamport delivery rule over
// it: delivery condition, total order, heartbeat bounds, ack timestamps,
// stability, and the own-clock bound and ack debt of the default
// (prompt) Lamport mode.
#include <gtest/gtest.h>

#include "ftmp/ordering.hpp"
#include "ftmp/romp.hpp"

namespace ftcorba::ftmp {
namespace {

constexpr ProcessorId kP1{1};
constexpr ProcessorId kP2{2};
constexpr ProcessorId kP3{3};

Message regular(ProcessorId src, SeqNum seq, Timestamp ts, Timestamp ack = 0) {
  Message m;
  m.header.type = MessageType::kRegular;
  m.header.source = src;
  m.header.sequence_number = seq;
  m.header.message_timestamp = ts;
  m.header.ack_timestamp = ack;
  m.body = RegularBody{};
  return m;
}

Frame frame_of(const Message& m) { return Frame{m.header, encode_message(m)}; }

Header heartbeat(ProcessorId src, SeqNum seq, Timestamp ts, Timestamp ack = 0) {
  Header h;
  h.type = MessageType::kHeartbeat;
  h.source = src;
  h.sequence_number = seq;
  h.message_timestamp = ts;
  h.ack_timestamp = ack;
  return h;
}

// The paper's rule (OrderingMode::kLamportPaper): P1's own bound moves only
// with its own looped-back traffic.
struct RompFixture : ::testing::Test {
  Config config;
  Romp romp{kP1, config};
  LamportOrdering rule{romp, /*own_clock_bound=*/false};
  void SetUp() override {
    for (ProcessorId m : {kP1, kP2, kP3}) romp.admit(m, 0, 0);
  }

  // Romp first, then the rule, as GroupSession routes every reliable frame.
  void feed(const Message& m) {
    const Frame f = frame_of(m);
    romp.on_source_ordered(f.header);
    rule.on_source_ordered(f, 0);
  }
  std::vector<Frame> collect() { return rule.collect_deliverable(0); }
};

TEST_F(RompFixture, NoDeliveryUntilAllBoundsPass) {
  feed(regular(kP2, 1, 10));
  EXPECT_TRUE(collect().empty()) << "P1/P3 bounds still 0";
  romp.on_heartbeat(heartbeat(kP1, 0, 11), 0);
  EXPECT_TRUE(collect().empty()) << "P3 bound still 0";
  romp.on_heartbeat(heartbeat(kP3, 0, 12), 0);
  const auto out = collect();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].header.source, kP2);
}

TEST_F(RompFixture, DeliveryInTimestampOrderWithSourceTieBreak) {
  feed(regular(kP3, 1, 5));
  feed(regular(kP2, 1, 5));  // same ts: source id breaks tie
  feed(regular(kP2, 2, 7));
  romp.on_heartbeat(heartbeat(kP1, 0, 20), 0);
  romp.on_heartbeat(heartbeat(kP2, 2, 20), 2);
  romp.on_heartbeat(heartbeat(kP3, 1, 20), 1);
  const auto out = collect();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].header.source, kP2);  // (5, P2)
  EXPECT_EQ(out[1].header.source, kP3);  // (5, P3)
  EXPECT_EQ(out[2].header.source, kP2);  // (7, P2)
}

TEST_F(RompFixture, HeartbeatWithStaleSeqDoesNotRaiseBound) {
  feed(regular(kP2, 1, 10));
  romp.on_heartbeat(heartbeat(kP1, 0, 50), 0);
  // P3's heartbeat claims seq 4, but we've contiguously received only 0:
  // messages 1..4 are in flight with unknown (smaller) timestamps.
  romp.on_heartbeat(heartbeat(kP3, 4, 50), 0);
  EXPECT_TRUE(collect().empty());
  EXPECT_EQ(romp.bound(kP3), 0u);
  // Matching seq raises it.
  romp.on_heartbeat(heartbeat(kP3, 0, 50), 0);
  EXPECT_EQ(romp.bound(kP3), 50u);
  EXPECT_EQ(collect().size(), 1u);
}

TEST_F(RompFixture, OrderedTypesEnterPending) {
  Message add = regular(kP2, 1, 10);
  add.header.type = MessageType::kAddProcessor;
  add.body = AddProcessorBody{};
  feed(add);
  EXPECT_EQ(rule.pending_count(), 1u);
  Message suspect = regular(kP2, 2, 11);
  suspect.header.type = MessageType::kSuspect;
  suspect.body = SuspectBody{};
  feed(suspect);
  EXPECT_EQ(rule.pending_count(), 1u) << "Suspect is not totally ordered (Fig. 3)";
  EXPECT_EQ(romp.bound(kP2), 11u) << "but it raises the bound";
}

TEST_F(RompFixture, Fig3OrderingClassification) {
  EXPECT_TRUE(is_totally_ordered(MessageType::kRegular));
  EXPECT_TRUE(is_totally_ordered(MessageType::kConnect));
  EXPECT_TRUE(is_totally_ordered(MessageType::kAddProcessor));
  EXPECT_TRUE(is_totally_ordered(MessageType::kRemoveProcessor));
  EXPECT_FALSE(is_totally_ordered(MessageType::kSuspect));
  EXPECT_FALSE(is_totally_ordered(MessageType::kMembership));
  EXPECT_FALSE(is_totally_ordered(MessageType::kHeartbeat));
  EXPECT_FALSE(is_totally_ordered(MessageType::kRetransmitRequest));
  EXPECT_FALSE(is_totally_ordered(MessageType::kConnectRequest));

  EXPECT_TRUE(is_reliable(MessageType::kRegular));
  EXPECT_TRUE(is_reliable(MessageType::kSuspect));
  EXPECT_TRUE(is_reliable(MessageType::kMembership));
  EXPECT_FALSE(is_reliable(MessageType::kHeartbeat));
  EXPECT_FALSE(is_reliable(MessageType::kRetransmitRequest));
  EXPECT_FALSE(is_reliable(MessageType::kConnectRequest));
}

TEST_F(RompFixture, AckTimestampIsMinBound) {
  romp.on_heartbeat(heartbeat(kP1, 0, 30), 0);
  romp.on_heartbeat(heartbeat(kP2, 0, 10), 0);
  romp.on_heartbeat(heartbeat(kP3, 0, 20), 0);
  EXPECT_EQ(romp.ack_timestamp(), 10u);
}

TEST_F(RompFixture, StabilityFollowsMinAck) {
  feed(regular(kP2, 1, 10, /*ack=*/0));
  EXPECT_EQ(romp.stable_timestamp(), 0u);
  // Everyone acks >= 10: the message is stable.
  romp.on_heartbeat(heartbeat(kP1, 0, 40, /*ack=*/15), 0);
  romp.on_heartbeat(heartbeat(kP2, 1, 41, /*ack=*/12), 1);
  romp.on_heartbeat(heartbeat(kP3, 0, 42, /*ack=*/11), 0);
  EXPECT_EQ(romp.stable_timestamp(), 11u);
  const auto releases = romp.collect_stable();
  ASSERT_EQ(releases.size(), 1u);
  EXPECT_EQ(releases[0].first, kP2);
  EXPECT_EQ(releases[0].second, 1u);
  // Second call: nothing new.
  EXPECT_TRUE(romp.collect_stable().empty());
}

TEST_F(RompFixture, StampAndWitnessKeepLamportProperty) {
  feed(regular(kP2, 1, 1000));
  EXPECT_GT(romp.stamp(0), 1000u);
}

TEST_F(RompFixture, RemoveMemberUnblocksDelivery) {
  feed(regular(kP2, 1, 10));
  romp.on_heartbeat(heartbeat(kP1, 0, 20), 0);
  // P3 silent: stalled. Removing it (as PGMP conviction would) unblocks.
  EXPECT_TRUE(collect().empty());
  romp.expel(kP3);
  rule.remove_member(kP3);
  EXPECT_EQ(collect().size(), 1u);
}

TEST_F(RompFixture, RemoveMemberDropsItsPending) {
  feed(regular(kP3, 1, 10));
  romp.expel(kP3);
  rule.remove_member(kP3);
  romp.on_heartbeat(heartbeat(kP1, 0, 20), 0);
  romp.on_heartbeat(heartbeat(kP2, 0, 20), 0);
  EXPECT_TRUE(collect().empty());
  EXPECT_EQ(rule.pending_count(), 0u);
}

TEST_F(RompFixture, AddMemberStartsAtGivenBound) {
  romp.admit(ProcessorId{4}, 0, 100);
  EXPECT_EQ(romp.bound(ProcessorId{4}), 100u);
  // A message above everyone's bounds stalls on the new member too.
  feed(regular(kP2, 1, 150));
  romp.on_heartbeat(heartbeat(kP1, 0, 200), 0);
  romp.on_heartbeat(heartbeat(kP2, 1, 200), 1);
  romp.on_heartbeat(heartbeat(kP3, 0, 200), 0);
  EXPECT_TRUE(collect().empty());
  romp.on_heartbeat(heartbeat(ProcessorId{4}, 0, 160), 0);
  EXPECT_EQ(collect().size(), 1u);
}

TEST_F(RompFixture, DrainUpToCutDeliversExactlyTheCut) {
  feed(regular(kP2, 1, 10));
  feed(regular(kP2, 2, 12));
  feed(regular(kP3, 1, 11));
  feed(regular(kP3, 2, 14));
  std::map<ProcessorId, SeqNum> cuts{{kP1, 0}, {kP2, 2}, {kP3, 1}};
  const std::set<ProcessorId> survivors{kP1, kP2};
  const auto out = rule.drain_up_to_cut(cuts, survivors);
  ASSERT_EQ(out.size(), 3u);
  // (10,P2), (11,P3), (12,P2) — timestamp order.
  EXPECT_EQ(out[0].header.message_timestamp, 10u);
  EXPECT_EQ(out[1].header.message_timestamp, 11u);
  EXPECT_EQ(out[2].header.message_timestamp, 12u);
  // P3's beyond-cut message was dropped (not a survivor).
  EXPECT_EQ(rule.pending_count(), 0u);
}

TEST_F(RompFixture, DrainKeepsSurvivorsBeyondCut) {
  feed(regular(kP2, 1, 10));
  feed(regular(kP2, 2, 12));
  std::map<ProcessorId, SeqNum> cuts{{kP1, 0}, {kP2, 1}, {kP3, 0}};
  const std::set<ProcessorId> survivors{kP1, kP2};
  const auto out = rule.drain_up_to_cut(cuts, survivors);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(rule.pending_count(), 1u) << "survivor's later message stays pending";
}

TEST_F(RompFixture, DeliveryBatchStopsAtMembershipChange) {
  // Regression (found by the soak run): a batch whose min_bound was
  // computed over the current membership must not run past an ordered
  // AddProcessor — later messages must also clear the NEW member's bound.
  Message add = regular(kP2, 1, 10);
  add.header.type = MessageType::kAddProcessor;
  add.body = AddProcessorBody{};
  feed(add);
  feed(regular(kP2, 2, 12));
  feed(regular(kP2, 3, 14));
  romp.on_heartbeat(heartbeat(kP1, 0, 20), 0);
  romp.on_heartbeat(heartbeat(kP3, 0, 20), 0);
  romp.on_heartbeat(heartbeat(kP2, 3, 20), 3);

  auto batch = collect();
  ASSERT_EQ(batch.size(), 1u) << "batch must end at the AddProcessor";
  EXPECT_EQ(batch[0].header.type, MessageType::kAddProcessor);

  // The session applies the ADD: the new member P4 joins with bound 10.
  romp.admit(ProcessorId{4}, 0, 10);
  EXPECT_TRUE(collect().empty())
      << "ts 12/14 must now wait for the new member's bound";
  romp.on_heartbeat(heartbeat(ProcessorId{4}, 0, 13), 0);
  auto next = collect();
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].header.message_timestamp, 12u);
}

TEST_F(RompFixture, ConsumedBoundaryCoversControlMessages) {
  // Suspect/Membership consume sequence numbers without being ordered;
  // the join resume boundary must advance over them (soak regression).
  feed(regular(kP2, 1, 10));
  Message suspect = regular(kP2, 2, 11);
  suspect.header.type = MessageType::kSuspect;
  suspect.body = SuspectBody{};
  feed(suspect);
  Message membership = regular(kP2, 3, 12);
  membership.header.type = MessageType::kMembership;
  membership.body = MembershipBody{};
  feed(membership);

  // The Regular at seq 1 is not delivered yet: consumed stops before it.
  EXPECT_EQ(romp.consumed_up_to(kP2), 0u);
  romp.on_heartbeat(heartbeat(kP1, 0, 20), 0);
  romp.on_heartbeat(heartbeat(kP3, 0, 20), 0);
  EXPECT_EQ(collect().size(), 1u);  // delivers seq 1
  EXPECT_EQ(romp.consumed_up_to(kP2), 3u)
      << "boundary passes the delivered Regular AND the control messages";
}

TEST_F(RompFixture, AckOwedOnlyForOthersOrderedMessagesUntilNextStamp) {
  feed(regular(kP1, 1, 5));  // own loopback
  romp.on_heartbeat(heartbeat(kP2, 0, 9), 0);
  Message suspect = regular(kP2, 1, 10);
  suspect.header.type = MessageType::kSuspect;
  suspect.body = SuspectBody{};
  feed(suspect);
  EXPECT_FALSE(romp.ack_owed())
      << "own messages, heartbeats and unordered control messages owe nothing";
  feed(regular(kP2, 2, 11));
  EXPECT_TRUE(romp.ack_owed());
  feed(regular(kP3, 1, 12));
  EXPECT_TRUE(romp.ack_owed());
  (void)romp.stamp(0);  // any send is stamped above both
  EXPECT_FALSE(romp.ack_owed());
}

// The default rule (OrderingMode::kLamport): P1 counts at its clock while
// none of its own reliable messages is in flight.
struct OwnClockFixture : RompFixture {
  LamportOrdering prompt{romp, /*own_clock_bound=*/true};

  void feed(const Message& m) {
    const Frame f = frame_of(m);
    romp.on_source_ordered(f.header);
    prompt.on_source_ordered(f, 0);
  }
  // Stamps one of P1's own Regulars and hands it to the rule as
  // GroupSession::finish_send does; it loops back only when fed.
  Message send_own(SeqNum seq) {
    Message m = regular(kP1, seq, romp.stamp(0));
    prompt.on_own_send(m.header);
    return m;
  }
  std::vector<Frame> collect() { return prompt.collect_deliverable(0); }
};

TEST_F(OwnClockFixture, IdleMemberCountsAtItsClock) {
  feed(regular(kP2, 1, 10));
  romp.on_heartbeat(heartbeat(kP3, 0, 20), 0);
  ASSERT_EQ(collect().size(), 1u) << "P1's clock (20) covers P2's message";
  EXPECT_EQ(romp.min_bound(), 0u) << "Romp's own bounds are unchanged";
}

TEST_F(OwnClockFixture, OwnMessageInFlightBlocksHigherTimestamps) {
  const Message mine = send_own(1);  // ts 1, not looped back yet
  feed(regular(kP2, 1, 10));
  romp.on_heartbeat(heartbeat(kP3, 0, 20), 0);
  EXPECT_TRUE(collect().empty())
      << "P1's own ts-1 message is in flight and must be delivered first";
  feed(mine);
  const auto out = collect();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].header.source, kP1);
  EXPECT_EQ(out[1].header.source, kP2);
}

}  // namespace
}  // namespace ftcorba::ftmp
