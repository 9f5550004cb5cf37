// Unit tests for the RMP layer (§5): sequencing, gap detection, NACKs,
// retransmission policy, and buffer accounting.
#include <gtest/gtest.h>

#include "ftmp/rmp.hpp"

namespace ftcorba::ftmp {
namespace {

constexpr ProcessorId kSelf{1};
constexpr ProcessorId kPeer{2};

Message regular(ProcessorId src, SeqNum seq, Timestamp ts = 0) {
  Message m;
  m.header.type = MessageType::kRegular;
  m.header.source = src;
  m.header.destination_group = ProcessorGroupId{1};
  m.header.sequence_number = seq;
  m.header.message_timestamp = ts ? ts : seq * 10;
  m.body = RegularBody{{}, seq, bytes_of(std::string("m").append(std::to_string(seq)))};
  return m;
}

Bytes raw_of(const Message& m) { return encode_message(m); }

Frame frame_of(const Message& m) { return Frame{m.header, raw_of(m)}; }

struct RmpFixture : ::testing::Test {
  Config config;
  Rmp rmp{kSelf, config};

  void SetUp() override {
    rmp.add_source(kSelf, 0);
    rmp.add_source(kPeer, 0);
  }

  std::vector<Frame> feed(const Message& m, TimePoint now = 0) {
    return rmp.on_reliable(now, frame_of(m));
  }
};

TEST_F(RmpFixture, InOrderDeliveryImmediate) {
  EXPECT_EQ(feed(regular(kPeer, 1)).size(), 1u);
  EXPECT_EQ(feed(regular(kPeer, 2)).size(), 1u);
  EXPECT_EQ(rmp.contiguous(kPeer), 2u);
  EXPECT_TRUE(rmp.complete(kPeer));
}

TEST_F(RmpFixture, GapBuffersAndDrains) {
  EXPECT_EQ(feed(regular(kPeer, 1)).size(), 1u);
  EXPECT_TRUE(feed(regular(kPeer, 3)).empty());  // gap at 2
  EXPECT_EQ(rmp.out_of_order_count(), 1u);
  EXPECT_FALSE(rmp.complete(kPeer));
  const auto drained = feed(regular(kPeer, 2));
  ASSERT_EQ(drained.size(), 2u);  // 2 then 3, in source order
  EXPECT_EQ(drained[0].header.sequence_number, 2u);
  EXPECT_EQ(drained[1].header.sequence_number, 3u);
  EXPECT_EQ(rmp.out_of_order_count(), 0u);
}

TEST_F(RmpFixture, GapTriggersNack) {
  (void)feed(regular(kPeer, 1));
  (void)feed(regular(kPeer, 4), 1 * kMillisecond);
  const auto out = rmp.take_output();
  ASSERT_EQ(out.size(), 1u);
  const auto* nack = std::get_if<NackOut>(&out[0]);
  ASSERT_NE(nack, nullptr);
  EXPECT_EQ(nack->missing_from, kPeer);
  EXPECT_EQ(nack->start, 2u);
  EXPECT_EQ(nack->stop, 3u);
  EXPECT_EQ(rmp.stats().nacks_sent.value(), 1u);
}

TEST_F(RmpFixture, NackRateLimited) {
  (void)feed(regular(kPeer, 1));
  (void)feed(regular(kPeer, 4), 1 * kMillisecond);  // first NACK at 1 ms
  (void)rmp.take_output();
  rmp.on_tick(1 * kMillisecond + kNackInterval - 1);
  EXPECT_TRUE(rmp.take_output().empty()) << "within kNackInterval";
  rmp.on_tick(1 * kMillisecond + kNackInterval);
  EXPECT_EQ(rmp.take_output().size(), 1u);
}

TEST_F(RmpFixture, HeartbeatRevealsGap) {
  Header hb;
  hb.type = MessageType::kHeartbeat;
  hb.source = kPeer;
  hb.sequence_number = 5;  // peer has sent 5 messages; we saw none
  rmp.on_heartbeat(1 * kMillisecond, hb);
  const auto out = rmp.take_output();
  ASSERT_EQ(out.size(), 1u);
  const auto* nack = std::get_if<NackOut>(&out[0]);
  ASSERT_NE(nack, nullptr);
  EXPECT_EQ(nack->start, 1u);
  EXPECT_EQ(nack->stop, 5u);
}

TEST_F(RmpFixture, DuplicatesIgnored) {
  (void)feed(regular(kPeer, 1));
  EXPECT_TRUE(feed(regular(kPeer, 1)).empty());
  EXPECT_EQ(rmp.stats().duplicates_ignored.value(), 1u);
  // Duplicate of a buffered out-of-order message too.
  (void)feed(regular(kPeer, 3));
  EXPECT_TRUE(feed(regular(kPeer, 3)).empty());
  EXPECT_EQ(rmp.stats().duplicates_ignored.value(), 2u);
}

TEST_F(RmpFixture, UnknownSourceDropped) {
  EXPECT_TRUE(feed(regular(ProcessorId{99}, 1)).empty());
  EXPECT_EQ(rmp.stats().dropped_unknown_source.value(), 1u);
}

TEST_F(RmpFixture, RetransmitServesStoredMessages) {
  (void)feed(regular(kPeer, 1));
  (void)feed(regular(kPeer, 2));
  rmp.on_retransmit_request(10 * kMillisecond, RetransmitRequestBody{kPeer, 1, 2});
  const auto out = rmp.take_output();
  ASSERT_EQ(out.size(), 2u);
  for (const RmpOut& o : out) {
    const auto* rt = std::get_if<RetransmitOut>(&o);
    ASSERT_NE(rt, nullptr);
    const Message m = decode_message(rt->raw);
    EXPECT_TRUE(m.header.retransmission) << "retransmission flag must be set";
    EXPECT_EQ(m.header.source, kPeer);
  }
  EXPECT_EQ(rmp.stats().retransmissions_sent.value(), 2u);
}

TEST_F(RmpFixture, SourceOnlyPolicyRefusesOthersMessages) {
  Config strict;
  strict.any_holder_retransmit = false;
  Rmp rmp2(kSelf, strict);
  rmp2.add_source(kPeer, 0);
  (void)rmp2.on_reliable(0, frame_of(regular(kPeer, 1)));
  rmp2.on_retransmit_request(10 * kMillisecond, RetransmitRequestBody{kPeer, 1, 1});
  EXPECT_TRUE(rmp2.take_output().empty()) << "not the source: must not retransmit";
  // But our own messages are always served.
  const SeqNum seq = rmp2.assign_seq();
  Message own = regular(kSelf, seq);
  rmp2.store(kSelf, seq, raw_of(own));
  rmp2.on_retransmit_request(20 * kMillisecond, RetransmitRequestBody{kSelf, seq, seq});
  EXPECT_EQ(rmp2.take_output().size(), 1u);
}

TEST_F(RmpFixture, RetransmitRateLimitedPerMessage) {
  (void)feed(regular(kPeer, 1));
  rmp.on_retransmit_request(10 * kMillisecond, RetransmitRequestBody{kPeer, 1, 1});
  rmp.on_retransmit_request(11 * kMillisecond, RetransmitRequestBody{kPeer, 1, 1});
  EXPECT_EQ(rmp.take_output().size(), 1u) << "second request within interval suppressed";
  rmp.on_retransmit_request(30 * kMillisecond, RetransmitRequestBody{kPeer, 1, 1});
  EXPECT_EQ(rmp.take_output().size(), 1u);
}

TEST_F(RmpFixture, ReleaseReclaimsBuffers) {
  for (SeqNum s = 1; s <= 5; ++s) (void)feed(regular(kPeer, s));
  EXPECT_EQ(rmp.stored_count(), 5u);
  const std::size_t bytes_before = rmp.stored_bytes();
  EXPECT_GT(bytes_before, 0u);
  rmp.release(kPeer, 3);
  EXPECT_EQ(rmp.stored_count(), 2u);
  EXPECT_LT(rmp.stored_bytes(), bytes_before);
  // Released messages can no longer be retransmitted.
  rmp.on_retransmit_request(10 * kMillisecond, RetransmitRequestBody{kPeer, 1, 5});
  EXPECT_EQ(rmp.take_output().size(), 2u);
}

TEST_F(RmpFixture, NoteExistsTriggersRecovery) {
  rmp.note_exists(1 * kMillisecond, kPeer, 7);
  EXPECT_EQ(rmp.highest_seen(kPeer), 7u);
  const auto out = rmp.take_output();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(std::get<NackOut>(out[0]).stop, 7u);
}

TEST_F(RmpFixture, HeartbeatDueTracksSends) {
  EXPECT_TRUE(rmp.heartbeat_due(20 * kMillisecond));
  rmp.note_sent(20 * kMillisecond);
  EXPECT_FALSE(rmp.heartbeat_due(25 * kMillisecond));
  EXPECT_TRUE(rmp.heartbeat_due(31 * kMillisecond));  // default interval 10ms
}

TEST_F(RmpFixture, AssignSeqMonotone) {
  EXPECT_EQ(rmp.assign_seq(), 1u);
  EXPECT_EQ(rmp.assign_seq(), 2u);
  EXPECT_EQ(rmp.last_sent(), 2u);
}

TEST_F(RmpFixture, JoiningSourceStartsMidStream) {
  rmp.add_source(ProcessorId{3}, 10);  // join: expect from 11
  EXPECT_EQ(rmp.on_reliable(0, frame_of(regular(ProcessorId{3}, 11))).size(), 1u);
  EXPECT_EQ(rmp.contiguous(ProcessorId{3}), 11u);
}

TEST(RmpOooCap, DropsAtCapWithDistinctStatus) {
  Config config;
  config.max_out_of_order_buffer = 2;
  Rmp rmp(kSelf, config);
  rmp.add_source(kSelf, 0);
  rmp.add_source(kPeer, 0);
  // Feeds one message and returns the sequence numbers it made deliverable.
  auto feed = [&](const Message& m) {
    std::vector<SeqNum> seqs;
    for (const Frame& f : rmp.on_reliable(0, frame_of(m))) {
      seqs.push_back(f.header.sequence_number);
    }
    return seqs;
  };
  using Seqs = std::vector<SeqNum>;
  // Seqs 1-2 missing: 3 and 4 park in the out-of-order buffer, 5 hits the cap.
  EXPECT_EQ(feed(regular(kPeer, 3)), Seqs{});
  EXPECT_EQ(rmp.out_of_order_count(), 1u);
  EXPECT_EQ(feed(regular(kPeer, 4)), Seqs{});
  EXPECT_EQ(rmp.out_of_order_count(), 2u);
  EXPECT_EQ(rmp.stats().ooo_dropped.value(), 0u);
  EXPECT_EQ(feed(regular(kPeer, 5)), Seqs{});
  EXPECT_EQ(rmp.stats().ooo_dropped.value(), 1u);
  EXPECT_EQ(rmp.out_of_order_count(), 2u);
  EXPECT_EQ(rmp.stats().duplicates_ignored.value(), 0u);
  // The drop is a delay, not a loss: once the gap fills, NACK recovery
  // re-fetches seq 5 like any other missing message.
  EXPECT_EQ(feed(regular(kPeer, 1)), Seqs{1});
  EXPECT_EQ(rmp.contiguous(kPeer), 1u);
  EXPECT_EQ(feed(regular(kPeer, 1)), Seqs{});
  EXPECT_EQ(rmp.stats().duplicates_ignored.value(), 1u);
  EXPECT_EQ(feed(regular(kPeer, 2)), (Seqs{2, 3, 4}));  // drains 3, 4
  EXPECT_EQ(rmp.contiguous(kPeer), 4u);
  EXPECT_EQ(rmp.out_of_order_count(), 0u);
  EXPECT_EQ(feed(regular(kPeer, 5)), Seqs{5});
  EXPECT_TRUE(rmp.complete(kPeer));
  EXPECT_EQ(rmp.stats().ooo_dropped.value(), 1u);
  EXPECT_EQ(rmp.stats().duplicates_ignored.value(), 1u);
}

// --- NACK spacing (docs/RECOVERY.md) --------------------------------------
// Drives a persistent gap against a 1ms tick clock and records when each
// NACK round fires; the emission times expose the spacing schedule.

std::vector<TimePoint> nack_times(Rmp& rmp, TimePoint from, TimePoint until) {
  std::vector<TimePoint> times;
  for (TimePoint t = from; t <= until; t += kMillisecond) {
    rmp.on_tick(t);
    for (const RmpOut& o : rmp.take_output()) {
      if (std::get_if<NackOut>(&o)) times.push_back(t);
    }
  }
  return times;
}

TEST(RmpBackoff, OffMeansFixedSpacing) {
  Rmp rmp(kSelf, Config{});  // a gap that never fills is re-NACKed every kNackInterval
  rmp.add_source(kPeer, 0);
  (void)rmp.on_reliable(0, Frame{regular(kPeer, 1).header, encode_message(regular(kPeer, 1))});
  rmp.note_exists(0, kPeer, 5);  // open a gap that never fills
  (void)rmp.take_output();       // discard the immediate first NACK
  const auto times = nack_times(rmp, kMillisecond, 100 * kMillisecond);
  ASSERT_GE(times.size(), 2u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_EQ(times[i] - times[i - 1], kNackInterval)
        << "every round at the fixed interval";
  }
}

TEST_F(RmpFixture, RemoveSourceKeepsStoreUntilPurge) {
  (void)feed(regular(kPeer, 1));
  rmp.remove_source(kPeer);
  EXPECT_FALSE(rmp.has_source(kPeer));
  // Lagging members can still fetch the removed member's messages...
  rmp.on_retransmit_request(10 * kMillisecond, RetransmitRequestBody{kPeer, 1, 1});
  EXPECT_EQ(rmp.take_output().size(), 1u);
  // ...until the deferred purge.
  rmp.purge_store(kPeer);
  rmp.on_retransmit_request(30 * kMillisecond, RetransmitRequestBody{kPeer, 1, 1});
  EXPECT_TRUE(rmp.take_output().empty());
}

}  // namespace
}  // namespace ftcorba::ftmp
