// Unit tests for the flow-control subsystem (flow.hpp): send-window
// accounting, the bounded parked-send FIFO, and the congestion predicate's
// watermark hysteresis.
#include <gtest/gtest.h>

#include "common/metrics.hpp"
#include "ftmp/flow.hpp"

namespace ftcorba::ftmp {
namespace {

Config flow_config(std::size_t window_msgs, std::size_t window_bytes = 0,
                   std::size_t queue_limit = 8) {
  Config c;
  c.flow_window_messages = window_msgs;
  c.flow_window_bytes = window_bytes;
  c.flow_send_queue_limit = queue_limit;
  return c;
}

FlowController::Parked payload(std::size_t bytes, RequestNum num = 1) {
  return FlowController::Parked{ConnectionId{}, num, Bytes(bytes, 0xab)};
}

TEST(Flow, DisabledIsTransparent) {
  FlowController f(Config{});  // flow_window_messages == 0
  EXPECT_FALSE(f.window_enabled());
  EXPECT_TRUE(f.may_send(1 << 20));
  f.note_sent(1, 100);  // no-op while disabled
  EXPECT_EQ(f.in_flight_messages(), 0u);
  EXPECT_EQ(f.in_flight_bytes(), 0u);
}

TEST(Flow, MessageWindowFillsAndDrains) {
  FlowController f(flow_config(2));
  EXPECT_TRUE(f.may_send(10));
  f.note_sent(1, 10);
  EXPECT_TRUE(f.may_send(10));
  f.note_sent(2, 10);
  EXPECT_FALSE(f.may_send(10)) << "window of 2 is full";
  EXPECT_EQ(f.in_flight_messages(), 2u);
  EXPECT_EQ(f.in_flight_bytes(), 20u);

  f.on_stable(1);  // seq 1 became stable group-wide
  EXPECT_EQ(f.in_flight_messages(), 1u);
  EXPECT_EQ(f.in_flight_bytes(), 10u);
  EXPECT_TRUE(f.may_send(10));

  f.on_stable(2);
  EXPECT_EQ(f.in_flight_messages(), 0u);
  EXPECT_EQ(f.in_flight_bytes(), 0u);
}

TEST(Flow, ByteWindowBoundsInFlightBytes) {
  FlowController f(flow_config(100, /*window_bytes=*/50));
  f.note_sent(1, 40);
  EXPECT_FALSE(f.may_send(20)) << "40 + 20 exceeds the 50-byte bound";
  EXPECT_TRUE(f.may_send(10));
  f.on_stable(1);
  // An oversized payload is still admitted when nothing is in flight —
  // the byte bound must not deadlock payloads larger than itself.
  EXPECT_TRUE(f.may_send(500));
}

TEST(Flow, QueueIsFifoAndBounded) {
  FlowController f(flow_config(1, 0, /*queue_limit=*/2));
  f.note_sent(1, 10);  // window full from here on
  EXPECT_TRUE(f.park(payload(10, 101)));
  EXPECT_TRUE(f.park(payload(10, 102)));
  EXPECT_FALSE(f.park(payload(10, 103))) << "queue at capacity";
  EXPECT_EQ(f.stats().queue_drops.value(), 1u);
  EXPECT_EQ(f.stats().pacing_stalls.value(), 2u);
  EXPECT_EQ(f.queue_depth(), 2u);

  EXPECT_FALSE(f.release_one().has_value()) << "window still full";
  f.on_stable(1);
  auto first = f.release_one();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->request_num, 101u) << "FIFO order";
  // release_one does not account the send; the session's emit does. Here
  // the window stays empty, so the second parked send pops too.
  auto second = f.release_one();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->request_num, 102u);
  EXPECT_FALSE(f.release_one().has_value());
  EXPECT_EQ(f.stats().releases.value(), 2u);
}

TEST(Flow, ParkedQueueBlocksFreshSends) {
  FlowController f(flow_config(4));
  f.note_sent(1, 10);
  EXPECT_TRUE(f.may_send(10));
  ASSERT_TRUE(f.park(payload(10)));  // something already waits
  EXPECT_FALSE(f.may_send(10)) << "fresh sends must queue behind parked ones";
}

TEST(Flow, WatermarksSignalOncePerExcursion) {
  // A queue limit of 4 puts the watermarks at 3 and 1.
  Config c = flow_config(1, 0, /*queue_limit=*/4);
  FlowController f(c);
  f.note_sent(1, 10);

  ASSERT_TRUE(f.park(payload(10)));
  ASSERT_TRUE(f.park(payload(10)));
  EXPECT_FALSE(f.over_high_watermark());
  EXPECT_EQ(f.stats().queue_high_events.value(), 0u);

  ASSERT_TRUE(f.park(payload(10)));  // depth 3 = high watermark
  EXPECT_TRUE(f.over_high_watermark());
  EXPECT_EQ(f.stats().queue_high_events.value(), 1u);
  ASSERT_TRUE(f.park(payload(10)));  // deeper, but no second crossing
  EXPECT_EQ(f.stats().queue_high_events.value(), 1u);
  EXPECT_EQ(f.stats().queue_highwater, 4u);

  f.on_stable(1);
  ASSERT_TRUE(f.release_one().has_value());  // depth 3
  EXPECT_TRUE(f.over_high_watermark()) << "still above the low watermark";
  f.on_stable(2);
  // Window is empty again after each release below (no note_sent here), so
  // the queue drains one by one.
  ASSERT_TRUE(f.release_one().has_value());  // depth 2
  EXPECT_TRUE(f.over_high_watermark());
  ASSERT_TRUE(f.release_one().has_value());  // depth 1 = low watermark
  EXPECT_FALSE(f.over_high_watermark());

  // Refilling to the high watermark is a new excursion.
  ASSERT_TRUE(f.park(payload(10)));
  EXPECT_FALSE(f.over_high_watermark());
  ASSERT_TRUE(f.park(payload(10)));  // depth 3
  EXPECT_TRUE(f.over_high_watermark());
  EXPECT_EQ(f.stats().queue_high_events.value(), 2u);
}

TEST(Flow, QueueHighwaterGaugeCountsPeaksAfterAReset) {
  FlowController f(flow_config(1));
  f.note_sent(1, 10);
  for (RequestNum n = 1; n <= 4; ++n) ASSERT_TRUE(f.park(payload(10, n)));
  f.on_stable(1);
  while (f.release_one()) {
  }
  ASSERT_EQ(f.queue_depth(), 0u);

  metrics::reset_all();
  for (RequestNum n = 5; n <= 7; ++n) ASSERT_TRUE(f.park(payload(10, n)));
#if FTCORBA_METRICS_ENABLED
  std::int64_t gauge = -1;
  for (const metrics::Sample& sample : metrics::snapshot()) {
    if (sample.name == "ftmp_flow_send_queue_highwater") gauge = sample.gauge;
  }
  EXPECT_EQ(gauge, 3) << "the registry's peak since the reset";
#endif
  EXPECT_EQ(f.stats().queue_highwater, 4u) << "the controller's own peak";
}

}  // namespace
}  // namespace ftcorba::ftmp
