// Unit tests for the flow-control subsystem (flow.hpp): send-window
// accounting, the bounded parked-send FIFO, and the congestion predicate's
// watermark hysteresis.
#include <gtest/gtest.h>

#include "common/metrics.hpp"
#include "ftmp/flow.hpp"

namespace ftcorba::ftmp {
namespace {

Config flow_config(std::size_t window_msgs, std::size_t window_bytes = 0) {
  Config c;
  c.flow_window_messages = window_msgs;
  c.flow_window_bytes = window_bytes;
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
  FlowController f(flow_config(1));
  f.note_sent(1, 10);  // window full from here on
  for (RequestNum n = 1; n <= kFlowSendQueueLimit; ++n) {
    ASSERT_TRUE(f.park(payload(10, n)));
  }
  EXPECT_FALSE(f.park(payload(10, kFlowSendQueueLimit + 1))) << "queue at capacity";
  EXPECT_EQ(f.stats().queue_drops.value(), 1u);
  EXPECT_EQ(f.stats().pacing_stalls.value(), kFlowSendQueueLimit);
  EXPECT_EQ(f.queue_depth(), kFlowSendQueueLimit);

  EXPECT_FALSE(f.release_one().has_value()) << "window still full";
  f.on_stable(1);
  // release_one does not account the send; the session's emit does. Here
  // the window stays empty, so every parked send pops, oldest first.
  for (RequestNum n = 1; n <= kFlowSendQueueLimit; ++n) {
    auto next = f.release_one();
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->request_num, n) << "FIFO order";
  }
  EXPECT_FALSE(f.release_one().has_value());
  EXPECT_EQ(f.stats().releases.value(), kFlowSendQueueLimit);
}

TEST(Flow, ParkedQueueBlocksFreshSends) {
  FlowController f(flow_config(4));
  f.note_sent(1, 10);
  EXPECT_TRUE(f.may_send(10));
  ASSERT_TRUE(f.park(payload(10)));  // something already waits
  EXPECT_FALSE(f.may_send(10)) << "fresh sends must queue behind parked ones";
}

// Parks sends until the queue holds `depth`.
void park_to(FlowController& f, std::size_t depth) {
  while (f.queue_depth() < depth) ASSERT_TRUE(f.park(payload(10)));
}

TEST(Flow, WatermarksSignalOncePerExcursion) {
  FlowController f(flow_config(1));
  f.note_sent(1, 10);

  park_to(f, kFlowHighWatermark - 1);
  EXPECT_FALSE(f.over_high_watermark());
  EXPECT_EQ(f.stats().queue_high_events.value(), 0u);

  ASSERT_TRUE(f.park(payload(10)));  // depth = high watermark
  EXPECT_TRUE(f.over_high_watermark());
  EXPECT_EQ(f.stats().queue_high_events.value(), 1u);
  ASSERT_TRUE(f.park(payload(10)));  // deeper, but no second crossing
  EXPECT_EQ(f.stats().queue_high_events.value(), 1u);
  EXPECT_EQ(f.stats().queue_highwater, kFlowHighWatermark + 1);

  // The window is empty after on_stable and stays so (no note_sent here),
  // so the queue drains one by one; it stays congested down to the low
  // watermark.
  f.on_stable(1);
  while (f.queue_depth() > kFlowLowWatermark + 1) {
    ASSERT_TRUE(f.release_one().has_value());
    ASSERT_TRUE(f.over_high_watermark()) << "depth " << f.queue_depth();
  }
  ASSERT_TRUE(f.release_one().has_value());  // depth = low watermark
  EXPECT_FALSE(f.over_high_watermark());

  // Refilling to the high watermark is a new excursion.
  park_to(f, kFlowHighWatermark - 1);
  EXPECT_FALSE(f.over_high_watermark());
  ASSERT_TRUE(f.park(payload(10)));  // depth = high watermark
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
