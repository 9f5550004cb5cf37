// Unit tests for the flow-control subsystem (flow.hpp): send-window
// accounting, the bounded parked-send FIFO, watermark signalling with
// hysteresis, and the slow-receiver lag policy.
#include <gtest/gtest.h>

#include "ftmp/flow.hpp"

namespace ftcorba::ftmp {
namespace {

constexpr ProcessorId kSelf{1};

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
  FlowController f(kSelf, Config{});  // flow_window_messages == 0
  EXPECT_FALSE(f.window_enabled());
  EXPECT_FALSE(f.lag_enabled());
  EXPECT_TRUE(f.may_send(1 << 20));
  f.note_sent(1, 100);  // no-op while disabled
  EXPECT_EQ(f.in_flight_messages(), 0u);
  EXPECT_EQ(f.in_flight_bytes(), 0u);
}

TEST(Flow, MessageWindowFillsAndDrains) {
  FlowController f(kSelf, flow_config(2));
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
  FlowController f(kSelf, flow_config(100, /*window_bytes=*/50));
  f.note_sent(1, 40);
  EXPECT_FALSE(f.may_send(20)) << "40 + 20 exceeds the 50-byte bound";
  EXPECT_TRUE(f.may_send(10));
  f.on_stable(1);
  // An oversized payload is still admitted when nothing is in flight —
  // the byte bound must not deadlock payloads larger than itself.
  EXPECT_TRUE(f.may_send(500));
}

TEST(Flow, QueueIsFifoAndBounded) {
  FlowController f(kSelf, flow_config(1, 0, /*queue_limit=*/2));
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
  FlowController f(kSelf, flow_config(4));
  f.note_sent(1, 10);
  EXPECT_TRUE(f.may_send(10));
  ASSERT_TRUE(f.park(payload(10)));  // something already waits
  EXPECT_FALSE(f.may_send(10)) << "fresh sends must queue behind parked ones";
}

TEST(Flow, WatermarksSignalOncePerExcursion) {
  // A queue limit of 4 puts the watermarks at 3 and 1.
  Config c = flow_config(1, 0, /*queue_limit=*/4);
  FlowController f(kSelf, c);
  f.note_sent(1, 10);

  ASSERT_TRUE(f.park(payload(10)));
  ASSERT_TRUE(f.park(payload(10)));
  EXPECT_FALSE(f.over_high_watermark());
  EXPECT_TRUE(f.take_signals().empty());

  ASSERT_TRUE(f.park(payload(10)));  // depth 3 = high watermark
  EXPECT_TRUE(f.over_high_watermark());
  auto raised = f.take_signals();
  ASSERT_EQ(raised.size(), 1u);
  EXPECT_EQ(raised[0], FlowSignal::kQueueHigh);
  ASSERT_TRUE(f.park(payload(10)));  // deeper, but no second signal
  EXPECT_TRUE(f.take_signals().empty());
  EXPECT_EQ(f.stats().queue_high_events.value(), 1u);
  EXPECT_EQ(f.stats().queue_highwater, 4u);

  f.on_stable(1);
  ASSERT_TRUE(f.release_one().has_value());  // depth 3
  EXPECT_TRUE(f.over_high_watermark()) << "still above the low watermark";
  f.on_stable(2);
  // Window is empty again after each release below (no note_sent here), so
  // the queue drains one by one.
  ASSERT_TRUE(f.release_one().has_value());  // depth 2
  ASSERT_TRUE(f.release_one().has_value());  // depth 1 = low watermark
  EXPECT_FALSE(f.over_high_watermark());
  auto lowered = f.take_signals();
  ASSERT_EQ(lowered.size(), 1u);
  EXPECT_EQ(lowered[0], FlowSignal::kQueueLow);
}

TEST(Flow, LagWarnsOncePerExcursionAndReportsEvictions) {
  Config c;  // window disabled: lag monitoring is independent
  c.flow_lag_warn = 10;
  c.flow_lag_evict = 100;
  c.heartbeat_interval = 10 * kMillisecond;
  FlowController f(kSelf, c);
  EXPECT_TRUE(f.lag_enabled());
  const ProcessorId q2{2};
  const ProcessorId q3{3};

  TimePoint now = 0;
  // q3 trails the max (q2's 1000) by 50: warn, no evict.
  auto evict = f.observe_lag(now, {{kSelf, 1000}, {q2, 1000}, {q3, 950}});
  EXPECT_TRUE(evict.empty());
  EXPECT_EQ(f.stats().lag_warnings.value(), 1u);

  now += 10 * kMillisecond;
  // Still lagging: no repeated warning while inside the excursion.
  evict = f.observe_lag(now, {{kSelf, 2000}, {q2, 2000}, {q3, 1950}});
  EXPECT_TRUE(evict.empty());
  EXPECT_EQ(f.stats().lag_warnings.value(), 1u);

  now += 10 * kMillisecond;
  // Past the evict threshold: reported exactly once.
  evict = f.observe_lag(now, {{kSelf, 3000}, {q2, 3000}, {q3, 2000}});
  ASSERT_EQ(evict.size(), 1u);
  EXPECT_EQ(evict[0], q3);
  EXPECT_EQ(f.stats().evict_reports.value(), 1u);
  now += 10 * kMillisecond;
  evict = f.observe_lag(now, {{kSelf, 4000}, {q2, 4000}, {q3, 3000}});
  EXPECT_TRUE(evict.empty()) << "one report per excursion";

  now += 10 * kMillisecond;
  // Full recovery clears both hysteresis latches; a fresh excursion warns
  // again.
  evict = f.observe_lag(now, {{kSelf, 5000}, {q2, 5000}, {q3, 5000}});
  EXPECT_TRUE(evict.empty());
  now += 10 * kMillisecond;
  evict = f.observe_lag(now, {{kSelf, 6000}, {q2, 6000}, {q3, 5950}});
  EXPECT_EQ(f.stats().lag_warnings.value(), 2u);
}

TEST(Flow, LagChecksThrottleToHeartbeatIntervalAndSkipSelf) {
  Config c;
  c.flow_lag_warn = 10;
  c.heartbeat_interval = 10 * kMillisecond;
  FlowController f(kSelf, c);
  const ProcessorId q2{2};

  // Self lags the max but is never warned about.
  (void)f.observe_lag(0, {{kSelf, 0}, {q2, 1000}});
  EXPECT_EQ(f.stats().lag_warnings.value(), 0u);

  // Within the heartbeat interval the check is a no-op.
  (void)f.observe_lag(1 * kMillisecond, {{kSelf, 0}, {q2, 0}});
  (void)f.observe_lag(2 * kMillisecond, {{kSelf, 1000}, {q2, 0}});
  EXPECT_EQ(f.stats().lag_warnings.value(), 0u);
  (void)f.observe_lag(20 * kMillisecond, {{kSelf, 1000}, {q2, 0}});
  EXPECT_EQ(f.stats().lag_warnings.value(), 1u);
}

}  // namespace
}  // namespace ftcorba::ftmp
