// Integration tests for flow control end-to-end (docs/FLOW.md): the
// stability-driven send window bounding the retransmission store under a
// slow receiver, watermark backpressure signals, and lag-based eviction.
#include <gtest/gtest.h>

#include <algorithm>

#include "ftmp/sim_harness.hpp"

namespace ftcorba::ftmp {
namespace {

constexpr FtDomainId kDomain{1};
constexpr McastAddress kDomainAddr{100};
constexpr ProcessorGroupId kGroup{1};
constexpr McastAddress kGroupAddr{200};

ConnectionId test_conn() {
  return ConnectionId{FtDomainId{1}, ObjectGroupId{10}, FtDomainId{1}, ObjectGroupId{20}};
}

// Builds a harness with n processors P1..Pn all bootstrapped into kGroup,
// every stack using `config`.
SimHarness make_group(int n, const Config& config, std::uint64_t seed = 7) {
  SimHarness h({}, seed);
  std::vector<ProcessorId> members;
  for (int i = 1; i <= n; ++i) members.push_back(ProcessorId{std::uint32_t(i)});
  for (ProcessorId p : members) {
    h.add_processor(p, kDomain, kDomainAddr, config);
  }
  for (ProcessorId p : members) {
    h.stack(p).create_group(h.now(), kGroup, kGroupAddr, members);
  }
  return h;
}

// Degrades every link INTO `slow` (its own sends stay clean, so it keeps
// heartbeating and is never liveness-suspected — it is slow, not dead).
void degrade_links_into(SimHarness& h, ProcessorId slow, net::LinkModel model) {
  for (ProcessorId p : h.processors()) {
    if (p != slow) h.network().set_link(p, slow, model);
  }
}

net::LinkModel lossy_link(double loss) {
  net::LinkModel m;
  m.loss = loss;
  return m;
}

net::LinkModel laggy_link(Duration delay) {
  net::LinkModel m;
  m.delay = delay;
  return m;
}

// set_partition-style heal() does not reset per-link overrides; restore
// them to the pristine default explicitly.
void restore_links_into(SimHarness& h, ProcessorId slow) {
  for (ProcessorId p : h.processors()) {
    if (p != slow) h.network().set_link(p, slow, {});
  }
}

// Runs a fixed lossy-slow-receiver workload and returns the peak of the
// sender's retransmission store over the run. Identical seed and traffic
// with and without the window, so the two peaks are directly comparable.
std::size_t run_store_peak(bool flow_on, std::size_t* final_store = nullptr,
                           std::size_t* delivered = nullptr) {
  Config config;
  if (flow_on) config.flow_window_messages = 16;
  SimHarness h = make_group(4, config, /*seed=*/21);
  h.run_for(50 * kMillisecond);  // settle the bootstrap
  // 60 ms of extra one-way delay into P4: its acks trail the group by
  // dozens of messages at this send rate, so stability (and store
  // reclamation) lags deterministically.
  degrade_links_into(h, ProcessorId{4}, laggy_link(60 * kMillisecond));

  const ProcessorId sender{1};
  const Bytes payload(512, 0x5a);
  std::size_t peak = 0;
  for (int i = 0; i < 150; ++i) {
    const auto status = h.stack(sender).group(kGroup)->try_send_regular(
        h.now(), test_conn(), std::uint64_t(i + 1), payload);
    EXPECT_NE(status, SendStatus::kRejected) << "queue (1024) never fills here";
    h.run_for(1 * kMillisecond);
    peak = std::max(peak, h.stack(sender).group(kGroup)->rmp().stored_bytes());
  }
  // Heal and let the slow receiver catch up; stability then releases the
  // store and the parked queue drains.
  restore_links_into(h, ProcessorId{4});
  h.run_for(3 * kSecond);
  peak = std::max(peak, h.stack(sender).group(kGroup)->rmp().stored_bytes());
  if (final_store) *final_store = h.stack(sender).group(kGroup)->rmp().stored_bytes();
  if (delivered) *delivered = h.delivered(ProcessorId{4}, kGroup).size();
  return peak;
}

TEST(FlowIntegration, WindowBoundsSenderStoreUnderSlowReceiver) {
  std::size_t final_on = 0, delivered_on = 0;
  const std::size_t peak_on = run_store_peak(true, &final_on, &delivered_on);
  std::size_t delivered_off = 0;
  const std::size_t peak_off = run_store_peak(false, nullptr, &delivered_off);

  // With the window, at most 16 of the sender's messages are unstable at
  // once: the store peak is bounded by the window, not the run length
  // (512 B payload + protocol framing, plus interleaved heartbeats).
  EXPECT_LE(peak_on, 16 * 700 + 4096) << "store must stay within the window";
  EXPECT_GT(peak_off, peak_on) << "without flow the store tracks run length";

  // Reliability is unaffected: everything is delivered either way, and
  // after catch-up stability reclaims (nearly) the whole store.
  EXPECT_EQ(delivered_on, 150u);
  EXPECT_EQ(delivered_off, 150u);
  EXPECT_LT(final_on, 2048u) << "store released promptly after catch-up";
}

TEST(FlowIntegration, OrderingPreservedThroughParkedQueue) {
  Config config;
  config.flow_window_messages = 4;
  SimHarness h = make_group(3, config, /*seed=*/5);
  h.run_for(50 * kMillisecond);

  // Burst far past the window: most sends park and are released by
  // stability over time.
  for (int i = 0; i < 40; ++i) {
    Bytes payload = bytes_of("burst-" + std::to_string(i));
    const auto status = h.stack(ProcessorId{1})
                            .group(kGroup)
                            ->try_send_regular(h.now(), test_conn(),
                                               std::uint64_t(i + 1), payload);
    EXPECT_NE(status, SendStatus::kRejected);
  }
  h.run_for(2 * kSecond);

  auto reference = h.delivered(ProcessorId{1}, kGroup);
  ASSERT_EQ(reference.size(), 40u) << "every parked send eventually goes out";
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(reference[i].giop_message, bytes_of("burst-" + std::to_string(i)))
        << "parked sends keep submission order";
  }
  for (ProcessorId p : h.processors()) {
    auto msgs = h.delivered(p, kGroup);
    ASSERT_EQ(msgs.size(), reference.size()) << "at " << to_string(p);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(msgs[i].giop_message, reference[i].giop_message);
    }
  }
  const auto& stats = h.stack(ProcessorId{1}).group(kGroup)->flow().stats();
  EXPECT_GT(stats.pacing_stalls, 0u) << "the burst must actually have parked";
  EXPECT_EQ(stats.queue_drops, 0u);
}

// Records watermark callbacks from the stack.
struct SignalRecorder : FlowListener {
  std::vector<FlowSignal> signals;
  void on_flow(ProcessorGroupId group, FlowSignal signal) override {
    EXPECT_EQ(group, kGroup);
    signals.push_back(signal);
  }
};

TEST(FlowIntegration, WatermarksFireThroughListenerAndStatusesReport) {
  Config config;
  config.flow_window_messages = 1;
  config.flow_send_queue_limit = 4;  // watermarks at 3 and 1
  SimHarness h = make_group(3, config, /*seed=*/11);
  SignalRecorder recorder;
  h.stack(ProcessorId{1}).set_flow_listener(&recorder);
  h.run_for(50 * kMillisecond);

  // Freeze stability: nothing from peers reaches P1, so its own sends
  // never stabilise and the window (1) stays full after the first send.
  h.network().set_link(ProcessorId{2}, ProcessorId{1}, lossy_link(1.0));
  h.network().set_link(ProcessorId{3}, ProcessorId{1}, lossy_link(1.0));

  auto* session = h.stack(ProcessorId{1}).group(kGroup);
  const Bytes payload = bytes_of("pressure");
  EXPECT_EQ(session->try_send_regular(h.now(), test_conn(), 1, payload),
            SendStatus::kSent);
  h.run_for(5 * kMillisecond);
  for (std::uint64_t i = 2; i <= 5; ++i) {
    EXPECT_EQ(session->try_send_regular(h.now(), test_conn(), i, payload),
              SendStatus::kQueued);
  }
  EXPECT_EQ(session->try_send_regular(h.now(), test_conn(), 6, payload),
            SendStatus::kRejected)
      << "queue limit (4) reached";
  EXPECT_TRUE(session->flow().over_high_watermark());
  ASSERT_EQ(recorder.signals.size(), 1u);
  EXPECT_EQ(recorder.signals[0], FlowSignal::kQueueHigh);
  EXPECT_EQ(session->flow().stats().queue_drops, 1u);

  // Heal: stability resumes, the queue drains below the low watermark.
  h.network().set_link(ProcessorId{2}, ProcessorId{1}, {});
  h.network().set_link(ProcessorId{3}, ProcessorId{1}, {});
  h.run_for(2 * kSecond);
  EXPECT_FALSE(session->flow().over_high_watermark());
  ASSERT_EQ(recorder.signals.size(), 2u);
  EXPECT_EQ(recorder.signals[1], FlowSignal::kQueueLow);

  // The five accepted sends (and only those) were delivered, in order.
  auto msgs = h.delivered(ProcessorId{2}, kGroup);
  ASSERT_EQ(msgs.size(), 5u);
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(msgs[i].request_num, i + 1);
  }
}

TEST(FlowIntegration, LaggingReceiverIsWarnedThenEvicted) {
  Config config;
  config.flow_lag_warn = 20;
  config.flow_lag_evict = 60;
  SimHarness h = make_group(4, config, /*seed=*/13);
  h.run_for(50 * kMillisecond);

  // P4 loses 90% of inbound traffic but keeps multicasting heartbeats: it
  // is alive (it hears *some* of the group, so it never falsely suspects
  // anyone, and its clean outbound means nobody liveness-suspects it) yet
  // NACK recovery cannot keep up and its acks fall ever further behind.
  degrade_links_into(h, ProcessorId{4}, lossy_link(0.9));
  h.clear_events();

  // Sustained traffic advances the group's ack front away from P4.
  for (int i = 0; i < 300; ++i) {
    (void)h.stack(ProcessorId{1})
        .group(kGroup)
        ->send_regular(h.now(), test_conn(), std::uint64_t(i + 1),
                       bytes_of("tick-" + std::to_string(i)));
    h.run_for(2 * kMillisecond);
  }
  h.run_for(2 * kSecond);

  // The healthy majority convicted P4 on stability lag.
  for (ProcessorId p : {ProcessorId{1}, ProcessorId{2}, ProcessorId{3}}) {
    const auto& membership =
        h.stack(p).group(kGroup)->membership().members;
    EXPECT_EQ(membership.size(), 3u) << "at " << to_string(p);
    EXPECT_FALSE(std::ranges::count(membership, ProcessorId{4}))
        << "P4 still a member at " << to_string(p);
  }
  bool fault_seen = false;
  for (const Event& ev : h.events(ProcessorId{1})) {
    if (const auto* fr = std::get_if<FaultReport>(&ev)) {
      if (fr->convicted == ProcessorId{4}) fault_seen = true;
    }
  }
  EXPECT_TRUE(fault_seen) << "conviction surfaced as a FaultReport";
  const auto& stats = h.stack(ProcessorId{1}).group(kGroup)->flow().stats();
  EXPECT_GE(stats.lag_warnings, 1u);
  EXPECT_GE(stats.evict_reports, 1u);
}

TEST(FlowIntegration, WarnOnlyThresholdNeverEvicts) {
  Config config;
  config.flow_lag_warn = 20;  // flow_lag_evict stays 0: report, don't act
  SimHarness h = make_group(3, config, /*seed=*/17);
  h.run_for(50 * kMillisecond);
  degrade_links_into(h, ProcessorId{3}, lossy_link(0.9));

  for (int i = 0; i < 300; ++i) {
    (void)h.stack(ProcessorId{1})
        .group(kGroup)
        ->send_regular(h.now(), test_conn(), std::uint64_t(i + 1),
                       bytes_of("w" + std::to_string(i)));
    h.run_for(2 * kMillisecond);
  }

  const auto& stats = h.stack(ProcessorId{1}).group(kGroup)->flow().stats();
  EXPECT_GE(stats.lag_warnings, 1u);
  EXPECT_EQ(stats.evict_reports, 0u);
  EXPECT_EQ(h.stack(ProcessorId{1}).group(kGroup)->membership().members.size(),
            3u)
      << "warn threshold alone must not change membership";
}

}  // namespace
}  // namespace ftcorba::ftmp
