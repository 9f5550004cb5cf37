// Integration tests for flow control end-to-end (docs/FLOW.md): the
// stability-driven send window bounding the retransmission store under a
// slow receiver, FIFO order through the parked queue, and the congestion
// predicate the ORB polls.
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
  EXPECT_GT(stats.pacing_stalls.value(), 0u) << "the burst must actually have parked";
  EXPECT_EQ(stats.queue_drops.value(), 0u);
}

TEST(FlowIntegration, WatermarksSetAndClearCongestionAndStatusesReport) {
  Config config;
  config.flow_window_messages = 1;
  config.flow_send_queue_limit = 4;  // watermarks at 3 and 1
  SimHarness h = make_group(3, config, /*seed=*/11);
  // P1 serves connections on kGroup and P2, already a member, opens one:
  // the connection an ORB on P2 would invoke on.
  const ProcessorId client{2};
  h.stack(ProcessorId{1}).serve_connections(kGroup);
  h.stack(client).open_connection(h.now(), test_conn(), kDomainAddr, {client});
  ASSERT_TRUE(h.run_until_pred(
      [&] { return h.stack(client).connection_ready(test_conn()); },
      h.now() + 5 * kSecond));
  h.run_for(50 * kMillisecond);
  EXPECT_FALSE(h.stack(client).connection_congested(test_conn()));

  // Freeze stability: nothing from peers reaches P2, so its own sends
  // never stabilise and the window (1) stays full after the first send.
  h.network().set_link(ProcessorId{1}, client, lossy_link(1.0));
  h.network().set_link(ProcessorId{3}, client, lossy_link(1.0));

  auto* session = h.stack(client).group(kGroup);
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
  EXPECT_TRUE(h.stack(client).connection_congested(test_conn()))
      << "the ORB would defer here";
  EXPECT_EQ(session->flow().stats().queue_drops.value(), 1u);

  // Heal: stability resumes, the queue drains below the low watermark.
  h.network().set_link(ProcessorId{1}, client, {});
  h.network().set_link(ProcessorId{3}, client, {});
  h.run_for(2 * kSecond);
  EXPECT_FALSE(session->flow().over_high_watermark());
  EXPECT_FALSE(h.stack(client).connection_congested(test_conn()));
  EXPECT_EQ(session->flow().stats().queue_high_events.value(), 1u)
      << "one excursion, one crossing";

  // The five accepted sends (and only those) were delivered, in order.
  auto msgs = h.delivered(ProcessorId{1}, kGroup);
  ASSERT_EQ(msgs.size(), 5u);
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(msgs[i].request_num, i + 1);
  }
}

}  // namespace
}  // namespace ftcorba::ftmp
