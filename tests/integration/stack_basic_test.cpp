// Integration smoke tests: a small group of FTMP stacks over the simulated
// network exchanging totally-ordered Regular messages.
#include <gtest/gtest.h>

#include <string>

#include "common/metrics.hpp"
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

// Builds a harness with n processors P1..Pn all bootstrapped into kGroup.
SimHarness make_group(int n, net::LinkModel link = {}, std::uint64_t seed = 7) {
  SimHarness h(link, seed);
  std::vector<ProcessorId> members;
  for (int i = 1; i <= n; ++i) members.push_back(ProcessorId{std::uint32_t(i)});
  for (ProcessorId p : members) {
    h.add_processor(p, kDomain, kDomainAddr);
  }
  for (ProcessorId p : members) {
    h.stack(p).create_group(h.now(), kGroup, kGroupAddr, members);
  }
  return h;
}

std::uint64_t counter(const std::string& name) {
  for (const metrics::Sample& s : metrics::snapshot()) {
    if (s.name == name) return s.counter;
  }
  return 0;
}

// A one-member group is created and sent on before the harness's next
// step. The step must join the group address before it sends: a datagram
// sent first never loops back, and the member then probes for its own copy
// after kAckDelay and NACKs it. Here the own copy arrives: no probe, no
// NACK, no retransmission (the simulator's twin of
// RuntimeUdp.CreateAndSendInOnePollGetsTheOwnCopyBack).
TEST(StackBasic, CreateAndSendBeforeTheNextStepGetsTheOwnCopyBack) {
  SimHarness h;
  const ProcessorId p{1};
  h.add_processor(p, kDomain, kDomainAddr);
  TimePoint delivered_at = -1;
  h.set_event_handler(p, [&](TimePoint t, const Event& ev) {
    if (delivered_at < 0 && std::holds_alternative<DeliveredMessage>(ev)) {
      delivered_at = t;
    }
  });
  const std::uint64_t probes = counter("ftmp_rmp_own_gap_probes_total");
  h.stack(p).create_group(h.now(), kGroup, kGroupAddr, {p});
  GroupSession& session = *h.stack(p).group(kGroup);
  ASSERT_TRUE(session.send_regular(h.now(), test_conn(), 1, bytes_of("first")));

  h.run_for(50 * kMillisecond);
  EXPECT_EQ(h.delivered(p, kGroup).size(), 1u);
  // The first step (the 1 ms tick) sends it, and its loopback copy
  // delivers it within that tick period.
  EXPECT_GT(delivered_at, 0);
  EXPECT_LT(delivered_at, 2 * kMillisecond);
  EXPECT_EQ(session.rmp().stats().nacks_sent.value(), 0u);
  EXPECT_EQ(session.rmp().stats().retransmissions_sent.value(), 0u);
#if FTCORBA_METRICS_ENABLED
  EXPECT_EQ(counter("ftmp_rmp_own_gap_probes_total"), probes);
#else
  (void)probes;
#endif
}

TEST(StackBasic, SingleMessageReachesEveryone) {
  SimHarness h = make_group(3);
  Bytes payload = bytes_of("hello-group");
  ASSERT_TRUE(h.stack(ProcessorId{1})
                  .group(kGroup)
                  ->send_regular(h.now(), test_conn(), 1, payload));
  h.run_for(200 * kMillisecond);
  for (ProcessorId p : h.processors()) {
    auto msgs = h.delivered(p, kGroup);
    ASSERT_EQ(msgs.size(), 1u) << "at " << to_string(p);
    EXPECT_EQ(msgs[0].giop_message, payload);
    EXPECT_EQ(msgs[0].source, ProcessorId{1});
    EXPECT_EQ(msgs[0].request_num, 1u);
  }
}

TEST(StackBasic, TotalOrderAcrossConcurrentSenders) {
  SimHarness h = make_group(4);
  // Every processor sends several messages "concurrently".
  for (int round = 0; round < 5; ++round) {
    for (ProcessorId p : h.processors()) {
      Bytes payload = bytes_of(to_string(p) + "-r" + std::to_string(round));
      ASSERT_TRUE(h.stack(p).group(kGroup)->send_regular(
          h.now(), test_conn(), std::uint64_t(round + 1), payload));
    }
    h.run_for(3 * kMillisecond);
  }
  h.run_for(300 * kMillisecond);

  auto reference = h.delivered(ProcessorId{1}, kGroup);
  ASSERT_EQ(reference.size(), 20u);
  for (ProcessorId p : h.processors()) {
    auto msgs = h.delivered(p, kGroup);
    ASSERT_EQ(msgs.size(), reference.size()) << "at " << to_string(p);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(msgs[i].giop_message, reference[i].giop_message)
          << "divergence at index " << i << " on " << to_string(p);
    }
  }
}

TEST(StackBasic, TotalOrderUnderPacketLoss) {
  net::LinkModel lossy;
  lossy.loss = 0.15;
  lossy.jitter = 300 * kMicrosecond;
  SimHarness h = make_group(3, lossy, /*seed=*/42);
  for (int round = 0; round < 10; ++round) {
    for (ProcessorId p : h.processors()) {
      Bytes payload = bytes_of(to_string(p) + "#" + std::to_string(round));
      ASSERT_TRUE(h.stack(p).group(kGroup)->send_regular(
          h.now(), test_conn(), std::uint64_t(round + 1), payload));
    }
    h.run_for(2 * kMillisecond);
  }
  h.run_for(2 * kSecond);

  auto reference = h.delivered(ProcessorId{1}, kGroup);
  ASSERT_EQ(reference.size(), 30u) << "reliability: every message delivered";
  for (ProcessorId p : h.processors()) {
    auto msgs = h.delivered(p, kGroup);
    ASSERT_EQ(msgs.size(), reference.size()) << "at " << to_string(p);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(msgs[i].giop_message, reference[i].giop_message)
          << "divergence at index " << i << " on " << to_string(p);
    }
  }
}

TEST(StackBasic, IdleGroupStaysQuietButAlive) {
  SimHarness h = make_group(3);
  h.run_for(1 * kSecond);
  // No Regular traffic, so nothing delivered; heartbeats kept the group from
  // suspecting anyone.
  for (ProcessorId p : h.processors()) {
    EXPECT_TRUE(h.delivered(p, kGroup).empty());
    EXPECT_EQ(h.stack(p).group(kGroup)->membership().members.size(), 3u);
    bool any_fault = false;
    for (const Event& ev : h.events(p)) {
      if (std::holds_alternative<FaultReport>(ev)) any_fault = true;
    }
    EXPECT_FALSE(any_fault) << "spurious fault at " << to_string(p);
  }
}

}  // namespace
}  // namespace ftcorba::ftmp
