// Integration tests for egress batching (docs/BATCHING.md): end-to-end
// delivery equivalence with batching on vs off, flow-control accounting in
// message units under batching, heartbeat coalescing, and malformed-batch
// handling at stack ingress.
#include <gtest/gtest.h>

#include "ftmp/sim_harness.hpp"
#include "ftmp/wire.hpp"

namespace ftcorba::ftmp {
namespace {

constexpr FtDomainId kDomain{1};
constexpr McastAddress kDomainAddr{100};
constexpr ProcessorGroupId kGroup{1};
constexpr McastAddress kGroupAddr{200};

ConnectionId test_conn() {
  return ConnectionId{FtDomainId{1}, ObjectGroupId{10}, FtDomainId{1}, ObjectGroupId{20}};
}

SimHarness make_group(int n, Config cfg, net::LinkModel link = {},
                      std::uint64_t seed = 7) {
  SimHarness h(link, seed);
  std::vector<ProcessorId> members;
  for (int i = 1; i <= n; ++i) members.push_back(ProcessorId{std::uint32_t(i)});
  for (ProcessorId p : members) h.add_processor(p, kDomain, kDomainAddr, cfg);
  for (ProcessorId p : members) {
    h.stack(p).create_group(h.now(), kGroup, kGroupAddr, members);
  }
  return h;
}

Config batching_on(std::size_t budget = 1400) {
  Config cfg;
  cfg.batch_max_datagram_bytes = budget;
  return cfg;
}

// Runs a bursty workload and returns P1's delivery sequence.
std::vector<Bytes> run_workload(SimHarness& h, int rounds) {
  for (int round = 0; round < rounds; ++round) {
    for (ProcessorId p : h.processors()) {
      // A burst of three sends per processor per round: plenty of
      // same-drain traffic for the batcher to coalesce.
      for (int k = 0; k < 3; ++k) {
        Bytes payload =
            bytes_of(to_string(p) + "-r" + std::to_string(round) + "-" +
                     std::to_string(k));
        EXPECT_TRUE(h.stack(p).group(kGroup)->send_regular(
            h.now(), test_conn(), std::uint64_t(round * 3 + k + 1), payload));
      }
    }
    h.run_for(2 * kMillisecond);
  }
  h.run_for(2 * kSecond);
  std::vector<Bytes> out;
  for (const auto& m : h.delivered(ProcessorId{1}, kGroup)) {
    out.push_back(m.giop_message.to_bytes());
  }
  return out;
}

TEST(Batching, DeliveriesMatchUnbatchedRunExactly) {
  // Same seed, same workload; only the batching knob differs. Total order,
  // reliability and content must be identical — batching is a wire-level
  // optimization, invisible above the stack.
  SimHarness plain = make_group(4, Config{});
  SimHarness batched = make_group(4, batching_on());
  const auto expect = run_workload(plain, 6);
  const auto got = run_workload(batched, 6);
  ASSERT_EQ(expect.size(), got.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(expect[i], got[i]) << "divergence at delivery " << i;
  }
  // Every receiver in the batched run agrees with P1.
  for (ProcessorId p : batched.processors()) {
    auto msgs = batched.delivered(p, kGroup);
    ASSERT_EQ(msgs.size(), got.size()) << "at " << to_string(p);
  }
  // The workload actually exercised batching.
  std::uint64_t batches = 0;
  for (ProcessorId p : batched.processors()) {
    batches += batched.stack(p).batch_stats().batch_datagrams;
  }
  EXPECT_GT(batches, 0u);
}

TEST(Batching, SurvivesLossAndRetransmission) {
  net::LinkModel lossy;
  lossy.loss = 0.15;
  lossy.jitter = 300 * kMicrosecond;
  SimHarness h = make_group(3, batching_on(), lossy, /*seed=*/42);
  const auto delivered = run_workload(h, 8);
  ASSERT_EQ(delivered.size(), 3u * 3u * 8u) << "reliability under loss";
  for (ProcessorId p : h.processors()) {
    EXPECT_EQ(h.delivered(p, kGroup).size(), delivered.size())
        << "at " << to_string(p);
  }
}

TEST(Batching, FlowWindowCountsMessagesNotDatagrams) {
  // Window of W messages with batching ON: if window accounting counted
  // datagrams, packing k messages per datagram would inflate the effective
  // window k-fold. It must stay pinned at W messages.
  Config cfg = batching_on();
  cfg.flow_window_messages = 8;
  SimHarness h = make_group(3, cfg);

  const GroupSession* session = h.stack(ProcessorId{1}).group(kGroup);
  std::size_t in_flight_peak = 0;
  for (int round = 0; round < 10; ++round) {
    for (int k = 0; k < 6; ++k) {
      Bytes payload = bytes_of("flow-" + std::to_string(round * 6 + k));
      (void)h.stack(ProcessorId{1})
          .group(kGroup)
          ->try_send_regular(h.now(), test_conn(),
                             std::uint64_t(round * 6 + k + 1), payload);
      in_flight_peak =
          std::max(in_flight_peak, session->flow().in_flight_messages());
    }
    h.run_for(2 * kMillisecond);
    in_flight_peak =
        std::max(in_flight_peak, session->flow().in_flight_messages());
  }
  EXPECT_LE(in_flight_peak, 8u) << "window must be counted in messages";
  EXPECT_GT(session->flow().stats().pacing_stalls.value(), 0u)
      << "workload should actually hit the window";

  h.run_for(2 * kSecond);  // drain
  EXPECT_EQ(session->flow().in_flight_messages(), 0u);
  EXPECT_EQ(session->flow().queue_depth(), 0u);
  EXPECT_EQ(h.delivered(ProcessorId{1}, kGroup).size(), 60u);
}

TEST(Batching, HeartbeatsCoalesceIntoDataBatches) {
  // Receivers that never send Regulars heartbeat every 2ms; under loss they
  // also emit RetransmitRequests and serve retransmissions. A heartbeat
  // staged while such traffic shares the flush window rides the same
  // datagram instead of paying for its own (docs/BATCHING.md).
  net::LinkModel lossy;
  lossy.loss = 0.2;
  lossy.jitter = 300 * kMicrosecond;
  Config cfg = batching_on();
  cfg.heartbeat_interval = 2 * kMillisecond;
  SimHarness h = make_group(3, cfg, lossy, /*seed=*/11);
  for (int i = 0; i < 60; ++i) {
    Bytes payload = bytes_of("hb-coalesce-" + std::to_string(i));
    ASSERT_TRUE(h.stack(ProcessorId{1})
                    .group(kGroup)
                    ->send_regular(h.now(), test_conn(), std::uint64_t(i + 1),
                                   payload));
    h.run_for(1 * kMillisecond);
  }
  h.run_for(2 * kSecond);
  std::uint64_t coalesced = 0;
  for (ProcessorId p : h.processors()) {
    coalesced += h.stack(p).batch_stats().heartbeats_coalesced;
  }
  EXPECT_GT(coalesced, 0u)
      << "heartbeats due while data flows should ride data batches";
  // Reliability held throughout.
  for (ProcessorId p : h.processors()) {
    EXPECT_EQ(h.delivered(p, kGroup).size(), 60u) << "at " << to_string(p);
  }
}

TEST(Batching, MalformedBatchCountedNotFatal) {
  SimHarness h = make_group(3, batching_on());
  Stack& s = h.stack(ProcessorId{1});
  const auto before = s.stats().malformed_datagrams.value();

  {  // corrupt envelope version
    Bytes b = {'F', 'T', 'M', 'B', 9, 0, 1};
    s.on_datagram(h.now(), net::Datagram{kGroupAddr, SharedBytes{std::move(b)}});
  }
  EXPECT_EQ(s.stats().malformed_datagrams.value(), before + 1);

  {  // truncated sub-frame length prefix
    Bytes b = {'F', 'T', 'M', 'B', kBatchVersion, 0, 2, 0x00, 0x00};
    s.on_datagram(h.now(), net::Datagram{kGroupAddr, SharedBytes{std::move(b)}});
  }
  EXPECT_EQ(s.stats().malformed_datagrams.value(), before + 2);

  // The stack keeps working afterwards.
  Bytes payload = bytes_of("still-alive");
  ASSERT_TRUE(h.stack(ProcessorId{1})
                  .group(kGroup)
                  ->send_regular(h.now(), test_conn(), 1, payload));
  h.run_for(300 * kMillisecond);
  EXPECT_EQ(h.delivered(ProcessorId{2}, kGroup).size(), 1u);
}

}  // namespace
}  // namespace ftcorba::ftmp
