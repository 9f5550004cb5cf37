// Integration tests for the Connect rebind (§7): moving a processor group
// to a new multicast address with the flush rule, without losing ordering
// or reliability.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ftmp/sim_harness.hpp"

namespace ftcorba::ftmp {
namespace {

constexpr FtDomainId kDomain{1};
constexpr McastAddress kDomainAddr{100};
constexpr ProcessorGroupId kGroup{1};
constexpr McastAddress kOldAddr{200};
constexpr McastAddress kNewAddr{201};

ConnectionId test_conn() {
  return ConnectionId{kDomain, ObjectGroupId{1}, kDomain, ObjectGroupId{2}};
}

SimHarness make_group(const std::vector<ProcessorId>& members,
                      net::LinkModel link = {}, std::uint64_t seed = 7,
                      const Config& config = {}) {
  SimHarness h(link, seed);
  for (ProcessorId p : members) h.add_processor(p, kDomain, kDomainAddr, config);
  for (ProcessorId p : members) {
    h.stack(p).create_group(h.now(), kGroup, kOldAddr, members);
  }
  return h;
}

TEST(Rebind, GroupMovesToNewAddress) {
  std::vector<ProcessorId> members{ProcessorId{1}, ProcessorId{2}, ProcessorId{3}};
  SimHarness h = make_group(members);
  h.run_for(50 * kMillisecond);

  ASSERT_TRUE(h.stack(ProcessorId{1}).rebind_group(h.now(), kGroup, kNewAddr));
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        for (ProcessorId p : members) {
          if (h.stack(p).group(kGroup)->address() != kNewAddr) return false;
        }
        return true;
      },
      h.now() + 2 * kSecond))
      << "every member must switch when the Connect is ordered";

  // The flush completes (heartbeats on the new address raise bounds).
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        for (ProcessorId p : members) {
          if (h.stack(p).group(kGroup)->flushing()) return false;
        }
        return true;
      },
      h.now() + 2 * kSecond));

  // Run past the old-address retire window (4 x fault timeout: during it,
  // heartbeats and the rebind Connect are still announced there so a
  // laggard cannot be stranded).
  Config defaults;
  h.run_for(4 * defaults.fault_timeout + 100 * kMillisecond);
  for (ProcessorId p : members) {
    EXPECT_FALSE(h.stack(p).group(kGroup)->retiring_address().has_value())
        << "old address should be retired at " << to_string(p);
    const auto subs = h.stack(p).subscriptions();
    EXPECT_EQ(std::count(subs.begin(), subs.end(), kOldAddr), 0)
        << "retired address still listed at " << to_string(p);
  }
  // Every member has left it: a datagram multicast there reaches no one,
  // not even its sender.
  const std::uint64_t deliveries = h.network().stats().receiver_deliveries;
  h.network().send(h.now(), ProcessorId{1}, net::Datagram{kOldAddr, bytes_of("stray")});
  EXPECT_EQ(h.network().stats().receiver_deliveries, deliveries);

  // Traffic now flows exclusively on the new address.
  h.clear_events();
  h.network().reset_stats();
  std::map<std::uint32_t, int> per_addr;
  h.network().set_tap([&](TimePoint, ProcessorId, const net::Datagram& d) {
    per_addr[d.addr.raw()] += 1;
  });
  for (ProcessorId p : members) {
    h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), 1,
                                           bytes_of(to_string(p) + "-after"));
  }
  h.run_for(300 * kMillisecond);
  for (ProcessorId p : members) {
    EXPECT_EQ(h.delivered(p, kGroup).size(), 3u) << "at " << to_string(p);
  }
  EXPECT_GT(per_addr[kNewAddr.raw()], 0);
  EXPECT_EQ(per_addr[kOldAddr.raw()], 0) << "retired address must be silent";
}

TEST(Rebind, SendsDuringFlushAreQueuedNotLost) {
  std::vector<ProcessorId> members{ProcessorId{1}, ProcessorId{2}, ProcessorId{3}};
  SimHarness h = make_group(members);
  h.run_for(50 * kMillisecond);

  ASSERT_TRUE(h.stack(ProcessorId{1}).rebind_group(h.now(), kGroup, kNewAddr));
  // Wait until at least P1 has switched (and is flushing), then send.
  ASSERT_TRUE(h.run_until_pred(
      [&] { return h.stack(ProcessorId{1}).group(kGroup)->address() == kNewAddr; },
      h.now() + 2 * kSecond));
  h.clear_events();
  EXPECT_TRUE(h.stack(ProcessorId{1}).group(kGroup)->send_regular(
      h.now(), test_conn(), 9, bytes_of("mid-flush")));
  h.run_for(500 * kMillisecond);
  for (ProcessorId p : members) {
    auto msgs = h.delivered(p, kGroup);
    ASSERT_EQ(msgs.size(), 1u) << "at " << to_string(p);
    EXPECT_EQ(msgs[0].giop_message, bytes_of("mid-flush"));
  }
}

TEST(Rebind, FlushTimeSendsQueueBehindTheFlowWindow) {
  std::vector<ProcessorId> members{ProcessorId{1}, ProcessorId{2}, ProcessorId{3}};
  Config config;
  config.flow_window_messages = 2;
  SimHarness h = make_group(members, {}, 7, config);
  h.run_for(50 * kMillisecond);
  GroupSession& p1 = *h.stack(ProcessorId{1}).group(kGroup);

  // A1..A6: the window sends two and parks four.
  std::vector<Bytes> expected;
  for (RequestNum i = 1; i <= 6; ++i) {
    expected.push_back(bytes_of(std::string("A").append(std::to_string(i))));
    EXPECT_EQ(p1.try_send_regular(h.now(), test_conn(), i, expected.back()),
              i <= 2 ? SendStatus::kSent : SendStatus::kQueued)
        << "A" << i;
  }
  ASSERT_TRUE(p1.rebind_address(h.now(), kNewAddr));
  std::size_t max_in_flight = p1.flow().in_flight_messages();
  auto step = [&] {
    h.run_for(kMillisecond);
    max_in_flight = std::max(max_in_flight, p1.flow().in_flight_messages());
  };
  while (!p1.flushing() && h.now() < 2 * kSecond) step();
  ASSERT_TRUE(p1.flushing());
  // B1..B4, made during the flush, park behind what the window holds.
  for (RequestNum i = 1; i <= 4; ++i) {
    expected.push_back(bytes_of(std::string("B").append(std::to_string(i))));
    EXPECT_EQ(p1.try_send_regular(h.now(), test_conn(), 10 + i, expected.back()),
              SendStatus::kQueued)
        << "B" << i;
  }
  while (h.delivered(ProcessorId{2}, kGroup).size() < expected.size() &&
         h.now() < 3 * kSecond) {
    step();
  }
  std::vector<Bytes> got;
  for (const DeliveredMessage& m : h.delivered(ProcessorId{2}, kGroup)) {
    got.emplace_back(m.giop_message.begin(), m.giop_message.end());
  }
  EXPECT_EQ(got, expected) << "flush-time sends must not overtake parked ones";
  EXPECT_LE(max_in_flight, config.flow_window_messages)
      << "releasing flush-time sends must respect the window";
}

TEST(Rebind, OrderPreservedAcrossRebind) {
  std::vector<ProcessorId> members{ProcessorId{1}, ProcessorId{2}, ProcessorId{3},
                                   ProcessorId{4}};
  net::LinkModel lossy;
  lossy.loss = 0.1;
  SimHarness h = make_group(members, lossy, /*seed=*/33);
  h.run_for(50 * kMillisecond);

  std::uint64_t req = 0;
  for (int i = 0; i < 5; ++i) {
    for (ProcessorId p : members) {
      ++req;
      h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), req,
                                             bytes_of("pre" + std::to_string(req)));
    }
    h.run_for(2 * kMillisecond);
  }
  ASSERT_TRUE(h.stack(ProcessorId{2}).rebind_group(h.now(), kGroup, kNewAddr));
  for (int i = 0; i < 5; ++i) {
    for (ProcessorId p : members) {
      ++req;
      h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), req,
                                             bytes_of("post" + std::to_string(req)));
    }
    h.run_for(2 * kMillisecond);
  }
  h.run_for(3 * kSecond);

  auto reference = h.delivered(members[0], kGroup);
  ASSERT_EQ(reference.size(), req) << "reliability across the rebind";
  for (ProcessorId p : members) {
    auto msgs = h.delivered(p, kGroup);
    ASSERT_EQ(msgs.size(), reference.size()) << "at " << to_string(p);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(msgs[i].giop_message, reference[i].giop_message)
          << "order divergence at " << i << " on " << to_string(p);
    }
  }
}

TEST(Rebind, SecondRebindRefusedWhileFlushing) {
  std::vector<ProcessorId> members{ProcessorId{1}, ProcessorId{2}};
  SimHarness h = make_group(members);
  h.run_for(50 * kMillisecond);
  ASSERT_TRUE(h.stack(ProcessorId{1}).rebind_group(h.now(), kGroup, kNewAddr));
  EXPECT_FALSE(h.stack(ProcessorId{1}).rebind_group(h.now(), kGroup, McastAddress{202}))
      << "rebind already requested";
  h.run_for(2 * kSecond);
  // After the flush completes, another rebind is allowed.
  EXPECT_TRUE(h.stack(ProcessorId{1}).rebind_group(h.now(), kGroup, McastAddress{202}));
}

}  // namespace
}  // namespace ftcorba::ftmp
