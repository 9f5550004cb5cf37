// Partition healing: the majority side excludes the minority and continues
// (primary partition); after the network heals, the stranded minority
// members drop their stale sessions and rejoin through the normal
// AddProcessor flow, ending with one consistent membership.
#include <gtest/gtest.h>

#include "ftmp/sim_harness.hpp"

namespace ftcorba::ftmp {
namespace {

constexpr FtDomainId kDomain{1};
constexpr McastAddress kDomainAddr{100};
constexpr ProcessorGroupId kGroup{1};
constexpr McastAddress kGroupAddr{200};

ConnectionId test_conn() {
  return ConnectionId{kDomain, ObjectGroupId{1}, kDomain, ObjectGroupId{2}};
}

std::vector<ProcessorId> ids(std::initializer_list<std::uint32_t> raw) {
  std::vector<ProcessorId> out;
  for (auto r : raw) out.push_back(ProcessorId{r});
  return out;
}

TEST(PartitionHeal, MinorityRejoinsAfterHeal) {
  SimHarness h({}, 61);
  const auto all = ids({1, 2, 3, 4, 5});
  for (ProcessorId p : all) h.add_processor(p, kDomain, kDomainAddr);
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);

  // Partition {1,2,3} | {4,5}: the majority excludes 4 and 5.
  h.network().set_partition({ids({1, 2, 3}), ids({4, 5})});
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        auto* g = h.stack(ProcessorId{1}).group(kGroup);
        return g && g->membership().members == ids({1, 2, 3});
      },
      h.now() + 10 * kSecond));
  // Minority still believes in the full membership (stalled).
  EXPECT_EQ(h.stack(ProcessorId{4}).group(kGroup)->membership().members.size(), 5u);

  // Majority-side progress during the partition.
  h.stack(ProcessorId{1}).group(kGroup)->send_regular(h.now(), test_conn(), 1,
                                                      bytes_of("during-partition"));
  h.run_for(200 * kMillisecond);

  // Heal. The minority members drop their stale sessions and rejoin (in a
  // full system the FT infrastructure drives this after the fault report).
  h.network().heal();
  for (ProcessorId p : ids({4, 5})) {
    ASSERT_TRUE(h.stack(p).drop_group(kGroup));
    h.stack(p).expect_join(kGroup, kGroupAddr);
  }
  // The FT infrastructure serializes joins: each add completes (ordered at
  // the sponsor) before the next one starts.
  ASSERT_TRUE(h.stack(ProcessorId{1}).add_processor(h.now(), kGroup, ProcessorId{4}));
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        auto* sponsor = h.stack(ProcessorId{1}).group(kGroup);
        auto* joiner = h.stack(ProcessorId{4}).group(kGroup);
        return sponsor && sponsor->is_member(ProcessorId{4}) && joiner &&
               joiner->is_member(ProcessorId{4});
      },
      h.now() + 5 * kSecond));
  ASSERT_TRUE(h.stack(ProcessorId{1}).add_processor(h.now(), kGroup, ProcessorId{5}));
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        auto* sponsor = h.stack(ProcessorId{1}).group(kGroup);
        auto* joiner = h.stack(ProcessorId{5}).group(kGroup);
        return sponsor && sponsor->is_member(ProcessorId{5}) && joiner &&
               joiner->is_member(ProcessorId{5});
      },
      h.now() + 5 * kSecond));

  // Everyone agrees on the final membership and orders new traffic.
  h.run_for(500 * kMillisecond);
  for (ProcessorId p : all) {
    EXPECT_EQ(h.stack(p).group(kGroup)->membership().members, all)
        << "at " << to_string(p);
  }
  h.clear_events();
  for (ProcessorId p : all) {
    h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), 10 + p.raw(),
                                           bytes_of(to_string(p) + "-post-heal"));
  }
  h.run_for(500 * kMillisecond);
  auto reference = h.delivered(ProcessorId{1}, kGroup);
  ASSERT_EQ(reference.size(), 5u);
  for (ProcessorId p : all) {
    auto msgs = h.delivered(p, kGroup);
    ASSERT_EQ(msgs.size(), reference.size()) << "at " << to_string(p);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(msgs[i].giop_message, reference[i].giop_message);
    }
  }
}

// Asymmetric failure (half-dead NIC): {4,5} can hear the majority but
// nothing they send gets through. The majority times them out and excludes
// them exactly as in the symmetric case; after the links unblock, both
// rejoin through AddProcessor and the group reconverges.
TEST(PartitionHeal, OneWayPartitionExcludesTheMutedSideAndHeals) {
  SimHarness h({}, 63);
  const auto all = ids({1, 2, 3, 4, 5});
  for (ProcessorId p : all) h.add_processor(p, kDomain, kDomainAddr);
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);

  // Mute {4,5} toward {1,2,3}; the reverse direction keeps working.
  h.network().set_oneway_partition(ids({4, 5}), ids({1, 2, 3}));
  EXPECT_TRUE(h.network().link_blocked(ProcessorId{4}, ProcessorId{1}));
  EXPECT_FALSE(h.network().link_blocked(ProcessorId{1}, ProcessorId{4}));
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        auto* g = h.stack(ProcessorId{1}).group(kGroup);
        return g && g->membership().members == ids({1, 2, 3});
      },
      h.now() + 10 * kSecond));

  // Majority-side traffic still orders (the muted members cannot stall it).
  h.stack(ProcessorId{2}).group(kGroup)->send_regular(h.now(), test_conn(), 1,
                                                      bytes_of("muted-out"));
  h.run_for(200 * kMillisecond);

  // Unblock and rejoin the muted members through the normal flow.
  h.network().clear_blocked_links();
  for (ProcessorId p : ids({4, 5})) {
    ASSERT_TRUE(h.stack(p).drop_group(kGroup));
    h.stack(p).expect_join(kGroup, kGroupAddr);
    ASSERT_TRUE(h.stack(ProcessorId{1}).add_processor(h.now(), kGroup, p));
    ASSERT_TRUE(h.run_until_pred(
        [&] {
          auto* sponsor = h.stack(ProcessorId{1}).group(kGroup);
          auto* joiner = h.stack(p).group(kGroup);
          return sponsor && sponsor->is_member(p) && joiner && joiner->is_member(p);
        },
        h.now() + 5 * kSecond));
  }
  h.run_for(500 * kMillisecond);
  for (ProcessorId p : all) {
    EXPECT_EQ(h.stack(p).group(kGroup)->membership().members, all)
        << "at " << to_string(p);
  }

  // Post-heal traffic is delivered in one identical order everywhere.
  h.clear_events();
  for (ProcessorId p : all) {
    h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), 20 + p.raw(),
                                           bytes_of(to_string(p) + "-post-oneway"));
  }
  h.run_for(500 * kMillisecond);
  const auto reference = h.delivered(ProcessorId{1}, kGroup);
  ASSERT_EQ(reference.size(), 5u);
  for (ProcessorId p : all) {
    const auto msgs = h.delivered(p, kGroup);
    ASSERT_EQ(msgs.size(), reference.size()) << "at " << to_string(p);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(msgs[i].giop_message, reference[i].giop_message);
    }
  }
}

// Flapping below the fault timeout: a member repeatedly isolated in pulses
// shorter than fault_timeout must never be excluded — each heal refreshes
// the suspicion timers before they fire — and reliable delivery rides out
// the flaps via retransmission.
TEST(PartitionHeal, SubTimeoutFlappingCausesNoExclusion) {
  SimHarness h({}, 64);
  const auto all = ids({1, 2, 3, 4});
  for (ProcessorId p : all) h.add_processor(p, kDomain, kDomainAddr);
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);

  // Pulses of 30 % of the default fault_timeout isolated and 30 % healed
  // stay safely below it while still dropping plenty of packets.
  const Duration pulse_span = Config{}.fault_timeout * 3 / 10;
  std::uint64_t req = 0;
  for (int pulse = 0; pulse < 6; ++pulse) {
    h.network().set_partition({ids({4})});
    for (ProcessorId p : ids({1, 2, 3})) {
      ++req;
      h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), req,
                                             bytes_of("flap-" + std::to_string(req)));
    }
    h.run_for(pulse_span);
    h.network().heal();
    h.run_for(pulse_span);
    for (ProcessorId p : all) {
      EXPECT_EQ(h.stack(p).group(kGroup)->membership().members.size(), 4u)
          << "spurious exclusion at " << to_string(p) << " after pulse " << pulse;
    }
  }
  h.run_for(1 * kSecond);

  // Nobody was excluded, and every message sent across the flaps reached
  // every member in the same total order.
  for (ProcessorId p : all) {
    EXPECT_EQ(h.stack(p).group(kGroup)->membership().members, all)
        << "at " << to_string(p);
  }
  const auto reference = h.delivered(ProcessorId{1}, kGroup);
  ASSERT_EQ(reference.size(), std::size_t(req));
  for (ProcessorId p : all) {
    const auto msgs = h.delivered(p, kGroup);
    ASSERT_EQ(msgs.size(), reference.size()) << "at " << to_string(p);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(msgs[i].giop_message, reference[i].giop_message);
    }
  }
}

TEST(PartitionHeal, DropGroupOnUnknownGroupFails) {
  SimHarness h({}, 62);
  h.add_processor(ProcessorId{1}, kDomain, kDomainAddr);
  EXPECT_FALSE(h.stack(ProcessorId{1}).drop_group(kGroup));
}

}  // namespace
}  // namespace ftcorba::ftmp
