// Integration tests for PGMP: planned add/remove, crash fault recovery,
// virtual synchrony, and primary-partition behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

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

std::vector<ProcessorId> ids(std::initializer_list<std::uint32_t> raw) {
  std::vector<ProcessorId> out;
  for (auto r : raw) out.push_back(ProcessorId{r});
  return out;
}

SimHarness make_group(const std::vector<ProcessorId>& members,
                      net::LinkModel link = {}, std::uint64_t seed = 7) {
  SimHarness h(link, seed);
  for (ProcessorId p : members) h.add_processor(p, kDomain, kDomainAddr);
  for (ProcessorId p : members) {
    h.stack(p).create_group(h.now(), kGroup, kGroupAddr, members);
  }
  return h;
}

bool membership_is(SimHarness& h, ProcessorId at, const std::vector<ProcessorId>& want) {
  auto* g = h.stack(at).group(kGroup);
  if (!g) return false;
  return g->membership().members == want;
}

TEST(Membership, AddProcessorJoinsAndOrders) {
  SimHarness h = make_group(ids({1, 2, 3}));
  // P4 exists but is outside the group.
  h.add_processor(ProcessorId{4}, kDomain, kDomainAddr);
  h.run_for(20 * kMillisecond);

  // Some pre-join traffic.
  for (int i = 0; i < 3; ++i) {
    h.stack(ProcessorId{2}).group(kGroup)->send_regular(
        h.now(), test_conn(), std::uint64_t(i + 1), bytes_of("pre" + std::to_string(i)));
    h.run_for(5 * kMillisecond);
  }

  // P4 prepares to join; P1 sponsors.
  h.stack(ProcessorId{4}).expect_join(kGroup, kGroupAddr);
  ASSERT_TRUE(h.stack(ProcessorId{1}).add_processor(h.now(), kGroup, ProcessorId{4}));
  ASSERT_TRUE(h.run_until_pred(
      [&] { return membership_is(h, ProcessorId{4}, ids({1, 2, 3, 4})); },
      h.now() + 2 * kSecond))
      << "P4 never joined";
  for (ProcessorId p : ids({1, 2, 3})) {
    EXPECT_TRUE(membership_is(h, p, ids({1, 2, 3, 4}))) << "at " << to_string(p);
  }

  // Post-join traffic, including from the new member, stays totally ordered.
  h.clear_events();
  for (int round = 0; round < 4; ++round) {
    for (ProcessorId p : ids({1, 2, 3, 4})) {
      h.stack(p).group(kGroup)->send_regular(
          h.now(), test_conn(), std::uint64_t(100 + round),
          bytes_of(to_string(p) + "-post" + std::to_string(round)));
    }
    h.run_for(2 * kMillisecond);
  }
  h.run_for(500 * kMillisecond);
  auto reference = h.delivered(ProcessorId{4}, kGroup);
  ASSERT_EQ(reference.size(), 16u);
  for (ProcessorId p : ids({1, 2, 3})) {
    auto msgs = h.delivered(p, kGroup);
    ASSERT_EQ(msgs.size(), reference.size()) << "at " << to_string(p);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(msgs[i].giop_message, reference[i].giop_message)
          << "divergence at " << i << " on " << to_string(p);
    }
  }
}

TEST(Membership, RemoveProcessorLeavesCleanly) {
  SimHarness h = make_group(ids({1, 2, 3}));
  h.run_for(50 * kMillisecond);
  ASSERT_TRUE(h.stack(ProcessorId{1}).remove_processor(h.now(), kGroup, ProcessorId{3}));
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        return membership_is(h, ProcessorId{1}, ids({1, 2})) &&
               membership_is(h, ProcessorId{2}, ids({1, 2}));
      },
      h.now() + 2 * kSecond));
  // The removed processor saw its own eviction.
  bool evicted = false;
  for (const Event& ev : h.events(ProcessorId{3})) {
    if (std::holds_alternative<SelfEvicted>(ev)) evicted = true;
  }
  EXPECT_TRUE(evicted);
  // Remaining pair still orders messages.
  h.clear_events();
  h.stack(ProcessorId{1}).group(kGroup)->send_regular(h.now(), test_conn(), 1,
                                                      bytes_of("after-remove"));
  h.run_for(300 * kMillisecond);
  EXPECT_EQ(h.delivered(ProcessorId{1}, kGroup).size(), 1u);
  EXPECT_EQ(h.delivered(ProcessorId{2}, kGroup).size(), 1u);
}

TEST(Membership, CrashConvictionRemovesFaulty) {
  SimHarness h = make_group(ids({1, 2, 3, 4, 5}));
  h.run_for(50 * kMillisecond);
  h.crash(ProcessorId{5});
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        for (ProcessorId p : ids({1, 2, 3, 4})) {
          if (!membership_is(h, p, ids({1, 2, 3, 4}))) return false;
        }
        return true;
      },
      h.now() + 5 * kSecond))
      << "survivors never excluded the crashed member";
  // A fault report was issued at every survivor.
  for (ProcessorId p : ids({1, 2, 3, 4})) {
    bool report = false;
    for (const Event& ev : h.events(p)) {
      if (const auto* f = std::get_if<FaultReport>(&ev)) {
        if (f->convicted == ProcessorId{5}) report = true;
      }
    }
    EXPECT_TRUE(report) << "no fault report at " << to_string(p);
  }
  // Ordering resumes among survivors.
  h.clear_events();
  for (ProcessorId p : ids({1, 2, 3, 4})) {
    h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), 9,
                                           bytes_of(to_string(p) + "-resume"));
  }
  h.run_for(500 * kMillisecond);
  auto reference = h.delivered(ProcessorId{1}, kGroup);
  ASSERT_EQ(reference.size(), 4u);
  for (ProcessorId p : ids({2, 3, 4})) {
    auto msgs = h.delivered(p, kGroup);
    ASSERT_EQ(msgs.size(), 4u) << "at " << to_string(p);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(msgs[i].giop_message, reference[i].giop_message);
    }
  }
}

TEST(Membership, VirtualSynchronyAtCrash) {
  // The crashed processor's last messages reach only some survivors
  // directly; the cut must equalize them.
  net::LinkModel lossy;
  lossy.loss = 0.25;  // heavy loss so the dying gasp is partially seen
  SimHarness h = make_group(ids({1, 2, 3, 4}), lossy, /*seed=*/99);
  h.run_for(50 * kMillisecond);
  // P4 sends a burst then immediately crashes.
  for (int i = 0; i < 5; ++i) {
    h.stack(ProcessorId{4}).group(kGroup)->send_regular(
        h.now(), test_conn(), std::uint64_t(i + 1), bytes_of("gasp" + std::to_string(i)));
  }
  h.run_for(1 * kMillisecond);
  h.crash(ProcessorId{4});
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        for (ProcessorId p : ids({1, 2, 3})) {
          if (!membership_is(h, p, ids({1, 2, 3}))) return false;
        }
        return true;
      },
      h.now() + 10 * kSecond));
  h.run_for(200 * kMillisecond);
  // Every survivor delivered exactly the same set of P4's messages, in the
  // same order (virtual synchrony) — possibly fewer than 5 if the network
  // swallowed the tail everywhere, but identical across survivors.
  auto reference = h.delivered(ProcessorId{1}, kGroup);
  for (ProcessorId p : ids({2, 3})) {
    auto msgs = h.delivered(p, kGroup);
    ASSERT_EQ(msgs.size(), reference.size()) << "at " << to_string(p);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(msgs[i].giop_message, reference[i].giop_message)
          << "VS violation at " << i << " on " << to_string(p);
    }
  }
}

TEST(Membership, MinorityPartitionStalls) {
  SimHarness h = make_group(ids({1, 2, 3, 4, 5}));
  h.run_for(50 * kMillisecond);
  // 2-vs-3 partition: only the majority side may install a new membership.
  h.network().set_partition({{ProcessorId{1}, ProcessorId{2}},
                             {ProcessorId{3}, ProcessorId{4}, ProcessorId{5}}});
  h.run_for(3 * kSecond);
  EXPECT_TRUE(membership_is(h, ProcessorId{3}, ids({3, 4, 5})));
  EXPECT_TRUE(membership_is(h, ProcessorId{4}, ids({3, 4, 5})));
  EXPECT_TRUE(membership_is(h, ProcessorId{5}, ids({3, 4, 5})));
  // Minority side must NOT have installed a 2-member membership.
  EXPECT_EQ(h.stack(ProcessorId{1}).group(kGroup)->membership().members.size(), 5u);
  EXPECT_EQ(h.stack(ProcessorId{2}).group(kGroup)->membership().members.size(), 5u);
}

TEST(Membership, TwoMemberGroupSurvivorContinues) {
  SimHarness h = make_group(ids({1, 2}));
  h.run_for(50 * kMillisecond);
  h.crash(ProcessorId{2});
  ASSERT_TRUE(h.run_until_pred(
      [&] { return membership_is(h, ProcessorId{1}, ids({1})); },
      h.now() + 5 * kSecond))
      << "sole survivor of a pair must continue (holds the smallest id)";
  h.clear_events();
  h.stack(ProcessorId{1}).group(kGroup)->send_regular(h.now(), test_conn(), 1,
                                                      bytes_of("alone"));
  h.run_for(300 * kMillisecond);
  EXPECT_EQ(h.delivered(ProcessorId{1}, kGroup).size(), 1u);
}

// Four founders under `mode`, and P5 outside the group, expecting to join.
SimHarness sponsor_world(OrderingMode mode) {
  Config config;
  config.ordering_mode = mode;
  SimHarness h({}, 76);
  const auto founders = ids({1, 2, 3, 4});
  for (ProcessorId p : founders) h.add_processor(p, kDomain, kDomainAddr, config);
  for (ProcessorId p : founders) {
    h.stack(p).create_group(h.now(), kGroup, kGroupAddr, founders);
  }
  h.run_for(50 * kMillisecond);
  h.add_processor(ProcessorId{5}, kDomain, kDomainAddr, config);
  h.stack(ProcessorId{5}).expect_join(kGroup, kGroupAddr);
  return h;
}

bool all_in_view(SimHarness& h, const std::vector<ProcessorId>& view) {
  return std::all_of(view.begin(), view.end(),
                     [&](ProcessorId p) { return membership_is(h, p, view); });
}

// Every member of `view` multicasts for a second; then each must have
// released its whole retransmission store, so no store pin is left.
void expect_stores_drain(SimHarness& h, const std::vector<ProcessorId>& view) {
  RequestNum req = 0;
  for (int round = 0; round < 200; ++round) {
    for (ProcessorId p : view) {
      ASSERT_TRUE(h.stack(p).group(kGroup)->send_regular(
          h.now(), test_conn(), ++req, bytes_of(std::string("r").append(std::to_string(round)))));
    }
    h.run_for(5 * kMillisecond);
  }
  h.run_for(1 * kSecond);
  for (ProcessorId p : view) {
    EXPECT_EQ(h.stack(p).group(kGroup)->rmp().stored_count(), 0u)
        << "at " << to_string(p);
  }
}

// Two sponsors add the same joiner at the same instant. Each pins its
// retransmission store for the joiner when it sends its AddProcessor; the
// first Add to order admits the joiner and the other can only order as a
// duplicate. The losing sponsor's pin must still go, or stability release
// stops at its floor and that member's store grows for as long as the
// joiner stays.
class RacingSponsors : public ::testing::TestWithParam<OrderingMode> {};

TEST_P(RacingSponsors, EveryStorePinIsReleased) {
  SimHarness h = sponsor_world(GetParam());
  const ProcessorId joiner{5};
  const auto all = ids({1, 2, 3, 4, 5});
  ASSERT_TRUE(h.stack(ProcessorId{2}).add_processor(h.now(), kGroup, joiner));
  ASSERT_TRUE(h.stack(ProcessorId{3}).add_processor(h.now(), kGroup, joiner));
  ASSERT_TRUE(h.run_until_pred([&] { return all_in_view(h, all); }, h.now() + 5 * kSecond));
  expect_stores_drain(h, all);
}

// The sponsor's other exits. A joiner that is admitted but crashes before
// it speaks is convicted: the sponsor stops resending its Add and drops
// the pin, and may sponsor the same processor again.
TEST_P(RacingSponsors, ConvictedJoinerReleasesItsSponsorsPin) {
  SimHarness h = sponsor_world(GetParam());
  const ProcessorId sponsor{2}, joiner{5};
  ASSERT_TRUE(h.stack(sponsor).add_processor(h.now(), kGroup, joiner));
  h.crash(joiner);  // before it hears anything, so it never speaks
  ASSERT_TRUE(h.run_until_pred([&] { return membership_is(h, sponsor, ids({1, 2, 3, 4, 5})); },
                               h.now() + 5 * kSecond));
  const auto survivors = ids({1, 2, 3, 4});
  ASSERT_TRUE(
      h.run_until_pred([&] { return all_in_view(h, survivors); }, h.now() + 5 * kSecond));
  h.run_for(2 * kMillisecond);
  // Long before the give-up window: the record ended with the conviction.
  EXPECT_TRUE(h.stack(sponsor).group(kGroup)->pgmp().make_add(joiner).has_value());
  expect_stores_drain(h, survivors);
  EXPECT_TRUE(h.stack(sponsor).add_processor(h.now(), kGroup, joiner));
}

// An Add that never orders: P4 crashes before it can ack P2's Add, so the
// Add falls inside the recovery cut, which skips membership operations.
// P2 refuses to sponsor P5 again until it gives the Add up, 10 ×
// fault_timeout after sending it, and only then drops the pin.
TEST(SponsorRecord, AnAddThatNeverOrdersIsGivenUp) {
  SimHarness h = sponsor_world(OrderingMode::kLamport);
  const ProcessorId sponsor{2}, joiner{5};
  ASSERT_TRUE(h.stack(sponsor).add_processor(h.now(), kGroup, joiner));
  const TimePoint sent = h.now();
  h.crash(ProcessorId{4});
  const auto survivors = ids({1, 2, 3});
  ASSERT_TRUE(
      h.run_until_pred([&] { return all_in_view(h, survivors); }, h.now() + 5 * kSecond));
  EXPECT_FALSE(h.stack(sponsor).add_processor(h.now(), kGroup, joiner)) << "still in flight";
  h.run_until(sent + 10 * Config{}.fault_timeout + 10 * kMillisecond);
  expect_stores_drain(h, survivors);
  EXPECT_TRUE(all_in_view(h, survivors)) << "the Add never ordered";
  EXPECT_TRUE(h.stack(sponsor).add_processor(h.now(), kGroup, joiner));
}

INSTANTIATE_TEST_SUITE_P(Modes, RacingSponsors,
                         ::testing::Values(OrderingMode::kLamport,
                                           OrderingMode::kLlft),
                         [](const ::testing::TestParamInfo<OrderingMode>& p) {
                           return to_string(p.param);
                         });

}  // namespace
}  // namespace ftcorba::ftmp
