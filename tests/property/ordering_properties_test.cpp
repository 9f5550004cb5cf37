// Property tests: the safety invariants of FTMP checked over randomized
// workloads, seeds, loss rates and group sizes.
//
//   P1 Reliability  — every Regular multicast by a non-crashed member is
//                     delivered by every non-crashed member.
//   P2 Total order  — all members deliver the same sequence (prefix-
//                     consistent when a member saw less).
//   P3 No duplicates — no (source, seq) delivered twice.
//   P4 Source FIFO  — per-source delivery follows sequence numbers.
//   P5 Causality    — delivery timestamps are non-decreasing, and a
//                     message's timestamp exceeds that of every message its
//                     sender had previously sent or delivered.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"
#include "ftmp/sim_harness.hpp"

namespace ftcorba::ftmp {
namespace {

constexpr FtDomainId kDomain{1};
constexpr McastAddress kDomainAddr{100};
constexpr ProcessorGroupId kGroup{1};
constexpr McastAddress kGroupAddr{200};

ConnectionId test_conn() {
  return ConnectionId{FtDomainId{1}, ObjectGroupId{1}, FtDomainId{1}, ObjectGroupId{2}};
}

struct Scenario {
  std::uint64_t seed;
  int group_size;
  double loss;
  double duplicate;
  Duration jitter;
  int messages;  // total messages across senders

  friend std::ostream& operator<<(std::ostream& os, const Scenario& s) {
    return os << "seed" << s.seed << "_n" << s.group_size << "_loss"
              << int(s.loss * 100) << "_dup" << int(s.duplicate * 100);
  }
};

class OrderingProperties : public ::testing::TestWithParam<Scenario> {};

TEST_P(OrderingProperties, SafetyInvariantsHold) {
  const Scenario sc = GetParam();
  net::LinkModel link;
  link.loss = sc.loss;
  link.duplicate = sc.duplicate;
  link.jitter = sc.jitter;
  SimHarness h(link, sc.seed);

  std::vector<ProcessorId> members;
  for (int i = 1; i <= sc.group_size; ++i) members.push_back(ProcessorId{std::uint32_t(i)});
  for (ProcessorId p : members) h.add_processor(p, kDomain, kDomainAddr);
  for (ProcessorId p : members) {
    h.stack(p).create_group(h.now(), kGroup, kGroupAddr, members);
  }

  // Randomized workload: random sender, random gap, random payload size.
  Rng rng(sc.seed * 77 + 1);
  std::map<std::uint32_t, std::uint64_t> sent_per_source;
  for (int i = 0; i < sc.messages; ++i) {
    const ProcessorId sender = members[rng.next_below(members.size())];
    Bytes payload(1 + rng.next_below(200));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_below(256));
    ASSERT_TRUE(h.stack(sender).group(kGroup)->send_regular(
        h.now(), test_conn(), std::uint64_t(i + 1), payload));
    sent_per_source[sender.raw()] += 1;
    h.run_for(rng.next_below(4) * kMillisecond);
  }
  h.run_for(3 * kSecond);  // quiesce: recovery, ordering, stability

  const std::size_t total = sc.messages;
  auto reference = h.delivered(members[0], kGroup);

  // P1 — reliability.
  ASSERT_EQ(reference.size(), total) << "lost messages despite recovery";

  for (ProcessorId p : members) {
    auto msgs = h.delivered(p, kGroup);
    ASSERT_EQ(msgs.size(), total) << "at " << to_string(p);

    std::map<std::uint32_t, SeqNum> last_seq;
    std::set<std::pair<std::uint32_t, SeqNum>> seen;
    Timestamp last_ts = 0;
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      // P2 — total order (same payload at same position as the reference).
      EXPECT_EQ(msgs[i].giop_message, reference[i].giop_message)
          << "total order divergence at index " << i << " on " << to_string(p);
      // P3 — no duplicate delivery.
      EXPECT_TRUE(seen.insert({msgs[i].source.raw(), msgs[i].seq}).second)
          << "duplicate delivery at " << to_string(p);
      // P4 — source FIFO.
      EXPECT_GT(msgs[i].seq, last_seq[msgs[i].source.raw()])
          << "FIFO violation for " << to_string(msgs[i].source);
      last_seq[msgs[i].source.raw()] = msgs[i].seq;
      // P5 — delivery in non-decreasing timestamp order (=> causal order).
      EXPECT_GE(msgs[i].timestamp, last_ts) << "timestamp order violated";
      last_ts = msgs[i].timestamp;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OrderingProperties,
    ::testing::Values(
        Scenario{1, 2, 0.0, 0.0, 20 * kMicrosecond, 40},
        Scenario{2, 3, 0.05, 0.0, 100 * kMicrosecond, 60},
        Scenario{3, 4, 0.10, 0.05, 300 * kMicrosecond, 60},
        Scenario{4, 5, 0.20, 0.0, 500 * kMicrosecond, 50},
        Scenario{5, 7, 0.15, 0.10, 1 * kMillisecond, 70},
        Scenario{6, 3, 0.30, 0.0, 2 * kMillisecond, 40},
        Scenario{7, 8, 0.02, 0.02, 200 * kMicrosecond, 80},
        Scenario{8, 6, 0.25, 0.15, 1 * kMillisecond, 50}),
    [](const auto& p) {
      std::ostringstream os;
      os << p.param;
      return os.str();
    });

// Virtual synchrony property under randomized crashes: survivors deliver
// identical sequences; a crashed member's deliveries form a prefix of the
// survivors' sequence.
struct CrashScenario {
  std::uint64_t seed;
  int group_size;
  double loss;
  int crash_after_messages;

  friend std::ostream& operator<<(std::ostream& os, const CrashScenario& s) {
    return os << "seed" << s.seed << "_n" << s.group_size << "_crash"
              << s.crash_after_messages;
  }
};

class CrashProperties : public ::testing::TestWithParam<CrashScenario> {};

TEST_P(CrashProperties, VirtualSynchronyAndPrefixConsistency) {
  const CrashScenario sc = GetParam();
  net::LinkModel link;
  link.loss = sc.loss;
  link.jitter = 300 * kMicrosecond;
  SimHarness h(link, sc.seed);

  std::vector<ProcessorId> members;
  for (int i = 1; i <= sc.group_size; ++i) members.push_back(ProcessorId{std::uint32_t(i)});
  for (ProcessorId p : members) h.add_processor(p, kDomain, kDomainAddr);
  for (ProcessorId p : members) {
    h.stack(p).create_group(h.now(), kGroup, kGroupAddr, members);
  }

  Rng rng(sc.seed * 31 + 5);
  const ProcessorId victim = members.back();
  int sent = 0;
  for (int i = 0; i < sc.crash_after_messages; ++i) {
    const ProcessorId sender = members[rng.next_below(members.size())];
    h.stack(sender).group(kGroup)->send_regular(
        h.now(), test_conn(), std::uint64_t(++sent), bytes_of("pre" + std::to_string(i)));
    h.run_for(rng.next_below(3) * kMillisecond);
  }
  h.crash(victim);
  // Survivors keep talking through the reconfiguration.
  std::vector<ProcessorId> survivors(members.begin(), members.end() - 1);
  for (int i = 0; i < 10; ++i) {
    const ProcessorId sender = survivors[rng.next_below(survivors.size())];
    h.stack(sender).group(kGroup)->send_regular(
        h.now(), test_conn(), std::uint64_t(++sent), bytes_of("post" + std::to_string(i)));
    h.run_for(2 * kMillisecond);
  }
  h.run_for(5 * kSecond);

  // All survivors installed the reduced membership.
  for (ProcessorId p : survivors) {
    EXPECT_EQ(h.stack(p).group(kGroup)->membership().members.size(),
              survivors.size())
        << "at " << to_string(p);
  }
  // Identical delivery sequences across survivors; all post-crash messages
  // delivered.
  auto reference = h.delivered(survivors[0], kGroup);
  EXPECT_GE(reference.size(), 10u);
  for (ProcessorId p : survivors) {
    auto msgs = h.delivered(p, kGroup);
    ASSERT_EQ(msgs.size(), reference.size()) << "at " << to_string(p);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(msgs[i].giop_message, reference[i].giop_message)
          << "VS divergence at " << i << " on " << to_string(p);
    }
  }
  // The crashed member's (partial) sequence is a prefix of the survivors'.
  auto crashed = h.delivered(victim, kGroup);
  ASSERT_LE(crashed.size(), reference.size());
  for (std::size_t i = 0; i < crashed.size(); ++i) {
    EXPECT_EQ(crashed[i].giop_message, reference[i].giop_message)
        << "crashed member diverged before crashing, at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CrashProperties,
                         ::testing::Values(CrashScenario{11, 3, 0.0, 5},
                                           CrashScenario{12, 4, 0.05, 10},
                                           CrashScenario{13, 5, 0.10, 15},
                                           CrashScenario{14, 5, 0.0, 0},
                                           CrashScenario{15, 6, 0.15, 8},
                                           CrashScenario{16, 4, 0.20, 12}),
                         [](const auto& p) {
                           std::ostringstream os;
                           os << p.param;
                           return os.str();
                         });

}  // namespace
}  // namespace ftcorba::ftmp
