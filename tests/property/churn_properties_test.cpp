// Property tests under membership churn: random joins, planned leaves and
// crashes interleaved with traffic. Invariants:
//   C1 — members present throughout deliver identical sequences;
//   C2 — every message sent by a processor while it and the checkpoints
//        were members is delivered by the stable members;
//   C3 — memberships converge: after quiescence all active members agree;
//   C4 — evicted/crashed members' transcripts are prefixes of the stable
//        members' transcript.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <unordered_set>

#include "common/rng.hpp"
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

struct ChurnScenario {
  std::uint64_t seed;
  double loss;
  int events;  // churn events to attempt

  friend std::ostream& operator<<(std::ostream& os, const ChurnScenario& s) {
    return os << "seed" << s.seed << "_loss" << int(s.loss * 100) << "_ev" << s.events;
  }
};

class ChurnProperties : public ::testing::TestWithParam<ChurnScenario> {};

TEST_P(ChurnProperties, InvariantsUnderChurn) {
  const ChurnScenario sc = GetParam();
  net::LinkModel link;
  link.loss = sc.loss;
  link.jitter = 200 * kMicrosecond;
  SimHarness h(link, sc.seed);
  Rng rng(sc.seed * 97 + 3);

  // Founders P1..P4 (P1, P2 are the permanent "stable" checkpoints and are
  // never removed); the pool P5..P9 churns in and out.
  std::vector<ProcessorId> founders{ProcessorId{1}, ProcessorId{2}, ProcessorId{3},
                                    ProcessorId{4}};
  const std::vector<ProcessorId> stable{ProcessorId{1}, ProcessorId{2}};
  std::set<ProcessorId> in_group(founders.begin(), founders.end());
  std::set<ProcessorId> alive(founders.begin(), founders.end());
  std::vector<ProcessorId> pool;
  for (std::uint32_t i = 5; i <= 9; ++i) pool.push_back(ProcessorId{i});

  Config cfg;
  cfg.heartbeat_interval = 5 * kMillisecond;
  cfg.fault_timeout = 100 * kMillisecond;
  for (ProcessorId p : founders) h.add_processor(p, kDomain, kDomainAddr, cfg);
  for (ProcessorId p : pool) h.add_processor(p, kDomain, kDomainAddr, cfg);
  for (ProcessorId p : founders) {
    h.stack(p).create_group(h.now(), kGroup, kGroupAddr, founders);
  }
  h.run_for(50 * kMillisecond);

  std::uint64_t sent = 0;
  std::vector<std::pair<ProcessorId, Bytes>> sent_log;  // (sender, payload)
  auto traffic_burst = [&] {
    for (int i = 0; i < 3; ++i) {
      // A random current member sends.
      std::vector<ProcessorId> members(in_group.begin(), in_group.end());
      const ProcessorId sender = members[rng.next_below(members.size())];
      if (!alive.contains(sender)) continue;
      Bytes payload = bytes_of(std::string("m")
                                   .append(std::to_string(sent + 1))
                                   .append("-")
                                   .append(to_string(sender)));
      if (h.stack(sender).group(kGroup)->send_regular(h.now(), test_conn(),
                                                      sent + 1, payload)) {
        ++sent;
        sent_log.emplace_back(sender, std::move(payload));
      }
      h.run_for(rng.next_below(3) * kMillisecond);
    }
  };

  int crashes = 0;
  for (int ev = 0; ev < sc.events; ++ev) {
    traffic_burst();
    const int kind = int(rng.next_below(3));
    if (kind == 0) {
      // Join someone from the pool.
      std::vector<ProcessorId> candidates;
      for (ProcessorId p : pool) {
        if (!in_group.contains(p) && alive.contains(p)) candidates.push_back(p);
      }
      if (!candidates.empty()) {
        const ProcessorId newbie = candidates[rng.next_below(candidates.size())];
        h.stack(newbie).expect_join(kGroup, kGroupAddr);
        if (h.stack(ProcessorId{1}).add_processor(h.now(), kGroup, newbie)) {
          const bool joined = h.run_until_pred(
              [&] {
                auto* g = h.stack(newbie).group(kGroup);
                return g && g->is_member(newbie);
              },
              h.now() + 10 * kSecond);
          ASSERT_TRUE(joined) << "join of " << to_string(newbie) << " stalled";
          in_group.insert(newbie);
        }
      }
    } else if (kind == 1) {
      // Planned leave of a non-stable member.
      std::vector<ProcessorId> candidates;
      for (ProcessorId p : in_group) {
        if (!alive.contains(p)) continue;
        if (std::find(stable.begin(), stable.end(), p) == stable.end()) {
          candidates.push_back(p);
        }
      }
      if (!candidates.empty() && in_group.size() > 3) {
        const ProcessorId leaver = candidates[rng.next_below(candidates.size())];
        if (h.stack(ProcessorId{1}).remove_processor(h.now(), kGroup, leaver)) {
          const bool left = h.run_until_pred(
              [&] {
                auto* g = h.stack(ProcessorId{1}).group(kGroup);
                return g && !g->is_member(leaver);
              },
              h.now() + 10 * kSecond);
          ASSERT_TRUE(left) << "removal of " << to_string(leaver) << " stalled";
          in_group.erase(leaver);
        }
      }
    } else if (crashes < 2) {
      // Crash a non-stable member (bounded so a quorum always remains).
      std::vector<ProcessorId> candidates;
      for (ProcessorId p : in_group) {
        if (!alive.contains(p)) continue;
        if (std::find(stable.begin(), stable.end(), p) == stable.end()) {
          candidates.push_back(p);
        }
      }
      if (!candidates.empty() && in_group.size() >= 4) {
        const ProcessorId victim = candidates[rng.next_below(candidates.size())];
        h.crash(victim);
        alive.erase(victim);
        ++crashes;
        const bool excluded = h.run_until_pred(
            [&] {
              auto* g = h.stack(ProcessorId{1}).group(kGroup);
              return g && !g->is_member(victim);
            },
            h.now() + 30 * kSecond);
        ASSERT_TRUE(excluded) << "exclusion of " << to_string(victim) << " stalled";
        in_group.erase(victim);
      }
    }
  }
  traffic_burst();
  h.run_for(5 * kSecond);

  // C3 — all active members agree on the membership.
  const auto final_members = h.stack(ProcessorId{1}).group(kGroup)->membership().members;
  for (ProcessorId p : in_group) {
    if (!alive.contains(p)) continue;
    EXPECT_EQ(h.stack(p).group(kGroup)->membership().members, final_members)
        << "membership divergence at " << to_string(p);
  }

  // C1/C2 — stable members have identical transcripts containing every
  // message whose sender survived into the final membership. (A message
  // from a member removed or crashed before it was ordered is legitimately
  // dropped — §7's cut semantics.)
  const auto reference = h.delivered(stable[0], kGroup);
  EXPECT_LE(reference.size(), sent);
  std::unordered_set<std::string> delivered_payloads;
  for (const auto& m : reference) {
    delivered_payloads.emplace(m.giop_message.begin(), m.giop_message.end());
  }
  const std::set<ProcessorId> final_set(final_members.begin(), final_members.end());
  for (const auto& [sender, payload] : sent_log) {
    if (final_set.contains(sender)) {
      EXPECT_TRUE(delivered_payloads.contains(std::string(payload.begin(), payload.end())))
          << "message from surviving member " << to_string(sender) << " lost";
    }
  }
  for (ProcessorId p : stable) {
    const auto msgs = h.delivered(p, kGroup);
    ASSERT_EQ(msgs.size(), reference.size()) << "at " << to_string(p);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(msgs[i].giop_message, reference[i].giop_message)
          << "divergence at " << i << " on " << to_string(p);
    }
  }

  // C4 — every other participant's transcript is a contiguous subsequence
  // of the reference restricted to its membership interval; in particular
  // crashed members' transcripts are consistent with the prefix they saw.
  for (ProcessorId p : pool) {
    const auto msgs = h.delivered(p, kGroup);
    if (msgs.empty()) continue;
    // Find each delivered message in the reference, in order.
    std::size_t cursor = 0;
    for (const auto& m : msgs) {
      while (cursor < reference.size() &&
             reference[cursor].giop_message != m.giop_message) {
        ++cursor;
      }
      ASSERT_LT(cursor, reference.size())
          << to_string(p) << " delivered a message out of reference order";
      ++cursor;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChurnProperties,
                         ::testing::Values(ChurnScenario{21, 0.0, 6},
                                           ChurnScenario{22, 0.05, 6},
                                           ChurnScenario{23, 0.10, 5},
                                           ChurnScenario{24, 0.0, 10},
                                           ChurnScenario{25, 0.15, 4},
                                           ChurnScenario{26, 0.05, 8}),
                         [](const auto& p) {
                           std::ostringstream os;
                           os << p.param;
                           return os.str();
                         });

}  // namespace
}  // namespace ftcorba::ftmp
