// Crash-restart recovery: a crashed processor loses its volatile state,
// reloads its durable message log (ft::PersistentLog), carries only the
// durable join-timestamp floors into the fresh incarnation, and rejoins the
// group through the normal PGMP AddProcessor flow.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "ft/persistent_log.hpp"
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

TEST(Restart, CrashedProcessorReplaysLogAndRejoins) {
  const std::string log_path = testing::TempDir() + "restart_p3_wal.log";
  std::remove(log_path.c_str());

  SimHarness h({}, 91);
  const auto all = ids({1, 2, 3, 4});
  for (ProcessorId p : all) h.add_processor(p, kDomain, kDomainAddr);

  // P3 journals every delivery to a durable log, shadowed in memory so the
  // test can check the reload byte for byte.
  auto plog = std::make_unique<ft::PersistentLog>(log_path);
  std::vector<ft::LogEntry> shadow;
  h.set_event_handler(ProcessorId{3}, [&](TimePoint, const Event& ev) {
    if (const auto* d = std::get_if<DeliveredMessage>(&ev)) {
      ft::LogEntry entry{ft::MessageKind::kRequest, d->connection,
                        d->request_num, d->timestamp, d->giop_message};
      plog->append(entry);
      shadow.push_back(std::move(entry));
    }
  });

  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);

  for (std::uint64_t req = 1; req <= 3; ++req) {
    ASSERT_TRUE(h.stack(ProcessorId{1}).group(kGroup)->send_regular(
        h.now(), test_conn(), req, bytes_of("pre-crash-" + std::to_string(req))));
    h.run_for(100 * kMillisecond);
  }
  ASSERT_EQ(h.delivered(ProcessorId{3}, kGroup).size(), 3u);
  ASSERT_EQ(shadow.size(), 3u);

  // Fail-stop crash. The survivors convict and exclude P3.
  const auto floors_before = h.stack(ProcessorId{3}).join_timestamp_floors();
  h.crash(ProcessorId{3});
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        auto* g = h.stack(ProcessorId{1}).group(kGroup);
        return g && g->membership().members == ids({1, 2, 4});
      },
      h.now() + 10 * kSecond));

  // Progress while P3 is down.
  ASSERT_TRUE(h.stack(ProcessorId{2}).group(kGroup)->send_regular(
      h.now(), test_conn(), 10, bytes_of("during-downtime")));
  h.run_for(200 * kMillisecond);

  // The durable log survives the crash and replays exactly what the previous
  // incarnation recorded.
  plog->flush();
  plog.reset();
  const auto replayed = ft::PersistentLog::load(log_path);
  EXPECT_EQ(replayed, shadow);

  // Restart: volatile state is gone, the join-timestamp floors are not.
  Stack& fresh = h.restart(ProcessorId{3});
  EXPECT_EQ(h.incarnation(ProcessorId{3}), 1u);
  EXPECT_TRUE(h.events(ProcessorId{3}).empty()) << "fresh process, empty event log";
  EXPECT_EQ(fresh.group(kGroup), nullptr) << "no sessions survive a restart";
  auto floors_after = fresh.join_timestamp_floors();
  ASSERT_FALSE(floors_after.empty());
  bool found = false;
  for (const auto& [group, ts] : floors_after) {
    if (group != kGroup) continue;
    found = true;
    for (const auto& [g0, t0] : floors_before) {
      if (g0 == kGroup) {
        EXPECT_GE(ts, t0);
      }
    }
  }
  EXPECT_TRUE(found) << "join-timestamp floor for the group was carried over";

  // Rejoin through the normal AddProcessor flow.
  plog = std::make_unique<ft::PersistentLog>(log_path);  // journal resumes
  fresh.expect_join(kGroup, kGroupAddr);
  ASSERT_TRUE(h.stack(ProcessorId{1}).add_processor(h.now(), kGroup, ProcessorId{3}));
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        auto* sponsor = h.stack(ProcessorId{1}).group(kGroup);
        auto* joiner = h.stack(ProcessorId{3}).group(kGroup);
        return sponsor && sponsor->is_member(ProcessorId{3}) && joiner &&
               joiner->is_member(ProcessorId{3});
      },
      h.now() + 10 * kSecond));

  // Converged: everyone agrees on the membership and P3 orders new traffic
  // identically to the survivors.
  h.run_for(500 * kMillisecond);
  for (ProcessorId p : all) {
    ASSERT_NE(h.stack(p).group(kGroup), nullptr) << "at " << to_string(p);
    EXPECT_EQ(h.stack(p).group(kGroup)->membership().members, all)
        << "at " << to_string(p);
  }
  h.clear_events();
  for (ProcessorId p : all) {
    ASSERT_TRUE(h.stack(p).group(kGroup)->send_regular(
        h.now(), test_conn(), 20 + p.raw(), bytes_of(to_string(p) + "-post-rejoin")));
  }
  h.run_for(500 * kMillisecond);
  const auto reference = h.delivered(ProcessorId{1}, kGroup);
  ASSERT_EQ(reference.size(), 4u);
  for (ProcessorId p : all) {
    const auto msgs = h.delivered(p, kGroup);
    ASSERT_EQ(msgs.size(), reference.size()) << "at " << to_string(p);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(msgs[i].giop_message, reference[i].giop_message);
    }
  }
  plog.reset();
  std::remove(log_path.c_str());
}

TEST(Restart, RestartDemandsACrashedProcessor) {
  SimHarness h({}, 92);
  h.add_processor(ProcessorId{1}, kDomain, kDomainAddr);
  EXPECT_THROW(h.restart(ProcessorId{1}), std::logic_error);
  EXPECT_THROW(h.restart(ProcessorId{9}), std::out_of_range);
  EXPECT_EQ(h.incarnation(ProcessorId{1}), 0u);
}

TEST(Restart, StepHookObservesEverySimulationStep) {
  SimHarness h({}, 93);
  const auto all = ids({1, 2});
  for (ProcessorId p : all) h.add_processor(p, kDomain, kDomainAddr);
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  std::size_t steps = 0;
  TimePoint last = 0;
  bool monotonic = true;
  h.set_step_hook([&](TimePoint t) {
    ++steps;
    monotonic = monotonic && t >= last;
    last = t;
  });
  h.run_for(100 * kMillisecond);
  EXPECT_GT(steps, 10u);
  EXPECT_TRUE(monotonic);
}

// A fresh incarnation has joined only its domain address: it hears nothing
// of the old incarnation's group until it expects the join, so none of the
// group's traffic reaches it as unroutable. It then rejoins as usual.
TEST(Restart, FreshIncarnationHearsNothingOfItsOldGroup) {
  SimHarness h({}, 94);
  const auto all = ids({1, 2, 3});
  for (ProcessorId p : all) h.add_processor(p, kDomain, kDomainAddr);
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);
  h.crash(ProcessorId{3});
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        return h.stack(ProcessorId{1}).group(kGroup)->membership().members ==
               ids({1, 2});
      },
      h.now() + 10 * kSecond));

  Stack& fresh = h.restart(ProcessorId{3});
  EXPECT_EQ(fresh.subscriptions(), std::vector<McastAddress>{kDomainAddr});
  h.run_for(100 * kMillisecond);  // the survivors' heartbeats on kGroupAddr
  EXPECT_EQ(fresh.stats().unroutable_datagrams.value(), 0u);

  fresh.expect_join(kGroup, kGroupAddr);
  ASSERT_TRUE(h.stack(ProcessorId{1}).add_processor(h.now(), kGroup, ProcessorId{3}));
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        const GroupSession* g = fresh.group(kGroup);
        return g && g->membership().members == all;
      },
      h.now() + 10 * kSecond));
}

// A member crashes in the middle of a fragmented message, then is
// re-admitted. What the session kept for the old incarnation must go with
// it: the survivors drop its partial message when its removal installs,
// and the new incarnation's first fragmented message (fragment id 1 again)
// arrives intact.
TEST(Restart, ReadmittedMemberGetsFreshReassembly) {
  Config config;
  config.max_regular_payload = 100;
  SimHarness h({}, 94);
  const auto all = ids({1, 2, 3});
  const auto survivors = ids({1, 2});
  const ProcessorId victim{3};
  for (ProcessorId p : all) h.add_processor(p, kDomain, kDomainAddr, config);
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);
  const auto session = [&](ProcessorId p) { return h.stack(p).group(kGroup); };
  const auto view_is = [&](const std::vector<ProcessorId>& at,
                           const std::vector<ProcessorId>& members) {
    return std::all_of(at.begin(), at.end(), [&](ProcessorId p) {
      return session(p) && session(p)->membership().members == members;
    });
  };

  // Ten fragments; the victim crashes once the first four are on the wire.
  const Bytes old_message = bytes_of("old:" + std::string(996, 'o'));
  int sent = 0;
  h.network().set_tap([&](TimePoint, ProcessorId from, const net::Datagram&) {
    if (from == victim && ++sent == 5) h.crash(victim);
  });
  ASSERT_TRUE(session(victim)->send_regular(h.now(), test_conn(), 1, old_message));
  h.run_for(1 * kMillisecond);
  h.network().set_tap(nullptr);
  ASSERT_TRUE(h.crashed(victim));
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        return std::all_of(survivors.begin(), survivors.end(), [&](ProcessorId p) {
          return session(p)->reassembler().in_flight() == 1;
        });
      },
      h.now() + 100 * kMillisecond))
      << "the survivors never held the victim's partial message";
  ASSERT_TRUE(view_is(survivors, all));
  ASSERT_TRUE(h.run_until_pred([&] { return view_is(survivors, survivors); },
                               h.now() + 5 * kSecond));
  for (ProcessorId p : survivors) {
    EXPECT_EQ(session(p)->reassembler().in_flight(), 0u)
        << "partial message of the removed member kept at " << to_string(p);
  }

  Stack& fresh = h.restart(victim);
  fresh.expect_join(kGroup, kGroupAddr);
  ASSERT_TRUE(h.stack(ProcessorId{1}).add_processor(h.now(), kGroup, victim));
  ASSERT_TRUE(h.run_until_pred([&] { return view_is(all, all); },
                               h.now() + 5 * kSecond));

  const Bytes new_message = bytes_of("new:" + std::string(996, 'n'));
  ASSERT_TRUE(fresh.group(kGroup)->send_regular(h.now(), test_conn(), 1, new_message));
  h.run_for(500 * kMillisecond);
  for (ProcessorId p : all) {
    const auto got = h.delivered(p, kGroup);
    EXPECT_EQ(std::count_if(got.begin(), got.end(),
                            [&](const DeliveredMessage& m) {
                              return m.giop_message == new_message;
                            }),
              1)
        << "at " << to_string(p);
    EXPECT_TRUE(std::none_of(got.begin(), got.end(), [&](const DeliveredMessage& m) {
      return m.giop_message == old_message;
    })) << "at " << to_string(p);
  }
}

// Crash-and-readmit cycles in a 3-member group, in the given order of
// victims: each crash must be convicted at every survivor, each
// re-admission installed at every member, and a message the re-admitted
// member sends afterwards delivered everywhere. Regression: a survivor kept
// a completed-round floor for the previous incarnation of a re-admitted
// member and dropped its new Suspect and Membership messages, so crashing
// X, Y, X never convicted the second X.
void run_crash_cycles(OrderingMode mode, const std::vector<std::uint32_t>& order) {
  Config config;
  config.ordering_mode = mode;
  SimHarness h({}, 7);
  const auto all = ids({1, 2, 3});
  for (ProcessorId p : all) h.add_processor(p, kDomain, kDomainAddr, config);
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);
  const auto view_is = [&](const std::vector<ProcessorId>& at,
                           const std::vector<ProcessorId>& members) {
    for (ProcessorId p : at) {
      const GroupSession* g = h.stack(p).group(kGroup);
      if (!g || g->membership().members != members) return false;
    }
    return true;
  };
  RequestNum req = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    // Traffic first, most of it before the first crash: an incarnation's
    // stream is then still short of its predecessor's when its member takes
    // part in the next recovery round.
    for (int n = 0; n < (i == 0 ? 40 : 5); ++n) {
      for (ProcessorId p : all) {
        ASSERT_TRUE(h.stack(p).group(kGroup)->send_regular(
            h.now(), test_conn(), ++req, bytes_of("traffic")));
      }
      h.run_for(2 * kMillisecond);
    }
    const ProcessorId victim{order[i]};
    std::vector<ProcessorId> survivors;
    for (ProcessorId p : all) {
      if (p != victim) survivors.push_back(p);
    }
    h.crash(victim);
    ASSERT_TRUE(h.run_until_pred([&] { return view_is(survivors, survivors); },
                                 h.now() + 5 * kSecond))
        << "crash " << i + 1 << " (" << to_string(victim) << ") never convicted";

    Stack& fresh = h.restart(victim);
    fresh.expect_join(kGroup, kGroupAddr);
    ASSERT_TRUE(h.stack(survivors.front()).add_processor(h.now(), kGroup, victim));
    ASSERT_TRUE(h.run_until_pred([&] { return view_is(all, all); },
                                 h.now() + 5 * kSecond))
        << "re-admission " << i + 1 << " (" << to_string(victim)
        << ") never installed";

    const Bytes text = bytes_of("after-readmission-" + std::to_string(i + 1));
    ASSERT_TRUE(fresh.group(kGroup)->send_regular(h.now(), test_conn(), ++req, text));
    const auto everywhere = [&] {
      for (ProcessorId p : all) {
        const auto got = h.delivered(p, kGroup);
        if (std::none_of(got.begin(), got.end(), [&](const DeliveredMessage& m) {
              return m.giop_message == text;
            })) {
          return false;
        }
      }
      return true;
    };
    ASSERT_TRUE(h.run_until_pred(everywhere, h.now() + 5 * kSecond))
        << "message after re-admission " << i + 1 << " not delivered everywhere";
  }
}

class ReCrash : public ::testing::TestWithParam<OrderingMode> {};

TEST_P(ReCrash, EveryCrashConvictedAndEveryReadmissionInstalled) {
  const std::vector<std::vector<std::uint32_t>> orders{
      {1, 2, 1},    {2, 3, 2},    {3, 1, 3}, {1, 2, 2, 1},
      {1, 1, 1, 1}, {1, 2, 3, 1}, {1, 2, 1, 2, 1, 3, 2, 3}};
  for (const auto& order : orders) {
    std::string name;
    for (std::uint32_t v : order) {
      if (!name.empty()) name += ',';
      name += std::to_string(v);
    }
    SCOPED_TRACE("crash order " + name);
    run_crash_cycles(GetParam(), order);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ReCrash,
                         ::testing::Values(OrderingMode::kLamport,
                                           OrderingMode::kLamportPaper,
                                           OrderingMode::kLlft),
                         [](const ::testing::TestParamInfo<OrderingMode>& param) {
                           std::string name = to_string(param.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace ftcorba::ftmp
