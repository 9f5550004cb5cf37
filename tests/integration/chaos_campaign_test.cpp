// End-to-end chaos campaigns: a small seeded campaign survives its fault
// schedule with all seven invariants green, two runs of the same seed are
// bit-for-bit identical (digest), spares churn through joins, leaves and
// rebinds, and the recorded trace replays clean through the offline
// checkers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>

#include "ftmp/chaos.hpp"

namespace ftcorba::ftmp::chaos {
namespace {

CampaignConfig small_config(std::uint64_t seed) {
  CampaignConfig cfg;
  cfg.seed = seed;
  cfg.params.processors = 4;
  cfg.params.duration = 8 * kSecond;
  cfg.params.faults = 4;
  return cfg;
}

std::string violations_to_string(const CampaignResult& r) {
  std::ostringstream out;
  for (const Violation& v : r.violations) {
    out << to_string(v.kind) << " at " << v.at << " " << to_string(v.processor)
        << ": " << v.detail << "\n";
  }
  return out.str();
}

TEST(ChaosCampaign, SmallSeededCampaignHoldsAllInvariants) {
  const CampaignResult r = run_campaign(small_config(42));
  EXPECT_TRUE(r.violations.empty()) << violations_to_string(r);
  EXPECT_TRUE(r.converged) << "fleet reconverged after quiesce";
  EXPECT_TRUE(r.log_replay_ok);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.seed, 42u);
  EXPECT_EQ(r.schedule.faults.size(), 4u);
  EXPECT_GT(r.messages_sent, 0u);
  EXPECT_GT(r.deliveries, r.messages_sent) << "every member delivers";
  EXPECT_GT(r.checker_steps, 1000u) << "checkers ran continuously";
  EXPECT_GT(r.faults_applied, 0u);
}

TEST(ChaosCampaign, SameSeedYieldsIdenticalDigest) {
  const CampaignResult a = run_campaign(small_config(7));
  const CampaignResult b = run_campaign(small_config(7));
  EXPECT_TRUE(a.ok()) << violations_to_string(a);
  EXPECT_EQ(a.digest, b.digest) << "campaign is not deterministic";
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.violations.size(), b.violations.size());

  const CampaignResult c = run_campaign(small_config(8));
  EXPECT_NE(a.digest, c.digest) << "different seeds explore different runs";
}

// LLFT ordering under a leader crash: seed 19's schedule crash-restarts
// P1 — the smallest-id member, hence the initial LLFT leader — mid-run.
// Survivors must fail over to P2's grants through the normal PGMP
// install, re-admit P1, and end the campaign with every invariant green
// and the fleet digest-converged (docs/ORDERING.md §reconciliation).
TEST(ChaosCampaign, LlftLeaderCrashFailsOverAndReconverges) {
  CampaignConfig cfg = small_config(19);
  cfg.ordering_mode = OrderingMode::kLlft;
  const CampaignResult r = run_campaign(cfg);
  EXPECT_TRUE(r.violations.empty()) << violations_to_string(r);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.converged) << "fleet reconverged after the leader restart";
  bool leader_crashed = false;
  for (const Fault& f : r.schedule.faults) {
    if (f.kind == FaultKind::kCrashRestart &&
        std::find(f.a.begin(), f.a.end(), ProcessorId{1}) != f.a.end()) {
      leader_crashed = true;
    }
  }
  EXPECT_TRUE(leader_crashed)
      << "seed 19 is chosen because its schedule crash-restarts P1; if the "
         "schedule generator changed, pick a new leader-crash seed";

  // Same seed, same mode: the LLFT campaign is as deterministic as Lamport.
  CampaignConfig again = small_config(19);
  again.ordering_mode = OrderingMode::kLlft;
  EXPECT_EQ(run_campaign(again).digest, r.digest);
}

// The churn vocabulary end to end: 4 founders, 2 spares and no network
// faults. Spares join and leave, a spare crash-restarts, the group moves
// to a fresh address, and every invariant holds, deterministically, in
// both engines; the trace (churn as informational F records) replays
// clean.
class Churn : public ::testing::TestWithParam<OrderingMode> {};

TEST_P(Churn, SparesJoinLeaveAndRebindUnderEveryInvariant) {
  CampaignConfig cfg;
  cfg.seed = 3;
  cfg.params.processors = 4;
  cfg.params.spares = 2;
  cfg.params.duration = 8 * kSecond;
  cfg.params.faults = 0;
  cfg.ordering_mode = GetParam();
  const CampaignResult r = run_campaign(cfg);
  EXPECT_TRUE(r.ok()) << violations_to_string(r);
  EXPECT_GE(r.joins, 1u);
  EXPECT_GE(r.leaves, 1u);
  EXPECT_GE(r.rebinds, 1u);
  EXPECT_GE(r.crashes, 1u);

  cfg.trace_path = testing::TempDir() + "chaos_churn_" + to_string(GetParam()) + ".trace";
  EXPECT_EQ(run_campaign(cfg).digest, r.digest) << "churn campaign is not deterministic";
  const TraceReplay replay = replay_trace_file(cfg.trace_path);
  EXPECT_TRUE(replay.parsed) << replay.parse_error;
  EXPECT_TRUE(replay.violations.empty());
  std::remove(cfg.trace_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Modes, Churn,
                         ::testing::Values(OrderingMode::kLamport, OrderingMode::kLlft),
                         [](const ::testing::TestParamInfo<OrderingMode>& param) {
                           return std::string(to_string(param.param));
                         });

TEST(ChaosCampaign, TraceReplaysCleanThroughOfflineCheckers) {
  const std::string trace = testing::TempDir() + "chaos_campaign_42.trace";
  std::remove(trace.c_str());
  CampaignConfig cfg = small_config(42);
  cfg.trace_path = trace;
  const CampaignResult r = run_campaign(cfg);
  ASSERT_TRUE(r.ok()) << violations_to_string(r);

  const TraceReplay replay = replay_trace_file(trace);
  EXPECT_TRUE(replay.parsed) << replay.parse_error;
  EXPECT_EQ(replay.run.seed, 42u);
  EXPECT_GE(replay.records, r.deliveries) << "every delivery is in the trace";
  EXPECT_TRUE(replay.violations.empty());
  std::remove(trace.c_str());
}

// The trace header records the run's whole shape, so ftmp_inspect's
// reproduce hint for a failing trace is the command chaos_campaign prints.
TEST(ChaosCampaign, TraceHeaderNamesTheCommandThatReproducesTheRun) {
  CampaignConfig cfg;
  cfg.seed = 5;
  cfg.params.processors = 3;
  cfg.params.duration = 2 * kSecond;
  cfg.params.faults = 1;
  cfg.params.spares = 1;
  cfg.batch_max_datagram_bytes = 1400;
  cfg.ordering_mode = OrderingMode::kLlft;
  cfg.trace_path = testing::TempDir() + "chaos_campaign_shape.trace";
  (void)run_campaign(cfg);

  const TraceReplay replay = replay_trace_file(cfg.trace_path);
  ASSERT_TRUE(replay.parsed) << replay.parse_error;
  ASSERT_TRUE(replay.shape_recorded);
  EXPECT_EQ(repro_command(replay.run),
            "chaos_campaign --seed 5 --procs 3 --duration 2000 --faults 1 --ordering llft "
            "--trace chaos_5.trace -v --spares 1 --batch 1400");
  EXPECT_EQ(repro_command(replay.run), repro_command(cfg));
  std::remove(cfg.trace_path.c_str());
}

}  // namespace
}  // namespace ftcorba::ftmp::chaos
