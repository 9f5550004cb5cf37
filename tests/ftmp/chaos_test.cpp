// Unit tests for the chaos harness: schedule generation is a pure function
// of the seed, spares add a churn stream without moving the faults, the
// replayable invariant checkers accept consistent histories and flag
// injected violations, and trace replay round-trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "ftmp/chaos.hpp"

namespace ftcorba::ftmp::chaos {
namespace {

TEST(Fnv1a64, MatchesReferenceVectors) {
  EXPECT_EQ(fnv1a64(nullptr, 0), 0xcbf29ce484222325ull);
  const std::uint8_t a = 'a';
  EXPECT_EQ(fnv1a64(&a, 1), 0xaf63dc4c8601ec8cull);
}

TEST(Schedule, IsAPureFunctionOfTheSeed) {
  ScheduleParams params;
  params.processors = 6;
  params.faults = 12;
  const Schedule s1 = generate_schedule(1234, params);
  const Schedule s2 = generate_schedule(1234, params);
  EXPECT_EQ(s1.to_string(), s2.to_string());
  const Schedule other = generate_schedule(1235, params);
  EXPECT_NE(s1.to_string(), other.to_string());
}

/// A churn event: a join, leave or rebind, or a crash-restart of a spare.
bool is_churn(const Fault& f, const ScheduleParams& params) {
  return f.kind == FaultKind::kJoin || f.kind == FaultKind::kLeave ||
         f.kind == FaultKind::kRebind ||
         (f.kind == FaultKind::kCrashRestart && f.a[0].raw() > params.processors);
}

TEST(Schedule, RespectsShapeConstraints) {
  for (std::uint32_t spares : {0u, 3u}) {
    for (std::uint64_t seed : {1ull, 7ull, 42ull, 999ull}) {
      ScheduleParams params;
      params.processors = 6;
      params.duration = 20 * kSecond;
      params.faults = 15;
      params.spares = spares;
      const Schedule s = generate_schedule(seed, params);
      if (spares == 0) {
        ASSERT_EQ(s.faults.size(), params.faults);
      }
      std::size_t faults = 0, crashes = 0, spare_crashes = 0, rebinds = 0;
      TimePoint prev = 0;
      for (const Fault& f : s.faults) {
        EXPECT_GE(f.at, 1 * kSecond) << "settle-in head is fault-free";
        EXPECT_LT(f.at, params.duration);
        EXPECT_GE(f.at, prev) << "schedule is sorted by activation time";
        prev = f.at;
        EXPECT_FALSE(f.describe().empty());
        if (f.kind == FaultKind::kRebind) {
          EXPECT_TRUE(f.a.empty()) << "a rebind names no processor";
          EXPECT_EQ(f.duration, 0);
          ++rebinds;
          continue;
        }
        ASSERT_FALSE(f.a.empty());
        if (is_churn(f, params)) {
          ASSERT_EQ(f.a.size(), 1u);
          EXPECT_GT(f.a[0].raw(), params.processors) << "churn names a spare";
          EXPECT_LE(f.a[0].raw(), params.processors + params.spares);
          if (f.kind == FaultKind::kCrashRestart) {
            EXPECT_GT(f.duration, 0);
            ++spare_crashes;
          } else {
            EXPECT_EQ(f.duration, 0) << "joins and leaves are instantaneous";
          }
          continue;
        }
        ++faults;
        EXPECT_GT(f.duration, 0);
        for (ProcessorId p : f.a) {
          EXPECT_GE(p.raw(), 1u);
          EXPECT_LE(p.raw(), params.processors) << "faults never name a spare";
        }
        if (f.kind == FaultKind::kCrashRestart) ++crashes;
        if (f.kind == FaultKind::kSymmetricPartition) {
          EXPECT_LT(f.a.size(), (params.processors + 1) / 2)
              << "partition cell is a strict minority";
        }
      }
      EXPECT_EQ(faults, params.faults);
      EXPECT_LE(crashes, std::max<std::size_t>(1, params.processors / 3));
      EXPECT_LE(spare_crashes, 3u);
      EXPECT_LE(rebinds, 2u);
    }
  }
}

TEST(Schedule, SparesAddAChurnStreamAndKeepTheFaults) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    ScheduleParams params;
    params.processors = 4;
    params.duration = 20 * kSecond;
    params.faults = 6;
    std::vector<std::string> want;
    for (const Fault& f : generate_schedule(seed, params).faults) {
      want.push_back(f.describe());
    }

    params.spares = 3;
    const Schedule s = generate_schedule(seed, params);
    EXPECT_NE(s.to_string().find(" spares=3"), std::string::npos);
    std::vector<std::string> kept;
    std::map<ProcessorId, bool> in;  // a spare's place if every event applies
    std::size_t joins = 0, leaves = 0, crashes = 0, rebinds = 0;
    for (const Fault& f : s.faults) {
      if (!is_churn(f, params)) {
        kept.push_back(f.describe());
        continue;
      }
      if (f.kind == FaultKind::kRebind) {
        ++rebinds;
        continue;
      }
      const ProcessorId spare = f.a[0];
      switch (f.kind) {
        case FaultKind::kJoin:
          EXPECT_FALSE(in[spare]) << "join of a spare already in: " << f.describe();
          in[spare] = true;
          ++joins;
          break;
        case FaultKind::kLeave:
          EXPECT_TRUE(in[spare]) << "leave of a spare not in: " << f.describe();
          in[spare] = false;
          ++leaves;
          break;
        default:  // a crashed spare restarts outside the group
          EXPECT_TRUE(in[spare]) << "crash of a spare not in: " << f.describe();
          in[spare] = false;
          ++crashes;
          break;
      }
    }
    EXPECT_EQ(kept, want) << "the faults are unchanged and in the same order";
    EXPECT_GT(joins, 0u);
    EXPECT_GT(leaves, 0u);
    EXPECT_GT(crashes, 0u);
    EXPECT_EQ(rebinds, 2u);
  }
}

// ---- invariant checker ------------------------------------------------------

DeliveryRecord del(std::uint32_t proc, std::uint32_t source, std::uint64_t seq,
                   std::uint64_t ts, std::uint64_t hash = 0x1111) {
  DeliveryRecord d;
  d.at = TimePoint(ts);
  d.proc = proc;
  d.group = 1;
  d.source = source;
  d.seq = seq;
  d.ts = ts;
  d.hash = hash;
  return d;
}

TEST(InvariantChecker, AcceptsAConsistentInterleavedHistory) {
  InvariantChecker c;
  // Two processors deliver the same committed order, interleaved.
  c.on_delivery(del(1, 1, 1, 10));
  c.on_delivery(del(1, 2, 1, 11));
  c.on_delivery(del(2, 1, 1, 10));
  c.on_delivery(del(2, 2, 1, 11));
  c.on_delivery(del(2, 1, 2, 12));
  c.on_delivery(del(1, 1, 2, 12));
  EXPECT_TRUE(c.violations().empty());
  EXPECT_EQ(c.deliveries_checked(), 6u);
}

TEST(InvariantChecker, FlagsDuplicateDelivery) {
  InvariantChecker c;
  c.on_delivery(del(1, 1, 1, 10));
  c.on_delivery(del(1, 1, 1, 10));
  ASSERT_EQ(c.violations().size(), 1u);
  EXPECT_EQ(c.violations()[0].kind, InvariantKind::kDuplicateDelivery);
}

TEST(InvariantChecker, FlagsASkippedCommittedDelivery) {
  InvariantChecker c;
  c.on_delivery(del(1, 1, 1, 10));
  c.on_delivery(del(1, 1, 2, 11));
  c.on_delivery(del(1, 1, 3, 12));
  c.on_delivery(del(2, 1, 1, 10));
  c.on_delivery(del(2, 1, 3, 12));  // skipped seq 2
  // Order conflicts park until a view proves (or finalize assumes) no
  // install was about to legitimize them.
  c.finalize();
  ASSERT_EQ(c.violations().size(), 1u);
  EXPECT_EQ(c.violations()[0].kind, InvariantKind::kTotalOrder);
  EXPECT_NE(c.violations()[0].detail.find("skipped"), std::string::npos);
}

TEST(InvariantChecker, FlagsDivergentOrder) {
  InvariantChecker c;
  c.on_delivery(del(1, 1, 1, 10));
  c.on_delivery(del(1, 2, 1, 11));
  c.on_delivery(del(2, 1, 1, 10));
  c.on_delivery(del(2, 3, 7, 99));  // in nobody's ledger at this position
  c.finalize();
  ASSERT_EQ(c.violations().size(), 1u);
  EXPECT_EQ(c.violations()[0].kind, InvariantKind::kTotalOrder);
}

TEST(InvariantChecker, FlagsPayloadHashMismatch) {
  InvariantChecker c;
  c.on_delivery(del(1, 1, 1, 10, 0xAAAA));
  c.on_delivery(del(2, 1, 1, 10, 0xBBBB));  // same position, different bytes
  ASSERT_EQ(c.violations().size(), 1u);
  EXPECT_EQ(c.violations()[0].kind, InvariantKind::kTotalOrder);
  EXPECT_NE(c.violations()[0].detail.find("hash"), std::string::npos);
}

TEST(InvariantChecker, ResetAdmitsARejoinAtTheCut) {
  InvariantChecker c;
  c.on_delivery(del(1, 1, 1, 10));
  c.on_delivery(del(1, 1, 2, 11));
  c.on_delivery(del(1, 1, 3, 12));
  c.on_delivery(del(2, 1, 1, 10));
  // P2 restarts; virtual synchrony admits the new incarnation at the join
  // cut — anywhere at or past its old position (here seq 3).
  c.on_reset(2);
  c.on_delivery(del(2, 1, 3, 12));
  c.on_delivery(del(2, 1, 4, 13));
  c.on_delivery(del(1, 1, 4, 13));
  EXPECT_TRUE(c.violations().empty());
  // But within the new incarnation, gaps are still violations.
  c.on_delivery(del(2, 1, 6, 15));
  c.on_delivery(del(1, 1, 5, 14));
  c.on_delivery(del(1, 1, 6, 15));
  c.finalize();
  EXPECT_FALSE(c.violations().empty());
}

TEST(InvariantChecker, FlagsConflictingViewsAtOneTimestamp) {
  InvariantChecker c;
  ViewRecord v1;
  v1.at = 5;
  v1.proc = 1;
  v1.group = 1;
  v1.view_ts = 100;
  v1.members = {1, 2, 3};
  c.on_view(v1);
  ViewRecord v2 = v1;
  v2.proc = 2;
  c.on_view(v2);  // same view, agrees
  EXPECT_TRUE(c.violations().empty());
  ViewRecord v3 = v1;
  v3.proc = 3;
  v3.members = {1, 2};
  c.on_view(v3);  // same timestamp, different membership
  ASSERT_EQ(c.violations().size(), 1u);
  EXPECT_EQ(c.violations()[0].kind, InvariantKind::kViewAgreement);
}

TEST(InvariantChecker, FlagsBackwardViewTimestampWithinAnIncarnation) {
  InvariantChecker c;
  ViewRecord v1;
  v1.proc = 1;
  v1.group = 1;
  v1.view_ts = 100;
  v1.members = {1, 2};
  c.on_view(v1);
  ViewRecord v2 = v1;
  v2.view_ts = 90;
  v2.members = {1};
  c.on_view(v2);
  ASSERT_EQ(c.violations().size(), 1u);
  EXPECT_EQ(c.violations()[0].kind, InvariantKind::kViewAgreement);
  // After a reset (new incarnation) an older view timestamp is fine — the
  // fresh process re-installs from its join cut.
  InvariantChecker c2;
  c2.on_view(v1);
  c2.on_reset(1);
  c2.on_view(v2);
  EXPECT_TRUE(c2.violations().empty());
}

// ---- trace replay -----------------------------------------------------------

std::string write_temp_trace(const std::string& name, const std::string& body) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path);
  out << body;
  return path;
}

TEST(TraceReplay, RoundTripsACleanTrace) {
  const std::string path = write_temp_trace("chaos_clean.trace",
                                            "# chaos-trace v1 seed=77\n"
                                            "F 1000 partition @1000ms\n"
                                            "D 2000 1 1 1 1 10 1111\n"
                                            "D 2100 2 1 1 1 10 1111\n"
                                            "V 2200 1 1 50 1,2,3\n"
                                            "V 2300 2 1 50 1,2,3\n"
                                            "X 2400 3\n"
                                            "R 2500 3\n"
                                            "D 2600 3 1 1 1 10 1111\n");
  const TraceReplay r = replay_trace_file(path);
  EXPECT_TRUE(r.parsed) << r.parse_error;
  EXPECT_EQ(r.seed, 77u);
  EXPECT_EQ(r.records, 6u);  // D/V/R only; F and X are informational
  EXPECT_TRUE(r.violations.empty());
  std::remove(path.c_str());
}

TEST(TraceReplay, FlagsADoctoredTrace) {
  const std::string path = write_temp_trace("chaos_doctored.trace",
                                            "# chaos-trace v1 seed=78\n"
                                            "D 2000 1 1 1 1 10 1111\n"
                                            "D 2100 1 1 1 1 10 1111\n");
  const TraceReplay r = replay_trace_file(path);
  ASSERT_TRUE(r.parsed) << r.parse_error;
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].kind, InvariantKind::kDuplicateDelivery);
  std::remove(path.c_str());
}

TEST(TraceReplay, RejectsBadHeaderAndMalformedRecords) {
  const std::string bad = write_temp_trace("chaos_bad.trace", "not a trace\n");
  EXPECT_FALSE(replay_trace_file(bad).parsed);
  std::remove(bad.c_str());

  const std::string mal = write_temp_trace("chaos_malformed.trace",
                                           "# chaos-trace v1 seed=1\n"
                                           "D 2000 1 1\n");
  const TraceReplay r = replay_trace_file(mal);
  EXPECT_FALSE(r.parsed);
  EXPECT_NE(r.parse_error.find("malformed"), std::string::npos);
  std::remove(mal.c_str());

  EXPECT_FALSE(replay_trace_file("/nonexistent/chaos.trace").parsed);
}

}  // namespace
}  // namespace ftcorba::ftmp::chaos
