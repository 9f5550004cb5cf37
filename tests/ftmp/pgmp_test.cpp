// Unit tests for the PGMP layer (§7) driven directly (no network): the
// conviction fixpoint, the quorum rule, suspicion withdrawal, the fault
// detector's timeout and its stalled-detector guard, proposal generation,
// the ends of a recovery round (abort and install), round floors and
// planned-change gating.
#include <gtest/gtest.h>

#include "ftmp/ordering.hpp"
#include "ftmp/pgmp.hpp"

namespace ftcorba::ftmp {
namespace {

constexpr ProcessorId kSelf{1};

Message control(MessageType type, ProcessorId src, SeqNum seq, Timestamp ts, Body body) {
  Message m;
  m.header.type = type;
  m.header.source = src;
  m.header.sequence_number = seq;
  m.header.message_timestamp = ts;
  m.body = std::move(body);
  return m;
}

// The paper's Lamport rule, recording PGMP's recovery signal (the rule
// itself ignores it).
class RecordingOrdering final : public OrderingPolicy {
 public:
  explicit RecordingOrdering(Romp& romp) : rule_(romp, /*own_clock_bound=*/false) {}

  void on_source_ordered(const Frame& frame, TimePoint now) override {
    rule_.on_source_ordered(frame, now);
  }
  std::vector<Frame> collect_deliverable(TimePoint now) override {
    return rule_.collect_deliverable(now);
  }
  std::vector<const Frame*> held_frames() const override { return rule_.held_frames(); }
  std::vector<Frame> drain_up_to_cut(const std::map<ProcessorId, SeqNum>& cuts,
                                     const std::set<ProcessorId>& survivors) override {
    return rule_.drain_up_to_cut(cuts, survivors);
  }
  void remove_member(ProcessorId member) override { rule_.remove_member(member); }
  void set_recovering(bool active) override { recovering = active; }

  bool recovering = false;  // the last set_recovering

 private:
  LamportOrdering rule_;
};

struct PgmpFixture : ::testing::Test {
  Config config;
  Rmp rmp{kSelf, config};
  Romp romp{kSelf, config};
  RecordingOrdering rule{romp};
  Pgmp pgmp{kSelf, config, rmp, romp, rule};

  std::vector<ProcessorId> members(std::initializer_list<std::uint32_t> raw) {
    std::vector<ProcessorId> out;
    for (auto r : raw) out.push_back(ProcessorId{r});
    return out;
  }

  void boot(std::initializer_list<std::uint32_t> raw) {
    pgmp.bootstrap(0, members(raw));
    (void)pgmp.take_output();
  }

  // Routes a control message through RMP, Romp and the rule first (as
  // GroupSession does), so the PGMP completeness check sees a consistent
  // contiguous stream.
  void feed(const Message& msg) {
    for (Frame& f : rmp.on_reliable(0, Frame{msg.header, encode_message(msg)})) {
      romp.on_source_ordered(f.header);
      rule.on_source_ordered(f, 0);
      const Message delivered{f.header, decode_body(f.header, f.body())};
      if (delivered.header.type == MessageType::kSuspect) {
        pgmp.on_suspect(0, delivered);
      } else if (delivered.header.type == MessageType::kMembership) {
        pgmp.on_membership_msg(0, delivered);
      }
    }
  }

  void suspect_from(ProcessorId src, SeqNum seq,
                    std::initializer_list<std::uint32_t> suspects) {
    SuspectBody body;
    body.current_membership = pgmp.membership();
    for (auto s : suspects) body.suspects.push_back(ProcessorId{s});
    feed(control(MessageType::kSuspect, src, seq, seq * 10, body));
  }

  void membership_from(ProcessorId src, SeqNum seq,
                       std::initializer_list<std::uint32_t> proposal) {
    MembershipBody body;
    body.current_membership = pgmp.membership();
    for (ProcessorId m : pgmp.membership().members) {
      body.current_seqs.push_back({m, rmp.contiguous(m)});
    }
    for (auto p : proposal) body.new_membership.push_back(ProcessorId{p});
    feed(control(MessageType::kMembership, src, seq, seq * 10, body));
  }

  // Convenience: does the drained output contain a Membership proposal?
  std::optional<MembershipBody> drain_proposal() {
    for (PgmpOut& out : pgmp.take_output()) {
      if (auto* send = std::get_if<SendBodyOut>(&out)) {
        if (auto* mb = std::get_if<MembershipBody>(&send->body)) return *mb;
      }
    }
    return std::nullopt;
  }

  std::optional<InstallOut> drain_install() {
    for (PgmpOut& out : pgmp.take_output()) {
      if (auto* install = std::get_if<InstallOut>(&out)) return std::move(*install);
    }
    return std::nullopt;
  }

  // The suspect set of the last Suspect message in the drained output.
  std::optional<std::vector<ProcessorId>> drain_suspects() {
    std::optional<std::vector<ProcessorId>> last;
    for (PgmpOut& out : pgmp.take_output()) {
      if (auto* send = std::get_if<SendBodyOut>(&out)) {
        if (auto* sb = std::get_if<SuspectBody>(&send->body)) last = sb->suspects;
      }
    }
    return last;
  }

  // One 1 ms detector step in which only P2 speaks.
  void step(TimePoint& now) {
    now += kMillisecond;
    pgmp.note_heard(ProcessorId{2}, now);
    pgmp.tick(now);
  }
};

TEST_F(PgmpFixture, BootstrapInstallsInitialMembership) {
  pgmp.bootstrap(0, members({3, 1, 2, 2}));
  EXPECT_EQ(pgmp.membership().members, members({1, 2, 3}));  // sorted, deduped
  EXPECT_TRUE(pgmp.active());
  EXPECT_FALSE(pgmp.reconfiguring());
  bool initial_seen = false;
  for (PgmpOut& out : pgmp.take_output()) {
    if (auto* install = std::get_if<InstallOut>(&out)) {
      EXPECT_EQ(install->change.reason, MembershipChanged::Reason::kInitial);
      initial_seen = true;
    }
  }
  EXPECT_TRUE(initial_seen);
  EXPECT_TRUE(rmp.has_source(ProcessorId{2}));
}

TEST_F(PgmpFixture, SingleSuspectDoesNotConvict) {
  boot({1, 2, 3, 4});
  suspect_from(ProcessorId{2}, 1, {4});
  EXPECT_FALSE(pgmp.reconfiguring());
  EXPECT_FALSE(drain_proposal().has_value());
}

TEST_F(PgmpFixture, UnanimousSuspicionConvicts) {
  boot({1, 2, 3, 4});
  suspect_from(ProcessorId{1}, 1, {4});  // self included via loopback normally
  suspect_from(ProcessorId{2}, 1, {4});
  EXPECT_FALSE(pgmp.reconfiguring()) << "P3 has not voted yet";
  suspect_from(ProcessorId{3}, 1, {4});
  EXPECT_TRUE(pgmp.reconfiguring());
  auto proposal = drain_proposal();
  ASSERT_TRUE(proposal.has_value());
  EXPECT_EQ(proposal->new_membership, members({1, 2, 3}));
}

TEST_F(PgmpFixture, SimultaneousDoubleCrashConvictsBoth) {
  boot({1, 2, 3, 4, 5});
  // 3 survivors all suspect both dead members; the dead never vote.
  suspect_from(ProcessorId{1}, 1, {4, 5});
  suspect_from(ProcessorId{2}, 1, {4, 5});
  suspect_from(ProcessorId{3}, 1, {4, 5});
  EXPECT_TRUE(pgmp.reconfiguring());
  auto proposal = drain_proposal();
  ASSERT_TRUE(proposal.has_value());
  EXPECT_EQ(proposal->new_membership, members({1, 2, 3}));
}

TEST_F(PgmpFixture, MutualSuspicionBetweenTwoSidesNeedsQuorumToInstall) {
  boot({1, 2, 3});
  // 1 and 2 suspect 3; 3's row never contradicts (it is silent).
  suspect_from(ProcessorId{1}, 1, {3});
  suspect_from(ProcessorId{2}, 1, {3});
  EXPECT_TRUE(pgmp.reconfiguring());
  // Completion requires matching Membership messages from every survivor.
  membership_from(ProcessorId{1}, 2, {1, 2});
  membership_from(ProcessorId{2}, 2, {1, 2});
  auto install = drain_install();
  ASSERT_TRUE(install.has_value());
  EXPECT_EQ(install->change.membership.members, members({1, 2}));
  EXPECT_EQ(install->faults.size(), 1u);
  EXPECT_EQ(install->faults[0].convicted, ProcessorId{3});
  EXPECT_FALSE(pgmp.reconfiguring());
}

TEST_F(PgmpFixture, MinorityProposalNeverCompletes) {
  boot({1, 2, 3, 4, 5});
  // Only 1 and 2 are reachable; they'd propose {1,2} — below quorum.
  suspect_from(ProcessorId{1}, 1, {3, 4, 5});
  suspect_from(ProcessorId{2}, 1, {3, 4, 5});
  EXPECT_TRUE(pgmp.reconfiguring());
  membership_from(ProcessorId{1}, 2, {1, 2});
  membership_from(ProcessorId{2}, 2, {1, 2});
  EXPECT_FALSE(drain_install().has_value()) << "2 of 5 must stall";
  EXPECT_EQ(pgmp.membership().members.size(), 5u);
}

TEST_F(PgmpFixture, ExactHalfNeedsSmallestId) {
  boot({1, 2, 3, 4});
  // {1,2} is exactly half and contains the smallest id: allowed.
  suspect_from(ProcessorId{1}, 1, {3, 4});
  suspect_from(ProcessorId{2}, 1, {3, 4});
  membership_from(ProcessorId{1}, 2, {1, 2});
  membership_from(ProcessorId{2}, 2, {1, 2});
  EXPECT_TRUE(drain_install().has_value());
}

TEST_F(PgmpFixture, ExactHalfWithoutSmallestIdStalls) {
  Rmp rmp3{ProcessorId{3}, config};
  Romp romp3{ProcessorId{3}, config};
  LamportOrdering rule3{romp3, /*own_clock_bound=*/false};
  Pgmp pgmp3{ProcessorId{3}, config, rmp3, romp3, rule3};
  pgmp3.bootstrap(0, members({1, 2, 3, 4}));
  (void)pgmp3.take_output();

  auto feed3 = [&](const Message& msg) {
    for (Frame& f : rmp3.on_reliable(0, Frame{msg.header, encode_message(msg)})) {
      const Message delivered{f.header, decode_body(f.header, f.body())};
      if (delivered.header.type == MessageType::kSuspect) {
        pgmp3.on_suspect(0, delivered);
      } else {
        pgmp3.on_membership_msg(0, delivered);
      }
    }
  };
  auto suspect3 = [&](ProcessorId src, SeqNum seq,
                      std::initializer_list<std::uint32_t> suspects) {
    SuspectBody body;
    body.current_membership = pgmp3.membership();
    for (auto s : suspects) body.suspects.push_back(ProcessorId{s});
    feed3(control(MessageType::kSuspect, src, seq, seq * 10, body));
  };
  auto membership3 = [&](ProcessorId src, SeqNum seq,
                         std::initializer_list<std::uint32_t> proposal) {
    MembershipBody body;
    body.current_membership = pgmp3.membership();
    for (ProcessorId m : pgmp3.membership().members) {
      body.current_seqs.push_back({m, rmp3.contiguous(m)});
    }
    for (auto p : proposal) body.new_membership.push_back(ProcessorId{p});
    feed3(control(MessageType::kMembership, src, seq, seq * 10, body));
  };
  suspect3(ProcessorId{3}, 1, {1, 2});
  suspect3(ProcessorId{4}, 1, {1, 2});
  membership3(ProcessorId{3}, 2, {3, 4});
  membership3(ProcessorId{4}, 2, {3, 4});
  bool installed = false;
  for (PgmpOut& out : pgmp3.take_output()) {
    if (std::holds_alternative<InstallOut>(out)) installed = true;
  }
  EXPECT_FALSE(installed) << "{3,4} is half of {1,2,3,4} but lacks the smallest id";
}

TEST_F(PgmpFixture, SuspicionWithdrawnWhenProcessorSpeaks) {
  boot({1, 2, 3});
  // Fault detector: P3 times out at us.
  pgmp.tick(config.fault_timeout + 2);
  bool suspect_sent = false;
  for (PgmpOut& out : pgmp.take_output()) {
    if (auto* send = std::get_if<SendBodyOut>(&out)) {
      if (auto* sb = std::get_if<SuspectBody>(&send->body)) {
        suspect_sent = true;
        EXPECT_EQ(sb->suspects, members({2, 3}));  // both timed out
      }
    }
  }
  EXPECT_TRUE(suspect_sent);
  // P3 speaks again before conviction: withdrawal is announced.
  pgmp.note_heard(ProcessorId{3}, config.fault_timeout + 3);
  bool withdrawal = false;
  for (PgmpOut& out : pgmp.take_output()) {
    if (auto* send = std::get_if<SendBodyOut>(&out)) {
      if (auto* sb = std::get_if<SuspectBody>(&send->body)) {
        withdrawal = true;
        EXPECT_EQ(sb->suspects, members({2}));  // only P2 still suspected
      }
    }
  }
  EXPECT_TRUE(withdrawal);
}

// The default detector suspects a silent member after five missed
// heartbeats: just after fault_timeout, counted from its last packet.
TEST_F(PgmpFixture, TickedEveryMillisecondSuspectsJustAfterFaultTimeout) {
  ASSERT_EQ(config.fault_timeout, 5 * config.heartbeat_interval);
  boot({1, 2, 3});
  TimePoint now = 0;
  while (now < config.fault_timeout) {
    step(now);
    ASSERT_FALSE(drain_suspects().has_value()) << "at " << to_ms(now) << " ms";
  }
  step(now);
  EXPECT_EQ(drain_suspects(), members({3}));
}

// A detector that did not run (one tick gap of 3 × fault_timeout) heard
// nothing because it listened to nothing: the gap convicts no one, and a
// silent member is suspected only after a further fault_timeout of ticking.
// P3 last spoke before the stall; P4 speaks in the poll that ends it.
TEST_F(PgmpFixture, StalledDetectorSuspectsNoOne) {
  boot({1, 2, 3, 4});
  TimePoint now = 0;
  for (int i = 0; i < 10; ++i) {
    step(now);
    pgmp.note_heard(ProcessorId{3}, now);
    pgmp.note_heard(ProcessorId{4}, now);
  }
  (void)pgmp.take_output();
  now += 3 * config.fault_timeout;
  pgmp.note_heard(ProcessorId{4}, now);
  pgmp.tick(now);
  EXPECT_FALSE(drain_suspects().has_value()) << "suspected across the stall";
  const TimePoint resumed = now;
  while (now < resumed + config.fault_timeout) {
    step(now);
    ASSERT_FALSE(drain_suspects().has_value()) << to_ms(now - resumed) << " ms after";
  }
  step(now);
  EXPECT_EQ(drain_suspects(), members({3, 4}));
}

// A stall longer than the stranding window (10 × fault_timeout) while this
// member suspects someone does not make it self-evict; the window counts
// only the time the detector ran.
TEST_F(PgmpFixture, StallWhileSuspectingDoesNotStrand) {
  boot({1, 2, 3});
  TimePoint now = 0;
  bool suspecting = false;
  while (!suspecting && now < 2 * config.fault_timeout) {
    step(now);
    suspecting = drain_suspects().has_value();
  }
  ASSERT_TRUE(suspecting);
  ASSERT_FALSE(pgmp.reconfiguring()) << "P3 is suspected by P1 alone";
  now += 12 * config.fault_timeout;
  pgmp.tick(now);
  EXPECT_TRUE(pgmp.active());
  EXPECT_FALSE(drain_install().has_value()) << "self-evicted across the stall";
  const TimePoint resumed = now;
  while (pgmp.active() && now < resumed + 20 * config.fault_timeout) step(now);
  auto install = drain_install();
  ASSERT_TRUE(install.has_value());
  EXPECT_TRUE(install->self_evicted);
  EXPECT_EQ(now, resumed + 10 * config.fault_timeout + kMillisecond);
}

TEST_F(PgmpFixture, RoundFloorIgnoresStaleControlMessages) {
  boot({1, 2, 3});
  suspect_from(ProcessorId{1}, 1, {3});
  suspect_from(ProcessorId{2}, 1, {3});
  membership_from(ProcessorId{1}, 2, {1, 2});
  membership_from(ProcessorId{2}, 2, {1, 2});
  ASSERT_TRUE(drain_install().has_value());
  // A delayed replay of the old round's Suspect (fed straight to PGMP,
  // bypassing RMP's duplicate filter) must not restart the round: its
  // sequence number is at or below the round floor.
  SuspectBody stale;
  stale.current_membership = pgmp.membership();
  stale.suspects = {ProcessorId{3}};
  pgmp.on_suspect(0, control(MessageType::kSuspect, ProcessorId{2}, 1, 10, stale));
  EXPECT_FALSE(pgmp.reconfiguring());
  EXPECT_FALSE(drain_proposal().has_value());
}

// An abort (every conviction withdrawn) drops the round's proposals: the
// next round completes only on proposals made for it.
TEST_F(PgmpFixture, AbortDropsTheRoundsProposals) {
  boot({1, 2, 3});
  suspect_from(ProcessorId{1}, 1, {3});
  suspect_from(ProcessorId{2}, 1, {3});
  membership_from(ProcessorId{2}, 2, {1, 2});  // P1's own is still in flight
  suspect_from(ProcessorId{2}, 3, {});         // P2 withdraws: the round aborts
  ASSERT_FALSE(pgmp.reconfiguring());
  suspect_from(ProcessorId{2}, 4, {3});
  ASSERT_TRUE(pgmp.reconfiguring());
  membership_from(ProcessorId{1}, 2, {1, 2});
  EXPECT_FALSE(drain_install().has_value()) << "completed on P2's proposal from before the abort";
  membership_from(ProcessorId{2}, 5, {1, 2});
  auto install = drain_install();
  ASSERT_TRUE(install.has_value());
  EXPECT_EQ(install->change.membership.members, members({1, 2}));
  EXPECT_EQ(install->change.membership.timestamp, 50u) << "view ts of P2's fresh proposal";
}

// An abort re-arms this member's proposal: a later round that convicts the
// same member multicasts it again.
TEST_F(PgmpFixture, AbortReArmsTheOwnProposal) {
  boot({1, 2, 3});
  suspect_from(ProcessorId{1}, 1, {3});
  suspect_from(ProcessorId{2}, 1, {3});
  auto first = drain_proposal();
  ASSERT_TRUE(first.has_value());
  suspect_from(ProcessorId{2}, 2, {});
  ASSERT_FALSE(pgmp.reconfiguring());
  (void)pgmp.take_output();
  suspect_from(ProcessorId{2}, 3, {3});
  auto again = drain_proposal();
  ASSERT_TRUE(again.has_value()) << "the new round sent no proposal";
  EXPECT_EQ(again->new_membership, members({1, 2}));
}

// The ordering engine is told to stop at this member's first proposal and
// to resume at the abort and at the install, not before.
TEST_F(PgmpFixture, OrderingStaysStoppedUntilTheRoundEnds) {
  boot({1, 2, 3});
  suspect_from(ProcessorId{1}, 1, {3});
  EXPECT_FALSE(rule.recovering) << "no conviction yet";
  suspect_from(ProcessorId{2}, 1, {3});
  EXPECT_TRUE(rule.recovering) << "the first proposal stops it";
  suspect_from(ProcessorId{2}, 2, {});
  EXPECT_FALSE(rule.recovering) << "the abort resumes it";
  suspect_from(ProcessorId{2}, 3, {3});
  EXPECT_TRUE(rule.recovering) << "the next round's proposal stops it again";
  membership_from(ProcessorId{1}, 2, {1, 2});
  EXPECT_TRUE(rule.recovering) << "P2's proposal is still missing";
  membership_from(ProcessorId{2}, 4, {1, 2});
  ASSERT_TRUE(drain_install().has_value());
  EXPECT_FALSE(rule.recovering) << "the install resumes it";
}

// An install drops its round's proposals: a later round in the next view
// that proposes the same members waits for their fresh proposals.
TEST_F(PgmpFixture, InstallDropsTheRoundsProposals) {
  boot({1, 2, 3});
  suspect_from(ProcessorId{1}, 1, {3});
  suspect_from(ProcessorId{2}, 1, {3});
  membership_from(ProcessorId{1}, 2, {1, 2});
  membership_from(ProcessorId{2}, 2, {1, 2});
  ASSERT_TRUE(drain_install().has_value());
  AddProcessorBody body;
  body.current_membership = pgmp.membership();
  body.new_member = ProcessorId{4};
  const Message add = control(MessageType::kAddProcessor, ProcessorId{2}, 3, 30, body);
  feed(add);
  pgmp.on_add_ordered(0, add);
  ASSERT_EQ(pgmp.membership().members, members({1, 2, 4}));
  (void)pgmp.take_output();
  suspect_from(ProcessorId{1}, 3, {4});
  suspect_from(ProcessorId{2}, 4, {4});
  EXPECT_TRUE(pgmp.reconfiguring()) << "completed on the previous round's proposals";
  auto proposal = drain_proposal();
  ASSERT_TRUE(proposal.has_value());
  EXPECT_EQ(proposal->new_membership, members({1, 2}));
  membership_from(ProcessorId{1}, 4, {1, 2});
  EXPECT_FALSE(drain_install().has_value()) << "P2's fresh proposal has not arrived";
  membership_from(ProcessorId{2}, 5, {1, 2});
  auto install = drain_install();
  ASSERT_TRUE(install.has_value());
  EXPECT_EQ(install->change.membership.members, members({1, 2}));
  EXPECT_EQ(install->change.membership.timestamp, 50u);
}

TEST_F(PgmpFixture, MakeAddRejectsDuplicatesAndRecovery) {
  boot({1, 2, 3});
  EXPECT_FALSE(pgmp.make_add(ProcessorId{2}).has_value()) << "already a member";
  auto body = pgmp.make_add(ProcessorId{9});
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->new_member, ProcessorId{9});
  EXPECT_EQ(body->current_membership.members, members({1, 2, 3}));
  pgmp.note_add_sent(ProcessorId{9}, 0, *body);
  EXPECT_FALSE(pgmp.make_add(ProcessorId{9}).has_value()) << "add in flight";
  // During a recovery round, planned changes are refused (§7.1).
  suspect_from(ProcessorId{1}, 1, {3});
  suspect_from(ProcessorId{2}, 1, {3});
  ASSERT_TRUE(pgmp.reconfiguring());
  EXPECT_FALSE(pgmp.make_add(ProcessorId{10}).has_value());
  EXPECT_FALSE(pgmp.make_remove(ProcessorId{2}).has_value());
}

TEST_F(PgmpFixture, RemoveSelfEvicts) {
  boot({1, 2, 3});
  RemoveProcessorBody body{kSelf};
  pgmp.on_remove_ordered(
      0, control(MessageType::kRemoveProcessor, ProcessorId{2}, 1, 10, body));
  EXPECT_FALSE(pgmp.active());
  auto install = drain_install();
  ASSERT_TRUE(install.has_value());
  EXPECT_TRUE(install->self_evicted);
}

TEST_F(PgmpFixture, AddOrderedUpdatesEverything) {
  boot({1, 2, 3});
  AddProcessorBody body;
  body.current_membership = pgmp.membership();
  body.current_seqs = {{ProcessorId{1}, 0}, {ProcessorId{2}, 0}, {ProcessorId{3}, 0}};
  body.new_member = ProcessorId{4};
  pgmp.on_add_ordered(
      0, control(MessageType::kAddProcessor, ProcessorId{2}, 7, 70, body));
  EXPECT_EQ(pgmp.membership().members, members({1, 2, 3, 4}));
  EXPECT_EQ(pgmp.membership().timestamp, 70u);
  EXPECT_TRUE(rmp.has_source(ProcessorId{4}));
  EXPECT_EQ(romp.bound(ProcessorId{4}), 70u);
}

TEST_F(PgmpFixture, SponsorResendsUntilNewMemberSpeaks) {
  boot({1, 2, 3});
  AddProcessorBody body;
  body.current_membership = pgmp.membership();
  body.new_member = ProcessorId{4};
  // We (P1) are the sponsor.
  pgmp.on_add_ordered(100, control(MessageType::kAddProcessor, kSelf, 7, 70, body));
  (void)pgmp.take_output();
  pgmp.tick(100 + kJoinRetryInterval + 1);
  bool resend = false;
  for (PgmpOut& out : pgmp.take_output()) {
    if (auto* r = std::get_if<ResendStoredOut>(&out)) {
      resend = true;
      EXPECT_EQ(r->source, kSelf);
      EXPECT_EQ(r->seq, 7u);
    }
  }
  EXPECT_TRUE(resend);
  // New member speaks: resends stop.
  pgmp.note_heard(ProcessorId{4}, 200);
  pgmp.tick(200 + 10 * kJoinRetryInterval);
  for (PgmpOut& out : pgmp.take_output()) {
    EXPECT_FALSE(std::holds_alternative<ResendStoredOut>(out));
  }
}

// A stall credits the sponsor record's clock with the joiner's: a joiner
// that has not spoken is still not live after it, and still gets the Add.
TEST_F(PgmpFixture, SponsorKeepsResendingAcrossAStall) {
  boot({1, 2, 3});
  AddProcessorBody body;
  body.current_membership = pgmp.membership();
  body.new_member = ProcessorId{4};
  TimePoint now = kMillisecond;
  pgmp.on_add_ordered(now, control(MessageType::kAddProcessor, kSelf, 7, 70, body));
  pgmp.tick(now);
  (void)pgmp.take_output();
  now += 3 * config.fault_timeout;
  pgmp.tick(now);
  bool resend = false;
  for (PgmpOut& out : pgmp.take_output()) {
    resend = resend || std::holds_alternative<ResendStoredOut>(out);
    EXPECT_FALSE(std::holds_alternative<SendBodyOut>(out)) << "suspected across the stall";
  }
  EXPECT_TRUE(resend);
}

}  // namespace
}  // namespace ftcorba::ftmp
