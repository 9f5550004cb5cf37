// State transfer & post-heal reconciliation (docs/RECOVERY.md): bounded
// catch-up for members admitted after the group accumulated state, donor
// re-election on a mid-transfer crash, and the restart/degrade path when
// every snapshot holder is lost. The assertions pin the "bounded" claim:
// a joiner pays O(snapshot + concurrency window), not O(run length).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>

#include "common/codec.hpp"
#include "common/metrics.hpp"
#include "ft/state_transfer.hpp"
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

/// Deterministic checkpointable application: a rolling accumulator plus the
/// full payload-hash history, so divergence in content OR order is visible
/// and snapshots grow linearly with applied traffic. `padding` zero bytes
/// ride every snapshot, so a test can make a transfer many windows long.
class AccState final : public ft::Checkpointable {
 public:
  explicit AccState(std::size_t padding = 0) : padding_(padding) {}

  void apply(const DeliveredMessage& m) {
    const BytesView payload{m.giop_message.data(), m.giop_message.size()};
    const std::uint64_t ph = ft::state_fnv1a64(payload);
    acc_ = ft::state_digest_mix(acc_, m.source.raw(), m.seq, ph);
    history_.push_back(ph);
  }

  [[nodiscard]] Bytes snapshot() const override {
    Writer w(ByteOrder::kBig);
    w.u64(acc_);
    w.u32(static_cast<std::uint32_t>(history_.size()));
    for (std::uint64_t h : history_) w.u64(h);
    w.raw(Bytes(padding_, 0));
    return std::move(w).take();
  }

  void restore(BytesView snapshot) override {
    Reader r(snapshot, ByteOrder::kBig);
    acc_ = r.u64();
    history_.assign(r.u32(), 0);
    for (std::uint64_t& h : history_) h = r.u64();
  }

  [[nodiscard]] std::uint64_t acc() const { return acc_; }
  [[nodiscard]] std::size_t applied() const { return history_.size(); }

 private:
  std::size_t padding_;
  std::uint64_t acc_ = 0x9e3779b97f4a7c15ull;
  std::vector<std::uint64_t> history_;
};

/// Snapshot padding of 64 chunks: with the history, a transfer takes 65
/// chunks in 17 request windows.
constexpr std::size_t kLongTransferPadding = 64 * ft::kStateChunkBytes;

/// One member's application + transfer manager, wired into the harness
/// event loop (handler feeds events, step hook ticks).
struct Member {
  std::unique_ptr<AccState> app;
  std::unique_ptr<ft::StateTransferManager> st;
};

class StateTransferFixture {
 public:
  explicit StateTransferFixture(SimHarness& h, std::size_t snapshot_padding = 0)
      : h_(h), padding_(snapshot_padding) {
    h_.set_step_hook([this](TimePoint t) {
      for (auto& [p, m] : members_) {
        if (!h_.crashed(p)) m.st->tick(t);
      }
    });
  }

  void attach(ProcessorId p) {
    Member m;
    m.app = std::make_unique<AccState>(padding_);
    AccState* app = m.app.get();
    m.st = std::make_unique<ft::StateTransferManager>(
        p, kGroup, h_.stack(p), *app,
        [app](TimePoint, const DeliveredMessage& msg) { app->apply(msg); });
    members_[p] = std::move(m);
    ft::StateTransferManager* st = members_[p].st.get();
    h_.set_event_handler(
        p, [st](TimePoint t, const Event& ev) { st->on_event(t, ev); });
  }

  [[nodiscard]] Member& at(ProcessorId p) { return members_.at(p); }

  /// Admits `joiner` through the sponsor and waits for membership + a
  /// finished state transfer.
  [[nodiscard]] bool join_and_catch_up(ProcessorId sponsor, ProcessorId joiner,
                                       Duration deadline = 20 * kSecond) {
    h_.stack(joiner).expect_join(kGroup, kGroupAddr);
    if (!h_.stack(sponsor).add_processor(h_.now(), kGroup, joiner)) return false;
    return h_.run_until_pred(
        [&] {
          auto* g = h_.stack(joiner).group(kGroup);
          return g && g->is_member(joiner) && at(joiner).st->caught_up();
        },
        h_.now() + deadline);
  }

  /// Fingerprint/digest/application agreement across `procs`.
  void expect_converged(const std::vector<ProcessorId>& procs) {
    const Member& ref = at(procs.front());
    for (ProcessorId p : procs) {
      const Member& m = at(p);
      EXPECT_EQ(m.st->fingerprint(), ref.st->fingerprint()) << "at " << to_string(p);
      EXPECT_EQ(m.st->digest(), ref.st->digest()) << "at " << to_string(p);
      EXPECT_EQ(m.app->acc(), ref.app->acc()) << "at " << to_string(p);
      EXPECT_EQ(m.app->applied(), ref.app->applied()) << "at " << to_string(p);
    }
  }

 private:
  SimHarness& h_;
  std::size_t padding_;
  std::map<ProcessorId, Member> members_;
};

/// Sends `count` Regular messages round-robin from `senders` and waits for
/// full delivery on each of them.
void pump_traffic(SimHarness& h, const std::vector<ProcessorId>& senders,
                  std::size_t count, std::size_t& sent_so_far) {
  for (std::size_t i = 0; i < count; ++i) {
    const ProcessorId from = senders[i % senders.size()];
    h.stack(from).group(kGroup)->send_regular(
        h.now(), test_conn(), sent_so_far + 1,
        bytes_of("payload-" + std::to_string(sent_so_far + 1)));
    sent_so_far += 1;
    if (i % 10 == 9) h.run_for(5 * kMillisecond);
  }
  h.run_for(300 * kMillisecond);
}

TEST(StateTransfer, BoundedCatchUpAfterJoin) {
  SimHarness h({}, 71);
  const auto founders = ids({1, 2, 3});
  for (ProcessorId p : ids({1, 2, 3, 4})) h.add_processor(p, kDomain, kDomainAddr);
  StateTransferFixture fx(h);
  for (ProcessorId p : founders) fx.attach(p);
  for (ProcessorId p : founders) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, founders);
  h.run_for(50 * kMillisecond);

  // Founders go live immediately: nobody holds prior state at bootstrap.
  for (ProcessorId p : founders) {
    EXPECT_TRUE(fx.at(p).st->caught_up());
    EXPECT_EQ(fx.at(p).st->stats().transfers_completed.value(), 0u);
  }

  std::size_t sent = 0;
  pump_traffic(h, founders, 300, sent);
  ASSERT_EQ(fx.at(ProcessorId{1}).app->applied(), 300u);

  // P4 joins after 300 messages of history.
  fx.attach(ProcessorId{4});
  ASSERT_TRUE(fx.join_and_catch_up(ProcessorId{1}, ProcessorId{4}));
  h.run_for(300 * kMillisecond);  // let completion ack + digests settle

  const ft::StateTransferStats& st4 = fx.at(ProcessorId{4}).st->stats();
  EXPECT_EQ(st4.transfers_completed.value(), 1u);
  EXPECT_EQ(st4.snapshot_verify_failures, 0u);

  // Bounded catch-up: the snapshot carries the 300-message history, but the
  // per-message replay is only the concurrency window around the install —
  // nowhere near the full run.
  EXPECT_GT(st4.bytes_received, 2000u) << "snapshot actually transferred";
  EXPECT_LE(st4.bytes_received, fx.at(ProcessorId{1}).app->snapshot().size())
      << "transferred bytes bounded by the application snapshot";
  EXPECT_LT(st4.messages_replayed.value(), 50u)
      << "replay is the install-concurrent suffix, not the history";
  EXPECT_LE(st4.messages_replayed.value(), st4.messages_buffered)
      << "the watermark filter only ever drops buffered messages";

  fx.expect_converged(ids({1, 2, 3, 4}));

  // Live traffic after the transfer applies everywhere, including P4.
  pump_traffic(h, ids({1, 2, 3, 4}), 20, sent);
  EXPECT_EQ(fx.at(ProcessorId{4}).app->applied(), 320u);
  fx.expect_converged(ids({1, 2, 3, 4}));

  // The donors eventually drop the snapshot (completion ack + TTL).
  ASSERT_TRUE(h.run_until_pred(
      [&] { return fx.at(ProcessorId{1}).st->retained_snapshots() == 0; },
      h.now() + 5 * kSecond));
}

TEST(StateTransfer, DonorCrashMidTransferResumes) {
  metrics::reset_all();
  SimHarness h({}, 73);
  const auto founders = ids({1, 2, 3});
  for (ProcessorId p : ids({1, 2, 3, 4})) h.add_processor(p, kDomain, kDomainAddr);
  // A padded snapshot stretches the transfer over many request windows so
  // the donor crash lands mid-stream.
  StateTransferFixture fx(h, kLongTransferPadding);
  for (ProcessorId p : founders) fx.attach(p);
  for (ProcessorId p : founders) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, founders);
  h.run_for(50 * kMillisecond);

  std::size_t sent = 0;
  pump_traffic(h, founders, 200, sent);

  fx.attach(ProcessorId{4});
  h.stack(ProcessorId{4}).expect_join(kGroup, kGroupAddr);
  ASSERT_TRUE(h.stack(ProcessorId{1}).add_processor(h.now(), kGroup, ProcessorId{4}));

  // Wait until the transfer is demonstrably mid-stream, then kill the
  // donor (smallest-id holder = P1).
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        const auto& s = fx.at(ProcessorId{4}).st->stats();
        return s.chunks_received >= 2 && !fx.at(ProcessorId{4}).st->caught_up();
      },
      h.now() + 20 * kSecond));
  h.crash(ProcessorId{1});

  // P2 is elected donor by the membership change and resumes at P4's
  // cumulative offset; the transfer still completes.
  ASSERT_TRUE(h.run_until_pred(
      [&] { return fx.at(ProcessorId{4}).st->caught_up(); },
      h.now() + 30 * kSecond));
  h.run_for(300 * kMillisecond);

  const ft::StateTransferStats& st4 = fx.at(ProcessorId{4}).st->stats();
  EXPECT_EQ(st4.transfers_completed.value(), 1u);
  EXPECT_GE(st4.transfers_resumed.value(), 1u) << "donor crash must be survived by resume";
  EXPECT_EQ(st4.transfers_restarted.value(), 0u) << "a holder survived: no re-anchor";
  EXPECT_EQ(st4.snapshot_verify_failures, 0u);
  // Resume, not re-pull: every chunk is paid for exactly once, so the
  // transferred bytes equal the snapshot at the cut (no traffic was sent
  // after the admitting install, so P2's state is still exactly the cut).
  EXPECT_EQ(st4.bytes_received, fx.at(ProcessorId{2}).app->snapshot().size());

  fx.expect_converged(ids({2, 3, 4}));
  EXPECT_EQ(fx.at(ProcessorId{4}).app->applied(), 200u);

#if FTCORBA_METRICS_ENABLED
  // One counting mechanism: each registry counter is the sum of the
  // managers' tallies (the crashed donor's manager included).
  const std::pair<const char*, metrics::Counter ft::StateTransferStats::*> counted[] = {
      {"ftmp_ft_state_transfers_completed_total", &ft::StateTransferStats::transfers_completed},
      {"ftmp_ft_state_transfers_resumed_total", &ft::StateTransferStats::transfers_resumed},
      {"ftmp_ft_state_transfers_restarted_total", &ft::StateTransferStats::transfers_restarted},
      {"ftmp_ft_state_chunks_sent_total", &ft::StateTransferStats::chunks_sent},
      {"ftmp_ft_state_chunk_bytes_sent_total", &ft::StateTransferStats::bytes_sent},
      {"ftmp_ft_state_messages_replayed_total", &ft::StateTransferStats::messages_replayed},
      {"ftmp_ft_state_digest_mismatches_total", &ft::StateTransferStats::digest_mismatches},
  };
  for (const auto& [name, field] : counted) {
    std::uint64_t tallies = 0;
    for (ProcessorId p : ids({1, 2, 3, 4})) tallies += (fx.at(p).st->stats().*field).value();
    std::uint64_t registry = 0;
    for (const metrics::Sample& sample : metrics::snapshot()) {
      if (sample.name == name) registry = sample.counter;
    }
    EXPECT_EQ(registry, tallies) << name;
  }
#endif
}

TEST(StateTransfer, AllHoldersLostRestartsAndDegrades) {
  SimHarness h({}, 79);
  // The joiner carries the smallest id so the primary-partition tiebreak
  // lets it stand alone after both founders die.
  const auto founders = ids({2, 3});
  for (ProcessorId p : ids({1, 2, 3})) h.add_processor(p, kDomain, kDomainAddr);
  StateTransferFixture fx(h, kLongTransferPadding);
  for (ProcessorId p : founders) fx.attach(p);
  for (ProcessorId p : founders) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, founders);
  h.run_for(50 * kMillisecond);

  std::size_t sent = 0;
  pump_traffic(h, founders, 150, sent);

  fx.attach(ProcessorId{1});
  h.stack(ProcessorId{1}).expect_join(kGroup, kGroupAddr);
  ASSERT_TRUE(h.stack(ProcessorId{2}).add_processor(h.now(), kGroup, ProcessorId{1}));
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        const auto& s = fx.at(ProcessorId{1}).st->stats();
        return s.chunks_received >= 2 && !fx.at(ProcessorId{1}).st->caught_up();
      },
      h.now() + 20 * kSecond));

  // First view change: the donor dies, the transfer resumes at P3. Second
  // view change: the last holder dies too — the joiner re-anchors, finds
  // no caught-up member left, and degrades deterministically to live mode
  // with its locally observed suffix instead of requesting forever.
  h.crash(ProcessorId{2});
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        auto* g = h.stack(ProcessorId{1}).group(kGroup);
        return g && g->membership().members == ids({1, 3});
      },
      h.now() + 30 * kSecond));
  h.crash(ProcessorId{3});
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        auto* g = h.stack(ProcessorId{1}).group(kGroup);
        return g && g->membership().members == ids({1}) &&
               fx.at(ProcessorId{1}).st->caught_up();
      },
      h.now() + 30 * kSecond));

  const ft::StateTransferStats& st1 = fx.at(ProcessorId{1}).st->stats();
  EXPECT_GE(st1.transfers_resumed.value(), 1u);
  EXPECT_GE(st1.transfers_restarted.value(), 1u) << "second view change re-anchored";
  EXPECT_EQ(st1.transfers_completed.value(), 0u) << "nobody left to serve the snapshot";

  // The sole survivor is live: new traffic still applies.
  h.stack(ProcessorId{1}).group(kGroup)->send_regular(h.now(), test_conn(), 9001,
                                                      bytes_of("post-degrade"));
  ASSERT_TRUE(h.run_until_pred(
      [&] { return fx.at(ProcessorId{1}).app->applied() >= 1; },
      h.now() + 5 * kSecond));
}

}  // namespace
}  // namespace ftcorba::ftmp
