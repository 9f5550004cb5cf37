// LLFT ordering-engine tests (llft.hpp, docs/ORDERING.md): leader grant
// stamping, follower gap recovery through RMP NACKs, and leader-failover
// reconciliation through the PGMP install path (prefix agreement across
// survivors, new-leader accession, post-failover progress), the leader's
// grant at send of its own Regulars, a member taking its own Regulars and
// OrderInfo in at send, and batching at the leader only, where a batch
// opened after a quiet window leaves with its partner.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "ftmp/llft.hpp"
#include "ftmp/sim_harness.hpp"
#include "ftmp/wire.hpp"

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

Config llft_config() {
  Config cfg;
  cfg.ordering_mode = OrderingMode::kLlft;
  return cfg;
}

Config batched_llft_config() {
  Config cfg = llft_config();
  cfg.batch_max_datagram_bytes = 1400;
  return cfg;
}

// Every first-transmission FTMP frame one member multicasts, decoded, with
// the index of the wire datagram (FTMB batch or plain) that carried it and
// the time it left.
class WireLog {
 public:
  struct Entry {
    std::size_t datagram = 0;
    TimePoint at = 0;
    Message msg;
  };

  WireLog(SimHarness& h, ProcessorId sender) {
    h.network().set_tap([this, sender](TimePoint at, ProcessorId from,
                                       const net::Datagram& d) {
      if (from != sender) return;
      ++datagrams_;
      if (!looks_like_ftmp_batch(d.payload)) {
        add(at, d.payload);
        return;
      }
      BatchParser parser(d.payload);
      while (auto sf = parser.next()) {
        add(at, d.payload.view().subspan(sf->offset, sf->length));
      }
    });
  }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

  /// Every grant issued, in wire order, with its OrderInfo's view tag,
  /// datagram and departure time.
  struct Grant {
    std::size_t datagram = 0;
    TimePoint at = 0;
    Timestamp view_ts = 0;
    SourceSeq slot;
  };
  [[nodiscard]] std::vector<Grant> grants() const {
    std::vector<Grant> out;
    for (const Entry& e : entries_) {
      if (e.msg.header.type != MessageType::kOrderInfo) continue;
      const auto& body = std::get<OrderInfoBody>(e.msg.body);
      for (const SourceSeq& g : body.grants) {
        out.push_back({e.datagram, e.at, body.view_ts, g});
      }
    }
    return out;
  }

 private:
  void add(TimePoint at, BytesView frame) {
    Message m = decode_message(frame);
    if (m.header.retransmission) return;
    entries_.push_back({datagrams_, at, std::move(m)});
  }

  std::size_t datagrams_ = 0;
  std::vector<Entry> entries_;
};

const LlftOrdering& engine(SimHarness& h, ProcessorId p) {
  auto* g = h.stack(p).group(kGroup);
  EXPECT_NE(g, nullptr) << "no session for " << to_string(p);
  return dynamic_cast<const LlftOrdering&>(g->ordering());
}

void expect_same_order(SimHarness& h, const std::vector<ProcessorId>& members,
                       std::size_t expected, const char* what) {
  const auto reference = h.delivered(members.front(), kGroup);
  ASSERT_EQ(reference.size(), expected) << what;
  for (ProcessorId p : members) {
    const auto msgs = h.delivered(p, kGroup);
    ASSERT_EQ(msgs.size(), reference.size())
        << what << " at " << to_string(p);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(msgs[i].source, reference[i].source) << what << " pos " << i;
      EXPECT_EQ(msgs[i].seq, reference[i].seq) << what << " pos " << i;
      EXPECT_EQ(msgs[i].giop_message, reference[i].giop_message)
          << what << " pos " << i;
    }
  }
}

// One member's rule over its own Romp, set up as Pgmp::bootstrap does;
// feed() hands a frame to Romp first and then the rule, as GroupSession does.
struct Engine {
  Engine(ProcessorId self, const std::vector<ProcessorId>& members)
      : romp(self, llft_config()), rule(romp) {
    for (ProcessorId m : members) {
      romp.admit(m, 0, 0);
      rule.reset_source(m, 0);
    }
    rule.set_view(0);
  }
  void feed(const Frame& f) {
    romp.on_source_ordered(f.header);
    rule.on_source_ordered(f, 0);
  }
  Romp romp;
  LlftOrdering rule;
};

// The smallest-id member grants the slots; everyone (the leader included,
// via multicast loopback) delivers in one identical order, and headers
// still carry live Lamport timestamps for the untouched stability plane.
TEST(Llft, LeaderStampsAndAllMembersDeliverInGrantOrder) {
  SimHarness h({}, 71);
  const auto all = ids({1, 2, 3});
  for (ProcessorId p : all) h.add_processor(p, kDomain, kDomainAddr, llft_config());
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);

  for (ProcessorId p : all) {
    EXPECT_EQ(engine(h, p).leader(), ProcessorId{1}) << "at " << to_string(p);
  }
  EXPECT_TRUE(engine(h, ProcessorId{1}).leading());
  EXPECT_FALSE(engine(h, ProcessorId{2}).leading());

  std::uint64_t req = 0;
  for (int round = 0; round < 20; ++round) {
    for (ProcessorId p : all) {
      h.stack(p).group(kGroup)->send_regular(
          h.now(), test_conn(), ++req,
          bytes_of(to_string(p) + "-m" + std::to_string(round)));
    }
    h.run_for(5 * kMillisecond);
  }
  h.run_for(500 * kMillisecond);
  expect_same_order(h, all, std::size_t(req), "grant order");

  // Stability kept running: the engines reclaimed buffers (non-zero acks).
  for (ProcessorId p : all) {
    EXPECT_GT(h.stack(p).group(kGroup)->romp().stable_timestamp(), 0u)
        << "at " << to_string(p);
  }
}

// A follower cut off mid-stream misses both Regulars and the OrderInfo
// grants covering them; after the heal, RMP NACK recovery refills the gaps
// and the follower converges on the leader's order with no skips.
TEST(Llft, FollowerRecoversGrantGapsThroughRetransmission) {
  SimHarness h({}, 72);
  const auto all = ids({1, 2, 3});
  for (ProcessorId p : all) h.add_processor(p, kDomain, kDomainAddr, llft_config());
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);

  std::uint64_t req = 0;
  // Isolate P3 briefly (below the fault timeout — no exclusion) while the
  // other members keep ordering traffic.
  h.network().set_partition({ids({3})});
  for (int round = 0; round < 5; ++round) {
    for (ProcessorId p : ids({1, 2})) {
      ++req;
      h.stack(p).group(kGroup)->send_regular(
          h.now(), test_conn(), req, bytes_of("gap-" + std::to_string(req)));
    }
    h.run_for(10 * kMillisecond);
  }
  h.network().heal();
  h.run_for(1 * kSecond);

  for (ProcessorId p : all) {
    EXPECT_EQ(h.stack(p).group(kGroup)->membership().members, all)
        << "spurious exclusion at " << to_string(p);
  }
  expect_same_order(h, all, std::size_t(req), "post-gap order");
}

// Leader failure: the survivors convict the leader, reconcile through the
// PGMP install (identical delivered prefix at the cut), the next smallest
// eligible member accedes, and ordering resumes under the new leader.
TEST(Llft, LeaderFailoverReconcilesAndResumesUnderNewLeader) {
  SimHarness h({}, 73);
  const auto all = ids({1, 2, 3, 4});
  for (ProcessorId p : all) h.add_processor(p, kDomain, kDomainAddr, llft_config());
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);
  ASSERT_EQ(engine(h, ProcessorId{2}).leader(), ProcessorId{1});

  // In-flight traffic from everyone, then the leader dies mid-stream.
  std::uint64_t req = 0;
  for (ProcessorId p : all) {
    h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), ++req,
                                           bytes_of(to_string(p) + "-preq"));
  }
  h.run_for(5 * kMillisecond);
  h.network().set_partition({ids({1})});

  const auto survivors = ids({2, 3, 4});
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        for (ProcessorId p : survivors) {
          auto* g = h.stack(p).group(kGroup);
          if (!g || g->membership().members != survivors) return false;
        }
        return true;
      },
      h.now() + 10 * kSecond));

  // New leader everywhere: the smallest surviving (founding) member.
  for (ProcessorId p : survivors) {
    EXPECT_EQ(engine(h, p).leader(), ProcessorId{2}) << "at " << to_string(p);
  }
  EXPECT_TRUE(engine(h, ProcessorId{2}).leading());

  // The reconciled prefixes agree (virtual synchrony at the cut).
  const auto reference = h.delivered(ProcessorId{2}, kGroup);
  for (ProcessorId p : survivors) {
    const auto msgs = h.delivered(p, kGroup);
    ASSERT_EQ(msgs.size(), reference.size()) << "at " << to_string(p);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(msgs[i].source, reference[i].source) << "pos " << i;
      EXPECT_EQ(msgs[i].seq, reference[i].seq) << "pos " << i;
    }
  }

  // Ordering must RESUME under the new leader — the regression this test
  // pins is a post-install grant stall.
  h.clear_events();
  std::uint64_t post = 0;
  for (ProcessorId p : survivors) {
    h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), 100 + ++post,
                                           bytes_of(to_string(p) + "-post"));
  }
  h.run_for(500 * kMillisecond);
  expect_same_order(h, survivors, std::size_t(post), "post-failover order");
}

// Back-to-back failovers walk the leadership down the id order and keep
// every survivor's ledger a common prefix.
TEST(Llft, SecondFailoverHandsLeadershipDownAgain) {
  SimHarness h({}, 74);
  const auto all = ids({1, 2, 3, 4, 5});
  for (ProcessorId p : all) h.add_processor(p, kDomain, kDomainAddr, llft_config());
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);

  h.network().set_partition({ids({1})});
  auto wait_members = [&](const std::vector<ProcessorId>& want) {
    return h.run_until_pred(
        [&] {
          for (ProcessorId p : want) {
            auto* g = h.stack(p).group(kGroup);
            if (!g || g->membership().members != want) return false;
          }
          return true;
        },
        h.now() + 10 * kSecond);
  };
  ASSERT_TRUE(wait_members(ids({2, 3, 4, 5})));
  EXPECT_TRUE(engine(h, ProcessorId{2}).leading());

  h.clear_events();
  std::uint64_t req = 0;
  for (ProcessorId p : ids({2, 3, 4, 5})) {
    h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), ++req,
                                           bytes_of(to_string(p) + "-era2"));
  }
  h.run_for(500 * kMillisecond);
  expect_same_order(h, ids({2, 3, 4, 5}), std::size_t(req), "era2");

  h.network().set_partition({ids({1, 2})});
  ASSERT_TRUE(wait_members(ids({3, 4, 5})));
  for (ProcessorId p : ids({3, 4, 5})) {
    EXPECT_EQ(engine(h, p).leader(), ProcessorId{3}) << "at " << to_string(p);
  }

  h.clear_events();
  req = 0;
  for (ProcessorId p : ids({3, 4, 5})) {
    h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), 200 + ++req,
                                           bytes_of(to_string(p) + "-era3"));
  }
  h.run_for(500 * kMillisecond);
  expect_same_order(h, ids({3, 4, 5}), std::size_t(req), "era3");
}

// A rejoining member defers leadership for one view (kJoinPending, then a
// joined-epoch equal to the admitting view): the standing leader keeps
// granting, the joiner applies its floor advisory instead of re-ordering
// pre-join backlog, and traffic keeps flowing end to end.
TEST(Llft, RejoiningSmallestIdDefersLeadershipAndCatchesUp) {
  SimHarness h({}, 75);
  const auto all = ids({1, 2, 3, 4});
  for (ProcessorId p : all) h.add_processor(p, kDomain, kDomainAddr, llft_config());
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);

  // Kill the leader; survivors reconcile and continue under P2.
  h.network().set_partition({ids({1})});
  const auto survivors = ids({2, 3, 4});
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        for (ProcessorId p : survivors) {
          auto* g = h.stack(p).group(kGroup);
          if (!g || g->membership().members != survivors) return false;
        }
        return true;
      },
      h.now() + 10 * kSecond));

  std::uint64_t req = 0;
  for (ProcessorId p : survivors) {
    h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), ++req,
                                           bytes_of(to_string(p) + "-mid"));
  }
  h.run_for(300 * kMillisecond);

  // Heal and re-admit P1 (the smallest id). It must NOT reclaim leadership
  // in the view that admits it — only at the next view change.
  h.network().heal();
  ASSERT_TRUE(h.stack(ProcessorId{1}).drop_group(kGroup));
  h.stack(ProcessorId{1}).expect_join(kGroup, kGroupAddr);
  ASSERT_TRUE(h.stack(ProcessorId{2}).add_processor(h.now(), kGroup, ProcessorId{1}));
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        auto* sponsor = h.stack(ProcessorId{2}).group(kGroup);
        auto* joiner = h.stack(ProcessorId{1}).group(kGroup);
        return sponsor && sponsor->is_member(ProcessorId{1}) && joiner &&
               joiner->is_member(ProcessorId{1});
      },
      h.now() + 5 * kSecond));
  h.run_for(200 * kMillisecond);
  for (ProcessorId p : all) {
    EXPECT_EQ(engine(h, p).leader(), ProcessorId{2})
        << "rejoined smallest id must defer leadership, at " << to_string(p);
  }

  // Traffic still orders across all four members under the standing leader.
  h.clear_events();
  std::uint64_t post = 0;
  for (ProcessorId p : all) {
    h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), 300 + ++post,
                                           bytes_of(to_string(p) + "-re"));
  }
  h.run_for(500 * kMillisecond);
  expect_same_order(h, all, std::size_t(post), "post-rejoin order");
}

// A joiner with a smaller id than every founder, admitted while the group
// is still at view 0: no member is eligible to lead there, and the
// smallest-id fallback must skip the joiner (its admission is pending), as
// the founders do. Otherwise the joiner computes itself as leader, grants
// its own backlog in arrival order and delivers it out of the founders'
// order.
TEST(Llft, SmallestIdJoinerAtViewZeroDeliversTheFoundersOrder) {
  SimHarness h({}, 78);
  const auto founders = ids({2, 3, 4});
  const ProcessorId joiner{1};
  for (ProcessorId p : founders) h.add_processor(p, kDomain, kDomainAddr, llft_config());
  h.add_processor(joiner, kDomain, kDomainAddr, llft_config());
  for (ProcessorId p : founders) {
    h.stack(p).create_group(h.now(), kGroup, kGroupAddr, founders);
  }

  // From 50 ms on each founder sends one Regular per ms; P2 sponsors P1 at
  // 51 ms, right after the second round. Before the fix the founders
  // delivered x3, x6, x4, x7, x5, x8 after x0-x2 and P1 x5, x8, x4, x7, x3, x6.
  h.run_for(50 * kMillisecond);
  std::uint64_t req = 0;
  for (int round = 0; round < 3; ++round) {
    for (ProcessorId p : founders) {
      h.stack(p).group(kGroup)->send_regular(
          h.now(), test_conn(), req + 1,
          bytes_of(std::string("x").append(std::to_string(req))));
      ++req;
    }
    if (round == 1) {
      h.stack(joiner).expect_join(kGroup, kGroupAddr);
      ASSERT_TRUE(h.stack(ProcessorId{2}).add_processor(h.now(), kGroup, joiner));
    }
    h.run_for(1 * kMillisecond);
  }
  h.run_for(1 * kSecond);

  expect_same_order(h, founders, std::size_t(req), "founders' order");
  // The joiner delivers a suffix of the founders' order: everything after
  // its join cut, in the same order.
  auto texts = [](const std::vector<DeliveredMessage>& msgs) {
    std::vector<std::string> out;
    for (const DeliveredMessage& m : msgs) {
      out.emplace_back(m.giop_message.begin(), m.giop_message.end());
    }
    return out;
  };
  const auto founders_order = texts(h.delivered(founders.front(), kGroup));
  const auto joiner_order = texts(h.delivered(joiner, kGroup));
  ASSERT_FALSE(joiner_order.empty());
  ASSERT_LE(joiner_order.size(), founders_order.size());
  EXPECT_EQ(joiner_order,
            std::vector<std::string>(founders_order.end() - joiner_order.size(),
                                     founders_order.end()));
}

// Two sponsors race to add the same joiner: both AddProcessor messages
// reach their ordering points, the second one is a membership no-op. The
// leader suspends granting at every membership-change slot it grants, so
// the duplicate must still resume it (regression: a duplicate used to
// return early without set_view, leaving the leader suspended forever and
// stalling totally-ordered delivery group-wide).
TEST(Llft, DuplicateAddFromRacingSponsorsDoesNotStallGranting) {
  SimHarness h({}, 76);
  const auto founders = ids({1, 2, 3, 4});
  for (ProcessorId p : founders) {
    h.add_processor(p, kDomain, kDomainAddr, llft_config());
  }
  for (ProcessorId p : founders) {
    h.stack(p).create_group(h.now(), kGroup, kGroupAddr, founders);
  }
  h.run_for(50 * kMillisecond);
  ASSERT_TRUE(engine(h, ProcessorId{1}).leading());

  const ProcessorId joiner{5};
  const auto all = ids({1, 2, 3, 4, 5});
  h.add_processor(joiner, kDomain, kDomainAddr, llft_config());
  h.stack(joiner).expect_join(kGroup, kGroupAddr);
  // Same instant, two different sponsors (each one's local in-flight
  // bookkeeping cannot see the other's Add).
  ASSERT_TRUE(h.stack(ProcessorId{2}).add_processor(h.now(), kGroup, joiner));
  ASSERT_TRUE(h.stack(ProcessorId{3}).add_processor(h.now(), kGroup, joiner));
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        for (ProcessorId p : all) {
          auto* g = h.stack(p).group(kGroup);
          if (!g || g->membership().members != all) return false;
        }
        return true;
      },
      h.now() + 5 * kSecond));
  h.run_for(200 * kMillisecond);

  // The regression: after the duplicate Add resolved, the leader must
  // still grant — traffic from every member orders and delivers.
  h.clear_events();
  std::uint64_t req = 0;
  for (ProcessorId p : all) {
    h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), 400 + ++req,
                                           bytes_of(to_string(p) + "-dup"));
  }
  h.run_for(500 * kMillisecond);
  expect_same_order(h, all, std::size_t(req), "post-duplicate-add order");
}

// A duplicate membership change leaves the view where it was, so it must
// not make the leader announce its delivered floors again under the same
// view. A member that holds a grant but not yet the granted message, or
// that replays the view's buffered grants all at once, would raise its
// floor past that message and settle it without delivering it. Here P2,
// cut off from the leader and so one view behind, sponsors P5 a second
// time just after P1 granted P4's Regular, which P3 has not received.
// The links have no jitter: P1 sends the Add's grant and the new view's
// floors in one step, and a jittered link that swapped them would draw a
// NACK whose answers bring P2 the grant at once.
TEST(Llft, DuplicateMembershipChangeKeepsUndeliveredGrants) {
  net::LinkModel exact;
  exact.jitter = 0;
  SimHarness h(exact, 76);
  const auto founders = ids({1, 2, 3, 4});
  for (ProcessorId p : founders) {
    h.add_processor(p, kDomain, kDomainAddr, llft_config());
  }
  for (ProcessorId p : founders) {
    h.stack(p).create_group(h.now(), kGroup, kGroupAddr, founders);
  }
  h.run_for(50 * kMillisecond);
  ASSERT_TRUE(engine(h, ProcessorId{1}).leading());

  const ProcessorId joiner{5};
  h.add_processor(joiner, kDomain, kDomainAddr, llft_config());
  h.stack(joiner).expect_join(kGroup, kGroupAddr);
  h.network().block_link(ProcessorId{1}, ProcessorId{2});
  ASSERT_TRUE(h.stack(ProcessorId{3}).add_processor(h.now(), kGroup, joiner));
  ASSERT_TRUE(h.run_until_pred(
      [&] { return h.stack(ProcessorId{1}).group(kGroup)->is_member(joiner); },
      h.now() + 5 * kSecond));

  h.network().block_link(ProcessorId{4}, ProcessorId{3});
  const Bytes text = bytes_of("P4-after-the-add");
  ASSERT_TRUE(h.stack(ProcessorId{4}).group(kGroup)->send_regular(
      h.now(), test_conn(), 600, text));
  h.run_for(2 * kMillisecond);
  ASSERT_FALSE(h.stack(ProcessorId{2}).group(kGroup)->is_member(joiner));
  ASSERT_TRUE(h.stack(ProcessorId{2}).add_processor(h.now(), kGroup, joiner));
  h.run_for(5 * kMillisecond);
  h.network().clear_blocked_links();
  h.run_for(2 * kSecond);

  for (ProcessorId p : ids({1, 2, 3, 4, 5})) {
    const auto got = h.delivered(p, kGroup);
    EXPECT_EQ(std::count_if(got.begin(), got.end(),
                            [&](const DeliveredMessage& m) {
                              return m.giop_message == text;
                            }),
              1)
        << "at " << to_string(p);
  }
}

// Concurrent removes of the same member: the second RemoveProcessor orders
// as a membership no-op and must resume the leader's granting, same
// regression as the duplicate Add above.
TEST(Llft, DuplicateRemoveDoesNotStallGranting) {
  SimHarness h({}, 77);
  const auto all = ids({1, 2, 3, 4});
  for (ProcessorId p : all) h.add_processor(p, kDomain, kDomainAddr, llft_config());
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);
  ASSERT_TRUE(engine(h, ProcessorId{1}).leading());

  // Same instant, two different members remove P4 (both see it as a member
  // when they issue the Remove).
  ASSERT_TRUE(h.stack(ProcessorId{2}).remove_processor(h.now(), kGroup,
                                                       ProcessorId{4}));
  ASSERT_TRUE(h.stack(ProcessorId{3}).remove_processor(h.now(), kGroup,
                                                       ProcessorId{4}));
  const auto survivors = ids({1, 2, 3});
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        for (ProcessorId p : survivors) {
          auto* g = h.stack(p).group(kGroup);
          if (!g || g->membership().members != survivors) return false;
        }
        return true;
      },
      h.now() + 5 * kSecond));
  h.run_for(200 * kMillisecond);

  h.clear_events();
  std::uint64_t req = 0;
  for (ProcessorId p : survivors) {
    h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), 500 + ++req,
                                           bytes_of(to_string(p) + "-dup"));
  }
  h.run_for(500 * kMillisecond);
  expect_same_order(h, survivors, std::size_t(req), "post-duplicate-remove order");
}

// The future-view grant buffer is bounded: a peer tagging OrderInfo with
// ever-higher view timestamps saturates the cap instead of growing memory,
// eviction sheds the highest tags first, and a legitimately-low future tag
// is still admitted and drained by the install that reaches it.
TEST(Llft, FutureViewGrantBufferIsBounded) {
  constexpr std::size_t kCap = 256;  // kMaxFutureBodies in llft.cpp
  Engine e(ProcessorId{2}, ids({1, 2}));
  LlftOrdering& eng = e.rule;

  auto order_info = [](SeqNum seq, Timestamp view_ts) {
    Message m;
    m.header.type = MessageType::kOrderInfo;
    m.header.source = ProcessorId{1};
    m.header.sequence_number = seq;
    m.header.message_timestamp = Timestamp{seq};
    OrderInfoBody b;
    b.view_ts = view_ts;
    b.grants.push_back({ProcessorId{1}, seq});
    m.body = std::move(b);
    return Frame{m.header, encode_message(m)};
  };

  SeqNum seq = 0;
  for (std::size_t i = 0; i < kCap + 50; ++i) {
    e.feed(order_info(++seq, 1000 + Timestamp{i}));
  }
  EXPECT_EQ(eng.future_buffered(), kCap) << "cap must hold under flood";

  // A low future tag (the one a real racing leader would use) evicts a
  // high one instead of being refused.
  e.feed(order_info(++seq, 5));
  EXPECT_EQ(eng.future_buffered(), kCap);
  eng.set_view(5);
  EXPECT_EQ(eng.future_buffered(), kCap - 1)
      << "install must drain exactly the admitted low-tagged body";
}

// Under batching, the leader grants its own Regular when it sends it, so
// the message and the OrderInfo granting it leave in one FTMB datagram; the
// loopback arrival grants nothing more, so every message gets exactly one
// grant.
TEST(Llft, LeaderGrantsOwnRegularInTheSameBatch) {
  SimHarness h({}, 78);
  const auto all = ids({1, 2, 3});
  for (ProcessorId p : all) {
    h.add_processor(p, kDomain, kDomainAddr, batched_llft_config());
  }
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);
  ASSERT_TRUE(engine(h, ProcessorId{1}).leading());

  WireLog wire(h, ProcessorId{1});
  std::uint64_t req = 0;
  for (int round = 0; round < 10; ++round) {
    for (ProcessorId p : all) {
      h.stack(p).group(kGroup)->send_regular(
          h.now(), test_conn(), ++req,
          bytes_of(to_string(p) + "-b" + std::to_string(round)));
    }
    h.run_for(5 * kMillisecond);
  }
  h.run_for(500 * kMillisecond);
  expect_same_order(h, all, std::size_t(req), "self-granted order");

  const auto grants = wire.grants();
  std::size_t own = 0;
  for (const WireLog::Entry& e : wire.entries()) {
    if (e.msg.header.type != MessageType::kRegular) continue;
    own += 1;
    const SeqNum seq = e.msg.header.sequence_number;
    const auto g = std::find_if(grants.begin(), grants.end(), [&](const auto& x) {
      return x.slot == SourceSeq{ProcessorId{1}, seq};
    });
    ASSERT_NE(g, grants.end()) << "own Regular " << seq << " never granted";
    EXPECT_EQ(g->datagram, e.datagram)
        << "own Regular " << seq << " and its grant left in different datagrams";
  }
  EXPECT_EQ(own, 10u);

  // One grant per message: the loopback arrival never re-grants.
  EXPECT_EQ(grants.size(), std::size_t(req));
  std::set<std::pair<std::uint32_t, SeqNum>> distinct;
  for (const auto& g : grants) distinct.insert({g.slot.processor.raw(), g.slot.seq});
  EXPECT_EQ(distinct.size(), grants.size());
}

// The messages one wire datagram (FTMB batch or plain) carries.
std::vector<Message> messages_in(const net::Datagram& d) {
  if (!looks_like_ftmp_batch(d.payload)) return {decode_message(d.payload.view())};
  std::vector<Message> out;
  BatchParser parser(d.payload);
  while (auto sf = parser.next()) {
    out.push_back(decode_message(d.payload.view().subspan(sf->offset, sf->length)));
  }
  return out;
}

// Sends one Regular per text from `p`, then runs one drain of its stack the
// way the harness does after every step: returns what that drain put on the
// wire.
std::vector<net::Datagram> send_and_drain(SimHarness& h, ProcessorId p,
                                          std::uint64_t& req,
                                          std::initializer_list<const char*> texts) {
  for (const char* text : texts) {
    EXPECT_TRUE(h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), ++req,
                                                       bytes_of(text)));
  }
  std::vector<net::Datagram> out = h.stack(p).take_packets();
  for (const net::Datagram& d : out) h.network().send(h.now(), p, d);
  return out;
}

// Under batching only the leader's data-bearing batches wait for
// batch_flush_us: its window is where grants coalesce. A follower's lone
// Regular leaves at the drain that staged it (with any heartbeat its batch
// held), frames staged within one drain still share a datagram, and the
// grant waits out the leader's window alone.
TEST(Llft, FollowerBatchLeavesAtTheNextDrain) {
  net::LinkModel exact;
  exact.jitter = 0;
  SimHarness h(exact, 80);
  const auto all = ids({1, 2, 3});
  const Config cfg = batched_llft_config();
  for (ProcessorId p : all) h.add_processor(p, kDomain, kDomainAddr, cfg);
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);
  ASSERT_TRUE(engine(h, ProcessorId{1}).leading());
  EXPECT_TRUE(engine(h, ProcessorId{1}).batches_wait());
  EXPECT_FALSE(engine(h, ProcessorId{2}).batches_wait());
  EXPECT_FALSE(engine(h, ProcessorId{3}).batches_wait());

  WireLog wire(h, ProcessorId{1});
  std::uint64_t req = 0;
  const TimePoint lone_sent = h.now();
  const auto lone = send_and_drain(h, ProcessorId{2}, req, {"lone"});
  ASSERT_EQ(lone.size(), 1u) << "a follower's lone Regular waited for the timer";
  SeqNum lone_seq = 0;
  for (const Message& m : messages_in(lone[0])) {
    if (m.header.type == MessageType::kRegular) lone_seq = m.header.sequence_number;
  }
  ASSERT_NE(lone_seq, 0u);
  h.run_for(5 * kMillisecond);

  const auto pair = send_and_drain(h, ProcessorId{3}, req, {"pair-a", "pair-b"});
  ASSERT_EQ(pair.size(), 1u);
  std::size_t regulars = 0;
  for (const Message& m : messages_in(pair[0])) {
    regulars += m.header.type == MessageType::kRegular ? 1 : 0;
  }
  EXPECT_EQ(regulars, 2u) << "frames staged within one drain must share a datagram";
  h.run_for(5 * kMillisecond);

  EXPECT_TRUE(send_and_drain(h, ProcessorId{1}, req, {"leader"}).empty())
      << "the leader's own Regular and its grant wait for its timer";
  h.run_for(200 * kMillisecond);
  expect_same_order(h, all, std::size_t(req), "follower batches at the drain");

  const auto grants = wire.grants();
  const auto lone_grant = std::find_if(grants.begin(), grants.end(), [&](const auto& g) {
    return g.slot == SourceSeq{ProcessorId{2}, lone_seq};
  });
  ASSERT_NE(lone_grant, grants.end());
  const TimePoint arrived = lone_sent + exact.delay;
  const Duration window = Duration(cfg.batch_flush_us) * kMicrosecond;
  EXPECT_GE(lone_grant->at, arrived + window) << "the grant left before the leader's timer";
  EXPECT_LE(lone_grant->at, arrived + window + kMillisecond)
      << "the grant waited past the leader's timer and the next tick";

  std::size_t own = 0;
  for (const WireLog::Entry& e : wire.entries()) {
    if (e.msg.header.type != MessageType::kRegular) continue;
    own += 1;
    const auto g = std::find_if(grants.begin(), grants.end(), [&](const auto& x) {
      return x.slot == SourceSeq{ProcessorId{1}, e.msg.header.sequence_number};
    });
    ASSERT_NE(g, grants.end());
    EXPECT_EQ(g->datagram, e.datagram) << "own Regular and its grant split";
  }
  EXPECT_EQ(own, 1u);

  // One grant per message.
  EXPECT_EQ(grants.size(), std::size_t(req));
  std::set<std::pair<std::uint32_t, SeqNum>> distinct;
  for (const auto& g : grants) distinct.insert({g.slot.processor.raw(), g.slot.seq});
  EXPECT_EQ(distinct.size(), grants.size());
}

// The leader takes its own OrderInfo in when it stamps it, so it delivers
// a follower's Regular in the step that grants it, while the grant still
// waits in its batch for the timer; the followers deliver it once that
// datagram arrives. Nothing is lost, so no member counts a duplicate: the
// loopback copies of the messages taken in at send are not duplicates.
TEST(Llft, LeaderDeliversWhatItGrantsBeforeItsBatchLeaves) {
  net::LinkModel exact;
  exact.jitter = 0;
  SimHarness h(exact, 80);
  const auto all = ids({1, 2, 3});
  const Config cfg = batched_llft_config();
  for (ProcessorId p : all) h.add_processor(p, kDomain, kDomainAddr, cfg);
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);
  ASSERT_TRUE(engine(h, ProcessorId{1}).leading());

  WireLog wire(h, ProcessorId{1});
  std::uint64_t req = 0;
  const TimePoint sent = h.now();
  ASSERT_EQ(send_and_drain(h, ProcessorId{2}, req, {"follower"}).size(), 1u);
  h.run_for(200 * kMillisecond);
  expect_same_order(h, all, 1, "a follower's granted Regular");

  const auto grants = wire.grants();
  ASSERT_EQ(grants.size(), 1u);
  const TimePoint arrived = sent + exact.delay;
  const Duration window = Duration(cfg.batch_flush_us) * kMicrosecond;
  EXPECT_GE(grants[0].at, arrived + window) << "the grant left before the leader's timer";
  EXPECT_EQ(h.delivered(ProcessorId{1}, kGroup)[0].delivered_at, arrived)
      << "the leader waited for its own grant to come back";
  for (ProcessorId p : ids({2, 3})) {
    EXPECT_GE(h.delivered(p, kGroup)[0].delivered_at, grants[0].at + exact.delay)
        << "at " << to_string(p);
  }
  for (ProcessorId p : all) {
    EXPECT_EQ(h.stack(p).group(kGroup)->rmp().stats().duplicates_ignored.value(), 0u)
        << "at " << to_string(p);
  }
}

// The leader's batch opened after a quiet window leaves with its partner:
// P3's Regular, sent 200 us after P2's, is granted into the batch that
// holds P2's grant and releases it at once, so both grants share one
// datagram and the followers deliver both messages one hop later, well
// inside the leader's 500 us window.
TEST(Llft, QuietLeaderBatchLeavesWithTheNextGrant) {
  net::LinkModel exact;
  exact.jitter = 0;
  SimHarness h(exact, 80);
  const auto all = ids({1, 2, 3});
  for (ProcessorId p : all) {
    h.add_processor(p, kDomain, kDomainAddr, batched_llft_config());
  }
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);
  ASSERT_TRUE(engine(h, ProcessorId{1}).leading());

  WireLog wire(h, ProcessorId{1});
  std::uint64_t req = 0;
  const TimePoint sent = h.now();
  ASSERT_EQ(send_and_drain(h, ProcessorId{2}, req, {"first"}).size(), 1u);
  h.run_for(200 * kMicrosecond);
  ASSERT_EQ(send_and_drain(h, ProcessorId{3}, req, {"second"}).size(), 1u);
  h.run_for(200 * kMillisecond);
  expect_same_order(h, all, 2, "two grants in one quiet batch");

  const auto grants = wire.grants();
  ASSERT_EQ(grants.size(), 2u);
  const TimePoint partner_arrived = sent + 200 * kMicrosecond + exact.delay;
  EXPECT_EQ(grants[0].datagram, grants[1].datagram) << "the grants left apart";
  EXPECT_EQ(grants[0].at, partner_arrived) << "the batch outlived its partner's drain";
  for (ProcessorId p : ids({2, 3})) {
    for (const DeliveredMessage& m : h.delivered(p, kGroup)) {
      EXPECT_EQ(m.delivered_at, partner_arrived + exact.delay) << "at " << to_string(p);
    }
  }
  EXPECT_EQ(h.stack(ProcessorId{1}).batch_stats().closed_partner, 1u);
}

// A lone member is its own leader, and its own acks make each message
// stable in the pump that delivers it, before its loopback copy arrives.
// That copy is still no duplicate: RMP keys it on the first copy of each
// own message to come back, not on the stored message.
TEST(Llft, OwnLoopbackIsNoDuplicateInAOneMemberGroup) {
  net::LinkModel exact;
  exact.jitter = 0;
  SimHarness h(exact, 83);
  const auto solo = ids({1});
  h.add_processor(ProcessorId{1}, kDomain, kDomainAddr, llft_config());
  h.stack(ProcessorId{1}).create_group(h.now(), kGroup, kGroupAddr, solo);
  h.run_for(50 * kMillisecond);
  GroupSession& member = *h.stack(ProcessorId{1}).group(kGroup);
  for (std::uint64_t req = 1; req <= 10; ++req) {
    ASSERT_TRUE(member.send_regular(h.now(), test_conn(), req, bytes_of("solo")));
    h.run_for(3 * kMillisecond);
  }
  expect_same_order(h, solo, 10, "a one-member group");
  EXPECT_EQ(member.rmp().stats().duplicates_ignored.value(), 0u);
}

// An own message that is not taken in at send (here a StateRequest) is on
// its loopback way when the leader stamps its next Regular and the
// OrderInfo granting it. RMP takes an own message in at send only when
// every earlier one is in, so both follow the StateRequest by loopback:
// the Regular is delivered once and in order, and nobody asks for the
// leader's own stream again.
TEST(Llft, OwnRegularBehindAnOwnMessageInFlightComesByLoopback) {
  net::LinkModel exact;
  exact.jitter = 0;
  SimHarness h(exact, 82);
  const auto all = ids({1, 2, 3});
  for (ProcessorId p : all) h.add_processor(p, kDomain, kDomainAddr, llft_config());
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);
  ASSERT_TRUE(engine(h, ProcessorId{1}).leading());

  std::size_t own_nacks = 0;
  h.network().set_tap([&](TimePoint, ProcessorId, const net::Datagram& d) {
    const Message m = decode_message(d.payload.view());
    if (m.header.type == MessageType::kRetransmitRequest &&
        std::get<RetransmitRequestBody>(m.body).processor == ProcessorId{1}) {
      ++own_nacks;
    }
  });
  GroupSession& leader = *h.stack(ProcessorId{1}).group(kGroup);
  StateRequestBody request;
  request.joiner = ProcessorId{3};
  ASSERT_TRUE(leader.send_state(h.now(), request));
  const SeqNum in_flight = leader.rmp().last_sent();
  ASSERT_TRUE(leader.send_regular(h.now(), test_conn(), 1, bytes_of("behind")));
  EXPECT_EQ(leader.rmp().contiguous(ProcessorId{1}), in_flight - 1);
  ASSERT_TRUE(h.stack(ProcessorId{2}).group(kGroup)->send_regular(
      h.now(), test_conn(), 2, bytes_of("follower")));
  h.run_for(200 * kMillisecond);
  expect_same_order(h, all, 2, "behind an own message in flight");
  EXPECT_EQ(own_nacks, 0u) << "a RetransmitRequest named the leader's own stream";
}

// ftmp_batch_grant_only_total tells a grant that rode no data datagram
// from one that did: a lone follower Regular, granted by an idle leader,
// costs the leader one grant-only datagram; the leader's own Regular
// carries its grant and costs none.
TEST(Llft, GrantOnlyDatagramsCountGrantsThatRideNoData) {
  net::LinkModel exact;
  exact.jitter = 0;
  SimHarness h(exact, 80);
  const auto all = ids({1, 2, 3});
  for (ProcessorId p : all) {
    h.add_processor(p, kDomain, kDomainAddr, batched_llft_config());
  }
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);
  ASSERT_TRUE(engine(h, ProcessorId{1}).leading());

  const auto grant_only = [&] { return h.stack(ProcessorId{1}).batch_stats().grant_only; };
  const std::uint64_t before = grant_only();
  std::uint64_t req = 0;
  send_and_drain(h, ProcessorId{2}, req, {"follower"});
  h.run_for(5 * kMillisecond);
  EXPECT_EQ(grant_only(), before + 1) << "a follower's lone Regular";
  send_and_drain(h, ProcessorId{1}, req, {"leader"});
  h.run_for(5 * kMillisecond);
  EXPECT_EQ(grant_only(), before + 1) << "the leader's own Regular";
  h.run_for(200 * kMillisecond);
  expect_same_order(h, all, std::size_t(req), "grant-only count");
  for (ProcessorId p : ids({2, 3})) {
    EXPECT_EQ(h.stack(p).batch_stats().grant_only, 0u) << "at " << to_string(p);
  }
}

// The flush window moves with leadership at the fault install: once P1 has
// crashed, P2 leads and its batches wait for the timer, while P3, still a
// follower, keeps closing its data-bearing batches at every drain.
TEST(Llft, FlushWindowMovesToTheNewLeaderAtFailover) {
  SimHarness h({}, 81);
  const auto all = ids({1, 2, 3});
  for (ProcessorId p : all) {
    h.add_processor(p, kDomain, kDomainAddr, batched_llft_config());
  }
  for (ProcessorId p : all) h.stack(p).create_group(h.now(), kGroup, kGroupAddr, all);
  h.run_for(50 * kMillisecond);

  std::uint64_t req = 0;
  EXPECT_EQ(send_and_drain(h, ProcessorId{2}, req, {"p2-before"}).size(), 1u)
      << "P2 follows: its Regular leaves at once";
  h.run_for(50 * kMillisecond);
  h.crash(ProcessorId{1});
  const auto survivors = ids({2, 3});
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        for (ProcessorId p : survivors) {
          if (h.stack(p).group(kGroup)->membership().members != survivors) return false;
        }
        return true;
      },
      h.now() + 10 * kSecond));
  ASSERT_TRUE(engine(h, ProcessorId{2}).leading());
  EXPECT_TRUE(engine(h, ProcessorId{2}).batches_wait());
  EXPECT_FALSE(engine(h, ProcessorId{3}).batches_wait());

  EXPECT_TRUE(send_and_drain(h, ProcessorId{2}, req, {"p2-leads"}).empty())
      << "the new leader's batch must wait for its timer";
  EXPECT_EQ(send_and_drain(h, ProcessorId{3}, req, {"p3-follows"}).size(), 1u)
      << "a follower's batch must leave at the drain";
  h.run_for(500 * kMillisecond);
  expect_same_order(h, survivors, std::size_t(req), "after failover");
}

// The leader sends an AddProcessor and, before it is granted, a Regular.
// The Regular must not be granted at send (it would overtake the Add and
// trail a membership change in the same view): the Add is granted first,
// granting stops there, and the Regular is granted under the new view.
TEST(Llft, OwnRegularBehindUngrantedAddWaitsForTheNewView) {
  SimHarness h({}, 79);
  const auto founders = ids({1, 2, 3});
  for (ProcessorId p : founders) {
    h.add_processor(p, kDomain, kDomainAddr, batched_llft_config());
  }
  for (ProcessorId p : founders) {
    h.stack(p).create_group(h.now(), kGroup, kGroupAddr, founders);
  }
  h.run_for(50 * kMillisecond);
  ASSERT_TRUE(engine(h, ProcessorId{1}).leading());

  WireLog wire(h, ProcessorId{1});
  const ProcessorId joiner{4};
  const auto all = ids({1, 2, 3, 4});
  h.add_processor(joiner, kDomain, kDomainAddr, batched_llft_config());
  h.stack(joiner).expect_join(kGroup, kGroupAddr);
  ASSERT_TRUE(h.stack(ProcessorId{1}).add_processor(h.now(), kGroup, joiner));
  ASSERT_TRUE(h.stack(ProcessorId{1}).group(kGroup)->send_regular(
      h.now(), test_conn(), 1, bytes_of("behind-the-add")));
  ASSERT_TRUE(h.run_until_pred(
      [&] {
        for (ProcessorId p : all) {
          auto* g = h.stack(p).group(kGroup);
          if (!g || g->membership().members != all) return false;
        }
        return true;
      },
      h.now() + 5 * kSecond));
  h.run_for(200 * kMillisecond);
  expect_same_order(h, all, 1, "Regular after the Add");

  SeqNum add_seq = 0;
  SeqNum reg_seq = 0;
  std::size_t reg_datagram = 0;
  for (const WireLog::Entry& e : wire.entries()) {
    if (e.msg.header.type == MessageType::kAddProcessor) {
      add_seq = e.msg.header.sequence_number;
    } else if (e.msg.header.type == MessageType::kRegular) {
      reg_seq = e.msg.header.sequence_number;
      reg_datagram = e.datagram;
    }
  }
  ASSERT_GT(add_seq, 0u);
  ASSERT_EQ(reg_seq, add_seq + 1);

  const auto grants = wire.grants();
  const auto find = [&](SeqNum seq) {
    return std::find_if(grants.begin(), grants.end(), [&](const auto& g) {
      return g.slot == SourceSeq{ProcessorId{1}, seq};
    });
  };
  const auto add_grant = find(add_seq);
  const auto reg_grant = find(reg_seq);
  ASSERT_NE(add_grant, grants.end());
  ASSERT_NE(reg_grant, grants.end());
  EXPECT_LT(add_grant, reg_grant) << "grants must follow sequence order";
  EXPECT_NE(reg_grant->datagram, reg_datagram) << "the Regular was granted at send";
  EXPECT_GT(reg_grant->view_ts, add_grant->view_ts)
      << "the Regular must be granted under the view the Add installs";
  for (auto g = std::next(add_grant); g != grants.end(); ++g) {
    EXPECT_NE(g->view_ts, add_grant->view_ts)
        << "grant trailing the Add in its view: suspension broken";
  }
}

// Engine-level helpers for the grant-at-send tests below.
Frame regular_from(ProcessorId src, SeqNum seq, Timestamp ts = 0) {
  Message m;
  m.header.type = MessageType::kRegular;
  m.header.source = src;
  m.header.sequence_number = seq;
  m.header.message_timestamp = ts > 0 ? ts : Timestamp{10 + seq};
  RegularBody b;
  b.connection = test_conn();
  b.request_num = seq;
  m.body = std::move(b);
  return Frame{m.header, encode_message(m)};
}

std::vector<SourceSeq> take_grants(LlftOrdering& eng) {
  std::vector<SourceSeq> out;
  for (Body& b : eng.take_protocol_sends()) {
    for (const SourceSeq& g : std::get<OrderInfoBody>(b).grants) out.push_back(g);
  }
  return out;
}

// A member that accedes to leadership while its own earlier Regular is
// still in flight must not grant a later one at send: it waits for the
// loopback arrivals and grants both in sequence order, then grants at send
// again once it has caught up.
TEST(Llft, NewLeaderGrantsOwnInFlightMessagesInSequenceOrder) {
  const ProcessorId self{2};
  Engine e(self, ids({1, 2, 3}));
  LlftOrdering& eng = e.rule;
  ASSERT_EQ(eng.leader(), ProcessorId{1});
  const auto slot = [&](SeqNum seq) { return SourceSeq{self, seq}; };

  const Frame m1 = regular_from(self, 1);
  eng.on_own_send(m1.header);  // sent under P1's leadership
  EXPECT_TRUE(take_grants(eng).empty());

  // P1 fails; P2 accedes with m1 still in flight.
  e.romp.expel(ProcessorId{1});
  eng.remove_member(ProcessorId{1});
  eng.set_view(5);
  ASSERT_TRUE(eng.leading());
  EXPECT_TRUE(take_grants(eng).empty());

  const Frame m2 = regular_from(self, 2);
  eng.on_own_send(m2.header);
  EXPECT_TRUE(take_grants(eng).empty()) << "m2 granted at send ahead of m1";

  e.feed(m1);
  e.feed(m2);
  EXPECT_EQ(take_grants(eng), (std::vector<SourceSeq>{slot(1), slot(2)}));

  // Caught up: the next own Regular is granted at send, and its loopback
  // arrival adds nothing.
  const Frame m3 = regular_from(self, 3);
  eng.on_own_send(m3.header);
  EXPECT_EQ(take_grants(eng), std::vector<SourceSeq>{slot(3)});
  e.feed(m3);
  EXPECT_TRUE(take_grants(eng).empty());
}

// The leader grants nothing at send while a recovery round runs or while
// granting is suspended at another member's membership change; the
// loopback path still grants after the round.
TEST(Llft, NoGrantAtSendDuringRecoveryOrSuspension) {
  const ProcessorId self{1};
  Engine e(self, ids({1, 2, 3}));
  LlftOrdering& eng = e.rule;
  ASSERT_TRUE(eng.leading());

  const Frame m1 = regular_from(self, 1);
  eng.set_recovering(true);
  eng.on_own_send(m1.header);
  eng.set_recovering(false);
  EXPECT_TRUE(take_grants(eng).empty());
  e.feed(m1);
  EXPECT_EQ(take_grants(eng), (std::vector<SourceSeq>{SourceSeq{self, 1}}));

  Message add;
  add.header.type = MessageType::kAddProcessor;
  add.header.source = ProcessorId{3};
  add.header.sequence_number = 1;
  add.header.message_timestamp = Timestamp{20};
  AddProcessorBody body;
  body.new_member = ProcessorId{4};
  add.body = std::move(body);
  e.feed(Frame{add.header, encode_message(add)});
  EXPECT_EQ(take_grants(eng),
            (std::vector<SourceSeq>{SourceSeq{ProcessorId{3}, 1}}));

  const Frame m2 = regular_from(self, 2);
  eng.on_own_send(m2.header);
  EXPECT_TRUE(take_grants(eng).empty()) << "granted past a membership change";
}

// The install drain returns a crashed source's held frames at or below its
// cut in (timestamp, source) order and leaves none held, so removing it
// afterwards drops nothing. P1 led and crashed before granting.
TEST(Llft, DrainLeavesNothingHeldFromANonSurvivor) {
  Engine e(ProcessorId{2}, ids({1, 2, 3}));
  e.feed(regular_from(ProcessorId{1}, 1, 10));
  e.feed(regular_from(ProcessorId{1}, 2, 14));
  e.feed(regular_from(ProcessorId{1}, 3, 18));  // beyond P1's cut
  e.feed(regular_from(ProcessorId{3}, 1, 12));
  e.feed(regular_from(ProcessorId{3}, 2, 20));  // beyond P3's cut; P3 survives
  const auto out = e.rule.drain_up_to_cut(
      {{ProcessorId{1}, 2}, {ProcessorId{2}, 0}, {ProcessorId{3}, 1}},
      {ProcessorId{2}, ProcessorId{3}});
  std::vector<Timestamp> order;
  for (const Frame& f : out) order.push_back(f.header.message_timestamp);
  EXPECT_EQ(order, (std::vector<Timestamp>{10, 12, 14}));
  EXPECT_EQ(e.rule.pending_count(), 1u) << "only the survivor's beyond-cut frame";
  e.romp.expel(ProcessorId{1});
  e.rule.remove_member(ProcessorId{1});
  EXPECT_EQ(e.rule.pending_count(), 1u);
}

}  // namespace
}  // namespace ftcorba::ftmp
