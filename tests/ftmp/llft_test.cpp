// LLFT ordering-engine tests (llft.hpp, docs/ORDERING.md): leader grant
// stamping, follower gap recovery through RMP NACKs, and leader-failover
// reconciliation through the PGMP install path (prefix agreement across
// survivors, new-leader accession, post-failover progress), and the
// leader's grant at send of its own Regulars.
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
// the index of the wire datagram (FTMB batch or plain) that carried it.
class WireLog {
 public:
  struct Entry {
    std::size_t datagram = 0;
    Message msg;
  };

  WireLog(SimHarness& h, ProcessorId sender) {
    h.network().set_tap([this, sender](TimePoint, ProcessorId from,
                                       const net::Datagram& d) {
      if (from != sender) return;
      ++datagrams_;
      if (!looks_like_ftmp_batch(d.payload)) {
        add(d.payload);
        return;
      }
      BatchParser parser(d.payload);
      while (auto sf = parser.next()) {
        add(d.payload.view().subspan(sf->offset, sf->length));
      }
    });
  }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

  /// Every grant issued, in wire order, with its OrderInfo's view tag and
  /// datagram.
  struct Grant {
    std::size_t datagram = 0;
    Timestamp view_ts = 0;
    SourceSeq slot;
  };
  [[nodiscard]] std::vector<Grant> grants() const {
    std::vector<Grant> out;
    for (const Entry& e : entries_) {
      if (e.msg.header.type != MessageType::kOrderInfo) continue;
      const auto& body = std::get<OrderInfoBody>(e.msg.body);
      for (const SourceSeq& g : body.grants) {
        out.push_back({e.datagram, body.view_ts, g});
      }
    }
    return out;
  }

 private:
  void add(BytesView frame) {
    Message m = decode_message(frame);
    if (m.header.retransmission) return;
    entries_.push_back({datagrams_, std::move(m)});
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
      h.stack(p).group(kGroup)->send_regular(h.now(), test_conn(), req + 1,
                                             bytes_of("x" + std::to_string(req)));
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
TEST(Llft, DuplicateMembershipChangeKeepsUndeliveredGrants) {
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
