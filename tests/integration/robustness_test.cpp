// Robustness tests: the stack must survive garbage, truncated and mutated
// datagrams without crashing or corrupting protocol state, and must
// interoperate across byte orders (receiver-makes-right).
#include <gtest/gtest.h>

#include "common/metrics.hpp"
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

TEST(Robustness, RandomGarbageDatagramsAreCounted) {
  Stack stack(ProcessorId{1}, kDomain, kDomainAddr);
  stack.create_group(0, kGroup, kGroupAddr, {ProcessorId{1}});
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    Bytes junk(rng.next_below(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    stack.on_datagram(i, net::Datagram{kGroupAddr, std::move(junk)});
  }
  EXPECT_EQ(stack.stats().malformed_datagrams.value(), 2000u);
  // The stack still works.
  EXPECT_TRUE(stack.group(kGroup)->send_regular(1, test_conn(), 1, bytes_of("alive")));
}

TEST(Robustness, MutatedRealDatagramsNeverCrash) {
  // Take a real encoded message and flip every byte position through a few
  // values; the decoder must throw (counted) or produce a benign message,
  // never crash.
  Stack stack(ProcessorId{1}, kDomain, kDomainAddr);
  stack.create_group(0, kGroup, kGroupAddr, {ProcessorId{1}, ProcessorId{2}});

  Message m;
  m.header.type = MessageType::kRegular;
  m.header.source = ProcessorId{2};
  m.header.destination_group = kGroup;
  m.header.sequence_number = 1;
  m.header.message_timestamp = 5;
  m.body = RegularBody{test_conn(), 1, bytes_of("payload")};
  const Bytes original = encode_message(m);

  Rng rng(7);
  for (std::size_t pos = 0; pos < original.size(); ++pos) {
    for (int k = 0; k < 4; ++k) {
      Bytes mutated = original;
      mutated[pos] = static_cast<std::uint8_t>(rng.next_below(256));
      stack.on_datagram(TimePoint(pos), net::Datagram{kGroupAddr, std::move(mutated)});
    }
  }
  // Truncations at every length.
  for (std::size_t len = 0; len < original.size(); ++len) {
    Bytes truncated(original.begin(), original.begin() + len);
    stack.on_datagram(0, net::Datagram{kGroupAddr, std::move(truncated)});
  }
  SUCCEED() << "no crash across " << original.size() * 4 << " mutations";
}

TEST(Robustness, MixedByteOrderGroupInteroperates) {
  // P1 speaks big-endian, P2 little-endian, P3 big-endian: the byte-order
  // flag in every header lets them interoperate (receiver makes right).
  SimHarness h({}, 3);
  std::vector<ProcessorId> members{ProcessorId{1}, ProcessorId{2}, ProcessorId{3}};
  for (ProcessorId p : members) {
    Config cfg;
    cfg.byte_order = p.raw() % 2 == 0 ? ByteOrder::kLittle : ByteOrder::kBig;
    h.add_processor(p, kDomain, kDomainAddr, cfg);
  }
  for (ProcessorId p : members) {
    h.stack(p).create_group(h.now(), kGroup, kGroupAddr, members);
  }
  for (int round = 0; round < 4; ++round) {
    for (ProcessorId p : members) {
      h.stack(p).group(kGroup)->send_regular(
          h.now(), test_conn(), std::uint64_t(round + 1),
          bytes_of(to_string(p) + "r" + std::to_string(round)));
    }
    h.run_for(2 * kMillisecond);
  }
  h.run_for(300 * kMillisecond);
  auto reference = h.delivered(members[0], kGroup);
  ASSERT_EQ(reference.size(), 12u);
  for (ProcessorId p : members) {
    auto msgs = h.delivered(p, kGroup);
    ASSERT_EQ(msgs.size(), reference.size()) << "at " << to_string(p);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(msgs[i].giop_message, reference[i].giop_message);
    }
  }
}

TEST(Robustness, UnroutableMessagesCounted) {
  Stack stack(ProcessorId{1}, kDomain, kDomainAddr);
  // No group exists; a well-formed Regular for an unknown group is counted.
  Message m;
  m.header.type = MessageType::kRegular;
  m.header.source = ProcessorId{9};
  m.header.destination_group = ProcessorGroupId{42};
  m.body = RegularBody{test_conn(), 1, bytes_of("x")};
  stack.on_datagram(0, net::Datagram{kGroupAddr, encode_message(m)});
  EXPECT_EQ(stack.stats().unroutable_datagrams.value(), 1u);
}

TEST(Robustness, ForeignAddProcessorIgnored) {
  // An AddProcessor naming someone else, for a group we don't know, must
  // not create state.
  Stack stack(ProcessorId{1}, kDomain, kDomainAddr);
  Message m;
  m.header.type = MessageType::kAddProcessor;
  m.header.source = ProcessorId{9};
  m.header.destination_group = ProcessorGroupId{42};
  AddProcessorBody body;
  body.new_member = ProcessorId{7};
  m.body = body;
  stack.on_datagram(0, net::Datagram{kGroupAddr, encode_message(m)});
  EXPECT_EQ(stack.group(ProcessorGroupId{42}), nullptr);
  EXPECT_EQ(stack.stats().unroutable_datagrams.value(), 1u);
}

TEST(Robustness, ReplayedOldDatagramsAreHarmless) {
  // Capture all wire traffic of a healthy run, then replay it (duplicated,
  // shuffled) into the members: state must not change and nothing must be
  // re-delivered.
  SimHarness h({}, 11);
  std::vector<ProcessorId> members{ProcessorId{1}, ProcessorId{2}};
  std::vector<net::Datagram> captured;
  h.network().set_tap([&](TimePoint, ProcessorId, const net::Datagram& d) {
    captured.push_back(d);
  });
  for (ProcessorId p : members) h.add_processor(p, kDomain, kDomainAddr);
  for (ProcessorId p : members) {
    h.stack(p).create_group(h.now(), kGroup, kGroupAddr, members);
  }
  for (int i = 0; i < 5; ++i) {
    h.stack(members[0]).group(kGroup)->send_regular(
        h.now(), test_conn(), std::uint64_t(i + 1),
        bytes_of(std::string("m").append(std::to_string(i))));
    h.run_for(5 * kMillisecond);
  }
  h.run_for(200 * kMillisecond);
  const auto before = h.delivered(members[1], kGroup);
  ASSERT_EQ(before.size(), 5u);

  // Replay everything captured, twice, directly into member 2.
  for (int round = 0; round < 2; ++round) {
    for (const net::Datagram& d : captured) {
      h.stack(members[1]).on_datagram(h.now(), d);
    }
  }
  h.run_for(200 * kMillisecond);
  const auto after = h.delivered(members[1], kGroup);
  EXPECT_EQ(after.size(), before.size()) << "replays must not re-deliver";
}

#if FTCORBA_METRICS_ENABLED
TEST(Robustness, MetricsCountersMoveUnderLoss) {
  // Under injected packet loss the observability layer must show the repair
  // machinery working: retransmit requests sent and served, and messages
  // released by the stability/ordering path. Deltas are measured from a
  // snapshot taken after setup, because the registry is process-global.
  net::LinkModel lossy;
  lossy.loss = 0.15;
  lossy.jitter = 300 * kMicrosecond;
  Config cfg;
  cfg.heartbeat_interval = 5 * kMillisecond;
  cfg.fault_timeout = 10 * kSecond;  // loss must not convict anyone
  SimHarness h(lossy, 4242);
  std::vector<ProcessorId> members{ProcessorId{1}, ProcessorId{2}, ProcessorId{3}};
  for (ProcessorId p : members) h.add_processor(p, kDomain, kDomainAddr, cfg);
  for (ProcessorId p : members) {
    h.stack(p).create_group(h.now(), kGroup, kGroupAddr, members);
  }
  h.run_for(50 * kMillisecond);

  const auto value_of = [](const std::string& name) -> std::uint64_t {
    for (const metrics::Sample& s : metrics::snapshot()) {
      if (s.name == name) return s.counter;
    }
    return 0;
  };
  const std::uint64_t nacks0 = value_of("ftmp_rmp_retransmit_requests_sent_total");
  const std::uint64_t served0 = value_of("ftmp_rmp_retransmit_requests_served_total");
  const std::uint64_t ordered0 = value_of("ftmp_romp_ordered_delivered_total");

  for (int round = 0; round < 40; ++round) {
    for (ProcessorId p : members) {
      h.stack(p).group(kGroup)->send_regular(
          h.now(), test_conn(), std::uint64_t(round * 10 + p.raw()),
          bytes_of("loss" + std::to_string(round)));
    }
    h.run_for(2 * kMillisecond);
  }
  h.run_for(2 * kSecond);

  // Every member must still have delivered everything (RMP repaired the loss)...
  for (ProcessorId p : members) {
    EXPECT_EQ(h.delivered(p, kGroup).size(), 40u * members.size())
        << "at " << to_string(p);
  }
  // ...and the counters must reflect the repair traffic that made it happen.
  EXPECT_GT(value_of("ftmp_rmp_retransmit_requests_sent_total"), nacks0)
      << "15% loss must provoke retransmit requests";
  EXPECT_GT(value_of("ftmp_rmp_retransmit_requests_served_total"), served0)
      << "some retransmit requests must be answered";
  EXPECT_GE(value_of("ftmp_romp_ordered_delivered_total") - ordered0,
            40u * members.size() * members.size())
      << "ordered deliveries fleet-wide (per member x per sender)";
}
#endif  // FTCORBA_METRICS_ENABLED

}  // namespace
}  // namespace ftcorba::ftmp
