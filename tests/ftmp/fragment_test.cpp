// Tests for transparent large-payload fragmentation: the unit-level
// fragmenter/reassembler, and end-to-end delivery of multi-megabyte
// payloads over a lossy simulated network.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ftmp/fragment.hpp"
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

Bytes random_payload(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
  return out;
}

TEST(Fragment, SplitAndReassemble) {
  const Bytes payload = random_payload(10'000, 1);
  const auto chunks = make_fragments(payload, 1024, 42);
  EXPECT_EQ(chunks.size(), 10u);
  Reassembler r;
  std::optional<SharedBytes> whole;
  for (const Bytes& c : chunks) {
    EXPECT_TRUE(looks_like_fragment(c));
    EXPECT_LE(c.size(), 1024 + kFragHeaderSize);
    whole = r.feed(ProcessorId{1}, c);
  }
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(*whole, payload);
  EXPECT_EQ(r.reassembled(), 1u);
  EXPECT_EQ(r.in_flight(), 0u);
}

TEST(Fragment, ExactMultipleChunking) {
  const Bytes payload = random_payload(4096, 2);
  const auto chunks = make_fragments(payload, 1024, 1);
  EXPECT_EQ(chunks.size(), 4u);
}

TEST(Fragment, SingleChunkWrap) {
  const Bytes payload = random_payload(10, 3);
  const auto chunks = make_fragments(payload, 1024, 1);
  ASSERT_EQ(chunks.size(), 1u);
  Reassembler r;
  auto whole = r.feed(ProcessorId{1}, chunks[0]);
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(*whole, payload);
}

TEST(Fragment, OrphanTailDropped) {
  const Bytes payload = random_payload(5000, 4);
  const auto chunks = make_fragments(payload, 1024, 9);
  Reassembler r;
  // A receiver that joined mid-message only sees chunks 2..end.
  for (std::size_t i = 2; i < chunks.size(); ++i) {
    EXPECT_FALSE(r.feed(ProcessorId{1}, chunks[i]).has_value());
  }
  EXPECT_GT(r.dropped(), 0u);
  EXPECT_EQ(r.in_flight(), 0u);
  // The next complete message from the same source still works.
  const auto next = make_fragments(payload, 1024, 10);
  std::optional<SharedBytes> whole;
  for (const Bytes& c : next) whole = r.feed(ProcessorId{1}, c);
  ASSERT_TRUE(whole.has_value());
}

TEST(Fragment, InterleavedSourcesReassembleIndependently) {
  const Bytes a = random_payload(3000, 5);
  const Bytes b = random_payload(2500, 6);
  const auto ca = make_fragments(a, 1000, 1);
  const auto cb = make_fragments(b, 1000, 1);
  Reassembler r;
  std::optional<SharedBytes> whole_a, whole_b;
  for (std::size_t i = 0; i < std::max(ca.size(), cb.size()); ++i) {
    if (i < ca.size()) {
      auto got = r.feed(ProcessorId{1}, ca[i]);
      if (got) whole_a = got;
    }
    if (i < cb.size()) {
      auto got = r.feed(ProcessorId{2}, cb[i]);
      if (got) whole_b = got;
    }
  }
  ASSERT_TRUE(whole_a.has_value());
  ASSERT_TRUE(whole_b.has_value());
  EXPECT_EQ(*whole_a, a);
  EXPECT_EQ(*whole_b, b);
}

TEST(Fragment, CorruptHeaderDropped) {
  Reassembler r;
  Bytes junk = {'F', 'T', 'M', 'F', 1, 2};  // truncated header
  EXPECT_FALSE(r.feed(ProcessorId{1}, junk).has_value());
  EXPECT_EQ(r.dropped(), 1u);
}

TEST(FragmentEndToEnd, LargePayloadOverLossyNetwork) {
  net::LinkModel lossy;
  lossy.loss = 0.05;
  SimHarness h(lossy, /*seed=*/88);
  std::vector<ProcessorId> members{ProcessorId{1}, ProcessorId{2}, ProcessorId{3}};
  for (ProcessorId p : members) h.add_processor(p, kDomain, kDomainAddr);
  for (ProcessorId p : members) {
    h.stack(p).create_group(h.now(), kGroup, kGroupAddr, members);
  }
  // 38 fragments, the last one half full.
  const Bytes big = random_payload(37 * kMaxRegularPayload + kMaxRegularPayload / 2, 7);
  ASSERT_TRUE(h.stack(ProcessorId{1})
                  .group(kGroup)
                  ->send_regular(h.now(), test_conn(), 1, big));
  // A small message sent right after must be ordered after the big one.
  ASSERT_TRUE(h.stack(ProcessorId{1})
                  .group(kGroup)
                  ->send_regular(h.now(), test_conn(), 2, bytes_of("after")));
  h.run_for(5 * kSecond);
  for (ProcessorId p : members) {
    auto msgs = h.delivered(p, kGroup);
    ASSERT_EQ(msgs.size(), 2u) << "at " << to_string(p);
    EXPECT_EQ(msgs[0].giop_message, big) << "payload corrupted at " << to_string(p);
    EXPECT_EQ(msgs[0].request_num, 1u);
    EXPECT_EQ(msgs[1].giop_message, bytes_of("after"));
    EXPECT_EQ(h.stack(p).group(kGroup)->reassembler().reassembled(), 1u);
  }
}

TEST(FragmentEndToEnd, PayloadStartingWithMagicSurvives) {
  SimHarness h({}, 9);
  std::vector<ProcessorId> members{ProcessorId{1}, ProcessorId{2}};
  for (ProcessorId p : members) h.add_processor(p, kDomain, kDomainAddr);
  for (ProcessorId p : members) {
    h.stack(p).create_group(h.now(), kGroup, kGroupAddr, members);
  }
  Bytes tricky = bytes_of("FTMF-this-is-not-a-fragment");
  ASSERT_TRUE(h.stack(ProcessorId{1})
                  .group(kGroup)
                  ->send_regular(h.now(), test_conn(), 1, tricky));
  h.run_for(300 * kMillisecond);
  auto msgs = h.delivered(ProcessorId{2}, kGroup);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].giop_message, tricky) << "magic-collision payload must round-trip";
}

}  // namespace
}  // namespace ftcorba::ftmp
