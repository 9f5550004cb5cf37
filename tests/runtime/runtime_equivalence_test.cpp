// Determinism guard: the runtime is inert — a node driven through
// ShardedRuntime produces byte-identical wire traffic and identical upward
// events to the same node driven as a bare Stack, and repeated runs digest
// identically. This pins the real-socket driver's runtime to the behavior
// the chaos campaigns and SimHarness seeds depend on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ftmp/stack.hpp"
#include "runtime/shard.hpp"

namespace ftcorba::runtime {
namespace {

constexpr FtDomainId kDomain{1};
constexpr McastAddress kDomainAddr{100};
constexpr ProcessorGroupId kGroup{1};
constexpr McastAddress kGroupAddr{200};

ConnectionId test_conn() {
  return ConnectionId{FtDomainId{1}, ObjectGroupId{10}, FtDomainId{1},
                      ObjectGroupId{20}};
}

void fnv1a(std::uint64_t& h, const std::uint8_t* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
}

void fnv1a_u64(std::uint64_t& h, std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = std::uint8_t(v >> (8 * i));
  fnv1a(h, b, 8);
}

// Digest of everything observable from the node under test: every egress
// datagram (address + bytes, in order) and every delivered message.
struct Observed {
  std::uint64_t wire_digest = 14695981039346656037ULL;
  std::uint64_t event_digest = 14695981039346656037ULL;
  std::uint64_t egress_datagrams = 0;
  std::uint64_t delivered = 0;

  void on_wire(const net::Datagram& d) {
    ++egress_datagrams;
    fnv1a_u64(wire_digest, d.addr.raw());
    fnv1a(wire_digest, d.payload.data(), d.payload.size());
  }
  void on_event(const ftmp::Event& ev) {
    if (const auto* m = std::get_if<ftmp::DeliveredMessage>(&ev)) {
      ++delivered;
      fnv1a_u64(event_digest, m->source.raw());
      fnv1a_u64(event_digest, m->seq);
      fnv1a_u64(event_digest, std::uint64_t(m->timestamp));
      fnv1a(event_digest, m->giop_message.data(), m->giop_message.size());
    }
  }
  friend bool operator==(const Observed&, const Observed&) = default;
};

// Runs the scripted three-member scenario with node 1 behind `ingest` /
// `tick` / `drain` / `events` / `send` thunks, so the same script drives a
// bare Stack and a ShardedRuntime. Peers 2 and 3 are bare stacks in
// both runs; time is a fixed 1ms schedule; every datagram loops back to
// every node (multicast loopback semantics).
template <typename Node>
Observed run_scenario(Node& node) {
  ftmp::Stack p2(ProcessorId{2}, kDomain, kDomainAddr, {});
  ftmp::Stack p3(ProcessorId{3}, kDomain, kDomainAddr, {});
  const std::vector<ProcessorId> members{ProcessorId{1}, ProcessorId{2},
                                         ProcessorId{3}};
  TimePoint now = 1 * kMillisecond;
  node.create_group(now, members);
  p2.create_group(now, kGroup, kGroupAddr, members);
  p3.create_group(now, kGroup, kGroupAddr, members);

  Observed seen;
  for (int step = 0; step < 400; ++step) {
    now += 1 * kMillisecond;
    // Scripted sends: node 1 and the peers interleave Regular traffic.
    if (step % 7 == 0 && step < 200) {
      node.send(now, std::uint64_t(step + 1),
                bytes_of("n1#" + std::to_string(step)));
    }
    if (step % 11 == 3 && step < 200) {
      p2.group(kGroup)->send_regular(now, test_conn(), std::uint64_t(step + 1),
                                     bytes_of("p2#" + std::to_string(step)));
    }
    if (step % 13 == 5 && step < 200) {
      p3.group(kGroup)->send_regular(now, test_conn(), std::uint64_t(step + 1),
                                     bytes_of("p3#" + std::to_string(step)));
    }
    node.tick(now);
    p2.tick(now);
    p3.tick(now);

    std::vector<net::Datagram> wire;
    node.drain(wire);
    for (const net::Datagram& d : wire) seen.on_wire(d);
    for (auto& d : p2.take_packets()) wire.push_back(std::move(d));
    for (auto& d : p3.take_packets()) wire.push_back(std::move(d));
    for (const net::Datagram& d : wire) {
      node.ingest(now, d);
      p2.on_datagram(now, d);
      p3.on_datagram(now, d);
    }
    for (const ftmp::Event& ev : node.events()) seen.on_event(ev);
    (void)p2.take_events();
    (void)p3.take_events();
  }
  return seen;
}

struct BareStackNode {
  ftmp::Stack stack{ProcessorId{1}, kDomain, kDomainAddr, ftmp::Config{}};
  void create_group(TimePoint now, const std::vector<ProcessorId>& members) {
    stack.create_group(now, kGroup, kGroupAddr, members);
  }
  void send(TimePoint now, std::uint64_t req, const Bytes& payload) {
    ASSERT_TRUE(stack.group(kGroup)->send_regular(now, test_conn(), req, payload));
  }
  void tick(TimePoint now) { stack.tick(now); }
  void ingest(TimePoint now, const net::Datagram& d) { stack.on_datagram(now, d); }
  void drain(std::vector<net::Datagram>& out) {
    for (auto& d : stack.take_packets()) out.push_back(std::move(d));
  }
  std::vector<ftmp::Event> events() { return stack.take_events(); }
};

struct RuntimeNode {
  ShardedRuntime rt{ProcessorId{1}, kDomain, kDomainAddr, ftmp::Config{}};
  void create_group(TimePoint now, const std::vector<ProcessorId>& members) {
    rt.stack(0).create_group(now, kGroup, kGroupAddr, members);
  }
  void send(TimePoint now, std::uint64_t req, const Bytes& payload) {
    ASSERT_TRUE(
        rt.stack(0).group(kGroup)->send_regular(now, test_conn(), req, payload));
  }
  void tick(TimePoint now) { rt.tick(now); }
  void ingest(TimePoint now, const net::Datagram& d) { rt.ingest(now, d); }
  void drain(std::vector<net::Datagram>& out) { rt.drain_egress(out); }
  std::vector<ftmp::Event> events() { return rt.take_events(); }
};

TEST(RuntimeEquivalence, InlineRuntimeIsByteIdenticalToABareStack) {
  BareStackNode bare;
  const Observed reference = run_scenario(bare);
  ASSERT_GT(reference.delivered, 0u) << "scenario must exercise delivery";
  ASSERT_GT(reference.egress_datagrams, 0u);

  RuntimeNode wrapped;
  const Observed observed = run_scenario(wrapped);
  EXPECT_EQ(observed.wire_digest, reference.wire_digest)
      << "the runtime must put identical bytes on the wire";
  EXPECT_EQ(observed.event_digest, reference.event_digest);
  EXPECT_EQ(observed.egress_datagrams, reference.egress_datagrams);
  EXPECT_EQ(observed.delivered, reference.delivered);
}

TEST(RuntimeEquivalence, RepeatedInlineRunsDigestIdentically) {
  RuntimeNode first;
  const Observed a = run_scenario(first);
  RuntimeNode second;
  const Observed b = run_scenario(second);
  EXPECT_EQ(a, b) << "the runtime must stay seed-pure run over run";
}

}  // namespace
}  // namespace ftcorba::runtime
