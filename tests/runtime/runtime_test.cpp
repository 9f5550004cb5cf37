// Tests for the runtime (runtime/shard.hpp): its construction's
// allocations and delivery through its passthrough to the Stack.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>
#include <vector>

#include "ftmp/stack.hpp"
#include "runtime/shard.hpp"

// This binary replaces the global operator new so that a test can count the
// bytes one construction allocates. Memory comes from malloc, as in
// libstdc++; the nothrow new and the deletes are replaced with it, so a
// sanitizer's allocator sees every block allocated and freed by one family.
// The new and the deletes stay out of line: with either inlined, gcc pairs
// the malloc with a sized operator delete and warns (-Wmismatched-new-delete).
namespace {
std::atomic<bool> g_count_news{false};
std::atomic<std::size_t> g_new_bytes{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_count_news.load(std::memory_order_relaxed)) {
    g_new_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ftcorba::runtime {
namespace {

constexpr FtDomainId kDomain{1};
constexpr McastAddress kDomainAddr{100};

ftmp::Config patient_config() {
  ftmp::Config c;
  c.fault_timeout = 10 * kSecond;  // single-core scheduling must not convict
  return c;
}

// A wall-clock member builds its runtime at every set-up (perfbench's
// setup_s), so the construction must stay small: beyond the first runtime
// in the process, which registers the instruments, it allocates a Stack and
// a few small records, far under 64 KiB.
TEST(ShardedRuntime, SecondRuntimeConstructionAllocatesUnder64KiB) {
  const ShardedRuntime first(ProcessorId{1}, kDomain, kDomainAddr);
  g_new_bytes.store(0);
  g_count_news.store(true);
  const auto second =
      std::make_unique<ShardedRuntime>(ProcessorId{2}, kDomain, kDomainAddr);
  g_count_news.store(false);
  const std::size_t bytes = g_new_bytes.load();
  EXPECT_LT(bytes, 64u * 1024) << "a runtime allocated " << bytes << " B";
}

// The runtime is a passthrough: a three-member group where one member sits
// behind the runtime delivers exactly like three bare stacks.
TEST(ShardedRuntime, InlineModeDeliversThroughThePassthrough) {
  const ProcessorGroupId group{1};
  const McastAddress addr{200};
  const std::vector<ProcessorId> members{ProcessorId{1}, ProcessorId{2},
                                         ProcessorId{3}};
  ShardedRuntime rt(ProcessorId{1}, kDomain, kDomainAddr, patient_config());
  ftmp::Stack p2(ProcessorId{2}, kDomain, kDomainAddr, patient_config());
  ftmp::Stack p3(ProcessorId{3}, kDomain, kDomainAddr, patient_config());

  TimePoint now = 1 * kMillisecond;
  rt.stack(0).create_group(now, group, addr, members);
  p2.create_group(now, group, addr, members);
  p3.create_group(now, group, addr, members);

  const ConnectionId conn{FtDomainId{1}, ObjectGroupId{10}, FtDomainId{1},
                          ObjectGroupId{20}};
  ASSERT_TRUE(rt.stack(0).group(group)->send_regular(now, conn, 1,
                                                     bytes_of("via-runtime")));

  // Deterministic bus: everyone's egress loops back to every member
  // (multicast loopback included), 1ms steps.
  std::uint64_t delivered_rt = 0, delivered_p2 = 0;
  for (int step = 0; step < 100; ++step) {
    now += 1 * kMillisecond;
    rt.tick(now);
    p2.tick(now);
    p3.tick(now);
    std::vector<net::Datagram> wire;
    rt.drain_egress(wire);
    for (auto& d : p2.take_packets()) wire.push_back(std::move(d));
    for (auto& d : p3.take_packets()) wire.push_back(std::move(d));
    for (const net::Datagram& d : wire) {
      rt.ingest(now, d);
      p2.on_datagram(now, d);
      p3.on_datagram(now, d);
    }
    for (const ftmp::Event& ev : rt.take_events()) {
      if (std::holds_alternative<ftmp::DeliveredMessage>(ev)) ++delivered_rt;
    }
    for (const ftmp::Event& ev : p2.take_events()) {
      if (std::holds_alternative<ftmp::DeliveredMessage>(ev)) ++delivered_p2;
    }
  }
  EXPECT_EQ(delivered_rt, 1u);
  EXPECT_EQ(delivered_p2, 1u);
  const auto subs = rt.subscriptions();
  EXPECT_TRUE(std::find(subs.begin(), subs.end(), addr) != subs.end());
  EXPECT_THROW((void)rt.stack(1), std::out_of_range) << "one stack, index 0";
}

// The ordering engine is a per-stack Config choice, so a runtime running
// LLFT (docs/ORDERING.md) needs no runtime-layer support: grants flow
// through the same ingest/egress path as every reliable message.
// Three members (one behind the runtime) exchange messages under
// ordering_mode = llft and must converge on one delivery order.
TEST(ShardedRuntime, InlineModeDeliversUnderLlftOrdering) {
  const ProcessorGroupId group{1};
  const McastAddress addr{200};
  const std::vector<ProcessorId> members{ProcessorId{1}, ProcessorId{2},
                                         ProcessorId{3}};
  ftmp::Config cfg = patient_config();
  cfg.ordering_mode = ftmp::OrderingMode::kLlft;
  ShardedRuntime rt(ProcessorId{1}, kDomain, kDomainAddr, cfg);
  ftmp::Stack p2(ProcessorId{2}, kDomain, kDomainAddr, cfg);
  ftmp::Stack p3(ProcessorId{3}, kDomain, kDomainAddr, cfg);

  TimePoint now = 1 * kMillisecond;
  rt.stack(0).create_group(now, group, addr, members);
  p2.create_group(now, group, addr, members);
  p3.create_group(now, group, addr, members);

  const ConnectionId conn{FtDomainId{1}, ObjectGroupId{10}, FtDomainId{1},
                          ObjectGroupId{20}};
  ASSERT_TRUE(rt.stack(0).group(group)->send_regular(now, conn, 1,
                                                     bytes_of("from-p1")));
  ASSERT_TRUE(p2.group(group)->send_regular(now, conn, 2, bytes_of("from-p2")));
  ASSERT_TRUE(p3.group(group)->send_regular(now, conn, 3, bytes_of("from-p3")));

  std::vector<Bytes> order_rt, order_p2, order_p3;
  auto collect = [](std::vector<ftmp::Event> events, std::vector<Bytes>& out) {
    for (ftmp::Event& ev : events) {
      if (auto* d = std::get_if<ftmp::DeliveredMessage>(&ev)) {
        out.push_back(Bytes(d->giop_message.begin(), d->giop_message.end()));
      }
    }
  };
  for (int step = 0; step < 200; ++step) {
    now += 1 * kMillisecond;
    rt.tick(now);
    p2.tick(now);
    p3.tick(now);
    std::vector<net::Datagram> wire;
    rt.drain_egress(wire);
    for (auto& d : p2.take_packets()) wire.push_back(std::move(d));
    for (auto& d : p3.take_packets()) wire.push_back(std::move(d));
    for (const net::Datagram& d : wire) {
      rt.ingest(now, d);
      p2.on_datagram(now, d);
      p3.on_datagram(now, d);
    }
    collect(rt.take_events(), order_rt);
    collect(p2.take_events(), order_p2);
    collect(p3.take_events(), order_p3);
  }
  ASSERT_EQ(order_rt.size(), 3u) << "all three sends deliver at the runtime";
  EXPECT_EQ(order_rt, order_p2) << "leader-granted order agrees everywhere";
  EXPECT_EQ(order_rt, order_p3) << "leader-granted order agrees everywhere";
}

}  // namespace
}  // namespace ftcorba::runtime
