// Unit/integration tests for the sharded runtime (docs/SHARDING.md):
// demux-key routing, inline passthrough, threaded lifecycle, per-shard
// stats and metrics registration.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "ftmp/stack.hpp"
#include "runtime/shard.hpp"

// This binary replaces the global operator new so that a test can count the
// bytes one construction allocates. Memory comes from malloc, as in
// libstdc++; the nothrow new and the deletes are replaced with it, so a
// sanitizer's allocator sees every block allocated and freed by one family.
// The deletes stay out of line: inlined after a new, gcc would pair their
// free with that new and warn (-Wmismatched-new-delete).
namespace {
std::atomic<bool> g_count_news{false};
std::atomic<std::size_t> g_new_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
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

TEST(ShardedRuntime, DefaultConfigIsInlineSingleShard) {
  ShardedRuntime rt(ProcessorId{1}, kDomain, kDomainAddr);
  EXPECT_EQ(rt.shard_count(), 1u);
  EXPECT_TRUE(rt.inline_mode());
  rt.start();  // no-op inline
  EXPECT_FALSE(rt.running()) << "inline mode never spawns threads";
}

// An inline runtime runs no shard thread, so it builds no SPSC ring: beyond
// the first runtime, which registers the instruments, constructing one
// allocates a Stack and a few small records, not the rings' 512 KiB of
// slots (4096 x 48 B ingress + 8192 x 40 B egress at the defaults).
TEST(ShardedRuntime, InlineRuntimeAllocatesNoRingSlots) {
  const ShardedRuntime first(ProcessorId{1}, kDomain, kDomainAddr);
  g_new_bytes.store(0);
  g_count_news.store(true);
  const auto second =
      std::make_unique<ShardedRuntime>(ProcessorId{2}, kDomain, kDomainAddr);
  g_count_news.store(false);
  const std::size_t bytes = g_new_bytes.load();
  ASSERT_TRUE(second->inline_mode());
  EXPECT_LT(bytes, 64u * 1024) << "an inline runtime allocated " << bytes << " B";
  EXPECT_EQ(second->shard_stats(0).ingress_depth, 0u);
  EXPECT_EQ(second->shard_stats(0).egress_depth, 0u);
}

TEST(ShardedRuntime, HashPlacementIsAStableFunctionOfGroupAndShardCount) {
  RuntimeConfig cfg;
  cfg.shards = 4;
  ShardedRuntime a(ProcessorId{1}, kDomain, kDomainAddr, {}, cfg);
  ShardedRuntime b(ProcessorId{2}, kDomain, kDomainAddr, {}, cfg);
  std::set<std::size_t> used;
  for (std::uint32_t g = 1; g <= 64; ++g) {
    const std::size_t shard = a.shard_of_group(ProcessorGroupId{g});
    ASSERT_LT(shard, 4u);
    EXPECT_EQ(shard, b.shard_of_group(ProcessorGroupId{g}))
        << "same demux hash on every runtime";
    used.insert(shard);
  }
  EXPECT_EQ(used.size(), 4u) << "64 groups must spread over all 4 shards";
}

TEST(ShardedRuntime, RoundRobinPlacementBalancesExactly) {
  RuntimeConfig cfg;
  cfg.shards = 4;
  cfg.placement = RuntimeConfig::Placement::kRoundRobin;
  ShardedRuntime rt(ProcessorId{1}, kDomain, kDomainAddr, patient_config(), cfg);
  std::vector<std::size_t> counts(4, 0);
  for (std::uint32_t g = 1; g <= 8; ++g) {
    rt.create_group(0, ProcessorGroupId{g}, McastAddress{200 + g},
                    {ProcessorId{1}});
    ++counts[rt.shard_of_group(ProcessorGroupId{g})];
  }
  for (std::size_t shard = 0; shard < 4; ++shard) {
    EXPECT_EQ(counts[shard], 2u) << "round-robin must balance 8 groups 2/2/2/2";
  }
  // Re-asking for a placed group must not advance the cursor.
  EXPECT_EQ(rt.shard_of_group(ProcessorGroupId{1}),
            rt.shard_of_group(ProcessorGroupId{1}));
}

TEST(ShardedRuntime, PerShardInstrumentsAppearInTheGlobalRegistry) {
  RuntimeConfig cfg;
  cfg.shards = 2;
  ShardedRuntime rt(ProcessorId{1}, kDomain, kDomainAddr, {}, cfg);
#if FTCORBA_METRICS_ENABLED
  std::set<std::string> names;
  for (const metrics::Sample& s : metrics::snapshot()) names.insert(s.name);
  for (const char* name :
       {"ftmp_runtime_shard0_frames_total", "ftmp_runtime_shard0_delivered_total",
        "ftmp_runtime_shard1_queue_depth", "ftmp_runtime_shard1_stalls_total",
        "ftmp_runtime_frames_routed_total", "ftmp_runtime_ring_drops_total",
        "ftmp_runtime_shards"}) {
    EXPECT_TRUE(names.count(name)) << "missing instrument " << name
                                   << " (ftmp_inspect --metrics surfaces these)";
  }
#endif
}

// Inline mode is a passthrough: a three-member group where one member sits
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
  rt.create_group(now, group, addr, members);
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
  EXPECT_EQ(rt.delivered_total(), 1u);
  EXPECT_EQ(rt.shard_stats(0).delivered, 1u);
  EXPECT_GT(rt.shard_stats(0).frames_in, 0u);
  const auto subs = rt.subscriptions();
  EXPECT_TRUE(std::find(subs.begin(), subs.end(), addr) != subs.end());
}

// The ordering engine is a per-stack Config choice, so a runtime shard
// running LLFT (docs/ORDERING.md) needs no runtime-layer support: grants
// flow through the same ingest/egress path as every reliable message.
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
  rt.create_group(now, group, addr, members);
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
  EXPECT_EQ(rt.delivered_total(), 3u);
}

TEST(ShardedRuntime, ThreadedLifecycleStartsTicksAndDrains) {
  RuntimeConfig cfg;
  cfg.shards = 2;
  ShardedRuntime rt(ProcessorId{1}, kDomain, kDomainAddr, patient_config(), cfg);
  EXPECT_FALSE(rt.inline_mode());
  rt.create_group(wall_now(), ProcessorGroupId{1}, McastAddress{201},
                  {ProcessorId{1}});
  rt.create_group(wall_now(), ProcessorGroupId{2}, McastAddress{202},
                  {ProcessorId{1}});
  rt.start();
  EXPECT_TRUE(rt.running());
  rt.start();  // idempotent

  // Shards tick on their own wheels: heartbeats must show up as egress.
  std::vector<net::Datagram> egress;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (egress.empty() && std::chrono::steady_clock::now() < deadline) {
    rt.drain_egress(egress);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(egress.empty()) << "threaded shards must emit heartbeats";

  rt.stop();
  EXPECT_FALSE(rt.running());
  rt.stop();  // idempotent

  std::uint64_t ticks = 0;
  bool both_subscribed = false;
  for (std::size_t s = 0; s < rt.shard_count(); ++s) {
    ticks += rt.shard_stats(s).ticks;
  }
  EXPECT_GT(ticks, 0u) << "timer wheels must have driven Stack::tick";
  const auto subs = rt.subscriptions();
  both_subscribed =
      std::find(subs.begin(), subs.end(), McastAddress{201}) != subs.end() &&
      std::find(subs.begin(), subs.end(), McastAddress{202}) != subs.end();
  EXPECT_TRUE(both_subscribed);
}

TEST(ShardedRuntime, ThreadedModeRoutesFramesToTheOwningShard) {
  RuntimeConfig cfg;
  cfg.shards = 2;
  cfg.placement = RuntimeConfig::Placement::kRoundRobin;
  ShardedRuntime rt(ProcessorId{1}, kDomain, kDomainAddr, patient_config(), cfg);
  // Two single-member groups land on shard 0 and shard 1 (round robin).
  rt.create_group(wall_now(), ProcessorGroupId{1}, McastAddress{201},
                  {ProcessorId{1}, ProcessorId{9}});
  rt.create_group(wall_now(), ProcessorGroupId{2}, McastAddress{202},
                  {ProcessorId{1}, ProcessorId{9}});
  const std::size_t shard_g1 = rt.shard_of_group(ProcessorGroupId{1});
  const std::size_t shard_g2 = rt.shard_of_group(ProcessorGroupId{2});
  ASSERT_NE(shard_g1, shard_g2);

  // A remote peer's heartbeats for each group, produced by a real stack.
  ftmp::Stack peer(ProcessorId{9}, kDomain, kDomainAddr, patient_config());
  peer.create_group(1, ProcessorGroupId{1}, McastAddress{201},
                    {ProcessorId{1}, ProcessorId{9}});
  peer.create_group(1, ProcessorGroupId{2}, McastAddress{202},
                    {ProcessorId{1}, ProcessorId{9}});
  peer.tick(100 * kMillisecond);  // well past heartbeat_interval
  const std::vector<net::Datagram> frames = peer.take_packets();
  ASSERT_GE(frames.size(), 2u);

  rt.start();
  const TimePoint now = wall_now();
  for (const net::Datagram& d : frames) rt.ingest(now, d);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((rt.shard_stats(shard_g1).frames_in == 0 ||
          rt.shard_stats(shard_g2).frames_in == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  rt.stop();
  EXPECT_GT(rt.shard_stats(shard_g1).frames_in, 0u)
      << "group 1 frames must reach group 1's shard";
  EXPECT_GT(rt.shard_stats(shard_g2).frames_in, 0u)
      << "group 2 frames must reach group 2's shard";
}

TEST(ShardedRuntime, DropWhenFullCountsRingDrops) {
  RuntimeConfig cfg;
  cfg.shards = 1;
  cfg.inline_single_shard = false;  // threaded machinery with one shard
  cfg.ingress_ring_capacity = 2;
  cfg.drop_when_full = true;
  ShardedRuntime rt(ProcessorId{1}, kDomain, kDomainAddr, patient_config(), cfg);
  // Not started: the shard never consumes, so pushes 3.. must drop.
  const net::Datagram junk{McastAddress{200}, SharedBytes{bytes_of("not-ftmp")}};
  for (int i = 0; i < 5; ++i) rt.ingest(1, junk);
  EXPECT_EQ(rt.shard_stats(0).ring_drops, 3u);
  EXPECT_EQ(rt.shard_stats(0).ingress_depth, 2u);
}

}  // namespace
}  // namespace ftcorba::runtime
