// Threaded-mode stress: a 4-shard runtime node in 8 groups, each shared
// with a bare-stack peer flooding Regular messages over an in-memory
// multicast bus (the test thread is the I/O front thread). Asserts every
// message is delivered exactly once, per-source in order, with traffic
// spread across all shards and no ring drops (backpressure mode).
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ftmp/stack.hpp"
#include "runtime/shard.hpp"

namespace ftcorba::runtime {
namespace {

constexpr FtDomainId kDomain{1};
constexpr McastAddress kDomainAddr{100};
constexpr int kGroups = 8;
constexpr std::uint64_t kMessagesPerGroup = 30;

ConnectionId test_conn() {
  return ConnectionId{FtDomainId{1}, ObjectGroupId{10}, FtDomainId{1},
                      ObjectGroupId{20}};
}

TEST(RuntimeStress, FourShardsDeliverEveryGroupInOrder) {
  ftmp::Config stack_cfg;
  stack_cfg.fault_timeout = 30 * kSecond;  // one core: no spurious convictions

  RuntimeConfig cfg;
  cfg.shards = 4;
  cfg.placement = RuntimeConfig::Placement::kRoundRobin;  // all shards busy
  ShardedRuntime rt(ProcessorId{1}, kDomain, kDomainAddr, stack_cfg, cfg);

  std::vector<std::unique_ptr<ftmp::Stack>> peers;
  const TimePoint t0 = wall_now();
  for (int g = 1; g <= kGroups; ++g) {
    const ProcessorGroupId group{std::uint32_t(g)};
    const McastAddress addr{std::uint32_t(200 + g)};
    const ProcessorId peer_id{std::uint32_t(10 + g)};
    const std::vector<ProcessorId> members{ProcessorId{1}, peer_id};
    rt.create_group(t0, group, addr, members);
    auto peer = std::make_unique<ftmp::Stack>(peer_id, kDomain, kDomainAddr,
                                              stack_cfg);
    peer->create_group(t0, group, addr, members);
    peers.push_back(std::move(peer));
  }
  rt.start();
  ASSERT_TRUE(rt.running());

  // In-memory multicast bus with loopback: every datagram reaches the
  // runtime node and the group's peer (both are members of every address
  // they use; domain-address traffic goes everywhere).
  std::vector<std::uint64_t> sent(kGroups, 0);
  std::map<std::uint32_t, std::vector<std::uint64_t>> delivered;  // group -> reqs
  std::uint64_t delivered_total = 0;

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (delivered_total < kGroups * kMessagesPerGroup &&
         std::chrono::steady_clock::now() < deadline) {
    const TimePoint now = wall_now();
    std::vector<net::Datagram> wire;
    for (int g = 0; g < kGroups; ++g) {
      ftmp::Stack& peer = *peers[g];
      if (sent[g] < kMessagesPerGroup) {
        const std::uint64_t req = ++sent[g];
        ASSERT_TRUE(peer.group(ProcessorGroupId{std::uint32_t(g + 1)})
                        ->send_regular(now, test_conn(), req,
                                       bytes_of(std::string("g")
                                                    .append(std::to_string(g + 1))
                                                    .append("#")
                                                    .append(std::to_string(req)))));
      }
      peer.tick(now);
      for (auto& d : peer.take_packets()) wire.push_back(std::move(d));
    }
    rt.drain_egress(wire);
    for (const net::Datagram& d : wire) {
      rt.ingest(now, d);
      for (int g = 0; g < kGroups; ++g) {
        if (d.addr == McastAddress{std::uint32_t(201 + g)} ||
            d.addr == kDomainAddr) {
          peers[g]->on_datagram(now, d);
        }
      }
    }
    for (const ftmp::Event& ev : rt.take_events()) {
      if (const auto* m = std::get_if<ftmp::DeliveredMessage>(&ev)) {
        delivered[m->group.raw()].push_back(m->request_num);
        ++delivered_total;
      }
    }
    for (auto& peer : peers) (void)peer->take_events();
    std::this_thread::yield();  // one core: let the shard threads run
  }
  rt.stop();
  for (const ftmp::Event& ev : rt.take_events()) {
    if (const auto* m = std::get_if<ftmp::DeliveredMessage>(&ev)) {
      delivered[m->group.raw()].push_back(m->request_num);
      ++delivered_total;
    }
  }

  ASSERT_EQ(delivered_total, kGroups * kMessagesPerGroup)
      << "every flooded message must be delivered exactly once";
  for (int g = 1; g <= kGroups; ++g) {
    const auto& reqs = delivered[std::uint32_t(g)];
    ASSERT_EQ(reqs.size(), kMessagesPerGroup) << "group " << g;
    for (std::uint64_t i = 0; i < kMessagesPerGroup; ++i) {
      ASSERT_EQ(reqs[i], i + 1)
          << "group " << g << ": no loss, duplication or reordering";
    }
  }

  // The round-robin layout must have put real work on all four shards, and
  // backpressure mode must not have dropped anything.
  std::uint64_t drops = 0;
  for (std::size_t s = 0; s < rt.shard_count(); ++s) {
    const ShardStats st = rt.shard_stats(s);
    EXPECT_GT(st.frames_in, 0u) << "idle shard " << s;
    EXPECT_GT(st.delivered, 0u) << "shard " << s << " delivered nothing";
    drops += st.ring_drops;
  }
  EXPECT_EQ(drops, 0u);
  EXPECT_EQ(rt.delivered_total(), kGroups * kMessagesPerGroup);
}

}  // namespace
}  // namespace ftcorba::runtime
