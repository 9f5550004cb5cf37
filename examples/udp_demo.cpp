// udp_demo — FTMP over real UDP IP-Multicast sockets (the paper's actual
// substrate). Three members run in one process, each a
// runtime::ShardedRuntime behind its own runtime::ShardedUdpDriver on the
// loopback interface, and exchange totally-ordered messages through the
// kernel.
//
// Exit status: 0 when all three deliver the 9 messages in one order; 1 when
// datagrams flow but fewer than 9 arrive or the orders differ; 77 (skip)
// when the environment offers no working multicast loopback at all.
//
//   $ ./udp_demo
#include <cstdio>
#include <memory>

#include "runtime/udp_front.hpp"

using namespace ftcorba;
using namespace ftcorba::ftmp;

int main() {
  constexpr int kSkip = 77;  // ctest SKIP_RETURN_CODE
  const FtDomainId domain{1};
  const McastAddress domain_addr{0x0101};
  const ProcessorGroupId group{1};
  const McastAddress group_addr{0x0202};
  const std::vector<ProcessorId> members{ProcessorId{1}, ProcessorId{2}, ProcessorId{3}};
  const ConnectionId conn{domain, ObjectGroupId{1}, domain, ObjectGroupId{2}};

  std::vector<std::unique_ptr<runtime::ShardedRuntime>> nodes;
  std::vector<std::unique_ptr<runtime::ShardedUdpDriver>> drivers;
  try {
    for (ProcessorId p : members) {
      nodes.push_back(
          std::make_unique<runtime::ShardedRuntime>(p, domain, domain_addr));
      nodes.back()->stack(0).create_group(runtime::wall_now(), group, group_addr,
                                          members);
      net::UdpMulticastTransport::Options options;
      options.port = 30771;
      drivers.push_back(
          std::make_unique<runtime::ShardedUdpDriver>(*nodes.back(), options));
    }
  } catch (const net::TransportError& e) {
    std::printf("UDP multicast unavailable in this environment (%s); skipping\n",
                e.what());
    return kSkip;
  }

  std::size_t received = 0;
  auto pump_all = [&](Duration d) {
    const TimePoint until = runtime::wall_now() + d;
    while (runtime::wall_now() < until) {
      for (auto& drv : drivers) received += drv->poll_once(200 * kMicrosecond);
    }
  };

  pump_all(50 * kMillisecond);  // warm up: heartbeats establish bounds

  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const std::string text = "udp message " + std::to_string(round) + " from " +
                               to_string(members[i]);
      nodes[i]->stack(0).group(group)->send_regular(
          runtime::wall_now(), conn, std::uint64_t(round + 1), bytes_of(text));
    }
    pump_all(20 * kMillisecond);
  }
  pump_all(300 * kMillisecond);

  std::vector<std::vector<std::string>> transcripts(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (const Event& ev : nodes[i]->take_events()) {
      if (const auto* m = std::get_if<DeliveredMessage>(&ev)) {
        transcripts[i].emplace_back(m->giop_message.begin(), m->giop_message.end());
      }
    }
  }

  for (std::size_t i = 0; i < transcripts.size(); ++i) {
    std::printf("--- %s delivered %zu messages over the wire ---\n",
                to_string(members[i]).c_str(), transcripts[i].size());
    for (const std::string& line : transcripts[i]) std::printf("  %s\n", line.c_str());
  }

  if (received == 0) {
    std::printf("no datagram arrived: multicast loopback not functional; skipping\n");
    return kSkip;
  }
  for (const auto& t : transcripts) {
    if (t.size() != 9) {
      std::printf("ERROR: expected 9 deliveries at every member\n");
      return 1;
    }
    if (t != transcripts[0]) {
      std::printf("ERROR: transcripts diverge\n");
      return 1;
    }
  }
  std::printf("\nidentical total order at all three kernel-attached members\n");
  return 0;
}
