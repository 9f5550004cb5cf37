// E9 — totally-ordered throughput: flooding runs across group sizes and
// message sizes, FTMP (with and without egress batching) vs the §8
// baselines on the same simulated LAN. Throughput = messages per simulated
// second from the injection to the slowest member's last delivery.
//
// The LAN charges every datagram a fixed per-packet cost on the sender's
// uplink besides its bandwidth share — the realistic per-packet overhead
// (syscall, driver, inter-frame gap) that batching exists to amortize
// (docs/BATCHING.md). Expected shape: unbatched FTMP is per-packet-cost
// bound; batching packs ~tens of messages per datagram and multiplies
// throughput; the fixed sequencer saturates at the sequencer; token ring
// sustains high aggregate throughput at higher latency.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "support.hpp"

using namespace ftcorba;
using namespace ftcorba::bench;

namespace {

struct ThroughputResult {
  double msgs_per_s = 0;
  double mbits_per_s = 0;
  double packets_per_msg = 0;
  // Owned-buffer allocations / memcpy'd bytes per group-wide ordered
  // delivery, from the process-global alloc statistics (common/bytes.hpp) —
  // the zero-copy datagram path's figure of merit on the sim path.
  double allocs_per_delivered = 0;
  double copied_bytes_per_delivered = 0;
  // Egress batching figures, summed across the fleet (0 when batching off).
  bool batching = false;
  double batch_fill_ratio = 0;
  double subframes_per_datagram = 0;
  bool complete = true;
};

constexpr int kMessagesPerMember = 600;
constexpr std::size_t kBatchBudget = 8192;

// A 1 Gbit/s shared-medium LAN with a 50µs fixed cost per datagram on the
// sender's uplink: protocol overhead packets cost real capacity, and many
// small datagrams cost more than one large one.
net::LinkModel flood_lan() {
  net::LinkModel lan;
  lan.bandwidth_bps = 1e9;
  lan.per_packet_cost = 50 * kMicrosecond;
  return lan;
}

ThroughputResult run_ftmp_flood(int n, std::size_t payload, std::uint64_t seed,
                                bool batching,
                                ftmp::OrderingMode ordering = ftmp::OrderingMode::kLamport) {
  ftmp::Config cfg;
  cfg.heartbeat_interval = 5 * kMillisecond;
  cfg.fault_timeout = 5 * kSecond;
  cfg.ordering_mode = ordering;
  if (batching) {
    cfg.batch_max_datagram_bytes = kBatchBudget;
    cfg.batch_flush_us = 500;
  }
  FtmpFleet fleet(n, cfg, flood_lan(), seed);
  alloc_stats_reset();  // measure the flood, not the connect handshake
  const TimePoint start = fleet.h.now();
  const std::uint64_t total = std::uint64_t(n) * kMessagesPerMember;
  // Inject the whole flood upfront: the drain rate of the wire + ordering
  // pipeline is the binding constraint, not the injection schedule.
  for (int i = 0; i < kMessagesPerMember; ++i) {
    for (ProcessorId p : fleet.members) fleet.send_from(p, payload);
  }
  // Run until every member delivered everything (or timeout); the flood
  // ends at the last member's last delivery.
  std::vector<std::uint64_t> got(fleet.members.size(), 0);
  TimePoint end = start;
  for (std::size_t i = 0; i < fleet.members.size(); ++i) {
    fleet.h.set_event_handler(fleet.members[i], [&, i](TimePoint at, const ftmp::Event& e) {
      const auto* m = std::get_if<ftmp::DeliveredMessage>(&e);
      if (m != nullptr && m->group == kBenchGroup && ++got[i] == total) {
        end = std::max(end, at);
      }
    });
  }
  const bool complete = fleet.h.run_until_pred(
      [&] {
        for (std::uint64_t n_got : got) {
          if (n_got < total) return false;
        }
        return true;
      },
      start + 120 * kSecond);
  if (!complete) end = fleet.h.now();
  const double seconds = double(end - start) / double(kSecond);
  const AllocStats alloc = alloc_stats();
  ThroughputResult r;
  r.msgs_per_s = double(total) / seconds;
  r.mbits_per_s = r.msgs_per_s * double(payload) * 8 / 1e6;
  r.packets_per_msg = double(fleet.h.network().stats().packets_sent) / double(total);
  // Every member delivers every message: n deliveries per injected message.
  const double delivered = double(total) * n;
  r.allocs_per_delivered = double(alloc.fresh_buffers + alloc.pool_hits) / delivered;
  r.copied_bytes_per_delivered = double(alloc.copied_bytes) / delivered;
  r.batching = batching;
  if (batching) {
    ftmp::BatchStats fleet_batches;
    for (ProcessorId p : fleet.members) {
      const ftmp::BatchStats bs = fleet.h.stack(p).batch_stats();
      fleet_batches.batch_datagrams += bs.batch_datagrams;
      fleet_batches.subframes += bs.subframes;
      fleet_batches.batch_bytes += bs.batch_bytes;
    }
    r.batch_fill_ratio = fleet_batches.fill_ratio(kBatchBudget);
    r.subframes_per_datagram = fleet_batches.subframes_per_batch();
  }
  r.complete = complete;
  return r;
}

ThroughputResult run_baseline_flood(Protocol kind, int n, std::size_t payload,
                                    std::uint64_t seed) {
  baseline::BaselineHarness h(flood_lan(), seed);
  std::vector<ProcessorId> members;
  for (int i = 1; i <= n; ++i) members.push_back(ProcessorId{std::uint32_t(i)});
  for (ProcessorId p : members) {
    std::unique_ptr<baseline::TotalOrderNode> node;
    if (kind == Protocol::kSequencer) {
      node = std::make_unique<baseline::SequencerNode>(p, members, kBenchGroupAddr);
    } else {
      node = std::make_unique<baseline::TokenRingNode>(p, members, kBenchGroupAddr);
    }
    h.add_node(p, kBenchGroupAddr, std::move(node));
  }
  h.run_for(100 * kMillisecond);
  h.clear_deliveries();
  h.network().reset_stats();

  const TimePoint start = h.now();
  const std::uint64_t total = std::uint64_t(n) * kMessagesPerMember;
  for (int i = 0; i < kMessagesPerMember; ++i) {
    for (ProcessorId p : members) h.broadcast(p, stamp_payload(h.now(), payload));
  }
  bool complete = false;
  while (h.now() < start + 120 * kSecond) {
    complete = true;
    for (ProcessorId p : members) {
      if (h.delivered(p).size() < total) complete = false;
    }
    if (complete) break;
    h.run_for(5 * kMillisecond);
  }
  TimePoint end = h.now();
  if (complete) {
    end = start;
    for (ProcessorId p : members) end = std::max(end, h.delivered(p)[total - 1].at);
  }
  const double seconds = double(end - start) / double(kSecond);
  ThroughputResult r;
  r.msgs_per_s = double(total) / seconds;
  r.mbits_per_s = r.msgs_per_s * double(payload) * 8 / 1e6;
  r.packets_per_msg = double(h.network().stats().packets_sent) / double(total);
  r.complete = complete;
  return r;
}

}  // namespace

struct JsonRow {
  int n;
  std::size_t payload;
  std::uint64_t seed;
  ftmp::OrderingMode ordering;
  ThroughputResult result;
};

// Machine-readable summary for the CI perf-smoke job: FTMP msgs/s with
// batching off and on, plus the allocation/copy cost per delivered message
// and the batched fill ratio on the sim path.
void write_json(const char* path, bool quick, const std::vector<JsonRow>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "e9: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"experiment\": \"e9_throughput\",\n  \"mode\": \"%s\",\n"
                  "  \"ftmp\": [\n", quick ? "quick" : "full");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& row = rows[i];
    std::fprintf(f,
                 "    {\"n\": %d, \"payload_bytes\": %zu, \"seed\": %llu, "
                 "\"ordering\": \"%s\", \"batching\": %s, \"msgs_per_s\": %.1f, "
                 "\"packets_per_msg\": %.2f, \"allocs_per_delivered_msg\": %.3f, "
                 "\"copied_bytes_per_delivered_msg\": %.1f, "
                 "\"batch_fill_ratio\": %.3f, \"subframes_per_datagram\": %.1f, "
                 "\"complete\": %s}%s\n",
                 row.n, row.payload, (unsigned long long)row.seed,
                 ftmp::to_string(row.ordering),
                 row.result.batching ? "true" : "false",
                 row.result.msgs_per_s, row.result.packets_per_msg,
                 row.result.allocs_per_delivered, row.result.copied_bytes_per_delivered,
                 row.result.batch_fill_ratio, row.result.subframes_per_datagram,
                 row.result.complete ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu FTMP configurations)\n", path, rows.size());
}

int main(int argc, char** argv) {
  // --quick: the CI perf-smoke subset — small groups, both ordering
  // engines, no baselines.
  bool quick = false;
  const char* json_path = "BENCH_e9.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }
  banner("E9", "totally-ordered throughput: flood runs (ordered msgs/s, group-wide)");

  const std::vector<int> group_sizes = quick ? std::vector<int>{2, 4}
                                             : std::vector<int>{2, 4, 8, 12};
  const std::vector<std::size_t> payloads =
      quick ? std::vector<std::size_t>{64, 512}
            : std::vector<std::size_t>{64, 512, 4096};
  const std::vector<Protocol> protocols =
      quick ? std::vector<Protocol>{Protocol::kFtmp, Protocol::kLlft}
            : std::vector<Protocol>{Protocol::kFtmp, Protocol::kLlft,
                                    Protocol::kSequencer, Protocol::kTokenRing};
  std::vector<JsonRow> json_rows;

  std::printf("%4s | %6s | %-10s | %5s | %11s | %9s | %11s | %10s | %11s | %5s\n",
              "n", "bytes", "protocol", "batch", "msgs/s", "Mbit/s", "packets/msg",
              "allocs/dlv", "copiedB/dlv", "fill");
  std::printf("-----+--------+------------+-------+-------------+-----------+"
              "-------------+------------+-------------+------\n");
  for (int n : group_sizes) {
    for (std::size_t payload : payloads) {
      for (Protocol proto : protocols) {
        const std::uint64_t seed = 3000 + std::uint64_t(n);
        if (proto == Protocol::kFtmp || proto == Protocol::kLlft) {
          const ftmp::OrderingMode mode = proto == Protocol::kLlft
                                              ? ftmp::OrderingMode::kLlft
                                              : ftmp::OrderingMode::kLamport;
          // Same run twice: batching off, then on — the off row is the
          // baseline the batched speedup in CI is measured against.
          for (bool batching : {false, true}) {
            const ThroughputResult r =
                run_ftmp_flood(n, payload, seed, batching, mode);
            std::printf("%4d | %6zu | %-10s | %5s | %11.0f | %9.2f | %11.1f | "
                        "%10.2f | %11.1f | %5.2f%s\n",
                        n, payload, to_string(proto), batching ? "on" : "off",
                        r.msgs_per_s, r.mbits_per_s, r.packets_per_msg,
                        r.allocs_per_delivered, r.copied_bytes_per_delivered,
                        r.batch_fill_ratio, r.complete ? "" : "  [TIMEOUT]");
            json_rows.push_back({n, payload, seed, mode, r});
          }
        } else {
          const ThroughputResult r = run_baseline_flood(proto, n, payload, seed);
          std::printf("%4d | %6zu | %-10s | %5s | %11.0f | %9.2f | %11.1f | "
                      "%10s | %11s | %5s%s\n",
                      n, payload, to_string(proto), "-", r.msgs_per_s,
                      r.mbits_per_s, r.packets_per_msg, "-", "-", "-",
                      r.complete ? "" : "  [TIMEOUT]");
        }
      }
    }
    std::printf("-----+--------+------------+-------+-------------+-----------+"
                "-------------+------------+-------------+------\n");
  }
  std::printf("%d msgs/member injected upfront; run measured to the last member's\n"
              "last delivery (drain-rate limited on a LAN charging 50us per\n"
              "datagram + 1 Gbit/s uplink serialization). batch rows: budget %zu B,\n"
              "fill = mean fraction of budget used per batched datagram. allocs/dlv\n"
              "and copiedB/dlv: owned-buffer allocations and memcpy'd bytes per\n"
              "group-wide ordered delivery (excludes connect handshake).\n",
              kMessagesPerMember, kBatchBudget);
  write_json(json_path, quick, json_rows);
  return 0;
}
