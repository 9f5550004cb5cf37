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
#include <thread>
#include <variant>
#include <vector>

#include "runtime/shard.hpp"
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

// ---------------------------------------------------------------------------
// --shards N: the sharded-runtime sweep (docs/SHARDING.md). One threaded
// ShardedRuntime node belongs to 8 groups, each shared with two remote
// sources whose interleaved Regular streams are pre-encoded by real stacks
// (so every frame is wire-valid ordered traffic). The bench thread is the
// I/O front: it feeds the pre-encoded frames through the routing front and
// loops the node's own heartbeats back (multicast loopback — that is what
// advances the node's own ordering bound). Throughput = ordered deliveries
// at the node per wall-clock second; alloc/copy budgets come from the same
// process-global stats as the sim rows, reset after the runtime starts so
// the measured phase starts clean.
//
// A flood lasts tens of milliseconds, so one flood per shard count cannot
// resolve a 15 % change on a shared host: each count runs kShardFloods
// floods, each on a fresh runtime replaying the same pre-encoded traffic,
// and reports the median rate with its quartiles.
// ---------------------------------------------------------------------------

// One shard count's result. msgs_per_s is the median over the floods;
// completion, drops and stalls cover every flood (drops and stalls summed),
// and the alloc/copy figures are the worst flood's, so a budget checked on
// the row holds in each flood.
struct ShardRow {
  std::size_t shards = 0;
  int floods = 0;
  double msgs_per_s = 0;
  double msgs_per_s_q1 = 0;
  double msgs_per_s_q3 = 0;
  double allocs_per_delivered = 0;
  double copied_bytes_per_delivered = 0;
  std::uint64_t ring_drops = 0;
  std::uint64_t ingress_stalls = 0;
  std::uint64_t egress_stalls = 0;
  bool complete = true;
};

constexpr int kShardGroups = 8;
constexpr std::size_t kShardPayload = 64;
constexpr int kShardFloods = 5;

// Per group, the frames one flood replays, in feed order.
using ShardTraffic = std::vector<std::vector<net::Datagram>>;

// Pre-encodes `per_source` Regular messages from each of two sources per
// group, interleaved so their Lamport timestamps alternate, plus one final
// heartbeat per source (which carries the bound the last messages need).
ShardTraffic encode_shard_traffic(int per_source) {
  ftmp::Config gen_cfg;
  gen_cfg.heartbeat_interval = 1 * kSecond;  // quiet during generation
  gen_cfg.fault_timeout = 1000 * kSecond;
  ShardTraffic per_group;
  for (int g = 1; g <= kShardGroups; ++g) {
    const ProcessorGroupId group{std::uint32_t(g)};
    const McastAddress addr{std::uint32_t(200 + g)};
    const ProcessorId s1{std::uint32_t(100 + 2 * g)};
    const ProcessorId s2{std::uint32_t(101 + 2 * g)};
    const std::vector<ProcessorId> members{ProcessorId{1}, s1, s2};
    ftmp::Stack r1(s1, kBenchDomain, kBenchDomainAddr, gen_cfg);
    ftmp::Stack r2(s2, kBenchDomain, kBenchDomainAddr, gen_cfg);
    TimePoint now = 1 * kMillisecond;
    r1.create_group(now, group, addr, members);
    r2.create_group(now, group, addr, members);
    std::vector<net::Datagram> frames;
    const Bytes payload(kShardPayload, 0xA5);
    for (int k = 1; k <= per_source; ++k) {
      now += 100 * kMicrosecond;
      r1.group(group)->send_regular(now, bench_conn(), std::uint64_t(k), payload);
      for (auto& d : r1.take_packets()) {
        r2.on_datagram(now, d);  // interleaves the Lamport clocks
        frames.push_back(std::move(d));
      }
      r2.group(group)->send_regular(now, bench_conn(), std::uint64_t(k), payload);
      for (auto& d : r2.take_packets()) {
        r1.on_datagram(now, d);
        frames.push_back(std::move(d));
      }
    }
    // Final heartbeats: each source's bound catches up past the other's
    // last message, making the tail deliverable.
    now += 2 * kSecond;
    r1.tick(now);
    for (auto& d : r1.take_packets()) frames.push_back(std::move(d));
    r2.tick(now);
    for (auto& d : r2.take_packets()) frames.push_back(std::move(d));
    per_group.push_back(std::move(frames));
  }
  return per_group;
}

// One flood through a fresh runtime; run_shard_row aggregates the floods.
ShardRow run_shard_flood(std::size_t shards, const ShardTraffic& traffic,
                         int per_source) {
  const std::uint64_t expected =
      std::uint64_t(kShardGroups) * 2 * std::uint64_t(per_source);

  ftmp::Config cfg;
  cfg.heartbeat_interval = 1 * kMillisecond;  // the delivery-bound cadence
  cfg.fault_timeout = 1000 * kSecond;
  runtime::RuntimeConfig rcfg;
  rcfg.shards = shards;
  rcfg.inline_single_shard = false;  // 1-shard row through the same machinery
  rcfg.placement = runtime::RuntimeConfig::Placement::kRoundRobin;
  runtime::ShardedRuntime rt(ProcessorId{1}, kBenchDomain, kBenchDomainAddr,
                             cfg, rcfg);
  const TimePoint t0 = runtime::wall_now();
  for (int g = 1; g <= kShardGroups; ++g) {
    rt.create_group(t0, ProcessorGroupId{std::uint32_t(g)},
                    McastAddress{std::uint32_t(200 + g)},
                    {ProcessorId{1}, ProcessorId{std::uint32_t(100 + 2 * g)},
                     ProcessorId{std::uint32_t(101 + 2 * g)}});
  }
  rt.start();

  alloc_stats_reset();  // measure the flood, not the set-up
  const TimePoint start = runtime::wall_now();
  std::uint64_t delivered = 0;
  std::vector<net::Datagram> loopback;
  const auto pump = [&] {
    loopback.clear();
    rt.drain_egress(loopback);
    const TimePoint now = runtime::wall_now();
    for (const net::Datagram& d : loopback) rt.ingest(now, d);
    for (const ftmp::Event& ev : rt.take_events()) {
      if (std::holds_alternative<ftmp::DeliveredMessage>(ev)) ++delivered;
    }
  };
  // Feed round-robin across groups so every shard stays busy throughout.
  std::vector<std::size_t> cursor(traffic.size(), 0);
  bool more = true;
  std::size_t fed = 0;
  while (more) {
    more = false;
    const TimePoint now = runtime::wall_now();
    for (std::size_t g = 0; g < traffic.size(); ++g) {
      if (cursor[g] < traffic[g].size()) {
        rt.ingest(now, traffic[g][cursor[g]++]);
        more = true;
        if (++fed % 256 == 0) pump();
      }
    }
  }
  // Drain: the node's looped-back heartbeats release the tail.
  const TimePoint deadline = start + 120 * kSecond;
  while (delivered < expected && runtime::wall_now() < deadline) {
    pump();
    std::this_thread::yield();
  }
  const double seconds =
      double(runtime::wall_now() - start) / double(kSecond);
  const AllocStats alloc = alloc_stats();

  ShardRow row;
  row.shards = shards;
  row.complete = delivered >= expected;
  row.msgs_per_s = double(delivered) / seconds;
  row.allocs_per_delivered =
      double(alloc.fresh_buffers + alloc.pool_hits) / double(expected);
  row.copied_bytes_per_delivered = double(alloc.copied_bytes) / double(expected);
  rt.stop();
  for (std::size_t s = 0; s < rt.shard_count(); ++s) {
    const runtime::ShardStats st = rt.shard_stats(s);
    row.ring_drops += st.ring_drops;
    row.ingress_stalls += st.ingress_stalls;
    row.egress_stalls += st.egress_stalls;
  }
  return row;
}

ShardRow run_shard_row(std::size_t shards, const ShardTraffic& traffic,
                       int per_source) {
  ShardRow row;
  row.shards = shards;
  row.floods = kShardFloods;
  Samples rates;
  for (int i = 0; i < kShardFloods; ++i) {
    const ShardRow f = run_shard_flood(shards, traffic, per_source);
    rates.add(f.msgs_per_s);
    row.complete = row.complete && f.complete;
    row.allocs_per_delivered =
        std::max(row.allocs_per_delivered, f.allocs_per_delivered);
    row.copied_bytes_per_delivered =
        std::max(row.copied_bytes_per_delivered, f.copied_bytes_per_delivered);
    row.ring_drops += f.ring_drops;
    row.ingress_stalls += f.ingress_stalls;
    row.egress_stalls += f.egress_stalls;
  }
  row.msgs_per_s = rates.median();
  row.msgs_per_s_q1 = rates.percentile(25);
  row.msgs_per_s_q3 = rates.percentile(75);
  return row;
}

void write_shards_json(const char* path, bool quick,
                       const std::vector<ShardRow>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "e9: cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n  \"experiment\": \"e9_shards\",\n  \"mode\": \"%s\",\n"
               "  \"hw_threads\": %u,\n  \"rows\": [\n",
               quick ? "quick" : "full", std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ShardRow& r = rows[i];
    std::fprintf(f,
                 "    {\"shards\": %zu, \"floods\": %d, \"msgs_per_s\": %.1f, "
                 "\"msgs_per_s_q1\": %.1f, \"msgs_per_s_q3\": %.1f, "
                 "\"allocs_per_delivered_msg\": %.3f, "
                 "\"copied_bytes_per_delivered_msg\": %.1f, "
                 "\"ring_drops\": %llu, \"ingress_stalls\": %llu, "
                 "\"egress_stalls\": %llu, \"complete\": %s}%s\n",
                 r.shards, r.floods, r.msgs_per_s, r.msgs_per_s_q1,
                 r.msgs_per_s_q3, r.allocs_per_delivered,
                 r.copied_bytes_per_delivered,
                 (unsigned long long)r.ring_drops,
                 (unsigned long long)r.ingress_stalls,
                 (unsigned long long)r.egress_stalls,
                 r.complete ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu shard counts)\n", path, rows.size());
}

int run_shard_sweep(std::size_t max_shards, bool quick, const char* json_path) {
  banner("E9-shards",
         "sharded runtime flood: ordered deliveries/s at one node vs shard count");
  const int per_source = quick ? 1500 : 6000;
  std::vector<std::size_t> counts;
  for (std::size_t s = 1; s <= max_shards; s *= 2) counts.push_back(s);
  if (counts.back() != max_shards) counts.push_back(max_shards);

  std::printf("%6s | %11s | %23s | %10s | %11s | %9s | %9s | %8s\n", "shards",
              "msgs/s", "[q1 - q3]", "allocs/dlv", "copiedB/dlv", "in-stall",
              "eg-stall", "drops");
  std::printf("-------+-------------+-------------------------+------------+"
              "-------------+-----------+-----------+---------\n");
  const ShardTraffic traffic = encode_shard_traffic(per_source);
  std::vector<ShardRow> rows;
  for (std::size_t s : counts) {
    const ShardRow r = run_shard_row(s, traffic, per_source);
    std::printf("%6zu | %11.0f | [%9.0f - %9.0f] | %10.3f | %11.1f | %9llu | "
                "%9llu | %8llu%s\n",
                r.shards, r.msgs_per_s, r.msgs_per_s_q1, r.msgs_per_s_q3,
                r.allocs_per_delivered, r.copied_bytes_per_delivered,
                (unsigned long long)r.ingress_stalls,
                (unsigned long long)r.egress_stalls,
                (unsigned long long)r.ring_drops,
                r.complete ? "" : "  [TIMEOUT]");
    rows.push_back(r);
  }
  std::printf("%d groups x 2 sources x %d msgs (%zu B payloads), pre-encoded by\n"
              "real stacks and replayed through the runtime's routing front on\n"
              "this host (hw threads: %u), %d floods per shard count, each on a\n"
              "fresh runtime. msgs/s counts ordered deliveries at the sharded\n"
              "node: the median flood, with its quartiles. allocs/dlv and\n"
              "copiedB/dlv are the worst flood's; stalls (yield-spins on full\n"
              "SPSC rings) and drops are summed over the floods.\n",
              kShardGroups, per_source, kShardPayload,
              std::thread::hardware_concurrency(), kShardFloods);
  write_shards_json(json_path, quick, rows);
  return 0;
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
  // --shards N: run the sharded-runtime sweep instead of the sim flood,
  // writing BENCH_shards.json (override with --json).
  bool quick = false;
  std::size_t shards = 0;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
    else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::size_t(std::strtoul(argv[++i], nullptr, 10));
      if (shards == 0) shards = 1;
    }
  }
  if (shards > 0) {
    return run_shard_sweep(shards, quick,
                           json_path != nullptr ? json_path : "BENCH_shards.json");
  }
  if (json_path == nullptr) json_path = "BENCH_e9.json";
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
