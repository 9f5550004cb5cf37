// E3 — the heartbeat-interval tradeoff the paper states in §5:
// "The choice of the heartbeat interval is a compromise between message
//  latency and network traffic. A shorter heartbeat interval results in
//  lower message latency but higher network traffic."
//
// At low offered load, a message from one member cannot be delivered until
// every *idle* member's bound passes its timestamp. Under the paper's rule
// (lamport-paper) that happens at the next heartbeat, so latency tracks the
// heartbeat interval while wire traffic is inversely proportional to it.
// The default mode acks within kAckDelay instead (docs/ORDERING.md §2):
// latency is flat in the interval, which then only bounds idle traffic.
#include <cstdio>

#include "ftmp/wire.hpp"
#include "support.hpp"

using namespace ftcorba;
using namespace ftcorba::bench;

namespace {

// Wire tap that classifies every datagram the fleet sends. Batched datagrams
// (FTMB, docs/WIRE.md §6) are opened and their sub-frames counted
// individually, so heartbeat traffic is measured in messages-on-the-wire
// regardless of the batching knob.
struct HeartbeatTap {
  std::uint64_t datagrams = 0;
  std::uint64_t heartbeat_frames = 0;        // heartbeat messages on the wire
  std::uint64_t heartbeat_only_datagrams = 0;  // datagrams carrying only heartbeats

  void count(const net::Datagram& d) {
    ++datagrams;
    const BytesView v = d.payload.view();
    if (ftmp::looks_like_ftmp_batch(v)) {
      ftmp::BatchParser parser(v);
      std::uint64_t hb = 0, other = 0;
      while (const auto sf = parser.next()) {
        const bool is_hb =
            v[sf->offset + ftmp::kTypeFieldOffset] ==
            std::uint8_t(ftmp::MessageType::kHeartbeat);
        (is_hb ? hb : other) += 1;
      }
      heartbeat_frames += hb;
      if (hb > 0 && other == 0) ++heartbeat_only_datagrams;
    } else if (v.size() > ftmp::kTypeFieldOffset &&
               v[ftmp::kTypeFieldOffset] ==
                   std::uint8_t(ftmp::MessageType::kHeartbeat)) {
      ++heartbeat_frames;
      ++heartbeat_only_datagrams;
    }
  }
};

struct RateRow {
  double hb_frames_per_s = 0;
  double hb_only_dgrams_per_s = 0;
  double dgrams_per_s = 0;
  std::uint64_t coalesced = 0;
};

// Uniform load of `rate` msgs/s/member (0 = idle group) for 4s at a 10ms
// heartbeat interval, counting heartbeat traffic through the tap.
RateRow run_rate(double rate, bool batching, std::uint64_t seed) {
  ftmp::Config cfg;
  cfg.heartbeat_interval = 10 * kMillisecond;
  cfg.fault_timeout = 500 * kMillisecond;
  if (batching) cfg.batch_max_datagram_bytes = 1400;
  FtmpFleet fleet(4, cfg, net::LinkModel{}, seed);
  HeartbeatTap tap;
  fleet.h.network().set_tap(
      [&tap](TimePoint, ProcessorId, const net::Datagram& d) { tap.count(d); });

  const Duration duration = 4 * kSecond;
  const TimePoint start = fleet.h.now();
  if (rate > 0) {
    const Duration gap = Duration(std::llround(double(kSecond) / rate));
    for (TimePoint t = start; t < start + duration; t += gap) {
      fleet.h.run_until(t);
      for (ProcessorId p : fleet.members) fleet.send_from(p, 64);
    }
  }
  fleet.h.run_until(start + duration);

  const double secs = double(duration) / double(kSecond);
  RateRow row;
  row.hb_frames_per_s = double(tap.heartbeat_frames) / secs;
  row.hb_only_dgrams_per_s = double(tap.heartbeat_only_datagrams) / secs;
  row.dgrams_per_s = double(tap.datagrams) / secs;
  for (ProcessorId p : fleet.members) {
    row.coalesced += fleet.h.stack(p).batch_stats().heartbeats_coalesced;
  }
  return row;
}

}  // namespace

int main() {
  banner("E3", "heartbeat interval: delivery latency vs network traffic (n=4, low load)");

  net::LinkModel lan;
  const double rate = 5.0;  // msgs/s per member: mostly-idle group
  const Duration duration = 6 * kSecond;

  for (ftmp::OrderingMode mode :
       {ftmp::OrderingMode::kLamportPaper, ftmp::OrderingMode::kLamport}) {
    std::printf("\nordering mode %s%s:\n", ftmp::to_string(mode),
                mode == ftmp::OrderingMode::kLamport ? " (prompt acks)"
                                                     : " (the paper's curve)");
    std::printf("%12s | %9s | %9s | %9s | %12s | %12s | %10s | %6s\n", "heartbeat ms",
                "mean ms", "p50 ms", "p99 ms", "packets/s", "packets/msg",
                "allocs/pkt", "pool %");
    std::printf("-------------+-----------+-----------+-----------+--------------+"
                "-------------+------------+-------\n");
    for (Duration hb : {1 * kMillisecond, 2 * kMillisecond, 5 * kMillisecond,
                        10 * kMillisecond, 20 * kMillisecond, 50 * kMillisecond,
                        100 * kMillisecond, 200 * kMillisecond, 500 * kMillisecond}) {
      ftmp::Config cfg;
      cfg.ordering_mode = mode;
      cfg.heartbeat_interval = hb;
      // The fault detector must tolerate the sparser heartbeats.
      cfg.fault_timeout = std::max<Duration>(20 * hb, 200 * kMillisecond);
      alloc_stats_reset();
      const WorkloadResult r =
          run_ftmp(4, cfg, lan, /*seed=*/42, rate, duration, 64);
      const AllocStats alloc = alloc_stats();
      // At short heartbeat intervals nearly every packet is a heartbeat: the
      // per-group encoded template makes each tick a pooled 45-byte copy
      // with three patched fields, so allocs/pkt stays ~1 with a high
      // pool-hit fraction instead of a fresh encode per tick.
      const double total_allocs = double(alloc.fresh_buffers + alloc.pool_hits);
      const double allocs_per_pkt =
          r.wire.packets_sent > 0 ? total_allocs / double(r.wire.packets_sent) : 0.0;
      const double pool_pct =
          total_allocs > 0 ? 100.0 * double(alloc.pool_hits) / total_allocs : 0.0;
      std::printf(
          "%12.0f | %9.3f | %9.3f | %9.3f | %12.0f | %12.1f | %10.2f | %5.1f%%%s\n",
          to_ms(hb), r.latency_ms.mean(), r.latency_ms.median(),
          r.latency_ms.percentile(99), r.packets_per_s(), r.packets_per_msg(),
          allocs_per_pkt, pool_pct, r.delivery_ratio(4) < 0.999 ? "  [INCOMPLETE]" : "");
    }
  }
  std::printf("load: %.0f msgs/s/member across 4 members. lamport-paper: latency\n"
              "should rise ~linearly with the interval while wire packets/s falls —\n"
              "the §5 compromise. lamport: latency stays flat; packets/s still falls.\n"
              "allocs/pkt, pool %%: owned-buffer allocations per wire packet and the\n"
              "fraction served from the buffer pool (heartbeats reuse an encoded\n"
              "template via a pooled copy instead of a fresh encode per tick).\n",
              rate);

  // -------------------------------------------------------------------------
  // Heartbeat traffic vs offered data rate (hb = 10ms, n = 4). A sender's
  // heartbeat timer resets on every Regular it sends (§5: a Regular carries
  // the same bound information), so once the per-member data rate crosses
  // 1/hb_interval (100 msgs/s here) senders stop heartbeating entirely and
  // heartbeats-on-the-wire collapse to ~0. Below that rate, batching lets a
  // due heartbeat ride a data-bearing datagram instead of paying for its own
  // (hb-only dgrams/s falls; coalesced counts those piggybacks).
  // -------------------------------------------------------------------------
  std::printf("\nheartbeat traffic vs data rate (lamport, hb=10ms, n=4, 4s of load):\n");
  std::printf("%11s | %12s | %12s | %14s | %12s | %9s\n", "msgs/s/mbr",
              "hb/s (off)", "hb/s (on)", "hb-only dg/s", "dgrams/s on",
              "coalesced");
  std::printf("------------+--------------+--------------+----------------+"
              "--------------+----------\n");
  for (double data_rate : {0.0, 25.0, 50.0, 100.0, 200.0, 400.0}) {
    const RateRow off = run_rate(data_rate, /*batching=*/false, /*seed=*/7);
    const RateRow on = run_rate(data_rate, /*batching=*/true, /*seed=*/7);
    std::printf("%11.0f | %12.1f | %12.1f | %14.1f | %12.1f | %9llu\n",
                data_rate, off.hb_frames_per_s, on.hb_frames_per_s,
                on.hb_only_dgrams_per_s, on.dgrams_per_s,
                (unsigned long long)on.coalesced);
  }
  std::printf("hb/s: heartbeat messages on the wire (batched sub-frames decoded\n"
              "and counted individually). hb-only dg/s: datagrams that carry\n"
              "nothing but heartbeats with batching on. coalesced: heartbeats\n"
              "that rode a data-bearing batch instead of their own datagram.\n");
  return 0;
}
