// support.hpp — shared workload drivers and table formatting for the
// experiment benches (DESIGN.md §3). Each bench binary regenerates one
// figure/claim; all of them run FTMP (and the §8 baselines) over the same
// deterministic SimNetwork with Poisson traffic and stamped payloads, and
// report simulated-time latency distributions plus wire-traffic costs.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baseline/harness.hpp"
#include "baseline/sequencer.hpp"
#include "baseline/tokenring.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "ftmp/sim_harness.hpp"

namespace ftcorba::bench {

// ---------------------------------------------------------------------------
// Stamped payloads: the first 8 bytes carry the simulated send time so any
// receiver can compute delivery latency; the rest is filler up to `size`.
// ---------------------------------------------------------------------------

inline Bytes stamp_payload(TimePoint now, std::size_t size) {
  Bytes out(std::max<std::size_t>(size, 8), 0xA5);
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>((static_cast<std::uint64_t>(now) >> (56 - 8 * i)) & 0xFF);
  }
  return out;
}

inline TimePoint stamped_time(BytesView payload) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | payload[i];
  return static_cast<TimePoint>(v);
}

// ---------------------------------------------------------------------------
// Workload results
// ---------------------------------------------------------------------------

struct WorkloadResult {
  Samples latency_ms;  ///< one sample per (message, receiving member)
  std::uint64_t sent = 0;
  std::uint64_t delivered_total = 0;  ///< summed over receivers
  net::WireStats wire;
  double sim_seconds = 0;

  /// Wire packets per application message delivered group-wide.
  [[nodiscard]] double packets_per_msg() const {
    return sent == 0 ? 0.0 : double(wire.packets_sent) / double(sent);
  }
  /// Wire packets per simulated second.
  [[nodiscard]] double packets_per_s() const {
    return sim_seconds == 0 ? 0.0 : double(wire.packets_sent) / sim_seconds;
  }
  /// Fraction of expected (message, receiver) deliveries that arrived.
  [[nodiscard]] double delivery_ratio(std::size_t receivers) const {
    return sent == 0 ? 1.0 : double(delivered_total) / double(sent * receivers);
  }
};

// ---------------------------------------------------------------------------
// FTMP fleet
// ---------------------------------------------------------------------------

inline constexpr FtDomainId kBenchDomain{1};
inline constexpr McastAddress kBenchDomainAddr{100};
inline constexpr ProcessorGroupId kBenchGroup{1};
inline constexpr McastAddress kBenchGroupAddr{200};

inline ConnectionId bench_conn() {
  return ConnectionId{FtDomainId{1}, ObjectGroupId{1}, FtDomainId{1}, ObjectGroupId{2}};
}

struct FtmpFleet {
  ftmp::SimHarness h;
  std::vector<ProcessorId> members;
  std::uint64_t next_req = 0;

  FtmpFleet(int n, const ftmp::Config& cfg, net::LinkModel link, std::uint64_t seed)
      : h(link, seed) {
    for (int i = 1; i <= n; ++i) members.push_back(ProcessorId{std::uint32_t(i)});
    for (ProcessorId p : members) h.add_processor(p, kBenchDomain, kBenchDomainAddr, cfg);
    for (ProcessorId p : members) {
      h.stack(p).create_group(h.now(), kBenchGroup, kBenchGroupAddr, members);
    }
    // Warm up: bounds/heartbeats settle, then measurement starts clean.
    h.run_for(100 * kMillisecond);
    h.clear_events();
    h.network().reset_stats();
  }

  void send_from(ProcessorId p, std::size_t payload_size) {
    h.stack(p).group(kBenchGroup)->send_regular(
        h.now(), bench_conn(), ++next_req, stamp_payload(h.now(), payload_size));
  }
};

/// Poisson traffic: each member sends at `rate_per_member` msgs/s for
/// `duration` of simulated time; afterwards the run drains for `drain`.
inline WorkloadResult run_ftmp(int n, const ftmp::Config& cfg, net::LinkModel link,
                               std::uint64_t seed, double rate_per_member,
                               Duration duration, std::size_t payload_size,
                               Duration drain = 2 * kSecond) {
  FtmpFleet fleet(n, cfg, link, seed);
  Rng rng(seed * 1337 + 17);
  const TimePoint start = fleet.h.now();
  const TimePoint end = start + duration;

  std::vector<std::pair<TimePoint, ProcessorId>> schedule;
  for (ProcessorId p : fleet.members) {
    TimePoint t = start;
    for (;;) {
      t += Duration(rng.next_exponential(double(kSecond) / rate_per_member));
      if (t >= end) break;
      schedule.emplace_back(t, p);
    }
  }
  std::sort(schedule.begin(), schedule.end());

  WorkloadResult result;
  for (const auto& [at, sender] : schedule) {
    fleet.h.run_until(at);
    fleet.send_from(sender, payload_size);
    result.sent += 1;
  }
  fleet.h.run_until(end + drain);

  for (ProcessorId p : fleet.members) {
    for (const ftmp::DeliveredMessage& m : fleet.h.delivered(p, kBenchGroup)) {
      result.delivered_total += 1;
      result.latency_ms.add(to_ms(m.delivered_at - stamped_time(m.giop_message)));
    }
  }
  result.wire = fleet.h.network().stats();
  result.sim_seconds = double(end + drain - start) / double(kSecond);
  return result;
}

// ---------------------------------------------------------------------------
// Baseline fleets (§8 comparators)
// ---------------------------------------------------------------------------

enum class Protocol { kFtmp, kFtmpPaper, kLlft, kSequencer, kTokenRing };

inline const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::kFtmp: return "FTMP";
    case Protocol::kFtmpPaper: return "FTMP-paper";
    case Protocol::kLlft: return "FTMP-LLFT";
    case Protocol::kSequencer: return "sequencer";
    case Protocol::kTokenRing: return "token-ring";
  }
  return "?";
}

inline WorkloadResult run_baseline(Protocol kind, int n, net::LinkModel link,
                                   std::uint64_t seed, double rate_per_member,
                                   Duration duration, std::size_t payload_size,
                                   Duration drain = 2 * kSecond) {
  baseline::BaselineHarness h(link, seed);
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

  Rng rng(seed * 1337 + 17);
  const TimePoint start = h.now();
  const TimePoint end = start + duration;
  std::vector<std::pair<TimePoint, ProcessorId>> schedule;
  for (ProcessorId p : members) {
    TimePoint t = start;
    for (;;) {
      t += Duration(rng.next_exponential(double(kSecond) / rate_per_member));
      if (t >= end) break;
      schedule.emplace_back(t, p);
    }
  }
  std::sort(schedule.begin(), schedule.end());

  WorkloadResult result;
  for (const auto& [at, sender] : schedule) {
    h.run_until(at);
    h.broadcast(sender, stamp_payload(h.now(), payload_size));
    result.sent += 1;
  }
  h.run_until(end + drain);

  for (ProcessorId p : members) {
    for (const baseline::TimedDelivery& d : h.delivered(p)) {
      result.delivered_total += 1;
      result.latency_ms.add(to_ms(d.at - stamped_time(d.delivery.payload)));
    }
  }
  result.wire = h.network().stats();
  result.sim_seconds = double(end + drain - start) / double(kSecond);
  return result;
}

inline WorkloadResult run_protocol(Protocol kind, int n, const ftmp::Config& cfg,
                                   net::LinkModel link, std::uint64_t seed,
                                   double rate_per_member, Duration duration,
                                   std::size_t payload_size) {
  if (kind == Protocol::kFtmp) {
    return run_ftmp(n, cfg, link, seed, rate_per_member, duration, payload_size);
  }
  if (kind == Protocol::kFtmpPaper || kind == Protocol::kLlft) {
    // Same stack, same config, another ordering engine (docs/ORDERING.md):
    // the paper's Lamport rule without prompt acks, or leader-granted
    // slots — the comparison isolates the ordering rule.
    ftmp::Config other = cfg;
    other.ordering_mode = kind == Protocol::kLlft ? ftmp::OrderingMode::kLlft
                                                  : ftmp::OrderingMode::kLamportPaper;
    return run_ftmp(n, other, link, seed, rate_per_member, duration, payload_size);
  }
  return run_baseline(kind, n, link, seed, rate_per_member, duration, payload_size);
}

// ---------------------------------------------------------------------------
// Output helpers
// ---------------------------------------------------------------------------

inline void banner(const std::string& experiment, const std::string& what) {
  std::printf("\n=====================================================================\n");
  std::printf("%s — %s\n", experiment.c_str(), what.c_str());
  std::printf("=====================================================================\n");
}

// ---------------------------------------------------------------------------
// Observability hook (docs/METRICS.md): benches zero the process-global
// registry (metrics::reset_all) before an instrumented run and dump a
// snapshot after, so the printed metrics cover exactly one scenario.
// ---------------------------------------------------------------------------

/// Prints the Prometheus-text metrics snapshot under a labeled divider.
/// No-op (empty dump) when the tree is built with FTMP_METRICS=OFF.
inline void print_metrics(const std::string& label) {
  const std::string dump = metrics::render_prometheus();
  if (dump.empty()) return;
  std::printf("\n--- metrics snapshot: %s ---\n", label.c_str());
  std::fputs(dump.c_str(), stdout);
  std::printf("--- end metrics snapshot ---\n");
}

}  // namespace ftcorba::bench
