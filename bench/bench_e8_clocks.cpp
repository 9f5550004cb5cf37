// E8 — timestamp source (§6): "Better performance can be achieved through
// the use of clock synchronization software, or synchronized physical
// clocks (e.g., using GPS satellite receivers), particularly over
// wide-area networks."
//
// Compares pure Lamport counters against synchronized physical clocks at
// several residual skews, on a LAN and on a WAN-like link, under the
// paper's ordering rule (lamport-paper). With synchronized clocks,
// concurrent messages from different senders carry timestamps close to
// real time, so the (timestamp, source) order matches arrival order and
// fewer messages wait behind logically-earlier ones. A last row per network
// runs Lamport counters under the default rule with prompt acks.
#include <cstdio>

#include "support.hpp"

using namespace ftcorba;
using namespace ftcorba::bench;

namespace {

WorkloadResult run_mode(TimestampSource::Mode mode, Duration skew,
                        ftmp::OrderingMode ordering, net::LinkModel link,
                        std::uint64_t seed) {
  // Members get distinct skews spread over [-skew, +skew], modelling the
  // residual error of a clock-synchronization service.
  const int n = 5;
  ftmp::SimHarness h(link, seed);
  std::vector<ProcessorId> members;
  for (int i = 1; i <= n; ++i) members.push_back(ProcessorId{std::uint32_t(i)});
  for (int i = 0; i < n; ++i) {
    ftmp::Config cfg;
    cfg.heartbeat_interval = 5 * kMillisecond;
    cfg.clock_mode = mode;
    cfg.ordering_mode = ordering;
    cfg.fault_timeout = 2 * kSecond;
    cfg.clock_skew = n == 1 ? 0 : -skew + (2 * skew * i) / (n - 1);
    h.add_processor(members[i], kBenchDomain, kBenchDomainAddr, cfg);
  }
  for (ProcessorId p : members) {
    h.stack(p).create_group(h.now(), kBenchGroup, kBenchGroupAddr, members);
  }
  h.run_for(100 * kMillisecond);
  h.clear_events();
  h.network().reset_stats();

  Rng rng(seed * 1337 + 17);
  const double rate = 40.0;
  const Duration duration = 4 * kSecond;
  const TimePoint start = h.now();
  std::vector<std::pair<TimePoint, ProcessorId>> schedule;
  for (ProcessorId p : members) {
    TimePoint t = start;
    for (;;) {
      t += Duration(rng.next_exponential(double(kSecond) / rate));
      if (t >= start + duration) break;
      schedule.emplace_back(t, p);
    }
  }
  std::sort(schedule.begin(), schedule.end());

  WorkloadResult result;
  std::uint64_t req = 0;
  for (const auto& [at, sender] : schedule) {
    h.run_until(at);
    h.stack(sender).group(kBenchGroup)->send_regular(h.now(), bench_conn(), ++req,
                                                     stamp_payload(h.now(), 64));
    result.sent += 1;
  }
  h.run_until(start + duration + 2 * kSecond);
  for (ProcessorId p : members) {
    for (const ftmp::DeliveredMessage& m : h.delivered(p, kBenchGroup)) {
      result.delivered_total += 1;
      result.latency_ms.add(to_ms(m.delivered_at - stamped_time(m.giop_message)));
    }
  }
  result.wire = h.network().stats();
  return result;
}

}  // namespace

int main() {
  banner("E8", "Lamport vs synchronized-clock timestamps (n=5)");

  std::printf("%-8s | %-22s | %9s | %9s | %9s\n", "network", "clock mode", "mean ms",
              "p50 ms", "p99 ms");
  std::printf("---------+------------------------+-----------+-----------+-----------\n");

  net::LinkModel lan;  // 100us
  net::LinkModel wan;
  wan.delay = 20 * kMillisecond;
  wan.jitter = 5 * kMillisecond;

  struct Mode {
    const char* label;
    TimestampSource::Mode mode;
    Duration skew;
    ftmp::OrderingMode ordering = ftmp::OrderingMode::kLamportPaper;
  };
  const Mode modes[] = {
      {"Lamport", TimestampSource::Mode::kLamport, 0},
      {"synced (skew 0)", TimestampSource::Mode::kSynchronized, 0},
      {"synced (skew 100us)", TimestampSource::Mode::kSynchronized, 100 * kMicrosecond},
      {"synced (skew 5ms)", TimestampSource::Mode::kSynchronized, 5 * kMillisecond},
      {"Lamport, prompt acks", TimestampSource::Mode::kLamport, 0,
       ftmp::OrderingMode::kLamport},
  };

  for (const auto& [label, link] : {std::pair{"LAN", lan}, std::pair{"WAN", wan}}) {
    for (const Mode& m : modes) {
      const WorkloadResult r = run_mode(m.mode, m.skew, m.ordering, link, /*seed=*/77);
      std::printf("%-8s | %-22s | %9.3f | %9.3f | %9.3f%s\n", label, m.label,
                  r.latency_ms.mean(), r.latency_ms.median(),
                  r.latency_ms.percentile(99),
                  r.delivery_ratio(5) < 0.999 ? "  [INCOMPLETE]" : "");
    }
    std::printf("---------+------------------------+-----------+-----------+-----------\n");
  }
  std::printf("skew models residual NTP/GPS error (each member shifted by up to the\n"
              "stated amount). 40 msgs/s/member, 64 B. Every row but the last runs\n"
              "the paper's rule (lamport-paper); the last runs the default lamport\n"
              "mode (prompt acks, docs/ORDERING.md).\n");
  return 0;
}
