// E4 — NACK-based loss recovery (§5): delivery latency and retransmission
// traffic as the packet-loss rate rises, plus the D4 ablation: "The
// missing message can be retransmitted by any processor that has the
// message" (any-holder) versus source-only retransmission.
//
// Expected shape: latency stays bounded (one NACK round trip per loss
// episode) with retransmission traffic roughly proportional to the loss
// rate; any-holder retransmission recovers no worse (and helps most when
// the source itself is behind a lossy link).
#include <cstdio>

#include "support.hpp"

using namespace ftcorba;
using namespace ftcorba::bench;

namespace {

struct RmpTotals {
  std::uint64_t nacks = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t duplicates = 0;
};

RmpTotals collect(ftmp::SimHarness& h, const std::vector<ProcessorId>& members) {
  RmpTotals t;
  for (ProcessorId p : members) {
    const auto& stats = h.stack(p).group(kBenchGroup)->rmp().stats();
    t.nacks += stats.nacks_sent.value();
    t.retransmissions += stats.retransmissions_sent.value();
    t.duplicates += stats.duplicates_ignored.value();
  }
  return t;
}

void run_row(double loss, bool any_holder) {
  net::LinkModel link;
  link.loss = loss;
  link.jitter = 200 * kMicrosecond;
  ftmp::Config cfg;
  cfg.heartbeat_interval = 5 * kMillisecond;
  cfg.any_holder_retransmit = any_holder;
  cfg.fault_timeout = 2 * kSecond;  // don't convict over pure packet loss

  const int n = 4;
  const double rate = 40.0;
  const Duration duration = 4 * kSecond;

  FtmpFleet fleet(n, cfg, link, /*seed=*/std::uint64_t(900 + loss * 1000));
  Rng rng(7);
  const TimePoint start = fleet.h.now();
  std::uint64_t sent = 0;
  std::vector<std::pair<TimePoint, ProcessorId>> schedule;
  for (ProcessorId p : fleet.members) {
    TimePoint t = start;
    for (;;) {
      t += Duration(rng.next_exponential(double(kSecond) / rate));
      if (t >= start + duration) break;
      schedule.emplace_back(t, p);
    }
  }
  std::sort(schedule.begin(), schedule.end());
  for (const auto& [at, sender] : schedule) {
    fleet.h.run_until(at);
    fleet.send_from(sender, 64);
    ++sent;
  }
  fleet.h.run_for(3 * kSecond);

  Samples latency;
  std::uint64_t delivered = 0;
  for (ProcessorId p : fleet.members) {
    for (const ftmp::DeliveredMessage& m : fleet.h.delivered(p, kBenchGroup)) {
      ++delivered;
      latency.add(to_ms(m.delivered_at - stamped_time(m.giop_message)));
    }
  }
  const RmpTotals totals = collect(fleet.h, fleet.members);
  std::printf("%6.0f%% | %-11s | %9.3f | %9.3f | %9.3f | %7llu | %8llu | %9s\n",
              loss * 100, any_holder ? "any-holder" : "source-only",
              latency.mean(), latency.median(), latency.percentile(99),
              static_cast<unsigned long long>(totals.nacks),
              static_cast<unsigned long long>(totals.retransmissions),
              delivered == sent * n ? "complete" : "INCOMPLETE");
}

}  // namespace

int main() {
  banner("E4", "loss recovery: latency + retransmission traffic vs loss rate (n=4)");

  std::printf("%7s | %-11s | %9s | %9s | %9s | %7s | %8s | %9s\n", "loss",
              "retransmit", "mean ms", "p50 ms", "p99 ms", "NACKs", "retrans",
              "delivery");
  std::printf("--------+-------------+-----------+-----------+-----------+---------+----------+----------\n");
  for (double loss : {0.0, 0.01, 0.02, 0.05, 0.10, 0.20, 0.30}) {
    run_row(loss, /*any_holder=*/true);
  }
  std::printf("--------+-------------+-----------+-----------+-----------+---------+----------+----------\n");
  std::printf("ablation D4: source-only retransmission at the same loss rates\n");
  for (double loss : {0.05, 0.10, 0.20, 0.30}) {
    run_row(loss, /*any_holder=*/false);
  }

  // Observability snapshot (docs/METRICS.md): one isolated 20%-loss run with
  // the registry zeroed first, so every counter below belongs to this run.
  banner("E4-metrics", "registry snapshot for one any-holder run at 20% loss");
  metrics::reset_all();
  std::printf("%7s | %-11s | %9s | %9s | %9s | %7s | %8s | %9s\n", "loss",
              "retransmit", "mean ms", "p50 ms", "p99 ms", "NACKs", "retrans",
              "delivery");
  run_row(0.20, /*any_holder=*/true);
  print_metrics("bench_e4_loss loss=20% any-holder n=4");
  return 0;
}
