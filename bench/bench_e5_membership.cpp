// E5 — membership change cost (§7): simulated time and wire packets for
//   (a) adding a non-faulty processor (AddProcessor, ordered; sponsor
//       retransmits toward the new member),
//   (b) removing a non-faulty processor (RemoveProcessor, ordered), and
//   (c) excluding a crashed processor (fault detection -> Suspect ->
//       conviction -> Membership exchange -> virtually synchronous cut),
// as the group grows.
//
// Expected shape: planned changes cost about one ordered-message latency;
// crash exclusion is dominated by the fault-detection timeout, with the
// protocol exchange itself adding only milliseconds on top. The table runs
// once per Lamport mode: under lamport-paper the members order a change
// and the joiner takes its first bounds at their next heartbeats; the
// default mode acks membership messages at once and greets the joiner.
#include <cstdio>

#include "support.hpp"

using namespace ftcorba;
using namespace ftcorba::bench;

namespace {

ftmp::Config bench_config(ftmp::OrderingMode mode = ftmp::OrderingMode::kLamport) {
  ftmp::Config cfg;
  cfg.ordering_mode = mode;
  cfg.heartbeat_interval = 5 * kMillisecond;
  cfg.fault_timeout = 100 * kMillisecond;
  return cfg;
}

bool everyone_has_membership(ftmp::SimHarness& h, const std::vector<ProcessorId>& members,
                             std::size_t size) {
  for (ProcessorId p : members) {
    auto* g = h.stack(p).group(kBenchGroup);
    if (!g || !g->active() || g->membership().members.size() != size) return false;
  }
  return true;
}

struct Costs {
  double add_ms = 0;
  double remove_ms = 0;
  double crash_ms = 0;
};

// Adds a processor to a group of n, removes it again, then crashes a
// founder and waits for its exclusion.
Costs measure(int n, const ftmp::Config& cfg) {
  Costs c;
  // --- (a) add a new processor ---
  FtmpFleet fleet(n, cfg, {}, /*seed=*/500 + n);
  // Background traffic so the change happens under load.
  for (ProcessorId p : fleet.members) fleet.send_from(p, 64);
  fleet.h.run_for(20 * kMillisecond);

  const ProcessorId newbie{std::uint32_t(n + 1)};
  fleet.h.add_processor(newbie, kBenchDomain, kBenchDomainAddr, cfg);
  fleet.h.stack(newbie).expect_join(kBenchGroup, kBenchGroupAddr);
  const TimePoint add_start = fleet.h.now();
  fleet.h.stack(fleet.members[0]).add_processor(add_start, kBenchGroup, newbie);
  std::vector<ProcessorId> grown = fleet.members;
  grown.push_back(newbie);
  fleet.h.run_until_pred(
      [&] { return everyone_has_membership(fleet.h, grown, std::size_t(n + 1)); },
      add_start + 10 * kSecond);
  c.add_ms = to_ms(fleet.h.now() - add_start);

  // --- (b) planned removal of the same processor ---
  fleet.h.run_for(100 * kMillisecond);
  const TimePoint remove_start = fleet.h.now();
  fleet.h.stack(fleet.members[0]).remove_processor(remove_start, kBenchGroup, newbie);
  fleet.h.run_until_pred(
      [&] { return everyone_has_membership(fleet.h, fleet.members, std::size_t(n)); },
      remove_start + 10 * kSecond);
  c.remove_ms = to_ms(fleet.h.now() - remove_start);

  // --- (c) crash exclusion ---
  fleet.h.run_for(100 * kMillisecond);
  const ProcessorId victim = fleet.members.back();
  std::vector<ProcessorId> survivors(fleet.members.begin(), fleet.members.end() - 1);
  const TimePoint crash_at = fleet.h.now();
  fleet.h.crash(victim);
  fleet.h.run_until_pred(
      [&] { return everyone_has_membership(fleet.h, survivors, std::size_t(n - 1)); },
      crash_at + 30 * kSecond);
  c.crash_ms = to_ms(fleet.h.now() - crash_at);
  return c;
}

}  // namespace

int main() {
  banner("E5", "membership change cost vs group size (times in simulated ms)");

  for (ftmp::OrderingMode mode :
       {ftmp::OrderingMode::kLamportPaper, ftmp::OrderingMode::kLamport}) {
    std::printf("\nordering mode %s:\n", ftmp::to_string(mode));
    std::printf("%4s | %10s | %10s | %13s | %16s\n", "n", "add ms", "remove ms",
                "crash excl ms", "excl - timeout");
    std::printf("-----+------------+------------+---------------+----------------\n");
    for (int n : {3, 4, 5, 6, 8, 10}) {
      const ftmp::Config cfg = bench_config(mode);
      const Costs c = measure(n, cfg);
      std::printf("%4d | %10.1f | %10.1f | %13.1f | %16.1f\n", n, c.add_ms, c.remove_ms,
                  c.crash_ms, c.crash_ms - to_ms(cfg.fault_timeout));
    }
  }
  std::printf("fault timeout: 100 ms, heartbeats every 5 ms. \"excl - timeout\" is the\n"
              "protocol's own cost beyond detection (Suspect + Membership + cut).\n");

  // Observability snapshot (docs/METRICS.md): one isolated crash-exclusion
  // run (n=5) with the registry zeroed first, so the PGMP suspicion /
  // conviction / install-duration metrics below belong to this run alone.
  banner("E5-metrics", "registry snapshot for one crash exclusion (n=5)");
  {
    const int n = 5;
    const ftmp::Config cfg = bench_config();
    FtmpFleet fleet(n, cfg, {}, /*seed=*/777);
    metrics::reset_all();
    for (ProcessorId p : fleet.members) fleet.send_from(p, 64);
    fleet.h.run_for(20 * kMillisecond);
    const ProcessorId victim = fleet.members.back();
    std::vector<ProcessorId> survivors(fleet.members.begin(), fleet.members.end() - 1);
    const TimePoint crash_at = fleet.h.now();
    fleet.h.crash(victim);
    fleet.h.run_until_pred(
        [&] { return everyone_has_membership(fleet.h, survivors, std::size_t(n - 1)); },
        crash_at + 30 * kSecond);
    std::printf("crash exclusion completed in %.1f simulated ms\n",
                to_ms(fleet.h.now() - crash_at));
    print_metrics("bench_e5_membership crash exclusion n=5");
  }
  return 0;
}
