// Soak run — not a figure from the paper, but the long-haul validation a
// production release needs: minutes of simulated time with Poisson
// traffic, packet loss, duplication, joins, planned leaves, crashes and an
// address rebind, with the safety invariants re-checked at the end and a
// resource summary printed (buffers, dedup tables, wire totals).
#include <cstdio>
#include <cstring>
#include <set>

#include "support.hpp"

using namespace ftcorba;
using namespace ftcorba::bench;

namespace {

/// Per-seed outcome, also emitted to the --json summary. Every field is a
/// pure function of the seed, so a red row reproduces with
/// `bench_soak --seed N`.
struct SoakResult {
  std::uint64_t seed = 0;
  ftmp::OrderingMode ordering = ftmp::OrderingMode::kLamport;
  bool ok = false;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t churn_events = 0;
  std::uint64_t crashes = 0;
  std::uint64_t rebinds = 0;
  std::uint64_t wire_packets = 0;
};

/// One full soak run; result.ok is true when every invariant held.
SoakResult run_soak(std::uint64_t seed, ftmp::OrderingMode ordering) {
  std::printf("\n--- soak seed %llu (ordering %s) ---\n",
              (unsigned long long)seed, ftmp::to_string(ordering));
  net::LinkModel link;
  link.loss = 0.05;
  link.duplicate = 0.02;
  link.jitter = 500 * kMicrosecond;
  ftmp::SimHarness h(link, seed);
  Rng rng(98765 ^ seed);

  ftmp::Config cfg;
  cfg.heartbeat_interval = 5 * kMillisecond;
  cfg.fault_timeout = 150 * kMillisecond;
  // Soak the flow subsystem too: a roomy window (rarely binding at this
  // rate, but exercised across churn/rebind) and warn-only lag tracking.
  cfg.flow_window_messages = 64;
  cfg.flow_lag_warn = 50;
  cfg.ordering_mode = ordering;

  // P1..P4 founders (P1, P2 permanent); P5..P8 churn pool.
  std::vector<ProcessorId> founders;
  for (std::uint32_t i = 1; i <= 4; ++i) founders.push_back(ProcessorId{i});
  std::vector<ProcessorId> pool;
  for (std::uint32_t i = 5; i <= 8; ++i) pool.push_back(ProcessorId{i});
  for (ProcessorId p : founders) h.add_processor(p, kBenchDomain, kBenchDomainAddr, cfg);
  for (ProcessorId p : pool) h.add_processor(p, kBenchDomain, kBenchDomainAddr, cfg);
  for (ProcessorId p : founders) {
    h.stack(p).create_group(h.now(), kBenchGroup, kBenchGroupAddr, founders);
  }
  std::set<ProcessorId> in_group(founders.begin(), founders.end());
  std::set<ProcessorId> alive(founders.begin(), founders.end());
  for (ProcessorId p : pool) alive.insert(p);
  McastAddress current_addr = kBenchGroupAddr;

  const Duration kRun = 120 * kSecond;
  const TimePoint end = h.now() + kRun;
  std::uint64_t sent = 0, churn_events = 0, crashes = 0, rebinds = 0;
  std::uint32_t next_addr = 300;
  bool stable_rejoined = false;

  // The smallest live member with an active session acts as the
  // infrastructure's sponsor for membership operations.
  auto sponsor = [&]() -> std::optional<ProcessorId> {
    for (ProcessorId p : in_group) {
      if (!alive.contains(p)) continue;
      auto* g = h.stack(p).group(kBenchGroup);
      if (g && g->active()) return p;
    }
    return std::nullopt;
  };

  while (h.now() < end) {
    // Poisson-ish traffic from random live members.
    for (int i = 0; i < 4; ++i) {
      std::vector<ProcessorId> members(in_group.begin(), in_group.end());
      if (members.empty()) break;
      const ProcessorId sender = members[rng.next_below(members.size())];
      if (!alive.contains(sender)) continue;
      auto* g = h.stack(sender).group(kBenchGroup);
      if (g && g->active() &&
          g->send_regular(h.now(), bench_conn(), sent + 1,
                          stamp_payload(h.now(), 64 + rng.next_below(400)))) {
        ++sent;
      }
      h.run_for(rng.next_below(5) * kMillisecond);
    }

    // The FT infrastructure's contract (DESIGN.md §6): membership
    // operations are serialized behind group-wide quiescence — no join,
    // leave or rebind is initiated while any live member still disagrees
    // on the membership (e.g. is mid-recovery).
    auto quiescent = [&] {
      const auto boss = sponsor();
      if (!boss) return false;
      const auto want = h.stack(*boss).group(kBenchGroup)->membership().members;
      for (ProcessorId p : in_group) {
        if (!alive.contains(p)) continue;
        auto* g = h.stack(p).group(kBenchGroup);
        if (!g || !g->active() || g->membership().members != want) return false;
      }
      return true;
    };

    // Heal stranded members: a live member whose session self-evicted
    // (stranding detection) is dropped and rejoined by the infrastructure.
    for (ProcessorId p : std::set<ProcessorId>(in_group)) {
      if (!alive.contains(p)) continue;
      auto* g = h.stack(p).group(kBenchGroup);
      if (g && !g->active()) {
        in_group.erase(p);
        if (p == ProcessorId{1} || p == ProcessorId{2}) stable_rejoined = true;
        h.stack(p).drop_group(kBenchGroup);
        h.stack(p).expect_join(kBenchGroup, current_addr);
        const auto boss = sponsor();
        if (boss &&
            h.stack(*boss).add_processor(h.now(), kBenchGroup, p) &&
            h.run_until_pred(
                [&] {
                  auto* s = h.stack(p).group(kBenchGroup);
                  return s && s->is_member(p);
                },
                h.now() + 10 * kSecond)) {
          in_group.insert(p);
        }
      }
    }

    const int kind = int(rng.next_below(20));
    if (kind <= 3 && kind != 2 && !h.run_until_pred(quiescent, h.now() + 10 * kSecond)) {
      continue;  // group not settled: postpone the churn event
    }
    if (kind == 0) {  // join
      for (ProcessorId p : pool) {
        if (!in_group.contains(p) && alive.contains(p)) {
          h.stack(p).expect_join(kBenchGroup, current_addr);
          const auto boss = sponsor();
          if (boss && h.stack(*boss).add_processor(h.now(), kBenchGroup, p)) {
            if (h.run_until_pred(
                    [&] {
                      auto* g = h.stack(p).group(kBenchGroup);
                      return g && g->is_member(p);
                    },
                    h.now() + 10 * kSecond)) {
              in_group.insert(p);
              ++churn_events;
            }
          }
          break;
        }
      }
    } else if (kind == 1 && in_group.size() > 3) {  // planned leave
      for (ProcessorId p : pool) {
        if (in_group.contains(p) && alive.contains(p)) {
          const auto boss = sponsor();
          if (boss && h.stack(*boss).remove_processor(h.now(), kBenchGroup, p)) {
            h.run_until_pred(
                [&] {
                  const auto b2 = sponsor();
                  auto* g = b2 ? h.stack(*b2).group(kBenchGroup) : nullptr;
                  return g && !g->is_member(p);
                },
                h.now() + 10 * kSecond);
            in_group.erase(p);
            // Keep the removed member's session as a lame duck until the
            // whole group has ordered the removal (the FT infrastructure
            // defers teardown); drop once quiescent.
            h.run_until_pred(quiescent, h.now() + 10 * kSecond);
            h.stack(p).drop_group(kBenchGroup);
            ++churn_events;
          }
          break;
        }
      }
    } else if (kind == 2 && crashes < 3 && in_group.size() > 3) {  // crash
      for (ProcessorId p : pool) {
        if (in_group.contains(p) && alive.contains(p)) {
          h.crash(p);
          alive.erase(p);
          h.run_until_pred(
              [&] {
                const auto boss = sponsor();
                auto* g = boss ? h.stack(*boss).group(kBenchGroup) : nullptr;
                return g && !g->is_member(p);
              },
              h.now() + 20 * kSecond);
          in_group.erase(p);
          ++crashes;
          ++churn_events;
          break;
        }
      }
    } else if (kind == 3 && rebinds < 2) {  // address rebind
      const auto boss = sponsor();
      if (boss && h.stack(*boss).rebind_group(h.now(), kBenchGroup,
                                              McastAddress{next_addr})) {
        current_addr = McastAddress{next_addr++};
        ++rebinds;
        ++churn_events;
      }
    }
  }
  h.run_for(5 * kSecond);  // quiesce

  // ---- invariant checks ----
  std::vector<ProcessorId> stable{ProcessorId{1}, ProcessorId{2}};
  const auto reference = h.delivered(stable[0], kBenchGroup);
  bool ok = true;
  if (!stable_rejoined) {
    // Both permanent members stayed in continuously: their transcripts
    // must be identical.
    for (ProcessorId p : stable) {
      const auto msgs = h.delivered(p, kBenchGroup);
      if (msgs.size() != reference.size()) {
        ok = false;
        std::printf("  !! seed %llu: transcript length at %s: %zu vs %zu\n",
                    (unsigned long long)seed, to_string(p).c_str(),
                    msgs.size(), reference.size());
      }
      for (std::size_t i = 0; i < msgs.size() && i < reference.size(); ++i) {
        if (msgs[i].giop_message != reference[i].giop_message) {
          ok = false;
          std::printf("  !! seed %llu: transcript divergence at %s index %zu\n",
                      (unsigned long long)seed, to_string(p).c_str(), i);
          break;
        }
      }
    }
  } else {
    // A permanent member had to rejoin: the weaker invariant is that each
    // transcript is an ordered subsequence of the other.
    std::printf("  (a permanent member rejoined; checking subsequence consistency)\n");
    const auto a = h.delivered(stable[0], kBenchGroup);
    const auto b = h.delivered(stable[1], kBenchGroup);
    std::size_t cursor = 0;
    const auto& longer = a.size() >= b.size() ? a : b;
    const auto& shorter = a.size() >= b.size() ? b : a;
    for (const auto& m : shorter) {
      while (cursor < longer.size() && longer[cursor].giop_message != m.giop_message) {
        ++cursor;
      }
      if (cursor == longer.size()) {
        ok = false;
        std::printf("  !! seed %llu: transcripts are not subsequence-consistent\n",
                    (unsigned long long)seed);
        break;
      }
      ++cursor;
    }
  }
  const auto boss_final = sponsor();
  const auto final_members =
      boss_final
          ? h.stack(*boss_final).group(kBenchGroup)->membership().members
          : std::vector<ProcessorId>{};
  for (ProcessorId p : in_group) {
    if (!alive.contains(p)) continue;
    if (h.stack(p).group(kBenchGroup)->membership().members != final_members) {
      ok = false;
      std::printf("  !! seed %llu: membership divergence at %s (%zu vs %zu members)\n",
                  (unsigned long long)seed, to_string(p).c_str(),
                  h.stack(p).group(kBenchGroup)->membership().members.size(),
                  final_members.size());
    }
  }

  const auto& wire = h.network().stats();
  const auto* g1 = h.stack(ProcessorId{1}).group(kBenchGroup);
  std::printf("simulated time     : %.0f s\n", double(kRun) / kSecond);
  std::printf("messages sent      : %llu\n", (unsigned long long)sent);
  std::printf("delivered (stable) : %zu (%.2f%% of sent; drops only from removed senders)\n",
              reference.size(), 100.0 * double(reference.size()) / double(sent));
  std::printf("churn events       : %llu (%llu crashes, %llu rebinds)\n",
              (unsigned long long)churn_events, (unsigned long long)crashes,
              (unsigned long long)rebinds);
  std::printf("final membership   : %zu members\n", final_members.size());
  std::printf("wire packets       : %llu (%.1f per message)\n",
              (unsigned long long)wire.packets_sent,
              double(wire.packets_sent) / double(sent ? sent : 1));
  if (g1) {
    std::printf("P1 buffers         : rmp store %.1f KiB, reassembler in-flight %zu\n",
                g1->rmp().stored_bytes() / 1024.0, g1->reassembler().in_flight());
    const ftmp::FlowStats& flow = g1->flow().stats();
    std::printf("P1 flow            : in-flight %zu msgs, queue %zu (hw %zu), "
                "stalls %llu, drops %llu, lag warns %llu\n",
                g1->flow().in_flight_messages(), g1->flow().queue_depth(),
                flow.queue_highwater, (unsigned long long)flow.pacing_stalls,
                (unsigned long long)flow.queue_drops,
                (unsigned long long)flow.lag_warnings);
  }
  std::printf("invariants         : %s\n", ok ? "HOLD" : "VIOLATED");
  if (!ok) {
    std::printf("  reproduce: bench_soak --seed %llu --ordering %s\n",
                (unsigned long long)seed, ftmp::to_string(ordering));
  }
  SoakResult result;
  result.seed = seed;
  result.ordering = ordering;
  result.ok = ok;
  result.sent = sent;
  result.delivered = reference.size();
  result.churn_events = churn_events;
  result.crashes = crashes;
  result.rebinds = rebinds;
  result.wire_packets = wire.packets_sent;
  return result;
}

void write_json(const char* path, const std::vector<SoakResult>& results) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "soak: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"experiment\": \"soak\",\n  \"runs\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SoakResult& r = results[i];
    std::fprintf(f,
                 "    {\"seed\": %llu, \"ordering\": \"%s\", \"ok\": %s, \"sent\": %llu, "
                 "\"delivered\": %llu, \"churn_events\": %llu, \"crashes\": %llu, "
                 "\"rebinds\": %llu, \"wire_packets\": %llu}%s\n",
                 (unsigned long long)r.seed, ftmp::to_string(r.ordering),
                 r.ok ? "true" : "false",
                 (unsigned long long)r.sent, (unsigned long long)r.delivered,
                 (unsigned long long)r.churn_events, (unsigned long long)r.crashes,
                 (unsigned long long)r.rebinds, (unsigned long long)r.wire_packets,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu seeds)\n", path, results.size());
}

}  // namespace

int main(int argc, char** argv) {
  banner("SOAK", "2 simulated minutes each of traffic + churn + loss; invariants re-checked");
  // Seeds come from repeatable --seed flags (bare numbers also accepted for
  // backward compatibility); every failure line and the --json summary carry
  // the seed so one `bench_soak --seed N` reproduces a red run exactly.
  std::vector<std::uint64_t> seeds;
  const char* json_path = nullptr;
  ftmp::OrderingMode ordering = ftmp::OrderingMode::kLamport;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seeds.push_back(std::stoull(argv[++i]));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--ordering") == 0 && i + 1 < argc) {
      if (!ftmp::parse_ordering_mode(argv[++i], ordering)) {
        std::fprintf(stderr, "bench_soak: unknown ordering mode '%s'\n", argv[i]);
        return 2;
      }
    } else if (argv[i][0] != '-') {
      seeds.push_back(std::stoull(argv[i]));
    } else {
      std::fprintf(stderr,
                   "usage: bench_soak [--seed N]... [--ordering lamport|lamport-paper|llft] "
                   "[--json FILE] [N...]\n");
      return 2;
    }
  }
  if (seeds.empty()) seeds = {123457, 7777, 424242};
  bool all_ok = true;
  std::vector<SoakResult> results;
  reset_metrics();
  for (std::uint64_t seed : seeds) {
    results.push_back(run_soak(seed, ordering));
    all_ok = results.back().ok && all_ok;
  }
  std::printf("\nsoak verdict: %s (%zu seeds)\n", all_ok ? "ALL HOLD" : "VIOLATIONS",
              seeds.size());
  for (const SoakResult& r : results) {
    if (!r.ok) {
      std::printf("  red seed %llu — reproduce: bench_soak --seed %llu --ordering %s\n",
                  (unsigned long long)r.seed, (unsigned long long)r.seed,
                  ftmp::to_string(r.ordering));
    }
  }
  if (json_path != nullptr) write_json(json_path, results);
  // Aggregate observability across all seeds (empty under FTMP_METRICS=OFF).
  print_metrics("soak aggregate, all seeds");
  return all_ok ? 0 : 1;
}
