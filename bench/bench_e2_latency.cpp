// E2 — ordered-delivery latency vs group size: FTMP's symmetric
// timestamp ordering (with prompt acks, and as the paper states it) and the
// LLFT leader-granted engine (docs/ORDERING.md) against the §8 baselines
// (fixed sequencer, token ring) on an identical simulated LAN at moderate
// load.
//
// Expected shape: the sequencer has the lowest small-group latency (one
// extra hop to order); LLFT tracks it (grant = one leader hop) and beats
// Lamport FTMP, whose delivery waits for every member's ack — within the
// ack delay with prompt acks (FTMP), at the heartbeat cadence without
// (FTMP-paper), which costs fewer packets; token-ring latency grows with
// ring size because a sender waits for the token.
#include <cstdio>
#include <cstring>
#include <vector>

#include "support.hpp"

using namespace ftcorba;
using namespace ftcorba::bench;

namespace {

struct LatencyRow {
  int n = 0;
  Protocol proto = Protocol::kFtmp;
  WorkloadResult result;
};

// Machine-readable ordering comparison: per (group size, protocol) latency
// distribution + wire cost.
void write_json(const char* path, const std::vector<LatencyRow>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "e2: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"experiment\": \"e2_ordering_latency\",\n  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const LatencyRow& r = rows[i];
    std::fprintf(f,
                 "    {\"n\": %d, \"protocol\": \"%s\", \"mean_ms\": %.3f, "
                 "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"packets_per_msg\": %.2f, "
                 "\"delivery_ratio\": %.4f}%s\n",
                 r.n, to_string(r.proto), r.result.latency_ms.mean(),
                 r.result.latency_ms.median(), r.result.latency_ms.percentile(99),
                 r.result.packets_per_msg(),
                 r.result.delivery_ratio(std::size_t(r.n)),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", path, rows.size());
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = "BENCH_ordering.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }
  banner("E2", "totally-ordered delivery latency vs group size (simulated ms)");

  net::LinkModel lan;  // defaults: 100us delay, 20us jitter, no loss
  ftmp::Config cfg;
  cfg.heartbeat_interval = 5 * kMillisecond;

  const double rate = 50.0;  // msgs/s per member
  const Duration duration = 4 * kSecond;

  std::vector<LatencyRow> rows;
  std::printf("%4s | %-10s | %9s | %9s | %9s | %11s\n", "n", "protocol",
              "mean ms", "p50 ms", "p99 ms", "packets/msg");
  std::printf("-----+------------+-----------+-----------+-----------+------------\n");
  for (int n : {2, 4, 6, 8, 12, 16}) {
    for (Protocol proto : {Protocol::kFtmp, Protocol::kFtmpPaper, Protocol::kLlft,
                           Protocol::kSequencer, Protocol::kTokenRing}) {
      const WorkloadResult r =
          run_protocol(proto, n, cfg, lan, /*seed=*/100 + n, rate, duration, 64);
      std::printf("%4d | %-10s | %9.3f | %9.3f | %9.3f | %11.1f%s\n", n,
                  to_string(proto), r.latency_ms.mean(), r.latency_ms.median(),
                  r.latency_ms.percentile(99), r.packets_per_msg(),
                  r.delivery_ratio(std::size_t(n)) < 0.999 ? "  [INCOMPLETE]" : "");
      rows.push_back({n, proto, r});
    }
    std::printf("-----+------------+-----------+-----------+-----------+------------\n");
  }
  std::printf("load: %.0f msgs/s/member, 64 B payloads, LAN 100us delay.\n", rate);
  write_json(json_path, rows);
  return 0;
}
