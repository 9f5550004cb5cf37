// ftmp_perfbench — runs one benchmark workload in this process over
// loopback UDP multicast and prints its report as one JSON line on stdout.
// run.py builds this binary, runs one process per workload, and checks and
// prints the results (NOTES.md).
//
//   ftmp_perfbench --workload flood_lamport --seed 1 --seconds 20 --trace 0
//                  [--spans FILE] [--corrupt-log]
//   ftmp_perfbench --gate-self-test
//
// Exit codes: 0 = ran and the correctness gate passed; 1 = the gate failed
// (the report is still printed); 2 = usage; 3 = multicast loopback
// unavailable or a socket error (no report).
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>

#include "common/bytes.hpp"
#include "fleet.hpp"
#include "gate.hpp"
#include "net/udp_multicast.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ftmp_perfbench --workload flood_lamport|paced_llft|invoke_orb "
               "--seed N --seconds S --trace 0|1 [--spans FILE] [--corrupt-log]\n"
               "       ftmp_perfbench --gate-self-test\n");
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Sends one datagram to a fresh group on this run's port and waits for the
/// loopback copy; throws or returns false when multicast loopback does not
/// work on this host.
bool multicast_loopback_works(std::uint16_t port, std::uint32_t addr) {
  net::UdpMulticastTransport t({port, "127.0.0.1", true, 1});
  const McastAddress group{addr};
  t.join(group);
  const Bytes token{'f', 't', 'm', 'p', 'p', 'r', 'o', 'b', 'e'};
  for (int attempt = 0; attempt < 5; ++attempt) {
    t.send(net::Datagram{group, SharedBytes::copy_of(token)});
    for (const net::Datagram& d : t.receive_many(200 * kMillisecond)) {
      if (d.addr == group && Bytes(d.payload.begin(), d.payload.end()) == token) return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Params p;
  bool gate_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--gate-self-test") {
      gate_test = true;
    } else if (a == "--corrupt-log") {
      p.corrupt_log = true;
    } else if (a == "--workload" && (v = next())) {
      p.workload = v;
    } else if (a == "--seed" && (v = next())) {
      p.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = next())) {
      p.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace" && (v = next())) {
      p.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--spans" && (v = next())) {
      p.spans_path = v;
    } else {
      return usage();
    }
  }
  if (gate_test) {
    const bool ok = gate_self_test();
    std::printf("gate self-test: %s\n", ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
  }
  if (!known_workload(p.workload) || !(p.seconds >= 2 && p.seconds <= 120)) return usage();

  // Pin glibc malloc at the thresholds its dynamic rule converges to in a
  // long-running process (the first free of a large mmapped block raises
  // them). Left dynamic, whether and when the harness's own growing sample
  // vectors trigger that rule decides whether the heap shrinks and regrows
  // under the receive path's 64 x 64 KiB buffer churn, which made flood
  // throughput swing between runs (NOTES.md, "Heap").
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 64 * 1024 * 1024);

  // Each run picks its own port and multicast addresses, so concurrent runs
  // and the repository's fixed-port tests never share a socket.
  std::random_device rd;
  p.port = static_cast<std::uint16_t>(34000 + rd() % 25000);
  p.addr_base = 256 + rd() % 60000;

  try {
    if (!multicast_loopback_works(p.port, p.addr_base - 1)) {
      std::fprintf(stderr,
                   "perfbench: multicast loopback unavailable: a datagram sent to "
                   "239.192.x.y on 127.0.0.1 never came back\n");
      return 3;
    }
    const Report r = run_workload(p);
    std::string out = "{\"workload\": \"" + p.workload + "\", \"seed\": " +
                      std::to_string(p.seed) + ", \"trace\": " + (p.trace ? "1" : "0") +
                      ", \"correct\": " + (r.correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(r.attempted) +
                      ", \"failed\": " + std::to_string(r.failed) + ", \"violations\": [";
    for (std::size_t i = 0; i < r.violations.size(); ++i) {
      out += (i ? ", \"" : "\"") + json_escape(r.violations[i]) + "\"";
    }
    out += "], \"notes\": {";
    for (std::size_t i = 0; i < r.notes.size(); ++i) {
      out += (i ? ", \"" : "\"") + json_escape(r.notes[i].first) + "\": \"" +
             json_escape(r.notes[i].second) + "\"";
    }
    out += "}, \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
      const Metric& m = r.metrics[i];
      out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + json_number(m.value) +
             ", \"unit\": \"" + m.unit + "\"";
      if (m.samples >= 0) out += ", \"samples\": " + std::to_string(m.samples);
      out += "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return r.correct ? 0 : 1;
  } catch (const net::TransportError& e) {
    std::fprintf(stderr, "perfbench: multicast loopback unavailable: %s\n", e.what());
    return 3;
  }
}
