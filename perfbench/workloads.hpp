// workloads.hpp — the three benchmark workloads (NOTES.md says why each
// exists) and the report each one produces.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Params {
  std::string workload;       ///< flood_lamport | paced_llft | invoke_orb
  std::uint64_t seed = 1;     ///< drives every generated input
  double seconds = 20;        ///< measured wall time of one run
  bool trace = false;         ///< the per-layer (traced) run
  bool corrupt_log = false;   ///< self-test: swap two delivery-log entries
  std::string spans_path;     ///< traced run: where the spans CSV goes
  std::uint16_t port = 0;     ///< UDP port of this run
  std::uint32_t addr_base = 0;  ///< first multicast address of this run
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::int64_t samples = -1;  ///< sample count behind a distribution; -1 = n/a
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;  ///< free-form facts
};

[[nodiscard]] bool known_workload(const std::string& name);

/// Runs one workload in this process and returns its report. Throws
/// net::TransportError if the sockets cannot be opened.
[[nodiscard]] Report run_workload(const Params& params);

}  // namespace perfbench
