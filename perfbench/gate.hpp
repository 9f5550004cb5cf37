// gate.hpp — the total-order half of the correctness gate every workload
// runs (the workloads add their own checks on top).
//
// Deliveries are checked as they happen, in constant memory: the first
// member to deliver the next operation fixes the reference order, and every
// member incarnation must deliver exactly that order from the point it
// joined, without gaps, repeats or swaps, and reach the same end. So every
// live member's delivery sequence is a suffix of one total order, and all
// live members' sequences agree from where each began. Only the stretch of
// the order between the slowest and the fastest live member is held.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Operation key: source processor and a per-source request number that
/// stays unique across the source's incarnations.
[[nodiscard]] constexpr std::uint64_t op_key(std::uint32_t source, std::uint64_t req) {
  return (static_cast<std::uint64_t>(source) << 40) | (req & ((1ULL << 40) - 1));
}
[[nodiscard]] constexpr std::uint32_t key_source(std::uint64_t key) {
  return static_cast<std::uint32_t>(key >> 40);
}
[[nodiscard]] constexpr std::uint64_t key_req(std::uint64_t key) {
  return key & ((1ULL << 40) - 1);
}

/// FNV-1a over bytes.
[[nodiscard]] std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);

class OrderGate {
 public:
  /// Starts checking a member incarnation; `who` names it in violations.
  void join(std::uint32_t tag, std::string who);
  /// One delivery at incarnation `tag`.
  void deliver(std::uint32_t tag, std::uint64_t key);
  /// The incarnation crashed: it is no longer checked, and any stretch of
  /// the order that only it had delivered is dropped.
  void crash(std::uint32_t tag);
  /// End of run: every incarnation still checked must have reached the end
  /// of the order. Returns all violations seen.
  [[nodiscard]] std::vector<std::string> finish() const;

  /// True when every incarnation still checked has delivered the whole
  /// order so far.
  [[nodiscard]] bool settled() const;

  /// Running digest of the reference order and its length.
  [[nodiscard]] std::uint64_t digest() const { return digest_; }
  [[nodiscard]] std::uint64_t length() const { return base_ + order_.size(); }

 private:
  struct Track {
    std::string who;
    bool started = false;
    bool failed = false;
    std::uint64_t next = 0;  // global position of its next delivery
    std::uint64_t delivered = 0;
  };
  void fail(Track& t, const std::string& why);
  void trim();

  std::deque<std::uint64_t> order_;
  std::uint64_t base_ = 0;  // global position of order_.front()
  std::unordered_map<std::uint64_t, std::uint64_t> pos_;  // key -> position
  std::map<std::uint32_t, Track> tracks_;
  std::vector<std::string> violations_;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;
};

/// Feeds the gate synthetic deliveries, intact and with two entries
/// swapped at one member; true when it accepts the first and rejects the
/// second.
[[nodiscard]] bool gate_self_test();

}  // namespace perfbench
