// tokenring.hpp — rotating-token total-order broadcast (the Totem family
// the paper's §8 cites): a token circulates the logical ring of members;
// only the holder multicasts, stamping each message with the global
// sequence number carried by the token. Receivers deliver in global order
// and NACK gaps; any member holding a message may retransmit it.
//
// Latency grows with ring size (a sender must wait for the token) while
// throughput stays high under load — the classic contrast with both the
// sequencer and FTMP's symmetric ordering (benches E2/E9). Token loss is
// healed by a generation-stamped regeneration at the smallest member id.
// (No membership changes; baselines are evaluated fault-free.)
#pragma once

#include <deque>
#include <map>

#include "baseline/common.hpp"
#include "common/codec.hpp"

namespace ftcorba::baseline {

/// Wire statistics of one node.
struct TokenRingStats {
  std::uint64_t data_sent = 0;
  std::uint64_t tokens_sent = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t tokens_regenerated = 0;
};

/// One member of a token-ring ordered-broadcast group.
class TokenRingNode : public TotalOrderNode {
 public:
  /// `members` must be identical at every node. The smallest id initially
  /// holds (and regenerates) the token.
  TokenRingNode(ProcessorId self, std::vector<ProcessorId> members,
                McastAddress group_addr);

  void broadcast(TimePoint now, BytesView payload) override;
  void on_datagram(TimePoint now, const net::Datagram& datagram) override;
  void tick(TimePoint now) override;
  [[nodiscard]] std::vector<net::Datagram> take_packets() override;
  [[nodiscard]] std::vector<Delivery> take_deliveries() override;

  [[nodiscard]] const TokenRingStats& stats() const { return stats_; }

 private:
  void hold_token(TimePoint now, std::uint64_t generation, std::uint64_t next_global);
  void pass_token(TimePoint now);
  void try_deliver();
  void request_missing(TimePoint now);
  [[nodiscard]] ProcessorId successor() const;

  ProcessorId self_;
  std::vector<ProcessorId> members_;
  McastAddress group_addr_;

  std::deque<Bytes> pending_;  // locally queued, waiting for the token
  std::map<std::uint64_t, std::pair<std::uint32_t, Bytes>> store_;  // global -> (src, payload)
  std::uint64_t next_deliver_ = 1;
  std::uint64_t highest_seen_ = 0;
  bool holding_ = false;
  std::uint64_t generation_ = 1;
  std::uint64_t token_next_global_ = 1;
  TimePoint last_token_activity_ = 0;
  TimePoint last_nack_ = -1'000'000'000;

  std::vector<net::Datagram> out_;
  std::vector<Delivery> delivered_;
  TokenRingStats stats_;
};

}  // namespace ftcorba::baseline
