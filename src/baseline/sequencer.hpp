// sequencer.hpp — fixed-sequencer total-order broadcast (the Amoeba /
// Chang-Maxemchuk family the paper's §8 cites): senders multicast their
// data; a designated sequencer multicasts ordering tickets mapping
// ⟨source, local seq⟩ to a global sequence; receivers deliver data in
// global-sequence order. Reliability is NACK-based on both the data and
// the ticket streams.
//
// The sequencer is the throughput bottleneck and a single point of failure
// — precisely the contrast with FTMP's symmetric ordering that benches
// E2/E9 quantify. (No sequencer fail-over is implemented; baselines are
// evaluated fault-free.)
#pragma once

#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "baseline/common.hpp"
#include "common/codec.hpp"

namespace ftcorba::baseline {

/// Wire statistics of one node (ordering cost accounting for E9).
struct SequencerStats {
  std::uint64_t data_sent = 0;
  std::uint64_t tickets_sent = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t retransmissions = 0;
};

/// One member of a fixed-sequencer ordered-broadcast group. The member
/// with the smallest id acts as sequencer.
class SequencerNode : public TotalOrderNode {
 public:
  /// `members` must be identical at every node; `group_addr` is the
  /// multicast address the group shares.
  SequencerNode(ProcessorId self, std::vector<ProcessorId> members,
                McastAddress group_addr);

  void broadcast(TimePoint now, BytesView payload) override;
  void on_datagram(TimePoint now, const net::Datagram& datagram) override;
  void tick(TimePoint now) override;
  [[nodiscard]] std::vector<net::Datagram> take_packets() override;
  [[nodiscard]] std::vector<Delivery> take_deliveries() override;

  /// True if this node is the sequencer.
  [[nodiscard]] bool is_sequencer() const { return self_ == sequencer_; }

  [[nodiscard]] const SequencerStats& stats() const { return stats_; }

 private:
  struct DataKey {
    std::uint32_t source;
    std::uint64_t local_seq;
    auto operator<=>(const DataKey&) const = default;
  };

  void send_data(TimePoint now, ProcessorId source, std::uint64_t local_seq,
                 const Bytes& payload, bool retransmission);
  void send_ticket(std::uint64_t global_seq, ProcessorId source, std::uint64_t local_seq);
  void sequence_pending(TimePoint now);
  void try_deliver();
  void request_missing(TimePoint now);

  ProcessorId self_;
  std::vector<ProcessorId> members_;
  ProcessorId sequencer_;
  McastAddress group_addr_;

  std::uint64_t next_local_seq_ = 0;
  // Received data payloads by (source, local seq).
  std::map<DataKey, Bytes> data_;
  // Ticket stream: global seq -> (source, local seq).
  std::map<std::uint64_t, DataKey> tickets_;
  std::uint64_t next_deliver_ = 1;   // next global seq to deliver
  std::uint64_t highest_ticket_ = 0; // for ticket-gap NACKs
  // Sequencer state: next global seq to assign, and data seen but not yet
  // sequenced (per source, the next local seq to sequence).
  std::uint64_t next_global_ = 1;
  std::unordered_map<std::uint32_t, std::uint64_t> sequenced_up_to_;
  // Per source: the highest local seq known to be ticketed (from tickets).
  std::unordered_map<std::uint32_t, std::uint64_t> ticketed_up_to_;
  TimePoint last_nack_ = -1'000'000'000;
  TimePoint last_reannounce_ = -1'000'000'000;

  std::vector<net::Datagram> out_;
  std::vector<Delivery> delivered_;
  SequencerStats stats_;
};

}  // namespace ftcorba::baseline
