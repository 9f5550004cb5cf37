#include "baseline/sequencer.hpp"

#include <algorithm>

namespace ftcorba::baseline {

namespace {
constexpr std::uint8_t kMagic[4] = {'S', 'E', 'Q', 'B'};
enum : std::uint8_t { kData = 1, kTicket = 2, kNack = 3 };
enum : std::uint8_t { kNackData = 1, kNackTicket = 2 };
// Minimum spacing between NACK rounds; the sequencer re-announces its
// latest ticket every four of them.
constexpr Duration kNackInterval = 5 * kMillisecond;
}  // namespace

SequencerNode::SequencerNode(ProcessorId self, std::vector<ProcessorId> members,
                             McastAddress group_addr)
    : self_(self), members_(std::move(members)), group_addr_(group_addr) {
  std::sort(members_.begin(), members_.end());
  sequencer_ = members_.front();
}

void SequencerNode::send_data(TimePoint now, ProcessorId source, std::uint64_t local_seq,
                              const Bytes& payload, bool retransmission) {
  (void)now;
  Writer w;
  for (std::uint8_t b : kMagic) w.u8(b);
  w.u8(kData);
  w.u32(source.raw());
  w.u64(local_seq);
  w.blob(payload);
  out_.push_back(net::Datagram{group_addr_, std::move(w).take()});
  if (retransmission) {
    stats_.retransmissions += 1;
  } else {
    stats_.data_sent += 1;
  }
}

void SequencerNode::send_ticket(std::uint64_t global_seq, ProcessorId source,
                                std::uint64_t local_seq) {
  Writer w;
  for (std::uint8_t b : kMagic) w.u8(b);
  w.u8(kTicket);
  w.u64(global_seq);
  w.u32(source.raw());
  w.u64(local_seq);
  out_.push_back(net::Datagram{group_addr_, std::move(w).take()});
  stats_.tickets_sent += 1;
}

void SequencerNode::broadcast(TimePoint now, BytesView payload) {
  const std::uint64_t local_seq = ++next_local_seq_;
  Bytes copy(payload.begin(), payload.end());
  data_[{self_.raw(), local_seq}] = copy;
  send_data(now, self_, local_seq, copy, /*retransmission=*/false);
  if (is_sequencer()) sequence_pending(now);
}

void SequencerNode::sequence_pending(TimePoint now) {
  (void)now;
  if (!is_sequencer()) return;
  bool progress = true;
  while (progress) {
    progress = false;
    for (ProcessorId m : members_) {
      std::uint64_t& up_to = sequenced_up_to_[m.raw()];
      auto it = data_.find({m.raw(), up_to + 1});
      if (it != data_.end()) {
        up_to += 1;
        const std::uint64_t global = next_global_++;
        tickets_[global] = it->first;
        highest_ticket_ = std::max(highest_ticket_, global);
        send_ticket(global, m, up_to);
        progress = true;
      }
    }
  }
  try_deliver();
}

void SequencerNode::try_deliver() {
  for (;;) {
    auto ticket = tickets_.find(next_deliver_);
    if (ticket == tickets_.end()) break;
    auto data = data_.find(ticket->second);
    if (data == data_.end()) break;
    delivered_.push_back(
        Delivery{ProcessorId{ticket->second.source}, next_deliver_, data->second});
    ++next_deliver_;
  }
}

void SequencerNode::request_missing(TimePoint now) {
  if (now - last_nack_ < kNackInterval) return;
  bool nacked = false;
  // Ticket gaps.
  for (std::uint64_t g = next_deliver_; g <= highest_ticket_ && g < next_deliver_ + 64; ++g) {
    if (!tickets_.contains(g)) {
      Writer w;
      for (std::uint8_t b : kMagic) w.u8(b);
      w.u8(kNack);
      w.u8(kNackTicket);
      w.u32(0);
      w.u64(g);
      w.u64(g);
      out_.push_back(net::Datagram{group_addr_, std::move(w).take()});
      stats_.nacks_sent += 1;
      nacked = true;
    }
  }
  // Data referenced by a ticket but not received.
  for (auto it = tickets_.lower_bound(next_deliver_); it != tickets_.end(); ++it) {
    if (!data_.contains(it->second)) {
      Writer w;
      for (std::uint8_t b : kMagic) w.u8(b);
      w.u8(kNack);
      w.u8(kNackData);
      w.u32(it->second.source);
      w.u64(it->second.local_seq);
      w.u64(it->second.local_seq);
      out_.push_back(net::Datagram{group_addr_, std::move(w).take()});
      stats_.nacks_sent += 1;
      nacked = true;
    }
  }
  if (nacked) last_nack_ = now;
}

void SequencerNode::on_datagram(TimePoint now, const net::Datagram& datagram) {
  try {
    Reader r(datagram.payload);
    for (std::uint8_t expected : kMagic) {
      if (r.u8() != expected) return;
    }
    const std::uint8_t type = r.u8();
    switch (type) {
      case kData: {
        const ProcessorId source{r.u32()};
        const std::uint64_t local_seq = r.u64();
        Bytes payload = r.blob();
        data_.emplace(DataKey{source.raw(), local_seq}, std::move(payload));
        if (is_sequencer()) sequence_pending(now);
        try_deliver();
        break;
      }
      case kTicket: {
        const std::uint64_t global = r.u64();
        const ProcessorId source{r.u32()};
        const std::uint64_t local_seq = r.u64();
        tickets_[global] = DataKey{source.raw(), local_seq};
        highest_ticket_ = std::max(highest_ticket_, global);
        std::uint64_t& ticketed = ticketed_up_to_[source.raw()];
        ticketed = std::max(ticketed, local_seq);
        try_deliver();
        break;
      }
      case kNack: {
        const std::uint8_t kind = r.u8();
        const std::uint32_t source = r.u32();
        const std::uint64_t from = r.u64();
        const std::uint64_t to = r.u64();
        if (kind == kNackData) {
          // The original source (and the sequencer, which also holds the
          // data) answers.
          if (source == self_.raw() || is_sequencer()) {
            for (std::uint64_t s = from; s <= to; ++s) {
              auto it = data_.find({source, s});
              if (it != data_.end()) {
                send_data(now, ProcessorId{source}, s, it->second, true);
              }
            }
          }
        } else if (kind == kNackTicket && is_sequencer()) {
          for (std::uint64_t g = from; g <= to; ++g) {
            auto it = tickets_.find(g);
            if (it != tickets_.end()) {
              send_ticket(g, ProcessorId{it->second.source}, it->second.local_seq);
              stats_.retransmissions += 1;
            }
          }
        }
        break;
      }
      default:
        break;
    }
  } catch (const CodecError&) {
    // malformed: drop
  }
}

void SequencerNode::tick(TimePoint now) {
  if (is_sequencer()) sequence_pending(now);
  try_deliver();
  request_missing(now);

  if (now - last_reannounce_ >= kNackInterval * 4) {
    bool announced = false;
    // Source-side healing: our own data the sequencer has not ticketed yet
    // may have been lost on the way there — re-multicast it.
    const std::uint64_t ticketed = ticketed_up_to_[self_.raw()];
    for (std::uint64_t s = ticketed + 1; s <= next_local_seq_ && s <= ticketed + 16; ++s) {
      auto it = data_.find({self_.raw(), s});
      if (it != data_.end()) {
        send_data(now, self_, s, it->second, /*retransmission=*/true);
        announced = true;
      }
    }
    // Sequencer-side healing: when idle, re-announce the newest ticket so a
    // receiver that lost the tail learns the gap and NACKs.
    if (is_sequencer() && next_global_ > 1) {
      auto it = tickets_.find(next_global_ - 1);
      if (it != tickets_.end()) {
        send_ticket(next_global_ - 1, ProcessorId{it->second.source},
                    it->second.local_seq);
        announced = true;
      }
    }
    if (announced) last_reannounce_ = now;
  }
}

std::vector<net::Datagram> SequencerNode::take_packets() {
  std::vector<net::Datagram> out;
  out.swap(out_);
  return out;
}

std::vector<Delivery> SequencerNode::take_deliveries() {
  std::vector<Delivery> out;
  out.swap(delivered_);
  return out;
}

}  // namespace ftcorba::baseline
