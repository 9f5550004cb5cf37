#include "baseline/tokenring.hpp"

#include <algorithm>

namespace ftcorba::baseline {

namespace {
constexpr std::uint8_t kMagic[4] = {'T', 'K', 'R', 'B'};
enum : std::uint8_t { kData = 1, kToken = 2, kNack = 3 };
// Messages a holder sends per token visit.
constexpr std::size_t kMaxBurst = 16;
// Silence after which the smallest id regenerates a lost token.
constexpr Duration kTokenTimeout = 50 * kMillisecond;
// Minimum spacing between NACK rounds.
constexpr Duration kNackInterval = 5 * kMillisecond;
}  // namespace

TokenRingNode::TokenRingNode(ProcessorId self, std::vector<ProcessorId> members,
                             McastAddress group_addr)
    : self_(self), members_(std::move(members)), group_addr_(group_addr) {
  std::sort(members_.begin(), members_.end());
  // The smallest id starts with the token.
  holding_ = self_ == members_.front();
}

ProcessorId TokenRingNode::successor() const {
  auto it = std::find(members_.begin(), members_.end(), self_);
  ++it;
  return it == members_.end() ? members_.front() : *it;
}

void TokenRingNode::broadcast(TimePoint now, BytesView payload) {
  pending_.emplace_back(payload.begin(), payload.end());
  if (holding_) hold_token(now, generation_, token_next_global_);
}

void TokenRingNode::hold_token(TimePoint now, std::uint64_t generation,
                               std::uint64_t next_global) {
  holding_ = true;
  generation_ = generation;
  token_next_global_ = next_global;
  last_token_activity_ = now;
  std::size_t sent = 0;
  while (!pending_.empty() && sent < kMaxBurst) {
    const std::uint64_t global = token_next_global_++;
    Bytes payload = std::move(pending_.front());
    pending_.pop_front();
    store_[global] = {self_.raw(), payload};
    highest_seen_ = std::max(highest_seen_, global);
    Writer w;
    for (std::uint8_t b : kMagic) w.u8(b);
    w.u8(kData);
    w.u32(self_.raw());
    w.u64(global);
    w.blob(payload);
    out_.push_back(net::Datagram{group_addr_, std::move(w).take()});
    stats_.data_sent += 1;
    ++sent;
  }
  try_deliver();
  pass_token(now);
}

void TokenRingNode::pass_token(TimePoint now) {
  holding_ = false;
  last_token_activity_ = now;
  Writer w;
  for (std::uint8_t b : kMagic) w.u8(b);
  w.u8(kToken);
  w.u32(successor().raw());
  w.u64(generation_);
  w.u64(token_next_global_);
  out_.push_back(net::Datagram{group_addr_, std::move(w).take()});
  stats_.tokens_sent += 1;
}

void TokenRingNode::try_deliver() {
  for (;;) {
    auto it = store_.find(next_deliver_);
    if (it == store_.end()) break;
    delivered_.push_back(
        Delivery{ProcessorId{it->second.first}, next_deliver_, it->second.second});
    ++next_deliver_;
  }
}

void TokenRingNode::request_missing(TimePoint now) {
  if (next_deliver_ > highest_seen_) return;
  if (now - last_nack_ < kNackInterval) return;
  last_nack_ = now;
  std::size_t nacked = 0;
  for (std::uint64_t g = next_deliver_; g <= highest_seen_ && nacked < 32; ++g) {
    if (store_.contains(g)) continue;
    Writer w;
    for (std::uint8_t b : kMagic) w.u8(b);
    w.u8(kNack);
    w.u64(g);
    w.u64(g);
    out_.push_back(net::Datagram{group_addr_, std::move(w).take()});
    stats_.nacks_sent += 1;
    ++nacked;
  }
}

void TokenRingNode::on_datagram(TimePoint now, const net::Datagram& datagram) {
  try {
    Reader r(datagram.payload);
    for (std::uint8_t expected : kMagic) {
      if (r.u8() != expected) return;
    }
    const std::uint8_t type = r.u8();
    switch (type) {
      case kData: {
        const std::uint32_t source = r.u32();
        const std::uint64_t global = r.u64();
        Bytes payload = r.blob();
        highest_seen_ = std::max(highest_seen_, global);
        last_token_activity_ = now;  // data implies the token is alive
        store_.emplace(global, std::make_pair(source, std::move(payload)));
        try_deliver();
        break;
      }
      case kToken: {
        const ProcessorId dest{r.u32()};
        const std::uint64_t generation = r.u64();
        const std::uint64_t next_global = r.u64();
        last_token_activity_ = now;
        // The token's counter reveals how many messages exist: a tail loss
        // (last data packet dropped here) becomes a NACKable gap.
        if (next_global > 0) {
          highest_seen_ = std::max(highest_seen_, next_global - 1);
        }
        if (generation < generation_) break;  // stale token (pre-regeneration)
        generation_ = std::max(generation_, generation);
        if (dest == self_) {
          if (pending_.empty()) {
            // Nothing to send: forward immediately.
            token_next_global_ = next_global;
            holding_ = true;
            pass_token(now);
          } else {
            hold_token(now, generation, next_global);
          }
        }
        break;
      }
      case kNack: {
        const std::uint64_t from = r.u64();
        const std::uint64_t to = r.u64();
        for (std::uint64_t g = from; g <= to; ++g) {
          auto it = store_.find(g);
          if (it == store_.end()) continue;
          // Deterministic single responder per seq to avoid storms: the
          // member whose rank matches g answers; the original source
          // always answers.
          const std::size_t rank =
              std::find(members_.begin(), members_.end(), self_) - members_.begin();
          if (it->second.first != self_.raw() && g % members_.size() != rank) continue;
          Writer w;
          for (std::uint8_t b : kMagic) w.u8(b);
          w.u8(kData);
          w.u32(it->second.first);
          w.u64(g);
          w.blob(it->second.second);
          out_.push_back(net::Datagram{group_addr_, std::move(w).take()});
          stats_.retransmissions += 1;
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

void TokenRingNode::tick(TimePoint now) {
  try_deliver();
  request_missing(now);
  // Kick off / continue circulation if we are sitting on the token (the
  // initial holder starts here; later visits pass inside on_datagram).
  if (holding_) {
    hold_token(now, generation_, token_next_global_);
  }
  // Token regeneration: if the ring has been silent too long, the smallest
  // id re-issues the token with a higher generation.
  if (self_ == members_.front() && !holding_ &&
      now - last_token_activity_ > kTokenTimeout) {
    generation_ += 1;
    token_next_global_ = std::max(token_next_global_, highest_seen_ + 1);
    stats_.tokens_regenerated += 1;
    hold_token(now, generation_, token_next_global_);
  }
}

std::vector<net::Datagram> TokenRingNode::take_packets() {
  std::vector<net::Datagram> out;
  out.swap(out_);
  return out;
}

std::vector<Delivery> TokenRingNode::take_deliveries() {
  std::vector<Delivery> out;
  out.swap(delivered_);
  return out;
}

}  // namespace ftcorba::baseline
