#include "ftmp/ordering.hpp"

#include <algorithm>
#include <cstring>

#include "ftmp/llft.hpp"

namespace ftcorba::ftmp {

bool parse_ordering_mode(const char* s, OrderingMode& out) {
  if (s == nullptr) return false;
  if (std::strcmp(s, "lamport") == 0) {
    out = OrderingMode::kLamport;
    return true;
  }
  if (std::strcmp(s, "llft") == 0) {
    out = OrderingMode::kLlft;
    return true;
  }
  if (std::strcmp(s, "lamport-paper") == 0) {
    out = OrderingMode::kLamportPaper;
    return true;
  }
  return false;
}

std::unique_ptr<OrderingPolicy> make_ordering(OrderingMode mode, Romp& romp) {
  if (mode == OrderingMode::kLlft) return std::make_unique<LlftOrdering>(romp);
  return std::make_unique<LamportOrdering>(romp, mode == OrderingMode::kLamport);
}

LamportOrdering::LamportOrdering(Romp& romp, bool own_clock_bound)
    : romp_(romp), own_clock_bound_(own_clock_bound) {}

LamportOrdering::PendingMap::iterator LamportOrdering::erase(
    PendingMap::iterator it) {
  pending_.add(-1);
  return held_.erase(it);
}

void LamportOrdering::on_own_send(const Header& header) {
  own_sent_ = header.sequence_number;
}

void LamportOrdering::on_source_ordered(const Frame& frame, TimePoint now) {
  const Header& h = frame.header;
  if (h.source == romp_.self()) own_held_ = h.sequence_number;
  if (!is_totally_ordered(h.type)) return;
  if (held_.try_emplace({h.message_timestamp, h.source.raw()}, frame, now).second) {
    pending_.add(1);
  }
}

Timestamp LamportOrdering::delivery_bound() const {
  if (!own_clock_bound_ || own_held_ != own_sent_) return romp_.min_bound();
  Timestamp acc = ~Timestamp{0};
  for (ProcessorId q : romp_.members()) {
    const Timestamp b = romp_.bound(q);
    acc = std::min(acc, q == romp_.self() ? std::max(b, romp_.clock()) : b);
  }
  return acc;
}

std::vector<Frame> LamportOrdering::collect_deliverable(TimePoint now) {
  std::vector<Frame> out;
  if (held_.empty() || romp_.members().empty()) return out;
  // Any member never heard from stalls delivery (bound 0), which is
  // precisely the "ordering of messages stops until faulty processors are
  // removed" behaviour of §7.
  const Timestamp min_bound = delivery_bound();
  while (!held_.empty() && held_.begin()->first.first <= min_bound) {
    Held& p = held_.begin()->second;
    romp_.note_delivered(p.frame.header, p.arrival, now);
    out.push_back(std::move(p.frame));
    erase(held_.begin());
    if (out.back().header.type != MessageType::kRegular) {
      // A membership-affecting message (AddProcessor / RemoveProcessor /
      // Connect): stop the batch here. min_bound was computed over the
      // *current* membership; once this message is applied, later messages
      // must also clear the new member's (or shed the removed member's)
      // bound. The session re-enters after applying it.
      break;
    }
  }
  return out;
}

std::vector<const Frame*> LamportOrdering::held_frames() const {
  std::vector<const Frame*> out;
  out.reserve(held_.size());
  for (const auto& [key, held] : held_) out.push_back(&held.frame);
  return out;
}

std::vector<Frame> LamportOrdering::drain_up_to_cut(
    const std::map<ProcessorId, SeqNum>& cuts,
    const std::set<ProcessorId>& survivors) {
  std::vector<Frame> out;
  // held_ is keyed by (timestamp, source), so `out` comes out in
  // delivery order.
  for (auto it = held_.begin(); it != held_.end();) {
    const Header& h = it->second.frame.header;
    auto cut = cuts.find(h.source);
    const SeqNum limit = cut == cuts.end() ? 0 : cut->second;
    if (h.sequence_number <= limit) {
      romp_.note_delivered(h, it->second.arrival, 0);
      out.push_back(std::move(it->second.frame));
    } else if (survivors.contains(h.source)) {
      ++it;
      continue;
    }
    // Delivered, or a non-survivor's message beyond the cut that nobody
    // will deliver.
    it = erase(it);
  }
  return out;
}

void LamportOrdering::remove_member(ProcessorId member) {
  const auto dropped = std::erase_if(held_, [&](const auto& e) {
    return e.second.frame.header.source == member;
  });
  pending_.add(-static_cast<std::int64_t>(dropped));
}

}  // namespace ftcorba::ftmp
