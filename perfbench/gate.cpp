#include "gate.hpp"

#include <algorithm>

namespace perfbench {

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n, std::uint64_t h) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {
std::string key_name(std::uint64_t key) {
  return "P" + std::to_string(key_source(key)) + "/" + std::to_string(key_req(key));
}
}  // namespace

void OrderGate::join(std::uint32_t tag, std::string who) {
  Track t;
  t.who = std::move(who);
  tracks_[tag] = std::move(t);
}

void OrderGate::fail(Track& t, const std::string& why) {
  t.failed = true;  // one violation per incarnation; it is not checked further
  violations_.push_back(t.who + " " + why);
}

void OrderGate::deliver(std::uint32_t tag, std::uint64_t key) {
  Track& t = tracks_.at(tag);
  if (t.failed) return;
  const std::uint64_t end = base_ + order_.size();
  if (!t.started) {
    auto it = pos_.find(key);
    t.next = it == pos_.end() ? end : it->second;
    t.started = true;
  }
  if (t.next == end) {
    if (!pos_.emplace(key, end).second) {
      fail(t, "delivered " + key_name(key) + " again (delivery " +
                  std::to_string(t.delivered) + ")");
      return;
    }
    order_.push_back(key);
    const auto* b = reinterpret_cast<const std::uint8_t*>(&key);
    digest_ = fnv1a(b, sizeof key, digest_);
  } else if (order_.at(t.next - base_) != key) {
    fail(t, "delivered " + key_name(key) + " where the total order has " +
                key_name(order_.at(t.next - base_)) + " (delivery " +
                std::to_string(t.delivered) + ")");
    return;
  }
  t.next += 1;
  t.delivered += 1;
  trim();
}

void OrderGate::trim() {
  // Keep every position a checked incarnation may still deliver; an
  // incarnation that has not delivered yet may begin anywhere held.
  std::uint64_t keep = base_ + order_.size();
  for (const auto& [tag, t] : tracks_) {
    if (t.failed) continue;
    if (!t.started) return;
    keep = std::min(keep, t.next);
  }
  while (base_ < keep && !order_.empty()) {
    pos_.erase(order_.front());
    order_.pop_front();
    base_ += 1;
  }
}

void OrderGate::crash(std::uint32_t tag) {
  tracks_.erase(tag);
  // Drop the stretch of the order that no remaining incarnation reached.
  std::uint64_t reached = 0;
  bool any = false;
  for (const auto& [t_tag, t] : tracks_) {
    if (t.started && !t.failed) {
      reached = std::max(reached, t.next);
      any = true;
    }
  }
  while (any && base_ + order_.size() > std::max(reached, base_) && !order_.empty()) {
    pos_.erase(order_.back());
    order_.pop_back();
  }
  trim();
}

bool OrderGate::settled() const {
  const std::uint64_t end = base_ + order_.size();
  for (const auto& [tag, t] : tracks_) {
    if (!t.failed && t.started && t.next != end) return false;
  }
  return true;
}

std::vector<std::string> OrderGate::finish() const {
  std::vector<std::string> out = violations_;
  const std::uint64_t end = base_ + order_.size();
  for (const auto& [tag, t] : tracks_) {
    if (!t.failed && t.started && t.next != end) {
      out.push_back(t.who + " stopped " + std::to_string(end - t.next) +
                    " deliveries short of the end of the total order");
    }
  }
  return out;
}

bool gate_self_test() {
  auto feed = [](bool swap) {
    OrderGate g;
    for (std::uint32_t m = 1; m <= 3; ++m) g.join(m, "P" + std::to_string(m));
    std::vector<std::uint64_t> order;
    for (std::uint64_t i = 1; i <= 100; ++i) order.push_back(op_key(1 + i % 3, i));
    for (std::size_t i = 0; i < order.size(); ++i) {
      for (std::uint32_t m = 1; m <= 3; ++m) {
        std::size_t j = i;
        if (swap && m == 2 && (i == 50 || i == 51)) j = i == 50 ? 51 : 50;
        g.deliver(m, order[j]);
      }
      if (i == 60) g.join(4, "P4#1");  // a rejoined incarnation: tail only
      if (i > 60) g.deliver(4, order[i]);
    }
    return g.finish().empty();
  };
  return feed(false) && !feed(true);
}

}  // namespace perfbench
