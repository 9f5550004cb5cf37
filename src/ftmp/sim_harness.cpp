#include "ftmp/sim_harness.hpp"

#include <stdexcept>

namespace ftcorba::ftmp {

namespace {
// Joins::transmit's port for one simulated node at one step.
struct SimPort {
  net::SimNetwork& net;
  ProcessorId id;
  TimePoint now;
  void join(McastAddress addr) { net.subscribe(id, addr); }
  void leave(McastAddress addr) { net.unsubscribe(id, addr); }
  void send_many(const std::vector<net::Datagram>& egress) {
    for (const net::Datagram& d : egress) net.send(now, id, d);
  }
};
}  // namespace

SimHarness::SimHarness(net::LinkModel link, std::uint64_t seed, Duration granularity)
    : net_(link, seed), granularity_(granularity), next_tick_(granularity) {}

Stack& SimHarness::add_processor(ProcessorId id, FtDomainId domain,
                                 McastAddress domain_addr, Config config) {
  auto [it, inserted] = procs_.try_emplace(
      id, Proc{.stack = std::make_unique<Stack>(id, domain, domain_addr, config),
               .domain = domain,
               .domain_addr = domain_addr,
               .config = config});
  if (!inserted) throw std::invalid_argument("duplicate processor id");
  net_.attach(id);
  flush(id, it->second);
  return *it->second.stack;
}

Stack& SimHarness::restart(ProcessorId id) {
  auto it = procs_.find(id);
  if (it == procs_.end()) throw std::out_of_range("unknown processor");
  Proc& p = it->second;
  if (!p.crashed) throw std::logic_error("restart of a processor that is not crashed");
  // Durable membership metadata survives the crash (see header comment).
  const auto floors = p.stack->join_timestamp_floors();
  auto fresh = std::make_unique<Stack>(id, p.domain, p.domain_addr, p.config);
  for (const auto& [group, ts] : floors) {
    fresh->restore_join_timestamp_floor(group, ts);
  }
  p.stack = std::move(fresh);
  p.incarnation += 1;
  p.events.clear();  // a fresh process has an empty event log
  p.crashed = false;
  net_.revive(id);
  flush(id, p);  // leaves every address the old incarnation had joined
  return *p.stack;
}

std::uint32_t SimHarness::incarnation(ProcessorId id) const {
  return procs_.at(id).incarnation;
}

Stack& SimHarness::stack(ProcessorId id) {
  auto it = procs_.find(id);
  if (it == procs_.end()) throw std::out_of_range("unknown processor");
  return *it->second.stack;
}

void SimHarness::flush(ProcessorId id, Proc& p) {
  Stack& s = *p.stack;
  auto evs = s.take_events();
  if (p.handler) {
    for (const Event& ev : evs) p.handler(now_, ev);
  }
  p.events.insert(p.events.end(), std::make_move_iterator(evs.begin()),
                  std::make_move_iterator(evs.end()));
  // One drain per step, after the handler's sends, as a UDP poll does.
  SimPort port{net_, id, now_};
  p.joins.transmit(s.subscriptions(), s.take_packets(), port);
}

void SimHarness::run_until(TimePoint t) {
  while (now_ < t) {
    const auto next_delivery = net_.next_delivery_time();
    // Choose the earliest of: next packet delivery, next timer tick.
    TimePoint step = std::min<TimePoint>(t, next_tick_);
    if (next_delivery && *next_delivery < step) step = *next_delivery;
    now_ = std::max(now_, step);

    // Deliver every packet due at or before `now_`.
    while (auto d = net_.pop_due(now_)) {
      auto it = procs_.find(d->dest);
      if (it == procs_.end() || it->second.crashed) continue;
      it->second.stack->on_datagram(now_, d->datagram);
      flush(d->dest, it->second);
    }

    // Timer ticks at fixed granularity.
    if (now_ >= next_tick_) {
      for (auto& [id, p] : procs_) {
        if (p.crashed) continue;
        p.stack->tick(now_);
        flush(id, p);
      }
      next_tick_ += granularity_;
    }
    if (step_hook_) step_hook_(now_);
    if (!net_.next_delivery_time() && now_ >= t) break;
  }
  now_ = t;
}

bool SimHarness::run_until_pred(const std::function<bool()>& pred, TimePoint deadline) {
  while (now_ < deadline) {
    if (pred()) return true;
    run_until(std::min(deadline, now_ + granularity_));
  }
  return pred();
}

void SimHarness::crash(ProcessorId id) {
  procs_.at(id).crashed = true;
  net_.crash(id);
}

bool SimHarness::crashed(ProcessorId id) const {
  auto it = procs_.find(id);
  return it != procs_.end() && it->second.crashed;
}

const std::vector<Event>& SimHarness::events(ProcessorId id) const {
  return procs_.at(id).events;
}

std::vector<DeliveredMessage> SimHarness::delivered(ProcessorId id,
                                                    ProcessorGroupId group) const {
  std::vector<DeliveredMessage> out;
  for (const Event& ev : procs_.at(id).events) {
    if (const auto* d = std::get_if<DeliveredMessage>(&ev)) {
      if (d->group == group) out.push_back(*d);
    }
  }
  return out;
}

void SimHarness::clear_events() {
  for (auto& [id, p] : procs_) p.events.clear();
}

void SimHarness::set_event_handler(
    ProcessorId id, std::function<void(TimePoint, const Event&)> handler) {
  procs_.at(id).handler = std::move(handler);
}

std::vector<ProcessorId> SimHarness::processors() const {
  std::vector<ProcessorId> out;
  out.reserve(procs_.size());
  for (const auto& [id, p] : procs_) out.push_back(id);
  return out;
}

}  // namespace ftcorba::ftmp
