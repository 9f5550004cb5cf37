// sim_harness.hpp — drives a set of FTMP stacks over the deterministic
// SimNetwork: the discrete-event loop interleaves packet deliveries and
// periodic timer ticks in simulated-time order. All tests and benchmarks
// run through this harness; runtime::ShardedUdpDriver (runtime/udp_front.hpp)
// plays the same role against real sockets. A step starts with one due
// datagram or a timer tick; it ends, as a UDP poll does, by draining the
// stack's events (and the handler's sends) once and handing the stack's
// subscriptions and egress to Joins::transmit (joins.hpp): join, leave,
// then send.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "ftmp/events.hpp"
#include "ftmp/joins.hpp"
#include "ftmp/stack.hpp"
#include "net/sim_network.hpp"

namespace ftcorba::ftmp {

/// A simulated deployment of FTMP processors.
class SimHarness {
 public:
  /// `granularity` is the timer-tick period handed to Stack::tick — the
  /// resolution of heartbeat/fault/NACK timers.
  explicit SimHarness(net::LinkModel link = {}, std::uint64_t seed = 1,
                      Duration granularity = 1 * kMillisecond);

  /// Creates a processor with its own stack. Ids must be unique.
  Stack& add_processor(ProcessorId id, FtDomainId domain, McastAddress domain_addr,
                       Config config = {});

  /// The stack of a processor (must exist).
  [[nodiscard]] Stack& stack(ProcessorId id);

  /// The underlying network, for loss/partition/crash control.
  [[nodiscard]] net::SimNetwork& network() { return net_; }

  /// Current simulated time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Runs the event loop until simulated time `t`.
  void run_until(TimePoint t);

  /// Runs the event loop for `d` more simulated time.
  void run_for(Duration d) { run_until(now_ + d); }

  /// Runs until `pred()` is true or `deadline` passes; returns pred().
  bool run_until_pred(const std::function<bool()>& pred, TimePoint deadline);

  /// Crashes a processor (must exist): its packets vanish and its stack
  /// stops running (fail-stop model).
  void crash(ProcessorId id);

  /// True if `id` has been crashed.
  [[nodiscard]] bool crashed(ProcessorId id) const;

  /// Restarts a crashed processor as a fresh incarnation: a brand-new Stack
  /// with the same identity and config, an empty event log, and the network
  /// revived. All volatile protocol state is gone, the old incarnation's
  /// group joins included (it hears only its domain address until it
  /// expects a join) — the caller re-admits it
  /// (expect_join + a sponsor's add_processor) and replays any durable state
  /// (ft::PersistentLog) at the application layer. The only state carried
  /// across the restart is the stack's join-timestamp floors, which model
  /// durable membership metadata: without them a stale retransmitted
  /// AddProcessor from the previous incarnation could re-initialize the
  /// rejoiner behind the group's clock bound. Throws if `id` is unknown or
  /// not crashed.
  Stack& restart(ProcessorId id);

  /// How many times `id` has been restarted (0 for the first incarnation).
  [[nodiscard]] std::uint32_t incarnation(ProcessorId id) const;

  /// Installs a hook invoked at the end of every event-loop step of
  /// run_until, after packets due at the step's time were delivered and any
  /// timer tick ran. The chaos engine applies scheduled faults and runs its
  /// invariant checkers here. nullptr clears.
  void set_step_hook(std::function<void(TimePoint)> hook) {
    step_hook_ = std::move(hook);
  }

  /// All events a processor's stack has emitted since the start (the
  /// harness drains stacks continuously and accumulates here).
  [[nodiscard]] const std::vector<Event>& events(ProcessorId id) const;

  /// Convenience: the ordered Regular deliveries seen by a processor for
  /// one group, in delivery order.
  [[nodiscard]] std::vector<DeliveredMessage> delivered(ProcessorId id,
                                                        ProcessorGroupId group) const;

  /// Drops accumulated events (e.g. after a warm-up phase in benches).
  void clear_events();

  /// Installs a per-processor event callback invoked inside the event loop
  /// (before the event is appended to the accumulated list). Higher layers
  /// (the ORB, replication managers) react to deliveries here and may send
  /// through the stack; their packets go out in the same step's one drain.
  /// `id` must already be added; the handler survives restart().
  void set_event_handler(ProcessorId id,
                         std::function<void(TimePoint, const Event&)> handler);

  /// Processor ids in ascending order.
  [[nodiscard]] std::vector<ProcessorId> processors() const;

 private:
  // Everything the harness keeps per processor.
  struct Proc {
    std::unique_ptr<Stack> stack;
    FtDomainId domain{};
    McastAddress domain_addr{};
    Config config{};
    std::uint32_t incarnation = 0;
    bool crashed = false;
    std::vector<Event> events{};
    std::function<void(TimePoint, const Event&)> handler{};
    Joins joins{};  // the network's subscriptions for this processor
  };

  // Ends a step for one processor: events to the handler and the log, then
  // Joins::transmit of the stack's subscriptions and one drain of packets.
  void flush(ProcessorId id, Proc& p);

  net::SimNetwork net_;
  Duration granularity_;
  TimePoint now_ = 0;
  TimePoint next_tick_ = 0;
  std::map<ProcessorId, Proc> procs_;  // ticked, cleared and listed in id order
  std::function<void(TimePoint)> step_hook_;
};

}  // namespace ftcorba::ftmp
