// fleet.hpp — real FTMP members on loopback UDP multicast, driven from one
// thread, plus the span tracer that times the public calls each driver
// round makes (NOTES.md has the method).
//
// Every member is an inline runtime::ShardedRuntime behind its own
// runtime::ShardedUdpDriver. An untraced round calls poll_once(0) on each
// live member; a traced round makes the same public calls poll_once makes
// (receive_many, ingest per datagram, tick, drain_egress, send_many, the
// subscription sync) one by one, each inside a span.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "ftmp/config.hpp"
#include "ftmp/events.hpp"
#include "ftmp/stack.hpp"
#include "orb/orb.hpp"
#include "runtime/shard.hpp"
#include "runtime/udp_front.hpp"

namespace perfbench {

using namespace ftcorba;

[[nodiscard]] inline TimePoint now_ns() { return runtime::wall_now(); }

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed call site. The prefix before the dot is the layer (a module of
/// the repository, or "bench" for the driver's own work).
enum class SpanKind : std::uint8_t {
  kRound,        ///< bench.round: one pass over all live members
  kRecv,         ///< net.receive_many
  kIngest,       ///< runtime.ingest (inline: Stack::on_datagram)
  kTick,         ///< runtime.tick
  kDrain,        ///< runtime.drain_egress (batch flush included)
  kSend,         ///< net.send_many
  kSync,         ///< runtime.sync: subscriptions() + transport join/leave
  kGroupSend,    ///< ftmp.send: GroupSession::try_send_regular
  kMarshal,      ///< giop.marshal: the driver's CdrWriter marshalling
  kInvoke,       ///< orb.invoke
  kEvents,       ///< bench.events: take_events + the driver's bookkeeping
  kDeliver,      ///< bench.deliver: one DeliveredMessage consumed
  kOnEvent,      ///< orb.on_event: one DeliveredMessage through the ORB
  kCount,
};

[[nodiscard]] const char* span_name(SpanKind k);

/// Per-kind aggregate over the traced window.
struct SpanAgg {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;  ///< total minus time covered by child spans
};

/// In-memory span recorder. Aggregates every span of the traced window and
/// keeps the first `record_cap` raw spans for the trace file written at exit.
class Tracer {
 public:
  struct Record {
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint32_t parent = 0;  ///< index + 1 of the parent record; 0 = root
    SpanKind kind{};
    std::uint32_t op_src = 0;
    std::uint64_t op_req = 0;
  };

  explicit Tracer(bool enabled, std::size_t record_cap = 300000)
      : enabled_(enabled), cap_(record_cap) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// True while spans are being recorded (traced run, inside the window).
  [[nodiscard]] bool on() const { return on_; }

  /// Window control; only called between rounds (no span open).
  void start_window() { on_ = enabled_; }
  void stop_window() { on_ = false; }

  void begin(SpanKind kind, std::uint32_t op_src = 0, std::uint64_t op_req = 0);
  void end();

  [[nodiscard]] const SpanAgg& agg(SpanKind k) const {
    return agg_[static_cast<std::size_t>(k)];
  }
  /// Time covered by spans directly under a round span.
  [[nodiscard]] std::int64_t covered_ns() const { return covered_ns_; }

  /// Writes the kept spans as CSV (id, parent, name, start/end ns, op id).
  bool write_csv(const std::string& path) const;

 private:
  struct Open {
    SpanKind kind{};
    std::int64_t start = 0;
    std::int64_t child_ns = 0;
    std::uint32_t record = 0;  // index + 1, 0 = not kept
  };
  bool enabled_;
  bool on_ = false;
  std::size_t cap_;
  std::vector<Open> stack_;
  std::vector<Record> records_;
  SpanAgg agg_[static_cast<std::size_t>(SpanKind::kCount)];
  std::int64_t covered_ns_ = 0;
};

/// RAII span; a no-op while the tracer is off.
class Span {
 public:
  Span(Tracer& t, SpanKind kind, std::uint32_t op_src = 0, std::uint64_t op_req = 0)
      : t_(t.on() ? &t : nullptr) {
    if (t_) t_->begin(kind, op_src, op_req);
  }
  ~Span() {
    if (t_) t_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

// ---------------------------------------------------------------------------
// Members
// ---------------------------------------------------------------------------

/// Counts of what the traced poll path saw (the untraced path cannot see
/// inside poll_once).
struct PollCounts {
  std::uint64_t recv_calls = 0;
  std::uint64_t recv_empty = 0;
  std::uint64_t dgrams_in = 0;
  std::uint64_t dgrams_out = 0;
  std::int64_t recv_busy_ns = 0;  ///< receive_many time of non-empty calls
  std::uint64_t member_polls = 0;
};

/// One processor: its runtime, UDP front, and (invoke_orb) its ORB.
struct Member {
  ProcessorId id{};
  FtDomainId domain{};
  McastAddress domain_addr{};
  ftmp::Config config;
  std::unique_ptr<runtime::ShardedRuntime> rt;
  std::unique_ptr<runtime::ShardedUdpDriver> drv;
  std::unique_ptr<orb::Orb> orb;
  std::vector<McastAddress> joined;  ///< traced-path mirror of the joins
  /// Join-timestamp floors carried from a crashed incarnation (the durable
  /// membership metadata SimHarness::restart also carries).
  std::vector<std::pair<ProcessorGroupId, Timestamp>> floors;
  std::uint32_t incarnation = 0;
  bool alive = false;

  [[nodiscard]] ftmp::Stack& stack() { return rt->stack(0); }
};

/// The members of one workload and the single-threaded round that drives
/// them.
class Fleet {
 public:
  using EventFn = std::function<void(Member&, TimePoint, ftmp::Event&)>;

  /// `order_seed` seeds the order in which each round polls the members.
  Fleet(std::uint16_t port, Tracer& tracer, std::uint64_t order_seed)
      : port_(port), tracer_(tracer), order_rng_(order_seed) {}

  /// Registers a member and brings it up (runtime + sockets).
  Member& add(ProcessorId id, FtDomainId domain, McastAddress domain_addr,
              const ftmp::Config& config);

  /// Fail-stop: the driver stops polling the member and closes its sockets.
  /// Its join-timestamp floors are kept for the next incarnation.
  void crash(Member& m);

  /// Brings a crashed member back as a fresh incarnation with its floors
  /// restored. The caller re-admits it (expect_join + add_processor).
  void restart(Member& m);

  /// One pass over all live members, in a fresh seeded order: poll each,
  /// then hand every event it produced to `on_event`. The order is shuffled
  /// because a fixed one locks the members into one of several repeating
  /// phase patterns per run, each with its own throughput (NOTES.md).
  /// Returns the datagrams ingested.
  std::size_t round(const EventFn& on_event);

  [[nodiscard]] std::vector<std::unique_ptr<Member>>& members() { return members_; }
  [[nodiscard]] Member& member(ProcessorId id);
  [[nodiscard]] const PollCounts& counts() const { return counts_; }
  void reset_counts() { counts_ = {}; }

 private:
  void start(Member& m);
  std::size_t poll(Member& m);
  void sync_subscriptions(Member& m);

  std::uint16_t port_;
  Tracer& tracer_;
  std::vector<std::unique_ptr<Member>> members_;
  std::vector<net::Datagram> egress_;
  PollCounts counts_;
  Rng order_rng_;
  std::vector<std::size_t> order_;
};

}  // namespace perfbench
