// ordering.hpp — the pluggable delivery rule (docs/ORDERING.md).
//
// Every group session runs one Romp (romp.hpp): clock, bounds, acks and
// stability, identical in every mode. Only which held message is delivered
// next sits behind OrderingPolicy, chosen per stack by
// `Config::ordering_mode`:
//
//   * LamportOrdering (below) — the paper's (timestamp, source) rule;
//     kLamportPaper runs it exactly as the paper states it (pinned
//     byte-identical by ordering_equivalence_test.cpp), the default
//     kLamport counts this member's own bound at its clock.
//   * LlftOrdering (llft.hpp) — LLFT-style slots granted by the
//     smallest-id live member via OrderInfo messages on its own stream.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/metrics.hpp"
#include "ftmp/config.hpp"
#include "ftmp/messages.hpp"
#include "ftmp/romp.hpp"

namespace ftcorba::ftmp {

/// Sentinel for note_joined_epoch: the member's admission has not reached
/// its ordering point yet, so it is leader-ineligible in every view.
inline constexpr Timestamp kJoinPending = ~Timestamp{0};

/// The total-order delivery rule for one processor group, built over the
/// group's Romp: which held message is delivered next, and nothing else
/// (docs/ORDERING.md §1 has the full contract).
class OrderingPolicy {
 public:
  OrderingPolicy() = default;
  OrderingPolicy(const OrderingPolicy&) = delete;
  OrderingPolicy& operator=(const OrderingPolicy&) = delete;
  virtual ~OrderingPolicy() = default;

  /// Every reliable frame from RMP, in source order (header decoded, body
  /// still raw), after Romp::on_source_ordered recorded it; the rule
  /// decides what to hold. `now` (0 when the caller has no time) feeds the
  /// ordering-wait histogram.
  virtual void on_source_ordered(const Frame& frame, TimePoint now) = 0;

  /// Pops every held frame that is now deliverable, in total order, each
  /// through Romp::note_delivered. A batch stops after any
  /// membership-affecting (non-Regular) message, so the caller can apply
  /// it before ordering continues.
  [[nodiscard]] virtual std::vector<Frame> collect_deliverable(TimePoint now) = 0;

  /// Number of messages awaiting order.
  [[nodiscard]] std::size_t pending_count() const {
    return static_cast<std::size_t>(pending_.value());
  }

  /// Every frame the rule holds (received in source order, not yet
  /// delivered), in no particular order. Read-only; the pointers are valid
  /// until the rule next changes.
  [[nodiscard]] virtual std::vector<const Frame*> held_frames() const = 0;

  /// Delivers the old-epoch remainder during a fault-driven membership
  /// change (PGMP §7.2): frames with seq <= cuts[source], in the same
  /// total order on every survivor given the same cuts (PGMP's
  /// equalization gate guarantees the inputs match); a non-survivor's
  /// frames beyond its cut are dropped, so nothing of it stays held.
  /// Survivors' beyond-cut frames stay held for the new epoch.
  [[nodiscard]] virtual std::vector<Frame> drain_up_to_cut(
      const std::map<ProcessorId, SeqNum>& cuts,
      const std::set<ProcessorId>& survivors) = 0;

  /// `member` left the group (RemoveProcessor ordered, or convicted after
  /// the install drain): its held frames are dropped ("removed from the
  /// membership when the RemoveProcessor message is ordered").
  virtual void remove_member(ProcessorId member) = 0;

  /// `src` was admitted with its stream resuming after `floor` (see
  /// Romp::admit): whatever the rule kept for it starts afresh. Default
  /// no-op.
  virtual void reset_source(ProcessorId src, SeqNum floor) {
    (void)src;
    (void)floor;
  }

  /// Membership changed under view timestamp `view_ts`: called at every
  /// membership-change point (planned add/remove ordering points, fault
  /// installs, bootstrap and join) after Romp's member set was updated;
  /// leader-based rules recompute leadership and advance their grant epoch
  /// here. Default no-op: Lamport ordering is leaderless.
  virtual void set_view(Timestamp view_ts) { (void)view_ts; }

  /// Leader-eligibility bookkeeping for leader-based rules: `member`
  /// joined the group at view `epoch` (`kJoinPending` while its admission
  /// is still in flight). A member admitted in the current view defers
  /// leadership until the next view change — the standing leader's floor
  /// advisory must reach it before it may ever grant (docs/ORDERING.md).
  /// Default no-op.
  virtual void note_joined_epoch(ProcessorId member, Timestamp epoch) {
    (void)member;
    (void)epoch;
  }

  /// PGMP signal: a fault-recovery round is running (`true` from the first
  /// local Membership proposal until the round aborts or installs). A
  /// leader-based rule must stop issuing grants past its proposed cut —
  /// the equalization gate only synchronizes streams up to the cut, so
  /// later grants would reach survivors on opposite sides of their
  /// installs and fork the slot queues. Default no-op (Lamport ordering
  /// already stops on its own: a crashed member's bound stalls delivery).
  virtual void set_recovering(bool active) { (void)active; }

  /// Bodies the rule wants multicast to the group now (stamped, stored
  /// and sent by the session like any reliable message). Default: none —
  /// the Lamport rule never originates messages, which keeps default
  /// mode byte-identical.
  [[nodiscard]] virtual std::vector<Body> take_protocol_sends() { return {}; }

  /// The session stamped and stored this member's own reliable message
  /// `header` and is about to multicast it, so a leader can grant it at
  /// send time instead of on its arrival, and the Lamport rule knows an
  /// own message is in flight. Called before on_source_ordered takes the
  /// message in (at once under kLlft when every earlier own message is
  /// in, otherwise on its loopback arrival). Default no-op.
  virtual void on_own_send(const Header& header) { (void)header; }

  /// Whether this member's open egress batches on the group's addresses
  /// wait for Config::batch_flush_us, or close at the next drain when they
  /// hold more than heartbeats (docs/BATCHING.md). Holding frames back pays
  /// only where later frames can join them. Default true; LLFT answers
  /// whether this member leads.
  [[nodiscard]] virtual bool batches_wait() const { return true; }

 protected:
  /// A frame a rule holds until its turn, with its arrival time (0 when the
  /// caller had no time).
  struct Held {
    Frame frame;
    TimePoint arrival = 0;
  };

  /// Frames the rule holds: its share of ftmp_romp_pending_messages,
  /// which every rule keeps current.
  metrics::Gauge pending_{"ftmp_romp_pending_messages",
                          "Messages buffered awaiting total-order delivery",
                          "messages", "romp"};
};

/// The paper's rule (§6): totally-ordered frames wait in a
/// (timestamp, source) pending set until min over members of bound passes
/// their timestamp.
///
/// With `own_clock_bound` (OrderingMode::kLamport) this member counts at
/// max(bound(self), clock) whenever every reliable message it has stamped
/// is back through on_source_ordered: its later messages are stamped above
/// the clock and its earlier ones are already held, so nothing of its own
/// can still sort below that. Otherwise (an own message in flight, or
/// kLamportPaper) bound(self) is its last looped-back timestamp.
class LamportOrdering final : public OrderingPolicy {
 public:
  LamportOrdering(Romp& romp, bool own_clock_bound);

  void on_source_ordered(const Frame& frame, TimePoint now) override;
  [[nodiscard]] std::vector<Frame> collect_deliverable(TimePoint now) override;
  [[nodiscard]] std::vector<const Frame*> held_frames() const override;
  [[nodiscard]] std::vector<Frame> drain_up_to_cut(
      const std::map<ProcessorId, SeqNum>& cuts,
      const std::set<ProcessorId>& survivors) override;
  void remove_member(ProcessorId member) override;
  void on_own_send(const Header& header) override;

 private:
  using PendingMap = std::map<std::pair<Timestamp, std::uint32_t>, Held>;

  PendingMap::iterator erase(PendingMap::iterator it);

  /// The timestamp up to which pending frames may be delivered.
  [[nodiscard]] Timestamp delivery_bound() const;

  Romp& romp_;
  const bool own_clock_bound_;
  // Seqs of this member's last stamped reliable message and of its last
  // one back through on_source_ordered; equal when none is in flight.
  SeqNum own_sent_ = 0;
  SeqNum own_held_ = 0;
  // Totally-ordered frames (raw bodies, zero-copy slices of their arrival
  // buffers), keyed by delivery order (ts, src).
  PendingMap held_;
};

/// Builds the delivery rule for `mode` over the group's `romp`, which must
/// outlive it.
[[nodiscard]] std::unique_ptr<OrderingPolicy> make_ordering(OrderingMode mode,
                                                            Romp& romp);

}  // namespace ftcorba::ftmp
