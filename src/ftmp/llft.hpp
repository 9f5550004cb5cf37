// llft.hpp — LLFT-style leader-stamped delivery rule behind the
// OrderingPolicy seam (docs/ORDERING.md has the full protocol).
//
// Delivery rule. The leader (smallest-id leader-eligible member of the
// current view) grants a delivery slot for every totally-ordered message —
// its own and everyone else's — by multicasting OrderInfo messages on its
// own reliable stream. The slot queue is the concatenation of the grant
// lists in leader-stream order; every member delivers held messages
// strictly in slot order, waiting on RMP's NACK recovery when a granted
// message has not arrived yet. Latency needs only the leader's grant (at
// most two one-way hops), not — as in Lamport mode — a timestamp bound
// from every member.
//
// Grant at send. The leader grants its own Regulars as the session stores
// them (on_own_send), so under batching the grant leaves in the message's
// own datagram; anything that cannot be granted then is granted on its
// arrival instead.
//
// Take in at send. Every member passes its own Regulars and OrderInfo to
// RMP, Romp and this rule when the session stamps them, not when they
// loop back (GroupSession::finish_send; only while every earlier own
// message is in, Rmp::take_own). So the leader consumes its own grants
// and delivers in the pump that stamps them, before its batch leaves;
// the followers still wait for the datagram. Anything the leader sends
// after delivering carries a higher seq than the grant, so no member can
// act on a delivery whose grant it lacks.
//
// Batching at the leader. Under batching only the leader's data-bearing
// batches wait for the flush timer (batches_wait): a follower's Regular
// reaches the leader at once, and the leader's one window coalesces every
// member's grants.
//
// Epochs and reconciliation. Grants carry the view timestamp they were
// issued under. Followers consume grants only from the current leader at
// the exact current epoch; future-epoch grants are buffered until the view
// installs, stale ones are dropped. The leader suspends granting from the
// moment it grants a membership-change message until that change is
// delivered, so the slot queue is provably empty at every planned view
// change. At a fault install, remaining slots at or below the cut are
// delivered, slots beyond it are truncated (only a crashed source's
// messages can be referenced there), and ungranted held messages at or
// below the cut are delivered in Lamport (timestamp, source) order — the
// same deterministic remainder on every survivor. The new leader then
// re-grants surviving held messages and announces a delivered-floor
// advisory so late joiners discard pre-join backlog instead of re-ordering
// it.
//
// Stability is untouched: headers carry real Lamport timestamps and the
// group's Romp keeps driving RMP buffer reclaim from ack timestamps, which
// is what lets PGMP's equalization-gated installs cut an LLFT group
// exactly like a Lamport one.
#pragma once

#include <deque>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/metrics.hpp"
#include "ftmp/messages.hpp"
#include "ftmp/ordering.hpp"
#include "ftmp/romp.hpp"

namespace ftcorba::ftmp {

/// Leader-granted slot ordering over the group's Romp (clock, bounds,
/// stability and resume points stay there).
class LlftOrdering final : public OrderingPolicy {
 public:
  explicit LlftOrdering(Romp& romp);

  // ---- membership epochs ----
  void remove_member(ProcessorId member) override;
  void reset_source(ProcessorId src, SeqNum floor) override;
  void set_view(Timestamp view_ts) override;
  void note_joined_epoch(ProcessorId member, Timestamp epoch) override;

  // ---- inputs / delivery ----
  void on_source_ordered(const Frame& frame, TimePoint now) override;
  [[nodiscard]] std::vector<Frame> collect_deliverable(TimePoint now) override;
  [[nodiscard]] std::vector<const Frame*> held_frames() const override;
  [[nodiscard]] std::vector<Frame> drain_up_to_cut(
      const std::map<ProcessorId, SeqNum>& cuts,
      const std::set<ProcessorId>& survivors) override;

  // ---- engine-originated control traffic ----
  [[nodiscard]] std::vector<Body> take_protocol_sends() override;
  void on_own_send(const Header& header) override;
  void set_recovering(bool active) override;

  /// Only the leader's batches wait for the flush timer: its window is
  /// where every member's grants share a datagram. A follower's Regular is
  /// the leader's input, so holding it back only delays the grant.
  [[nodiscard]] bool batches_wait() const override { return leading(); }

  /// The member currently granting slots (ProcessorId{} when the group is
  /// empty); exposed for tests and chaos tooling.
  [[nodiscard]] ProcessorId leader() const { return granter_; }

  /// True when this member is the current leader.
  [[nodiscard]] bool leading() const {
    return have_granter_ && granter_ == romp_.self();
  }

  /// Future-view OrderInfo bodies currently buffered (bounded; exposed for
  /// tests).
  [[nodiscard]] std::size_t future_buffered() const { return future_count_; }

 private:
  struct Slot {
    ProcessorId src{};
    SeqNum seq = 0;
    TimePoint granted_at = 0;
  };

  // Everything kept per member stream. reset_source rebuilds a record and
  // remove_member drops it; first use creates one.
  struct Stream {
    // View timestamp at which the member joined (0 = founding member,
    // kJoinPending = admission in flight). Drives leader eligibility.
    Timestamp joined_epoch = 0;
    // Delivered high-water mark (grants at or below it are settled).
    SeqNum floor = 0;
    // Highest grant consumed from the leader (dedups re-grants).
    SeqNum granted_hw = 0;
    // Highest grant issued by this member as leader in the current view.
    SeqNum issued_hw = 0;
    // Totally-ordered frames held until their slot comes up.
    std::map<SeqNum, Held> held;
  };

  [[nodiscard]] SeqNum floor_of(ProcessorId src) const;
  [[nodiscard]] bool eligible(ProcessorId m) const;
  void recompute_granter();
  /// This leader's grant high-water mark for `s`, raised to cover what is
  /// already delivered or granted.
  [[nodiscard]] static SeqNum& issued_mark(Stream& s);
  /// Queues grants for every contiguously-held ungranted message from
  /// `src`; stops (and suspends) at a membership-change message.
  void grant_ready(ProcessorId src);
  /// grant_ready over all sources in (src asc) order — used when this
  /// member accedes to leadership or a recovery round aborts.
  void sweep_ungranted();
  void consume_order_info(ProcessorId from, const OrderInfoBody& body,
                          TimePoint now);
  void apply_floors(const std::vector<SourceSeq>& floors);
  /// Delivers one held message (Romp::note_delivered + slot metrics); the
  /// caller already decided it is next in the total order.
  Frame deliver_held(Stream& s, std::map<SeqNum, Held>::iterator it,
                     TimePoint now, TimePoint granted_at);

  // This session's share of the sessions gauge, and the process-global
  // instruments shared by every LLFT instance (docs/METRICS.md).
  struct Instruments {
    metrics::Gauge sessions;
    metrics::CounterHandle leader_changes;
    metrics::CounterHandle grants;
    metrics::CounterHandle stale_grants;
    metrics::CounterHandle future_dropped;
    metrics::CounterHandle truncations;
    metrics::HistogramHandle stamp_wait_ms;
    metrics::HistogramHandle slot_wait_ms;
  };

  Romp& romp_;

  // ---- epoch / leadership ----
  Timestamp epoch_ = 0;
  ProcessorId granter_{};
  bool have_granter_ = false;
  // Leader granted a membership change; no further grants until the change
  // is delivered (set_view).
  bool suspended_ = false;
  // PGMP fault-recovery round running: queued grants are withheld so none
  // outruns this member's proposed cut (see OrderingPolicy::set_recovering).
  bool recovering_ = false;

  // ---- per-source stream state ----
  std::unordered_map<ProcessorId, Stream> streams_;
  // Sequence number of this member's latest own totally-ordered send.
  SeqNum own_sent_hw_ = 0;

  // ---- slot machine ----
  std::deque<Slot> slots_;
  // Grants tagged for a future view, keyed by view timestamp; consumed (or
  // discarded) when that view installs. Bounded by kMaxFutureBodies
  // (future_count_ tracks the total across views).
  std::map<Timestamp, std::vector<std::pair<ProcessorId, OrderInfoBody>>> future_;
  std::size_t future_count_ = 0;
  // Grants queued by this member as leader, all tagged with the current
  // epoch (set_view clears and re-sweeps, so no mixed tags).
  std::vector<SourceSeq> pending_grants_;
  // Emit a delivered-floor advisory with the next OrderInfo (armed when
  // this member leads a new view).
  bool advisory_pending_ = false;

  Instruments metrics_;
};

}  // namespace ftcorba::ftmp
