// llft.hpp — LLFT-style leader-stamped total ordering behind the
// OrderingPolicy seam (docs/ORDERING.md has the full protocol).
//
// Delivery rule. The leader (smallest-id leader-eligible member of the
// current view) grants a delivery slot for every totally-ordered message —
// its own and everyone else's — by multicasting OrderInfo messages on its
// own reliable stream. The slot queue is the concatenation of the grant
// lists in leader-stream order; every member (the leader included, via
// multicast loopback) delivers held messages strictly in slot order,
// waiting on RMP's NACK recovery when a granted message has not arrived
// yet. Latency needs only the leader's grant (at most two one-way hops),
// not — as in Lamport mode — a timestamp bound from every member.
//
// Grant at send. The leader grants its own Regulars as the session stores
// them (on_own_send), so under batching the grant leaves in the message's
// own datagram; anything that cannot be granted then is granted on its
// loopback arrival instead.
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
// ack-timestamp machinery inherited from Romp keeps driving RMP buffer
// reclaim, which is what lets PGMP's equalization-gated installs cut an
// LLFT group exactly like a Lamport one.
#pragma once

#include <deque>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/metrics.hpp"
#include "ftmp/config.hpp"
#include "ftmp/messages.hpp"
#include "ftmp/romp.hpp"

namespace ftcorba::ftmp {

/// Leader-granted slot ordering; reuses Romp's clock, bounds, ack and
/// stability machinery wholesale and replaces only the delivery rule.
class LlftOrdering : public Romp {
 public:
  LlftOrdering(ProcessorId self, const Config& config);
  ~LlftOrdering() override;

  [[nodiscard]] OrderingMode mode() const override {
    return OrderingMode::kLlft;
  }

  // ---- membership epochs ----
  void set_members(const std::vector<ProcessorId>& members) override;
  void remove_member(ProcessorId member, bool drop_pending) override;
  void reset_source(ProcessorId src, SeqNum floor) override;
  void set_view(Timestamp view_ts) override;
  void note_joined_epoch(ProcessorId member, Timestamp epoch) override;

  // ---- inputs / delivery ----
  void on_source_ordered(const Frame& frame, TimePoint now = 0) override;
  [[nodiscard]] std::vector<Frame> collect_deliverable(TimePoint now = 0) override;
  [[nodiscard]] std::size_t pending_count() const override { return held_count_; }
  [[nodiscard]] std::vector<Frame> drain_up_to_cut(
      const std::map<ProcessorId, SeqNum>& cuts,
      const std::set<ProcessorId>& survivors) override;

  // ---- engine-originated control traffic ----
  [[nodiscard]] std::vector<Body> take_protocol_sends() override;
  void on_own_send(const Header& header) override;
  void set_recovering(bool active) override;

  /// The member currently granting slots (ProcessorId{} when the group is
  /// empty); exposed for tests and chaos tooling.
  [[nodiscard]] ProcessorId leader() const { return granter_; }

  /// True when this member is the current leader.
  [[nodiscard]] bool leading() const {
    return have_granter_ && granter_ == self_;
  }

  /// Future-view OrderInfo bodies currently buffered (bounded; exposed for
  /// tests).
  [[nodiscard]] std::size_t future_buffered() const { return future_count_; }

 private:
  struct HeldEntry {
    Frame frame;
    TimePoint arrival = 0;
  };
  struct Slot {
    ProcessorId src{};
    SeqNum seq = 0;
    TimePoint granted_at = 0;
  };

  [[nodiscard]] SeqNum floor_of(ProcessorId src) const;
  [[nodiscard]] bool eligible(ProcessorId m) const;
  void recompute_granter();
  /// This leader's grant high-water mark for `src`, raised to cover what is
  /// already delivered or granted.
  [[nodiscard]] SeqNum& issued_mark(ProcessorId src);
  /// Queues grants for every contiguously-held ungranted message from
  /// `src`; stops (and suspends) at a membership-change message.
  void grant_ready(ProcessorId src);
  /// grant_ready over all sources in (src asc) order — used when this
  /// member accedes to leadership or a recovery round aborts.
  void sweep_ungranted();
  void consume_order_info(ProcessorId from, const OrderInfoBody& body,
                          TimePoint now);
  void apply_floors(const std::vector<SourceSeq>& floors);
  /// Delivers one held message (bookkeeping + metrics); the caller already
  /// decided it is next in the total order.
  Frame deliver_held(ProcessorId src, std::map<SeqNum, HeldEntry>::iterator it,
                     TimePoint now, TimePoint granted_at);

  // Process-global instruments shared by every LLFT instance
  // (docs/METRICS.md).
  struct LlftInstruments {
    metrics::GaugeHandle sessions;
    metrics::CounterHandle leader_changes;
    metrics::CounterHandle grants;
    metrics::CounterHandle stale_grants;
    metrics::CounterHandle future_dropped;
    metrics::CounterHandle truncations;
    metrics::HistogramHandle stamp_wait_ms;
    metrics::HistogramHandle slot_wait_ms;
  };

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
  // View timestamp at which each member joined (missing = founding member,
  // kJoinPending = admission in flight). Drives leader eligibility.
  std::unordered_map<ProcessorId, Timestamp> joined_epoch_;

  // ---- per-source stream state ----
  // Delivered high-water mark (grants at or below it are settled).
  std::unordered_map<ProcessorId, SeqNum> floor_;
  // Highest grant consumed from the leader (dedups re-grants).
  std::unordered_map<ProcessorId, SeqNum> granted_hw_;
  // Highest grant issued by this member as leader.
  std::unordered_map<ProcessorId, SeqNum> issued_hw_;
  // Sequence number of this member's latest own totally-ordered send.
  SeqNum own_sent_hw_ = 0;
  // Totally-ordered frames held until their slot comes up.
  std::unordered_map<ProcessorId, std::map<SeqNum, HeldEntry>> held_;
  std::size_t held_count_ = 0;

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
  // Emit a delivered-floor advisory with the next OrderInfo (armed at
  // accession / view change).
  bool advisory_pending_ = false;

  LlftInstruments llft_metrics_;
};

}  // namespace ftcorba::ftmp
