// ordering.hpp — the pluggable total-ordering seam (docs/ORDERING.md).
//
// GroupSession, PGMP and the flow controller order, stabilize and cut
// message streams exclusively through this interface; which engine sits
// behind it is a per-stack Config choice (`Config::ordering_mode`):
//
//   * Romp (romp.hpp) — the paper's Lamport ack-timestamp agreement.
//     Default, pinned byte-identical to the pre-seam stack by
//     tests/ftmp/ordering_equivalence_test.cpp.
//   * LlftOrdering (llft.hpp) — LLFT-style leader-stamped slots: the
//     smallest-id live member grants the delivery order via OrderInfo
//     messages riding its own reliable stream.
//
// Every implementation keeps the full Lamport stability machinery running
// (timestamps, ack bounds, heartbeat-driven stability, buffer reclaim):
// the seam swaps the *delivery order* rule, not the header format or the
// stability protocol — which is what lets PGMP's equalization-gated
// installs reconcile either mode through the same virtual-synchrony cut.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "ftmp/config.hpp"
#include "ftmp/messages.hpp"

namespace ftcorba::ftmp {

/// Sentinel for note_joined_epoch: the member's admission has not reached
/// its ordering point yet, so it is leader-ineligible in every view.
inline constexpr Timestamp kJoinPending = ~Timestamp{0};

/// Counters for tests and the E7/E8 benches (shared across engines).
struct OrderingStats {
  std::uint64_t ordered_delivered = 0;  ///< messages handed up in total order
  std::uint64_t pending_peak = 0;       ///< max simultaneous pending messages
  std::uint64_t stability_releases = 0; ///< (source, seq) release notices issued
};

/// Total order + stability for one processor group, behind a seam.
///
/// Contract highlights (docs/ORDERING.md has the full version):
///  * `on_source_ordered` receives every reliable frame in per-source
///    order; the engine decides what is orderable vs control traffic.
///  * `collect_deliverable` returns frames in the group's total order and
///    stops a batch after any membership-affecting (non-Regular) message,
///    so the caller can apply it before ordering continues.
///  * `drain_up_to_cut` finalizes the old epoch at a fault install: every
///    survivor must return the identical remainder sequence given the
///    identical cuts (PGMP's equalization gate guarantees the inputs
///    match).
///  * `take_protocol_sends` lets an engine emit its own control messages
///    (LLFT's OrderInfo grants); the session stamps, stores and multicasts
///    them exactly like any other reliable body.
///  * `on_own_send` sees every reliable message this member sends, as soon
///    as it is stored, so a leader can grant its own messages at send time
///    instead of on their loopback arrival.
///  * `set_view` is called at every membership-change point — planned
///    add/remove ordering points, fault installs, bootstrap and join —
///    after the member set has been updated; leader-based engines
///    recompute leadership and advance their grant epoch here.
class OrderingPolicy {
 public:
  virtual ~OrderingPolicy() = default;

  /// Which engine this is (LLFT also counts itself in the
  /// ftmp_ordering_llft_sessions gauge).
  [[nodiscard]] virtual OrderingMode mode() const = 0;

  // ---- membership epochs ----
  virtual void set_members(const std::vector<ProcessorId>& members) = 0;
  virtual void add_member(ProcessorId member, Timestamp initial_bound) = 0;
  virtual void remove_member(ProcessorId member, bool drop_pending) = 0;
  virtual void reset_source(ProcessorId src, SeqNum floor) = 0;
  [[nodiscard]] virtual std::vector<ProcessorId> members() const = 0;
  [[nodiscard]] virtual bool is_member(ProcessorId p) const = 0;

  /// Membership changed under view timestamp `view_ts` (see class comment).
  virtual void set_view(Timestamp view_ts) = 0;

  /// Leader-eligibility bookkeeping for leader-based engines: `member`
  /// joined the group at view `epoch` (`kJoinPending` while its admission
  /// is still in flight). A member admitted in the current view defers
  /// leadership until the next view change — the standing leader's floor
  /// advisory must reach it before it may ever grant (docs/ORDERING.md).
  /// Default no-op: Lamport ordering is leaderless.
  virtual void note_joined_epoch(ProcessorId member, Timestamp epoch) {
    (void)member;
    (void)epoch;
  }

  // ---- timestamping ----
  [[nodiscard]] virtual Timestamp stamp(TimePoint now) = 0;
  [[nodiscard]] virtual Timestamp latest() const = 0;
  virtual void witness(Timestamp t) = 0;
  [[nodiscard]] virtual Timestamp ack_timestamp() const = 0;
  [[nodiscard]] virtual Timestamp bound(ProcessorId q) const = 0;
  [[nodiscard]] virtual Timestamp min_bound() const = 0;

  // ---- inputs ----
  virtual void on_source_ordered(const Frame& frame, TimePoint now = 0) = 0;
  virtual void on_heartbeat(const Header& header, SeqNum contiguous_seq) = 0;

  // ---- ordered delivery ----
  [[nodiscard]] virtual std::vector<Frame> collect_deliverable(TimePoint now = 0) = 0;
  [[nodiscard]] virtual std::size_t pending_count() const = 0;
  [[nodiscard]] virtual SeqNum last_ordered_seq(ProcessorId src) const = 0;
  [[nodiscard]] virtual SeqNum consumed_up_to(ProcessorId src) const = 0;

  // ---- stability / buffer management ----
  [[nodiscard]] virtual Timestamp stable_timestamp() const = 0;
  [[nodiscard]] virtual Timestamp last_ack(ProcessorId q) const = 0;
  [[nodiscard]] virtual std::vector<std::pair<ProcessorId, SeqNum>>
  collect_stable() = 0;

  // ---- fault-recovery epoch cut (PGMP §7.2) ----
  [[nodiscard]] virtual std::vector<Frame> drain_up_to_cut(
      const std::map<ProcessorId, SeqNum>& cuts,
      const std::set<ProcessorId>& survivors) = 0;

  /// Layer counters.
  [[nodiscard]] virtual const OrderingStats& stats() const = 0;

  // ---- engine-originated control traffic ----

  /// Bodies the engine wants multicast to the group now (stamped, stored
  /// and sent by the session like any reliable message). Default: none —
  /// the Lamport engine never originates messages, which keeps default
  /// mode byte-identical.
  [[nodiscard]] virtual std::vector<Body> take_protocol_sends() { return {}; }

  /// The session stamped and stored this member's own reliable message
  /// `header` and is about to multicast it. Default no-op: only a leader
  /// granting its own messages needs it, and Lamport mode stays
  /// byte-identical.
  virtual void on_own_send(const Header& header) { (void)header; }

  /// PGMP signal: a fault-recovery round is running (`true` from the first
  /// local Membership proposal until the round aborts or installs). A
  /// leader-based engine must stop issuing grants past its proposed cut —
  /// the equalization gate only synchronizes streams up to the cut, so
  /// later grants would reach survivors on opposite sides of their
  /// installs and fork the slot queues. Default no-op (Lamport ordering
  /// already stops on its own: a crashed member's bound stalls delivery).
  virtual void set_recovering(bool active) { (void)active; }
};

/// Builds the engine selected by `config.ordering_mode`.
[[nodiscard]] std::unique_ptr<OrderingPolicy> make_ordering(
    ProcessorId self, const Config& config);

}  // namespace ftcorba::ftmp
