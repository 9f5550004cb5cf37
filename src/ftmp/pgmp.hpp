// pgmp.hpp — the Processor Group Membership Protocol layer (§7) for one
// processor group: planned membership changes (AddProcessor /
// RemoveProcessor, which ride the total order), and fault-driven changes
// (Suspect -> conviction -> Membership exchange -> virtually synchronous
// cut), plus the fault detector fed by heartbeat receipt.
//
// Conviction rule. Suspicions from Suspect messages (reliable, source
// ordered) form a matrix: suspicion[r] = the set r currently suspects.
// The convicted set C is the least fixpoint of
//     C = { q in members : every r in members \ C suspects q },
// i.e. the processors that everyone still standing agrees are faulty. The
// paper leaves the exact heuristic open ("Suspect messages are used in
// conjunction with heuristic algorithms"); this unanimity-of-the-living
// rule is simple, deterministic and converges because Suspect messages are
// reliable.
//
// Recovery round. Once C is non-empty, each survivor multicasts a
// Membership message proposing P = members \ C and reporting its contiguous
// sequence numbers. When Membership messages proposing exactly P have been
// received from every member of P, the cut is computed: for survivor s,
// cut(s) = the seq of s's own Membership message; for crashed c, cut(c) =
// max over survivors' reported current_seqs[c]. Each survivor NACK-recovers
// anything below the cut it lacks ("request retransmission of any message
// ... that some other processor of that membership has received", §7.2),
// delivers the old-epoch remainder in timestamp order, and installs P —
// all survivors deliver exactly the same messages (virtual synchrony).
//
// A round is one record (Round): the first conviction opens it, and it ends
// through end_round at the install or at an abort (every conviction
// withdrawn). Either end drops the record and every stored proposal and
// restarts the ordering engine; the install also clears the view's
// suspicions. The suspicion matrix and the proposals live outside the
// record, because other members' reports can arrive before this member's
// first conviction. Self-eviction leaves the record alone: later frames of
// the same step still reach on_suspect and on_membership_msg, and an
// evicted leader must not resume granting past its proposed cut.
//
// Partitions. A proposal is only installed if it contains more than half of
// the old membership (or exactly half including the smallest processor id),
// so at most one side of a partition continues — primary-partition
// semantics. A minority stalls, exactly as §7's "the ordering of messages
// stops" describes. (Known simplifications, recorded in DESIGN.md §6: a
// second fault arriving in the narrow window after some survivors complete
// a round and before others do is resolved by a fresh round and can, in
// adversarial schedules, deliver the overlap in different orders; the paper
// does not specify this case. And a member that opened no round keeps the
// proposals of members whose rounds aborted, so a later round can complete
// there on proposals their senders abandoned, with another view timestamp
// and cut than at members that waited for the fresh ones: nothing on the
// wire tells an early proposal from an abandoned one.)
#pragma once

#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/metrics.hpp"
#include "ftmp/config.hpp"
#include "ftmp/events.hpp"
#include "ftmp/messages.hpp"
#include "ftmp/ordering.hpp"
#include "ftmp/rmp.hpp"

namespace ftcorba::ftmp {

/// Sponsor side: period between retransmissions of an AddProcessor toward
/// a new member, which cannot NACK yet (§5: reliability exception), and
/// between re-announcements of a rebind Connect on the retiring address
/// (GroupSession). Server-side establishment Connects toward a client group
/// are resent on the Stack's own 50 ms period (kConnectRetryInterval,
/// stack.cpp).
inline constexpr Duration kJoinRetryInterval = 20 * kMillisecond;

/// PGMP asks the session to stamp and multicast a protocol message.
struct SendBodyOut {
  Body body;
  bool reliable = true;
};

/// PGMP asks the session to re-multicast a stored encoded message verbatim
/// (sponsor retransmitting an AddProcessor toward a new member that cannot
/// NACK yet).
struct ResendStoredOut {
  ProcessorId source{};
  SeqNum seq = 0;
};

/// A completed membership change: Regular messages from the old epoch that
/// were delivered as part of the cut, the membership event, and fault
/// reports for convicted processors.
struct InstallOut {
  std::vector<Frame> remainder;  ///< old-epoch Regular frames, in order
  MembershipChanged change;
  std::vector<FaultReport> faults;
  bool self_evicted = false;
};

/// Any PGMP output, drained by the session.
using PgmpOut = std::variant<SendBodyOut, ResendStoredOut, InstallOut>;

/// Membership protocol for one processor group on one processor.
class Pgmp {
 public:
  /// `rmp`, `romp` and `ordering` are the sibling layers of the same group
  /// session; PGMP queries stream state from RMP and performs epoch surgery
  /// on all three. The delivery rule is reached only through the
  /// OrderingPolicy seam, so either mode (Lamport or LLFT) reconciles
  /// through the same installs. admit and expel (private) are the only
  /// code that creates or drops a member's state in any of the four.
  Pgmp(ProcessorId self, const Config& config, Rmp& rmp, Romp& romp,
       OrderingPolicy& ordering);

  // ---- lifecycle ----

  /// Installs the bootstrap membership (all founding members call this with
  /// the same member list).
  void bootstrap(TimePoint now, const std::vector<ProcessorId>& members);

  /// Initializes this processor as the new member named by an ordered
  /// AddProcessor message it received (sponsor keeps retransmitting it
  /// until we speak). Sets up RMP sources from the body's sequence numbers
  /// and ROMP bounds from the membership timestamp.
  void init_from_add(TimePoint now, const Message& add_msg);

  /// Current membership (timestamp + sorted members).
  [[nodiscard]] const MembershipInfo& membership() const { return membership_; }

  /// False once this processor has been evicted from the group.
  [[nodiscard]] bool active() const { return active_; }

  /// True while a fault-recovery round is in progress (ordering stalled).
  [[nodiscard]] bool reconfiguring() const { return round_.has_value(); }

  // ---- fault detector ----

  /// Notes that a packet from `src` arrived (resets its fault timer and
  /// withdraws any suspicion of it that has not yet led to conviction).
  void note_heard(ProcessorId src, TimePoint now);

  // ---- planned membership changes (§7.1) ----

  /// Starts adding `new_member`: returns the AddProcessor body to be sent
  /// as a totally-ordered message, or nullopt if the member already belongs
  /// / a recovery is in progress (the paper's protocol for planned changes
  /// assumes no faulty processors).
  [[nodiscard]] std::optional<AddProcessorBody> make_add(ProcessorId new_member) const;

  /// Starts removing `member` (planned, non-faulty): returns the
  /// RemoveProcessor body, or nullopt if not a member / recovery running.
  [[nodiscard]] std::optional<RemoveProcessorBody> make_remove(ProcessorId member) const;

  /// Records that an AddProcessor for `member` was multicast at `now`: opens
  /// this sponsor's record of the join, and make_add refuses another for the
  /// same member until the record ends (guards against add storms when
  /// callers retry). Also pins this processor's retransmission store above
  /// the body's resume points, for as long as the record lasts, so
  /// stability cannot purge messages the joiner will need (see
  /// Rmp::pin_store).
  void note_add_sent(ProcessorId member, TimePoint now, const AddProcessorBody& body);

  /// An ordered AddProcessor was delivered: applies the membership change.
  /// If this processor is the sponsor (the message's source), it starts
  /// retransmitting the stored message toward the new member.
  void on_add_ordered(TimePoint now, const Message& msg);

  /// An ordered RemoveProcessor was delivered: applies the change; may mark
  /// self evicted.
  void on_remove_ordered(TimePoint now, const Message& msg);

  // ---- fault-driven membership changes (§7.2) ----

  /// A Suspect message arrived (reliable, source order): updates the
  /// suspicion matrix and may start/extend a recovery round.
  void on_suspect(TimePoint now, const Message& msg);

  /// A Membership message arrived (reliable, source order): records the
  /// sender's proposal and stream report; may complete the round.
  void on_membership_msg(TimePoint now, const Message& msg);

  // ---- periodic work ----

  /// Fault-timeout scan, recovery progress checks, join retransmissions.
  /// A gap since the previous tick longer than heartbeat_interval means the
  /// detector was not running: the gap is credited to every silence clock
  /// (last heard, suspecting since, a sponsor record's phase) instead of
  /// being counted against a peer.
  void tick(TimePoint now);

  /// Drains queued outputs.
  [[nodiscard]] std::vector<PgmpOut> take_output();

 private:
  // Everything PGMP keeps per member: admit builds a fresh record, expel
  // drops it.
  struct Peer {
    TimePoint last_heard = 0;  // fault detector
    bool suspected = false;
    // Header seq of its Membership message in the last completed round;
    // its Suspect and Membership messages at or below it are stale.
    SeqNum round_floor = 0;
  };
  struct Proposal {
    std::vector<ProcessorId> new_membership;  // sorted
    std::vector<SourceSeq> seqs;
    SeqNum msg_seq = 0;      // header seq of the Membership message
    Timestamp msg_ts = 0;    // header timestamp of the Membership message
  };
  // A fault-recovery round (§7.2), from the first conviction until
  // end_round.
  struct Round {
    TimePoint started = 0;                // for install_duration_ms
    std::set<ProcessorId> convicted;      // never empty
    std::vector<ProcessorId> proposal;    // ours, once multicast
    bool equalizing = false;              // counted in equalization_rounds
  };
  // A join this processor sponsors. It is in flight from the multicast of
  // our AddProcessor until an ordered Add names the joiner; if that Add is
  // ours, the record then re-multicasts it until the joiner speaks (the
  // resend phase). Its store pin goes with the record, or earlier in expel.
  struct Join {
    ProcessorId joiner{};
    SeqNum add_seq = 0;      // our ordered AddProcessor; 0 while in flight
    TimePoint since = 0;     // the phase's start: the Add's send, then its ordering
    TimePoint last_resend = 0;
    [[nodiscard]] bool in_flight() const { return add_seq == 0; }
  };

  // Process-global instruments shared by every Pgmp instance (docs/METRICS.md).
  struct Instruments {
    metrics::CounterHandle suspicions;
    metrics::CounterHandle suspect_msgs;
    metrics::CounterHandle membership_msgs;
    metrics::CounterHandle convictions;
    metrics::CounterHandle equalization_rounds;
    metrics::CounterHandle recoveries;
    metrics::CounterHandle adds;
    metrics::CounterHandle removes;
    metrics::HistogramHandle install_duration_ms;
    metrics::HistogramHandle add_install_ms;
  };

  /// Starts `member`'s state in every layer afresh: its RMP stream expects
  /// seq `floor + 1` and rejects timestamps at or below `since` (the
  /// incarnation floor), Romp and the rule resume it at `floor`, and its
  /// stored messages from any earlier incarnation are purged.
  void admit(ProcessorId member, TimePoint now, SeqNum floor, Timestamp since);
  /// Drops `member`'s state in every layer; its stored messages stay for
  /// stragglers until a deferred purge.
  void expel(ProcessorId member, TimePoint now);
  /// Multicasts this member's suspect set (a Suspect message).
  void announce_suspects();
  [[nodiscard]] bool suspecting() const;
  /// True if `msg` belongs to a round its source already completed.
  [[nodiscard]] bool stale_round(const Message& msg) const;
  void recompute_convicted(TimePoint now);
  void refresh_suspicions_after_change();
  void maybe_send_membership();
  void try_complete(TimePoint now);
  /// Ends the round at its install or abort: drops the record and every
  /// stored proposal, and restarts the ordering engine.
  void end_round();
  /// Reports that this processor left the group (`reason`) and stops it.
  void self_evict(MembershipChanged::Reason reason);
  [[nodiscard]] std::vector<ProcessorId> proposal_from_convicted() const;
  [[nodiscard]] bool quorum(const std::vector<ProcessorId>& proposal) const;
  [[nodiscard]] SeqNum own_contiguous(ProcessorId m) const;
  /// Ends a sponsor record together with its store pin.
  std::vector<Join>::iterator drop_join(std::vector<Join>::iterator join);

  ProcessorId self_;
  Config config_;
  Rmp& rmp_;
  Romp& romp_;
  OrderingPolicy& ordering_;

  bool active_ = false;
  MembershipInfo membership_;

  // The members, plus this processor while its own admission is in
  // flight, in id order (Suspect bodies list suspects in that order).
  std::map<ProcessorId, Peer> peers_;
  // When this member last started suspecting someone; if no recovery
  // completes within the stranding window the processor gives up and
  // self-evicts (it is likely alone in an epoch the rest of the group left
  // behind).
  std::optional<TimePoint> suspects_since_;
  // This Pgmp's previous tick; unset until the first one, so the time
  // before it (from bootstrap or admission) counts as silence.
  std::optional<TimePoint> last_tick_;

  // Suspicion matrix and proposals, keyed by reporter (a joiner's own row
  // counts before it is a member). Both can arrive before this member opens
  // a round, so they live outside it.
  std::unordered_map<ProcessorId, std::set<ProcessorId>> suspicion_;
  std::unordered_map<ProcessorId, Proposal> proposals_;
  std::optional<Round> round_;

  // The joins this processor sponsors; those in the resend phase are in
  // the order their Adds were delivered, which is the order they resend in.
  std::vector<Join> joins_;

  // Removed members whose stored messages are purged once no survivor can
  // still need them (lagging members recover via NACK for a while).
  std::vector<std::pair<ProcessorId, TimePoint>> deferred_purges_;

  std::vector<PgmpOut> output_;
  Instruments metrics_;
};

}  // namespace ftcorba::ftmp
