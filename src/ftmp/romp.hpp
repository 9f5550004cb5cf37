// romp.hpp — the Reliable Ordered Multicast Protocol layer (§6): Lamport
// message timestamps give causal + total order; ack timestamps give message
// stability for buffer management.
//
// Ordering rule. For each member q we track bound(q): the largest timestamp
// B such that we are guaranteed to already hold every message from q with
// timestamp <= B. bound(q) advances when a reliable message from q is
// received in source order (its timestamp becomes the bound — q's later
// messages necessarily carry larger Lamport timestamps), or when a
// Heartbeat from q arrives whose carried sequence number equals our
// contiguously-received sequence for q (q asserts it has sent nothing we
// lack, and its future messages will exceed the heartbeat timestamp).
// A pending message m with timestamp t is deliverable once
// min over members q of bound(q) >= t; deliverable messages are delivered
// in (timestamp, source id) lexicographic order, which is a total order
// consistent with causality. Idle members keep bounds advancing via
// Heartbeats — exactly why §5 requires them for "liveness of ROMP".
//
// Stability rule. Every outgoing header carries ack_timestamp =
// min over members bound(q) ("the sender has received all messages with
// lower timestamps from all members", §3.2). A message with timestamp t is
// stable once min over members q of last-ack(q) >= t: every member holds
// it, nobody can need a retransmission, so RMP may reclaim the buffer (§6).
//
// Romp runs clock, bounds and stability for either delivery rule
// (ordering.hpp): LLFT replaces only who decides the order.
#pragma once

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/metrics.hpp"
#include "ftmp/config.hpp"
#include "ftmp/messages.hpp"

namespace ftcorba::ftmp {

/// Lamport clock, member bounds, ack timestamps, stability and consumption
/// positions for one processor group.
class Romp {
 public:
  /// Only the clock settings of `config` are used.
  Romp(ProcessorId self, const Config& config);

  [[nodiscard]] ProcessorId self() const { return self_; }

  // ---- membership epochs ----

  /// (Re)admits `member` (bootstrap, join, or an AddProcessor's ordering
  /// point): its bound and acks count from now on. Its record restarts
  /// with the stream consumed up to `floor` and nothing unstable; only
  /// what its current incarnation already sent carries over: its last ack,
  /// and its bound if above `initial_bound` (a joiner's seq-0 heartbeats
  /// arrive before its admission and vouch for it). `initial_bound` is the
  /// AddProcessor's own timestamp when `member` joins at that Add's
  /// ordering point (its messages are stamped above it), 0 otherwise.
  /// Such a joiner is greeted (ack_urgent): now, and again on the first
  /// header heard from it stamped above the Add.
  void admit(ProcessorId member, SeqNum floor, Timestamp initial_bound);

  /// Removes `member`: its record goes, and its bound and acks stop
  /// counting.
  void expel(ProcessorId member);

  /// Current member set.
  [[nodiscard]] const std::set<ProcessorId>& members() const { return members_; }

  // ---- timestamping ----

  /// Stamps an outgoing message (advances the Lamport clock).
  [[nodiscard]] Timestamp stamp(TimePoint now) {
    stamped_ = clock_.tick(now);
    return stamped_;
  }

  /// Observes a timestamp (Lamport advance) without receiving a message —
  /// used when a joining member seeds its clock from an AddProcessor body.
  void witness(Timestamp t) { clock_.witness(t); }

  /// The greatest timestamp stamped or witnessed so far; every later
  /// stamp() is larger.
  [[nodiscard]] Timestamp clock() const { return clock_.latest(); }

  /// True while another member's totally-ordered message carries a
  /// timestamp above everything this member has stamped: the others cannot
  /// count this member's bound past it until it sends something. Any send
  /// pays the debt, since it is stamped above the clock.
  [[nodiscard]] bool ack_owed() const { return heard_ > stamped_; }

  /// True while a debt is owed that must be paid at once rather than at a
  /// rank slot: one raised by a membership message (AddProcessor,
  /// RemoveProcessor, Connect), or by owe_ack. Like ack_owed, the next
  /// send pays it.
  [[nodiscard]] bool ack_urgent() const { return urgent_ > stamped_; }

  /// Owes an urgent ack above everything stamped or witnessed so far: a
  /// greeting to a joiner (admit), or a rebind flush that waits for every
  /// member, the Connect's sender included, to be heard above the Connect.
  void owe_ack() { urgent_ = std::max(urgent_, clock_.latest() + 1); }

  /// Ack timestamp for outgoing headers: min over members of bound
  /// ("received all messages with lower timestamps from all members").
  [[nodiscard]] Timestamp ack_timestamp() const;

  /// Current bound for one member (0 if never heard).
  [[nodiscard]] Timestamp bound(ProcessorId q) const;

  /// min over members of bound — the timestamp up to which Lamport
  /// delivery can proceed (also the flush watermark for Connect rebinds,
  /// §7).
  [[nodiscard]] Timestamp min_bound() const;

  // ---- inputs ----

  /// Every reliable frame from RMP, in source order, before the delivery
  /// rule sees it: witnesses the timestamp, records the ack, raises
  /// bound(source) and tracks the message until it is stable. Types that
  /// are not totally ordered (Suspect, Membership, state transfer,
  /// OrderInfo; Fig. 3) count as consumed right away; totally-ordered ones
  /// from another member may leave an ack owed (ack_owed), urgent for a
  /// membership message (ack_urgent).
  void on_source_ordered(const Header& header);

  /// A Heartbeat header (unreliable direct delivery from RMP).
  /// `contiguous_seq` is RMP's contiguously-received sequence for the
  /// source; the bound only rises when the heartbeat's sequence number
  /// equals it (otherwise there are messages in flight we lack).
  void on_heartbeat(const Header& header, SeqNum contiguous_seq);

  // ---- delivery bookkeeping (called by the delivery rules) ----

  /// The rule delivered `header`'s message in total order: advances the
  /// consumed position of its source and records the ordering wait (when
  /// both `arrival` and `now` are known) and the delivered-vs-stable lag.
  void note_delivered(const Header& header, TimePoint arrival, TimePoint now);

  /// The rule settled `seq` from `src` without delivering it (LLFT's
  /// delivered-floor advisory covers it): it counts as consumed.
  void mark_consumed(ProcessorId src, SeqNum seq);

  // ---- stability and resume points ----

  /// Timestamp below which every member has acknowledged everything.
  [[nodiscard]] Timestamp stable_timestamp() const;

  /// The largest ack timestamp observed from `q` (0 if never heard) — the
  /// per-member stability knowledge feeding slow-receiver lag monitoring
  /// (flow.hpp): stable_timestamp() is the min of these over members.
  [[nodiscard]] Timestamp last_ack(ProcessorId q) const;

  /// Advances stability: returns, per source, the largest sequence number
  /// whose message has become stable since the last call. The session
  /// forwards these to Rmp::release (§6: "ROMP then recovers the buffer
  /// space").
  [[nodiscard]] std::vector<std::pair<ProcessorId, SeqNum>> collect_stable();

  /// The largest S such that every message from `src` with seq <= S has
  /// been consumed here: delivered if totally ordered, or handed to PGMP
  /// if a source-ordered control message (Suspect/Membership). This, and
  /// not the last delivered seq, is the safe stream-resume point for a new
  /// member (§7.1 AddProcessor bodies): control messages may be
  /// stability-purged and are epoch-stale for a joiner anyway, so a
  /// boundary below them could never become contiguous.
  [[nodiscard]] SeqNum consumed_up_to(ProcessorId src) const;

 private:
  // Everything kept per source. admit rebuilds a member's record and
  // expel drops it; the first header heard from a source creates one.
  struct Source {
    Timestamp bound = 0;
    Timestamp last_ack = 0;
    // Contiguous consumed prefix (ordered deliveries + control messages),
    // plus out-of-prefix consumed seqs awaiting the gap.
    SeqNum consumed_up_to = 0;
    std::set<SeqNum> consumed_ahead;
    // Timestamps of contiguously received reliable messages that are not
    // yet stable, mapping to their seq (for stability -> RMP release).
    std::map<Timestamp, SeqNum> unstable;
    // A joiner's AddProcessor timestamp until a header stamped above it
    // is heard and greeted (admit); 0 otherwise.
    Timestamp greet_above = 0;
  };

  /// Witnesses `h`'s timestamp and records its ack (and greets a joiner's
  /// first header above its AddProcessor); returns its source.
  Source& observe_header(const Header& h);

  // Process-global instruments shared by every Romp instance (docs/METRICS.md).
  struct Instruments {
    metrics::CounterHandle ordered_delivered;
    metrics::CounterHandle stability_releases;
    metrics::HistogramHandle ordering_wait_ms;
    metrics::HistogramHandle stability_lag;
  };

  ProcessorId self_;
  TimestampSource clock_;
  std::set<ProcessorId> members_;
  std::unordered_map<ProcessorId, Source> sources_;
  Timestamp last_stable_ = 0;
  // Highest timestamp this member stamped, highest on another member's
  // totally-ordered message (ack_owed), and the timestamp an urgent debt
  // must pass (ack_urgent).
  Timestamp stamped_ = 0;
  Timestamp heard_ = 0;
  Timestamp urgent_ = 0;
  Instruments metrics_;
};

/// True for the message types Fig. 3 marks "Totally Ordered".
[[nodiscard]] bool is_totally_ordered(MessageType t);

/// True for the message types Fig. 3 marks "Reliable" (they consume
/// sequence numbers and flow through RMP's source-ordered path).
[[nodiscard]] bool is_reliable(MessageType t);

}  // namespace ftcorba::ftmp
