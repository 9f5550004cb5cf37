// group_session.hpp — one processor's FTMP endpoint for one processor
// group: the composition of RMP, ROMP and PGMP (Fig. 1), plus header
// stamping and message encoding.
//
// The session is sans-IO: `handle` consumes decoded messages, `tick`
// advances timers, and everything to be transmitted or delivered upward is
// appended to the shared Outbox owned by the Stack.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/ids.hpp"
#include "ftmp/config.hpp"
#include "ftmp/events.hpp"
#include "ftmp/flow.hpp"
#include "ftmp/fragment.hpp"
#include "ftmp/messages.hpp"
#include "ftmp/ordering.hpp"
#include "ftmp/pgmp.hpp"
#include "ftmp/rmp.hpp"
#include "ftmp/romp.hpp"
#include "net/packet.hpp"

namespace ftcorba::ftmp {

/// Collects the outputs of one Stack: datagrams to transmit and events to
/// deliver to the ORB / FT infrastructure.
struct Outbox {
  std::vector<net::Datagram> packets;
  std::vector<Event> events;
};

/// A Regular message from another member that a session holds: received
/// in source order and not yet delivered (GroupSession::held_copies).
struct HeldCopy {
  ProcessorId source{};
  /// The encapsulated payload, a zero-copy slice of the arrival buffer.
  SharedBytes payload;
};

/// Prompt acknowledgement (OrderingMode::kLamport): a member that owes an
/// ack (Romp::ack_owed) and has sent nothing else for a while sends a
/// Heartbeat, so other members' messages wait for this member's ack and
/// not for its heartbeat interval. kAckDelay is the longest such wait.
/// Membership changes do not wait even that long: a debt raised by a
/// membership message, the greetings a joiner is owed and the ack a rebind
/// flush waits for are paid at once (Romp::ack_urgent); a sponsor repeats
/// each re-multicast of a joiner's AddProcessor once, kAckDelay later; and
/// a member whose own datagram has not looped back within kAckDelay probes
/// for it with one Heartbeat, which shows the gap to RMP's NACK repair
/// (docs/ORDERING.md §2).
inline constexpr Duration kAckDelay = 2 * kMillisecond;

/// The ack schedule staggers a message's receivers by view rank: a member
/// of rank r (ascending id) in a view of n owes its ack after
/// kAckDelay * s / m, m = min(n, kAckSlots), where s = 1 for r + 2 < m and
/// min(r + 1, m) otherwise. The ranks below m - 2 share the first slot: a
/// message from a top rank becomes deliverable at rank m - 2 only once
/// every lower rank has acked, so staggering them would only delay it.
/// From rank m - 2 up the ranks ack one after another, so a member that
/// waits on the rest often finds its own debt paid by its reply. The cap
/// bounds the extra acks: against one flat kAckDelay timer, E2's packets
/// per message rise at most 6.5 % at any n, where uncapped slots cost 17 %
/// at n = 12 and 23 % at n = 16 (docs/ORDERING.md §2).
inline constexpr std::size_t kAckSlots = 4;

/// One group membership of one processor.
class GroupSession {
 public:
  GroupSession(ProcessorId self, ProcessorGroupId group, McastAddress group_addr,
               McastAddress domain_addr, const Config& config, Outbox& outbox);

  /// Installs the founding membership. Every founding member must call this
  /// with the same member list before any traffic flows.
  void bootstrap(TimePoint now, const std::vector<ProcessorId>& members);

  /// Initializes this processor as the new member named by `add_msg`
  /// (an AddProcessor received on the group address). `raw` is the encoded
  /// datagram, retained (not copied) by the retransmission store.
  void init_from_add(TimePoint now, const Message& add_msg, SharedBytes raw);

  /// False once evicted from the group.
  [[nodiscard]] bool active() const { return pgmp_.active(); }

  /// True while an evicted member is in its lame-duck grace period: it no
  /// longer participates, but keeps heartbeating (fresh timestamps) and
  /// answering RetransmitRequests so that members still ordering its
  /// RemoveProcessor can finish. Without this, a member that missed the
  /// tail traffic before the removal could stall forever.
  [[nodiscard]] bool lame_duck(TimePoint now) const {
    return !active() && deactivated_at_.has_value() &&
           now - *deactivated_at_ < 4 * config_.fault_timeout;
  }

  /// Handles any group-addressed FTMP frame except ConnectRequest (which
  /// is domain-level and never reaches a session). Only the fixed header
  /// has been decoded; the body stays raw until the point of delivery.
  void handle(TimePoint now, const Frame& frame);

  /// Timer work: fault detector, NACK refresh, heartbeats (periodic, and
  /// ack debts that fell due), join resends.
  void tick(TimePoint now);

  // ---- sends ----

  /// Multicasts a Regular message (encapsulated GIOP) to the group.
  /// Returns false if the session is inactive or the send was rejected by
  /// the flow-control queue bound (kQueued still returns true: the message
  /// goes out once the window frees / the flush completes).
  bool send_regular(TimePoint now, const ConnectionId& connection,
                    RequestNum request_num, BytesView giop);

  /// Non-blocking send with explicit disposition (flow.hpp): kSent went
  /// out now, kQueued is parked behind the send window or a §7 flush,
  /// kRejected was dropped at the flow queue bound, kInactive means this
  /// processor is no longer an active member.
  SendStatus try_send_regular(TimePoint now, const ConnectionId& connection,
                              RequestNum request_num, BytesView giop);

  /// Pays an ack debt (Romp::ack_owed) at once with a Heartbeat, in the
  /// modes whose delivery waits on acks (every mode but kLlft): what a
  /// member that skips a send calls so that nobody waits on it longer than
  /// that send would have made them wait. Returns whether it sent one.
  bool pay_ack_debt(TimePoint now);

  /// Installs (or clears, with nullptr) the queue-watermark listener.
  void set_flow_listener(FlowListener* listener) { flow_listener_ = listener; }

  /// Multicasts a Connect message on the *domain* address (server side of
  /// connection establishment, §7); the group members order it, the client
  /// group overhears it. Returns the assigned sequence number (for later
  /// verbatim resends) or nullopt if inactive.
  std::optional<SeqNum> send_connect(TimePoint now, ConnectBody body);

  /// Starts moving this group to a new multicast address (§7's second use
  /// of Connect): multicasts an ordered Connect naming the new address on
  /// the *current* address. When ordered, every member switches and
  /// observes the flush rule. Returns false while inactive, already
  /// rebinding, or reconfiguring.
  bool rebind_address(TimePoint now, McastAddress new_addr);

  /// The address the group used before a rebind, kept subscribed until
  /// stragglers' retransmissions can no longer matter.
  [[nodiscard]] std::optional<McastAddress> retiring_address() const {
    return old_addr_;
  }

  /// True while the §7 flush is in progress (ordered sends are queued
  /// "until it has received from every member of the processor group a
  /// message with a higher timestamp than the timestamp of the Connect").
  [[nodiscard]] bool flushing() const { return flush_ts_.has_value(); }

  /// Multicasts a state-transfer body (StateRequest / StateChunk /
  /// StateDigest) on the reliable source-ordered path — like Suspect, these
  /// are reliable but not totally ordered (docs/RECOVERY.md). Returns false
  /// while inactive.
  bool send_state(TimePoint now, Body body);

  /// Starts adding a processor (sponsor side). False if rejected (already
  /// a member, join pending, or a recovery is running).
  bool add_processor(TimePoint now, ProcessorId new_member);

  /// Starts removing a (non-faulty) processor. Same failure conditions.
  bool remove_processor(TimePoint now, ProcessorId member);

  /// Re-multicasts a stored message verbatim (used by the Stack to resend a
  /// Connect toward a client group that cannot NACK, §7). Target defaults
  /// to the group address; pass the domain address for Connect resends.
  bool resend_stored(ProcessorId source, SeqNum seq,
                     std::optional<McastAddress> target = std::nullopt);

  // ---- introspection ----

  [[nodiscard]] ProcessorGroupId id() const { return group_; }
  [[nodiscard]] McastAddress address() const { return group_addr_; }
  [[nodiscard]] const MembershipInfo& membership() const { return pgmp_.membership(); }
  [[nodiscard]] bool is_member(ProcessorId p) const;
  [[nodiscard]] const Rmp& rmp() const { return rmp_; }
  [[nodiscard]] const Romp& romp() const { return romp_; }
  [[nodiscard]] const OrderingPolicy& ordering() const { return *ordering_; }
  [[nodiscard]] const Pgmp& pgmp() const { return pgmp_; }
  [[nodiscard]] const FlowController& flow() const { return flow_; }
  [[nodiscard]] const Reassembler& reassembler() const { return reassembler_; }

  /// The unfragmented Regulars on `connection` with `request_num` that
  /// other members sent and the delivery rule holds: they are on their way
  /// to every member unless their sender leaves the group first. A copy
  /// that is a fragment never counts.
  [[nodiscard]] std::vector<HeldCopy> held_copies(const ConnectionId& connection,
                                                  RequestNum request_num) const;

 private:
  /// Stamps, encodes, transmits and (if reliable) stores a message.
  /// Returns the header actually sent.
  Header send_message(TimePoint now, Body body, McastAddress target);

  /// Stamps an outgoing header (sequence number, timestamps) without
  /// encoding anything.
  Header stamp_header(TimePoint now, MessageType type);

  /// Finishes a send: stores reliable messages, updates flow accounting and
  /// the heartbeat timer, and queues the datagram.
  void finish_send(TimePoint now, const Header& h, SharedBytes raw,
                   McastAddress target);

  /// Multicasts a Heartbeat from the per-session encoded template: the
  /// 45-byte header is encoded once and only the sequence-number and
  /// timestamp fields are patched per tick.
  void send_heartbeat(TimePoint now);

  /// Transmits a Regular payload immediately, fragmenting if it exceeds
  /// the configured datagram budget. The single-datagram path encodes
  /// header + body + GIOP payload in one pass into one buffer.
  void emit_regular(TimePoint now, const ConnectionId& connection,
                    RequestNum request_num, BytesView giop);

  /// Decodes a frame's body at its point of consumption. Returns nullopt
  /// (and logs) when the body is malformed — the header was valid enough to
  /// route, so the frame is dropped here rather than at ingress.
  std::optional<Body> decode_body_checked(const Frame& frame) const;

  /// Delivers messages that became totally ordered, applies PGMP and RMP
  /// outputs, and advances stability — repeated until quiescent.
  void pump(TimePoint now);

  /// How long after it arises an ack debt falls due: this member's slot in
  /// the rank-staggered schedule (kAckSlots), or kAckDelay while it is not
  /// in the view.
  [[nodiscard]] Duration ack_delay() const;

  void route_source_ordered(TimePoint now, const Frame& frame);
  void deliver_ordered(TimePoint now, const Frame& frame);
  void apply_pgmp_out(TimePoint now, PgmpOut&& out);
  void apply_rmp_out(TimePoint now, RmpOut&& out);
  void emit_install(TimePoint now, InstallOut&& install);

  void begin_rebind(TimePoint now, const Message& connect_msg);
  void progress_flush(TimePoint now);

  /// Releases parked sends the freed window now admits (none while a flush
  /// runs), then forwards any queue-watermark transitions to the installed
  /// FlowListener.
  void drain_flow_queue(TimePoint now);
  void emit_flow_signals();

  /// Samples per-member stability lag and applies the warn/evict policy
  /// (flow_lag_warn / flow_lag_evict).
  void check_flow_lag(TimePoint now);

  ProcessorId self_;
  ProcessorGroupId group_;
  McastAddress group_addr_;
  McastAddress domain_addr_;
  Config config_;
  Outbox& outbox_;

  // Declaration order is construction order: the delivery rule holds a
  // reference to romp_, and pgmp_ to all three.
  Rmp rmp_;
  Romp romp_;
  std::unique_ptr<OrderingPolicy> ordering_;
  Pgmp pgmp_;
  FlowController flow_;
  FlowListener* flow_listener_ = nullptr;

  // Connect-rebind state (§7): flush watermark and retiring old address
  // (ordered sends made during the flush park in flow_'s FIFO).
  std::optional<Timestamp> flush_ts_;
  std::optional<McastAddress> old_addr_;
  TimePoint old_addr_retire_at_ = 0;
  // The ordered rebind Connect, re-multicast on the old address until the
  // whole membership has demonstrably moved (a member that missed it would
  // otherwise be stranded listening to a dead address).
  ProcessorId rebind_src_{};
  SeqNum rebind_seq_ = 0;
  TimePoint last_rebind_resend_ = 0;
  bool rebind_requested_ = false;

  // Large-payload fragmentation (fragment.hpp).
  std::uint64_t fragment_counter_ = 0;
  Reassembler reassembler_;

  // Cached encoded Heartbeat (constant fields encoded once; seq/timestamps
  // patched in place per send — see send_heartbeat).
  Bytes heartbeat_template_;

  // Per-source sequence number of the most recent delivered (event-
  // producing) Regular — the virtual-synchrony cut coordinates stamped
  // into MembershipChanged::cut_seqs at each install.
  std::map<std::uint32_t, SeqNum> delivered_hw_;

  // When this member was evicted (lame-duck bookkeeping).
  std::optional<TimePoint> deactivated_at_;

  // When the ack owed since the last send falls due (kLamport only; armed
  // and cleared at the end of pump).
  std::optional<TimePoint> ack_due_;

  // kLamport only: the first own seq RMP has not yet received back (0:
  // none), and when to probe for it (cleared once probed). Kept by tick.
  SeqNum own_missing_ = 0;
  std::optional<TimePoint> probe_at_;

  // kLamport only: re-multicasts of a joiner's AddProcessor that a sponsor
  // repeats once, kAckDelay later (in due order).
  struct AddEcho {
    ProcessorId source{};
    SeqNum seq = 0;
    TimePoint due = 0;
  };
  std::vector<AddEcho> add_echoes_;

  // Process-global heartbeat counters (the other layers own their own
  // instruments; heartbeats are emitted here, see docs/METRICS.md).
  metrics::CounterHandle heartbeats_sent_;
  metrics::CounterHandle acks_sent_;
  metrics::CounterHandle own_gap_probes_;
};

}  // namespace ftcorba::ftmp
