// stack.hpp — one processor's complete FTMP endpoint: routes datagrams to
// per-group sessions, manages joins, and implements the PGMP logical-
// connection establishment protocol (§4, §7) between client and server
// object groups.
//
// Sans-IO: drivers feed `on_datagram`/`tick` and drain `take_packets` /
// `take_events`; `subscriptions()` reports which multicast addresses the
// driver must currently be joined to, and a driver hands it to
// Joins::transmit (joins.hpp) at the end of every step.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/metrics.hpp"
#include "ftmp/batch.hpp"
#include "ftmp/config.hpp"
#include "ftmp/events.hpp"
#include "ftmp/group_session.hpp"
#include "net/packet.hpp"

namespace ftcorba::ftmp {

/// Counters for malformed/unroutable input (never crashes the stack); each
/// also adds to the process-global ftmp_stack_* counter of its name.
struct StackStats {
  metrics::Counter malformed_datagrams;
  metrics::Counter unroutable_datagrams;
};

/// A processor's FTMP protocol stack.
class Stack {
 public:
  /// `domain_addr` is the IP multicast address of this processor's
  /// fault-tolerance domain, on which ConnectRequest/Connect travel.
  Stack(ProcessorId self, FtDomainId domain, McastAddress domain_addr,
        Config config = {});

  [[nodiscard]] ProcessorId id() const { return self_; }
  [[nodiscard]] FtDomainId domain() const { return domain_; }

  // ---- processor groups ----

  /// Creates/bootstraps a group with a fixed founding membership. Every
  /// founding member calls this with identical arguments.
  void create_group(TimePoint now, ProcessorGroupId group, McastAddress addr,
                    const std::vector<ProcessorId>& members);

  /// Prepares to join `group`: subscribes to `addr` and waits for an
  /// AddProcessor naming this processor (sent by a sponsor inside the
  /// group). Used directly by applications and internally by the
  /// connection-establishment flow.
  void expect_join(ProcessorGroupId group, McastAddress addr);

  /// Sponsor side: initiates adding `new_member` to `group` (ordered
  /// AddProcessor, then periodic resends toward the new member).
  bool add_processor(TimePoint now, ProcessorGroupId group, ProcessorId new_member);

  /// Initiates the planned removal of `member` from `group`.
  bool remove_processor(TimePoint now, ProcessorGroupId group, ProcessorId member);

  /// Leaves `group` voluntarily: multicasts a RemoveProcessor naming this
  /// processor; the session deactivates (SelfEvicted) once it is ordered.
  bool leave_group(TimePoint now, ProcessorGroupId group);

  /// Destroys this processor's session for `group` (e.g. a stale session
  /// after being evicted or stranded in a healed minority partition), so a
  /// fresh join via expect_join/add_processor can proceed. Undelivered
  /// state is discarded — rejoining replicas recover through the FT layer
  /// (snapshot + replay). Returns false if no such session exists.
  bool drop_group(ProcessorGroupId group);

  /// Durable join metadata: the high-water membership timestamp seen per
  /// group (max of any dropped session's floor and every live session's
  /// current membership timestamp). A restarted incarnation of this
  /// processor must reload these via restore_join_timestamp_floor before it
  /// rejoins, or a stale retransmitted AddProcessor from before the crash
  /// could re-initialize it with a clock behind the group's bound. On a real
  /// deployment this rides in the same durable store as the persistent log;
  /// SimHarness::restart models that by transferring it across incarnations.
  [[nodiscard]] std::vector<std::pair<ProcessorGroupId, Timestamp>>
  join_timestamp_floors() const;

  /// Restores one group's join-timestamp floor (see join_timestamp_floors).
  /// Keeps the max of the current and supplied floor.
  void restore_join_timestamp_floor(ProcessorGroupId group, Timestamp floor);

  /// Moves `group` to a new multicast address via an ordered Connect (§7's
  /// second use of Connect). Every member switches when the Connect is
  /// ordered and observes the flush rule; ordered sends issued during the
  /// flush are queued and released afterwards. Any member may initiate.
  bool rebind_group(TimePoint now, ProcessorGroupId group, McastAddress new_addr);

  /// The session for a group, or nullptr.
  [[nodiscard]] GroupSession* group(ProcessorGroupId g);
  [[nodiscard]] const GroupSession* group(ProcessorGroupId g) const;

  // ---- logical connections (§4, §7) ----

  /// Server side: ConnectRequests arriving on this domain's address are
  /// served by `group` (several logical connections share one processor
  /// group and multicast address, §7). The group must exist on this
  /// processor. Only the group leader (smallest member id) acts on
  /// requests, but every server processor should declare the policy so
  /// leadership can fail over.
  void serve_connections(ProcessorGroupId group);

  /// Client side: requests a logical connection; ConnectRequests are
  /// retransmitted on `server_domain_addr` until the server's Connect
  /// arrives, after which this processor joins the connection's processor
  /// group (if not already a member). Emits ConnectionEstablished when
  /// usable.
  void open_connection(TimePoint now, const ConnectionId& connection,
                       McastAddress server_domain_addr,
                       const std::vector<ProcessorId>& client_processors);

  /// True once the connection is usable from this processor.
  [[nodiscard]] bool connection_ready(const ConnectionId& connection) const;

  /// The processor group a ready connection is bound to.
  [[nodiscard]] std::optional<ProcessorGroupId> connection_group(
      const ConnectionId& connection) const;

  /// Multicasts a GIOP payload on a ready connection. Returns false if the
  /// connection is not ready or the send was rejected by the flow-control
  /// queue bound (a flow-parked send still returns true — it goes out when
  /// the window frees).
  bool send(TimePoint now, const ConnectionId& connection, RequestNum request_num,
            BytesView giop);

  /// Non-blocking send with the explicit flow-control disposition
  /// (flow.hpp's SendStatus). kInactive covers "no ready connection" too.
  SendStatus try_send(TimePoint now, const ConnectionId& connection,
                      RequestNum request_num, BytesView giop);

  /// The Regulars on `connection` with `request_num` that other members
  /// sent and this processor holds undelivered
  /// (GroupSession::held_copies); empty without a ready connection.
  [[nodiscard]] std::vector<HeldCopy> held_copies(const ConnectionId& connection,
                                                  RequestNum request_num) const;

  /// Pays this processor's ack debt on the group that carries `connection`
  /// at once (GroupSession::pay_ack_debt); false if none was owed.
  bool pay_ack_debt(TimePoint now, const ConnectionId& connection);

  /// Multicasts a state-transfer body (StateRequest / StateChunk /
  /// StateDigest, docs/RECOVERY.md) on `group`'s reliable source-ordered
  /// path. Returns false if the group has no active session here.
  bool send_state(TimePoint now, ProcessorGroupId group, Body body);

  /// Installs a queue-watermark listener on every current and future group
  /// session of this stack (nullptr clears).
  void set_flow_listener(FlowListener* listener);

  /// True while the group serving `connection` sits above its flow-queue
  /// high watermark — the ORB's cue to defer new client requests.
  [[nodiscard]] bool connection_congested(const ConnectionId& connection) const;

  // ---- IO (driver-facing) ----

  /// Feeds one received datagram. Malformed input is counted and dropped.
  /// A batched ("FTMB") datagram is split here and each sub-frame processed
  /// as if it had arrived alone, as a zero-copy slice of the arrival buffer.
  void on_datagram(TimePoint now, const net::Datagram& datagram);

  /// Advances all timers (heartbeats, NACK refresh, fault detection,
  /// ConnectRequest/Connect retries). Call at least every few milliseconds
  /// of simulated/real time.
  void tick(TimePoint now);

  /// Drains datagrams to transmit. With batching enabled
  /// (Config::batch_max_datagram_bytes > 0) outgoing messages are staged
  /// through the egress Batcher; a not-yet-full batch is held across calls
  /// until its micro-flush timer (Config::batch_flush_us) expires, unless
  /// it holds more than heartbeats and batch_waits rejects its address.
  [[nodiscard]] std::vector<net::Datagram> take_packets();

  /// Drains upward events.
  [[nodiscard]] std::vector<Event> take_events();

  /// Multicast addresses the driver must currently be subscribed to, in
  /// ascending order, computed from live state: the domain address, each
  /// expected join's address, each client connection's server domain
  /// address and, until the connection is established, the address its
  /// Connect named, and each session's current and retiring address. So an
  /// address drops out once a rebind retires it, drop_group removes its
  /// session, or a restart replaces the stack.
  [[nodiscard]] std::vector<McastAddress> subscriptions() const;

  /// Input-error counters.
  [[nodiscard]] const StackStats& stats() const { return stats_; }

  /// Egress-batching counters (all zero while batching is disabled).
  [[nodiscard]] BatchStats batch_stats() const { return batcher_.stats(); }

 private:
  struct ClientConn {
    McastAddress server_domain_addr{};
    std::vector<ProcessorId> client_processors;
    TimePoint last_request = -1;
    bool connect_seen = false;
    ProcessorGroupId bound_group{};
    McastAddress bound_addr{};
    bool established = false;
  };
  struct ServerConn {
    std::vector<ProcessorId> client_processors;
    bool connect_sent = false;
    SeqNum connect_seq = 0;  // our stored Connect, for verbatim resends
    TimePoint last_resend = -1;
    bool traffic_seen = false;  // a Regular on this connection was delivered
  };

  /// Whether data-bearing batches to `addr` wait for the flush timer: yes
  /// unless every session on it (current or retiring address) answers
  /// OrderingPolicy::batches_wait with no — an LLFT member that is not
  /// leading (docs/BATCHING.md). The domain address always waits.
  [[nodiscard]] bool batch_waits(McastAddress addr) const;

  /// The session a connection's traffic goes out on: the group a client
  /// connection is bound to, or the serving group (nullptr if neither).
  [[nodiscard]] GroupSession* session_for(const ConnectionId& connection) const;

  void on_frame(TimePoint now, const SharedBytes& payload);
  void send_connect_request(TimePoint now, const ConnectionId& conn, ClientConn& state);
  void server_on_connect_request(TimePoint now, const Message& msg);
  void client_on_connect(const Message& msg);
  void progress_server_conns(TimePoint now);
  void observe_events(TimePoint now);
  GroupSession& make_session(ProcessorGroupId g, McastAddress addr);

  ProcessorId self_;
  FtDomainId domain_;
  McastAddress domain_addr_;
  Config config_;
  Outbox outbox_;
  Batcher batcher_;
  std::unordered_map<ProcessorGroupId, std::unique_ptr<GroupSession>> sessions_;
  std::unordered_map<ProcessorGroupId, McastAddress> expected_joins_;
  // High-water membership timestamp per group, kept across drop_group: a
  // rejoining processor must not initialize from a stale retransmitted
  // AddProcessor of an earlier join cycle (its clock would start behind
  // the bound the group granted the new incarnation).
  std::unordered_map<ProcessorGroupId, Timestamp> join_ts_floor_;

  std::optional<ProcessorGroupId> serve_group_;
  std::map<ConnectionId, ClientConn> client_conns_;
  std::map<ConnectionId, ServerConn> server_conns_;
  FlowListener* flow_listener_ = nullptr;

  // Index of the first outbox event not yet inspected by observe_events.
  std::size_t events_observed_ = 0;
  TimePoint last_now_ = 0;
  StackStats stats_;
};

}  // namespace ftcorba::ftmp
