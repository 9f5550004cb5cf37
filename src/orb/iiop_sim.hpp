// iiop_sim.hpp — an IIOP-like point-to-point path (DESIGN.md S11): GIOP
// over a reliable, ordered, connection-oriented channel, as between an
// unreplicated CORBA client and server. This is the baseline FTMP is
// compared against in bench E6 ("Just as CORBA's IIOP maintains a physical
// connection ... using TCP/IP, FTMP maintains a logical connection between
// ... object groups", §4).
//
// The channel is a miniature TCP built over the same lossy SimNetwork the
// FTMP stacks use: per-direction sequence numbers, cumulative
// acknowledgments, and timer-driven retransmission — enough to be a fair
// reliable-transport comparator under identical network conditions.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/ids.hpp"
#include "giop/messages.hpp"
#include "net/packet.hpp"
#include "orb/object.hpp"
#include "orb/servant.hpp"

namespace ftcorba::orb {

/// One endpoint of a reliable message channel between two processors.
/// Sans-IO, like everything else: feed on_datagram/tick, drain
/// take_packets/take_delivered.
class TcpSimEndpoint {
 public:
  /// `inbox` is the (unicast-emulating) multicast address this endpoint
  /// listens on; `peer_inbox` is where it sends.
  TcpSimEndpoint(McastAddress inbox, McastAddress peer_inbox,
                 Duration rto = 20 * kMillisecond);

  /// Queues one message for reliable in-order delivery to the peer.
  void send(TimePoint now, BytesView message);

  /// Feeds a datagram received on `inbox`.
  void on_datagram(TimePoint now, BytesView payload);

  /// Retransmits unacknowledged segments past their RTO.
  void tick(TimePoint now);

  /// Drains datagrams to transmit (all addressed to the peer's inbox).
  [[nodiscard]] std::vector<net::Datagram> take_packets();

  /// Drains messages delivered in order.
  [[nodiscard]] std::vector<Bytes> take_delivered();

  /// Segments currently awaiting acknowledgment.
  [[nodiscard]] std::size_t unacked() const { return unacked_.size(); }

 private:
  void emit_segment(std::uint64_t seq, const Bytes& payload, bool is_ack);

  McastAddress inbox_;
  McastAddress peer_inbox_;
  Duration rto_;
  std::uint64_t next_send_seq_ = 1;
  std::uint64_t next_recv_seq_ = 1;
  std::map<std::uint64_t, std::pair<Bytes, TimePoint>> unacked_;  // seq -> (msg, last tx)
  std::map<std::uint64_t, Bytes> reorder_;
  std::vector<net::Datagram> out_;
  std::vector<Bytes> delivered_;
};

/// A point-to-point GIOP endpoint over TcpSimEndpoint: a minimal IIOP
/// client/server. One side activates a servant; the other invokes.
class IiopEndpoint {
 public:
  IiopEndpoint(McastAddress inbox, McastAddress peer_inbox,
               ByteOrder byte_order = ByteOrder::kBig);

  /// Server side: the servant answering requests at this endpoint.
  void serve(ObjectKey key, std::shared_ptr<Servant> servant);

  /// Client side: marshals and sends a Request; `handler` runs when the
  /// Reply arrives. Returns the request id.
  std::uint32_t invoke(TimePoint now, const ObjectKey& key, const std::string& operation,
                       const giop::CdrWriter& args,
                       std::function<void(const giop::Reply&)> handler);

  /// IO plumbing (same shape as the FTMP drivers).
  void on_datagram(TimePoint now, BytesView payload);
  void tick(TimePoint now);
  [[nodiscard]] std::vector<net::Datagram> take_packets();

  /// Invocations awaiting replies.
  [[nodiscard]] std::size_t pending() const { return handlers_.size(); }

 private:
  void process_delivered(TimePoint now);

  TcpSimEndpoint channel_;
  ByteOrder byte_order_;
  std::unordered_map<ObjectKey, std::shared_ptr<Servant>> servants_;
  std::uint32_t next_request_id_ = 0;
  std::map<std::uint32_t, std::function<void(const giop::Reply&)>> handlers_;
};

}  // namespace ftcorba::orb
