// orb.hpp — the mini-ORB (DESIGN.md S11): maps GIOP invocations onto FTMP
// logical connections, exactly the concrete GIOP->FTMP mapping the paper
// contributes.
//
// Server side: servants are activated under object keys; every delivered
// GIOP Request (after duplicate suppression) is dispatched in total order
// and the marshaled Reply is multicast back on the same connection with
// the same request number — unless the stack already holds another
// replica's Reply to that request, received in source order and not yet
// delivered. Virtual synchrony then brings that copy to every member, so
// the reply is withheld and the member pays any ack debt it owes instead,
// at once. A withheld reply waits in one record until a Reply to its
// request is delivered; if a membership change shows that every held copy
// was dropped undelivered (its sender left ahead of it), it is multicast
// after all.
//
// Client side: invoke() marshals a Request, assigns the next request
// number on the connection (all client replicas issue the same
// deterministic sequence, so they use the same numbers, §4), multicasts it
// and registers a completion handler keyed by request number; the first
// delivered Reply copy completes it, later copies are suppressed.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <variant>

#include "common/metrics.hpp"
#include "ft/dedup.hpp"
#include "ft/message_log.hpp"
#include "ftmp/events.hpp"
#include "ftmp/stack.hpp"
#include "giop/cdr.hpp"
#include "giop/messages.hpp"
#include "orb/object.hpp"
#include "orb/servant.hpp"

namespace ftcorba::orb {

/// One ORB's counts for tests and the E6 bench, copied out of its counters.
struct OrbStats {
  std::uint64_t requests_dispatched = 0;   ///< servant invocations executed
  std::uint64_t replies_completed = 0;     ///< client invocations completed
  std::uint64_t duplicates_suppressed = 0; ///< replica copies dedup() discarded
  std::uint64_t undecodable_payloads = 0;  ///< non-GIOP Regular bodies dropped
  std::uint64_t unknown_objects = 0;       ///< Requests for unregistered keys
  std::uint64_t requests_deferred = 0;     ///< invocations refused under backpressure
  std::uint64_t replies_withheld = 0;      ///< replies not sent: another replica's was held
  std::uint64_t replies_released = 0;      ///< withheld replies sent after all
};

/// The per-processor ORB, layered over one FTMP stack.
class Orb {
 public:
  /// `byte_order` is used for this ORB's outgoing GIOP messages.
  explicit Orb(ftmp::Stack& stack, ByteOrder byte_order = ByteOrder::kBig);

  // ---- server side ----

  /// Activates `servant` under `key`: delivered Requests whose object key
  /// matches are dispatched to it.
  void activate(const ObjectKey& key, std::shared_ptr<Servant> servant);

  /// Removes the servant under `key`.
  void deactivate(const ObjectKey& key);

  // ---- client side ----

  /// Called with the decoded Reply when the invocation completes; the
  /// second argument is the byte order the reply body was marshaled in.
  using ReplyHandler = std::function<void(const giop::Reply&, ByteOrder)>;

  /// Invokes `operation` on the object behind `connection`/`key` with the
  /// marshaled arguments in `args`. Returns the request number, or nullopt
  /// if the connection was not ready — or if the connection's group is
  /// over its flow-control high watermark (the invocation is *deferred*:
  /// no request number is consumed; retry once pressure drains, i.e. once
  /// Stack::connection_congested is false again). With `response_expected`
  /// false the call is oneway (no handler is retained).
  std::optional<RequestNum> invoke(TimePoint now, const ConnectionId& connection,
                                   const ObjectKey& key, const std::string& operation,
                                   const giop::CdrWriter& args, ReplyHandler handler,
                                   bool response_expected = true);

  /// Sends a LocateRequest for `key` on the connection; the handler
  /// receives the LocateReply status.
  std::optional<RequestNum> locate(TimePoint now, const ConnectionId& connection,
                                   const ObjectKey& key,
                                   std::function<void(giop::LocateStatus)> handler);

  /// Sends a GIOP CancelRequest for a pending invocation and drops its
  /// handler locally. The reply may still arrive and is then discarded.
  bool cancel(TimePoint now, const ConnectionId& connection, RequestNum request_num);

  /// Arms a deadline for a pending invocation: if no reply completes it by
  /// `deadline`, the next expire() call drops the handler and runs
  /// `on_timeout` instead. Does nothing if no invocation with a handler is
  /// pending under that number.
  void set_deadline(const ConnectionId& connection, RequestNum request_num,
                    TimePoint deadline, std::function<void()> on_timeout);

  /// Fires every armed deadline at or before `now`; returns how many
  /// invocations timed out. Call periodically (e.g. from the driver loop).
  std::size_t expire(TimePoint now);

  /// Number of invocations still awaiting a reply.
  [[nodiscard]] std::size_t pending_invocations() const;

  // ---- event pump ----

  /// Feeds one FTMP event (wire this to the stack driver). DeliveredMessage
  /// events are dispatched; MembershipChanged and SelfEvicted events end or
  /// release withheld replies; everything else is ignored here.
  void on_event(TimePoint now, const ftmp::Event& event);

  /// Replies withheld and not yet ended by a delivered Reply or released.
  [[nodiscard]] std::size_t withheld_replies() const { return withheld_.size(); }

  /// The duplicate suppressor (exposed for tests and the E6 bench).
  [[nodiscard]] const ft::DuplicateSuppressor& dedup() const { return dedup_; }

  /// Attaches a message log (§4): every accepted Request/Reply delivery is
  /// recorded with its ⟨connection id, request number⟩ so state can be
  /// rebuilt by replay (ft::replay_requests). Pass nullptr to detach.
  void attach_log(ft::MessageLog* log) { log_ = log; }

  [[nodiscard]] OrbStats stats() const {
    return {metrics_.requests_dispatched.value(), metrics_.replies_completed.value(),
            dedup_.stats().suppressed.value(), metrics_.undecodable.value(),
            metrics_.unknown_objects.value(), metrics_.requests_deferred.value(),
            metrics_.replies_withheld.value(), metrics_.replies_released.value()};
  }

  /// The underlying stack.
  [[nodiscard]] ftmp::Stack& stack() { return stack_; }

 private:
  using LocateHandler = std::function<void(giop::LocateStatus)>;
  using InvocationId = std::pair<ConnectionId, RequestNum>;
  // One invocation awaiting its Reply or LocateReply, under the pair that
  // names it (§4). Every path that ends it erases this record: the reply,
  // the LocateReply, a delivered CancelRequest, cancel() and expire().
  struct Pending {
    std::variant<ReplyHandler, LocateHandler> handler;
    TimePoint sent_at = 0;  // for the request→reply latency histogram
    struct Deadline {
      TimePoint at = 0;
      std::function<void()> on_timeout;
    };
    std::optional<Deadline> deadline{};
  };

  // A reply this replica withheld because the stack held other members'
  // copies of it, under the pair that names its request. A delivered Reply
  // or LocateReply to that request ends it; it is released (multicast)
  // once every copy's sender has left the group with the copy undelivered,
  // and dropped if this processor leaves the group.
  struct Withheld {
    ProcessorGroupId group{};
    std::set<ProcessorId> copies;  // senders of the held copies
    Bytes reply;                   // the encoded GIOP message
  };

  /// Ends invocation `id` if it awaits an `H`: erases its record and returns it.
  template <typename H>
  [[nodiscard]] std::optional<Pending> take(const InvocationId& id);

  /// Multicasts `reply` (a Reply or LocateReply) on the delivered request's
  /// connection, or withholds it if the stack holds another member's copy.
  void send_reply(TimePoint now, const ftmp::DeliveredMessage& dm,
                  giop::GiopMessage&& reply);

  /// Releases the withheld replies whose every copy's sender left
  /// `change.group`, and forgets those senders' copies.
  void on_membership_changed(TimePoint now, const ftmp::MembershipChanged& change);

  void handle_request(TimePoint now, const ftmp::DeliveredMessage& dm,
                      const giop::Request& request, ByteOrder arg_order);
  void handle_reply(TimePoint now, const giop::Reply& reply,
                    const ftmp::DeliveredMessage& dm, ByteOrder body_order);
  void handle_locate_request(TimePoint now, const ftmp::DeliveredMessage& dm,
                             const giop::LocateRequest& request);

  [[nodiscard]] RequestNum next_request_num(const ConnectionId& connection);

  ftmp::Stack& stack_;
  ByteOrder byte_order_;
  std::unordered_map<ObjectKey, std::shared_ptr<Servant>> servants_;
  std::map<ConnectionId, RequestNum> request_counters_;
  std::map<InvocationId, Pending> pending_;
  std::map<InvocationId, Withheld> withheld_;
  ft::DuplicateSuppressor dedup_;
  ft::MessageLog* log_ = nullptr;

  // This ORB's counters, each also adding to the process-global giop_*
  // counter of its name, and the shared latency histogram (docs/METRICS.md).
  struct Instruments {
    metrics::Counter requests_dispatched;
    metrics::Counter replies_completed;
    metrics::Counter undecodable;
    metrics::Counter unknown_objects;
    metrics::Counter requests_deferred;
    metrics::Counter replies_withheld;
    metrics::Counter replies_released;
    metrics::HistogramHandle request_reply_ms;
  };
  Instruments metrics_;
};

}  // namespace ftcorba::orb
