// replication.hpp — active replication of CORBA objects over FTMP
// (DESIGN.md S12): the reason the protocol exists ("object replication is
// of little value unless the states of the replicas ... remain
// consistent", §1).
//
// Model: the application supplies a deterministic StateMachine. Every
// replica hosts it behind an ActiveReplica servant; because FTMP delivers
// requests in the same total order everywhere, replica states stay
// identical and every replica executes every request. A replica answers
// unless its stack already holds another replica's reply to that request:
// virtual synchrony brings that copy to the client even if its sender
// crashes, so the ORB withholds the answer (orb.hpp) and multicasts it only
// if the copy is dropped with its sender. The client-side ORB suppresses
// the duplicate replies of replicas that answer concurrently (§4).
//
// Recovery of a new replica uses the total order as a consistent cut:
//   1. the new processor joins the server processor group (PGMP);
//   2. a BufferingServant records delivered requests without executing or
//      answering them;
//   3. the recoverer invokes the built-in "_ftc_get_state" operation; its
//      delivery point IS the snapshot point at every existing replica;
//   4. the snapshot is restored, buffered requests ordered after the
//      snapshot point are applied, and the ActiveReplica takes over.
#pragma once

#include <deque>
#include <memory>
#include <string>

#include "ft/message_log.hpp"
#include "giop/cdr.hpp"
#include "giop/messages.hpp"
#include "orb/object.hpp"
#include "orb/orb.hpp"
#include "orb/servant.hpp"

namespace ftcorba::ft {

/// The built-in state-transfer operation name.
inline constexpr const char* kGetStateOp = "_ftc_get_state";

/// A deterministic application state machine: equal operation sequences
/// produce equal states and equal results on every replica.
class StateMachine {
 public:
  virtual ~StateMachine() = default;

  /// Executes one operation, reading arguments from `in` and writing
  /// results to `out`. Must be deterministic (no clocks, no randomness).
  virtual giop::ReplyStatus apply(const std::string& operation, giop::CdrReader& in,
                                  giop::CdrWriter& out) = 0;

  /// Serializes the complete state.
  [[nodiscard]] virtual Bytes snapshot() const = 0;

  /// Replaces the state from a snapshot.
  virtual void restore(BytesView snapshot) = 0;
};

/// Servant adapter that executes operations against a StateMachine and
/// answers the built-in state-transfer operation with a snapshot.
class ActiveReplica : public orb::Servant {
 public:
  explicit ActiveReplica(std::shared_ptr<StateMachine> machine)
      : machine_(std::move(machine)) {}

  giop::ReplyStatus invoke(const std::string& operation, giop::CdrReader& in,
                           giop::CdrWriter& out) override {
    if (operation == kGetStateOp) {
      out.octet_seq(machine_->snapshot());
      return giop::ReplyStatus::kNoException;
    }
    const giop::ReplyStatus status = machine_->apply(operation, in, out);
    applied_ += 1;
    return status;
  }

  /// Operations applied since construction (tests).
  [[nodiscard]] std::uint64_t applied() const { return applied_; }

  /// The wrapped machine.
  [[nodiscard]] StateMachine& machine() { return *machine_; }

 private:
  std::shared_ptr<StateMachine> machine_;
  std::uint64_t applied_ = 0;
};

/// Records the ordered request stream during recovery without executing or
/// answering; the get-state request from `recoverer_conn`/`recoverer_req`
/// marks the snapshot cut.
class BufferingServant : public orb::Servant {
 public:
  struct BufferedRequest {
    std::string operation;
    Bytes arguments;
    ByteOrder order{};
  };

  giop::ReplyStatus invoke(const std::string& operation, giop::CdrReader& in,
                           giop::CdrWriter& out) override {
    (void)out;
    if (operation == kGetStateOp) {
      // The snapshot cut: everything buffered so far is inside the
      // snapshot; everything after must be replayed.
      buffer_.clear();
      cut_seen_ = true;
      return giop::ReplyStatus::kNoException;
    }
    BufferedRequest req;
    req.operation = operation;
    const BytesView rest = in.rest();
    req.arguments.assign(rest.begin(), rest.end());
    req.order = in.order();
    buffer_.push_back(std::move(req));
    return giop::ReplyStatus::kNoException;
  }

  bool suppress_reply() const override { return true; }

  /// True once the recoverer's own get-state request was delivered here.
  [[nodiscard]] bool cut_seen() const { return cut_seen_; }

  /// Requests ordered after the cut (to replay onto the restored state).
  [[nodiscard]] const std::deque<BufferedRequest>& buffered() const { return buffer_; }

 private:
  std::deque<BufferedRequest> buffer_;
  bool cut_seen_ = false;
};

/// Drives the recovery of one replica: installs the BufferingServant,
/// requests the snapshot, restores + replays, then swaps in the live
/// ActiveReplica.
class ReplicaRecovery {
 public:
  /// `connection` must be usable from this processor (it joined the server
  /// group). `key` is the object to recover.
  ReplicaRecovery(orb::Orb& orb, ConnectionId connection, orb::ObjectKey key,
                  std::shared_ptr<StateMachine> machine);

  /// Starts recovery: activates the buffering servant and sends the
  /// get-state request. Returns false if the connection was not ready.
  bool start(TimePoint now);

  /// True once the replica is live (state restored, buffer replayed,
  /// ActiveReplica activated).
  [[nodiscard]] bool done() const { return done_; }

  /// The live replica servant once done (nullptr before).
  [[nodiscard]] std::shared_ptr<ActiveReplica> replica() const { return replica_; }

 private:
  void finish(const giop::Reply& reply, ByteOrder body_order);

  orb::Orb& orb_;
  ConnectionId connection_;
  orb::ObjectKey key_;
  std::shared_ptr<StateMachine> machine_;
  std::shared_ptr<BufferingServant> buffer_;
  std::shared_ptr<ActiveReplica> replica_;
  bool done_ = false;
};

/// Log-based recovery (§4: "replaying messages from a log"): re-applies
/// every logged Request on `connection` for `key`, with request number
/// greater than `after`, to `machine` in delivery order. Returns the
/// number of operations applied. The built-in get-state operation is
/// skipped (it never mutates state).
std::size_t replay_requests(const MessageLog& log, const ConnectionId& connection,
                            const orb::ObjectKey& key, StateMachine& machine,
                            RequestNum after = 0);

}  // namespace ftcorba::ft
