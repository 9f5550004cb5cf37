#include "orb/orb.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace ftcorba::orb {

Orb::Orb(ftmp::Stack& stack, ByteOrder byte_order)
    : stack_(stack), byte_order_(byte_order) {
  metrics_.requests_dispatched = metrics::Counter(
      "giop_requests_dispatched_total", "Servant invocations executed",
      "requests", "giop");
  metrics_.replies_completed = metrics::Counter(
      "giop_replies_completed_total", "Client invocations completed by a reply",
      "replies", "giop");
  metrics_.undecodable = metrics::Counter(
      "giop_undecodable_payloads_total",
      "Delivered Regular bodies that failed GIOP decoding", "messages", "giop");
  metrics_.unknown_objects = metrics::Counter(
      "giop_unknown_objects_total",
      "Requests delivered for object keys with no local servant", "requests",
      "giop");
  metrics_.requests_deferred = metrics::Counter(
      "giop_requests_deferred_total",
      "Client invocations refused while the connection's group was over its "
      "flow-control high watermark",
      "requests", "giop");
  metrics_.replies_withheld = metrics::Counter(
      "giop_replies_withheld_total",
      "Replies not multicast because the stack already held another "
      "replica's copy",
      "replies", "giop");
  metrics_.replies_released = metrics::Counter(
      "giop_replies_released_total",
      "Withheld replies multicast after all: every held copy was dropped "
      "undelivered when its sender left the group",
      "replies", "giop");
  metrics_.request_reply_ms = metrics::histogram(
      "giop_request_reply_latency_ms",
      "Invoke-to-reply completion latency through the full FTMP stack", "ms",
      "giop", metrics::latency_buckets_ms());
}

void Orb::activate(const ObjectKey& key, std::shared_ptr<Servant> servant) {
  servants_[key] = std::move(servant);
}

void Orb::deactivate(const ObjectKey& key) { servants_.erase(key); }

RequestNum Orb::next_request_num(const ConnectionId& connection) {
  return ++request_counters_[connection];
}

template <typename H>
std::optional<Orb::Pending> Orb::take(const InvocationId& id) {
  auto it = pending_.find(id);
  if (it == pending_.end() || !std::holds_alternative<H>(it->second.handler)) {
    return std::nullopt;
  }
  Pending done = std::move(it->second);
  pending_.erase(it);
  return done;
}

std::optional<RequestNum> Orb::invoke(TimePoint now, const ConnectionId& connection,
                                      const ObjectKey& key, const std::string& operation,
                                      const giop::CdrWriter& args, ReplyHandler handler,
                                      bool response_expected) {
  if (stack_.connection_congested(connection)) {
    // Backpressure (docs/FLOW.md): the group's flow queue is over its high
    // watermark; multicasting more would only deepen it. No request number
    // is consumed, so replicas that defer at different moments stay aligned.
    metrics_.requests_deferred.add();
    return std::nullopt;
  }
  giop::Request request;
  const RequestNum num = next_request_num(connection);
  request.request_id = static_cast<std::uint32_t>(num);
  request.response_expected = response_expected;
  request.object_key = key.key;
  request.operation = operation;
  request.body = args.bytes();

  giop::GiopMessage msg;
  msg.header.byte_order = byte_order_;
  msg.body = std::move(request);
  const Bytes giop_bytes = giop::encode(msg);

  if (!stack_.send(now, connection, num, giop_bytes)) {
    request_counters_[connection] -= 1;  // keep replicas' numbering aligned
    return std::nullopt;
  }
  if (response_expected && handler) {
    pending_.insert_or_assign({connection, num}, Pending{std::move(handler), now});
  }
  return num;
}

std::optional<RequestNum> Orb::locate(TimePoint now, const ConnectionId& connection,
                                      const ObjectKey& key,
                                      std::function<void(giop::LocateStatus)> handler) {
  if (stack_.connection_congested(connection)) {
    metrics_.requests_deferred.add();
    return std::nullopt;
  }
  giop::LocateRequest request;
  const RequestNum num = next_request_num(connection);
  request.request_id = static_cast<std::uint32_t>(num);
  request.object_key = key.key;

  giop::GiopMessage msg;
  msg.header.byte_order = byte_order_;
  msg.body = std::move(request);
  if (!stack_.send(now, connection, num, giop::encode(msg))) {
    request_counters_[connection] -= 1;
    return std::nullopt;
  }
  if (handler) pending_.insert_or_assign({connection, num}, Pending{std::move(handler), now});
  return num;
}

void Orb::on_event(TimePoint now, const ftmp::Event& event) {
  if (const auto* change = std::get_if<ftmp::MembershipChanged>(&event)) {
    on_membership_changed(now, *change);
    return;
  }
  if (const auto* evicted = std::get_if<ftmp::SelfEvicted>(&event)) {
    // No copy can be delivered here any more, and no reply sent.
    std::erase_if(withheld_, [&](const auto& e) { return e.second.group == evicted->group; });
    return;
  }
  const auto* dm = std::get_if<ftmp::DeliveredMessage>(&event);
  if (!dm) return;

  giop::GiopMessage msg;
  try {
    msg = giop::decode(dm->giop_message);
  } catch (const giop::CdrError& e) {
    metrics_.undecodable.add();
    FTC_LOG(kDebug) << "orb: undecodable GIOP payload: " << e.what();
    return;
  }

  switch (msg.header.type) {
    case giop::MsgType::kRequest:
      if (!dedup_.accept(dm->connection, dm->request_num, ft::MessageKind::kRequest)) {
        return;
      }
      if (log_) {
        log_->record(ft::LogEntry{ft::MessageKind::kRequest, dm->connection,
                                  dm->request_num, dm->timestamp, dm->giop_message});
      }
      handle_request(now, *dm, std::get<giop::Request>(msg.body),
                     msg.header.byte_order);
      break;
    case giop::MsgType::kLocateRequest:
      if (!dedup_.accept(dm->connection, dm->request_num, ft::MessageKind::kRequest)) {
        return;
      }
      handle_locate_request(now, *dm, std::get<giop::LocateRequest>(msg.body));
      break;
    case giop::MsgType::kReply:
      if (!dedup_.accept(dm->connection, dm->request_num, ft::MessageKind::kReply)) {
        return;
      }
      withheld_.erase({dm->connection, dm->request_num});
      if (log_) {
        log_->record(ft::LogEntry{ft::MessageKind::kReply, dm->connection,
                                  dm->request_num, dm->timestamp, dm->giop_message});
      }
      handle_reply(now, std::get<giop::Reply>(msg.body), *dm, msg.header.byte_order);
      break;
    case giop::MsgType::kLocateReply: {
      if (!dedup_.accept(dm->connection, dm->request_num, ft::MessageKind::kReply)) {
        return;
      }
      withheld_.erase({dm->connection, dm->request_num});
      if (auto done = take<LocateHandler>({dm->connection, dm->request_num})) {
        std::get<LocateHandler>(done->handler)(std::get<giop::LocateReply>(msg.body).status);
      }
      break;
    }
    case giop::MsgType::kCancelRequest: {
      // Best-effort: drop the request's record if it is still pending.
      const auto& body = std::get<giop::CancelRequest>(msg.body);
      pending_.erase({dm->connection, RequestNum{body.request_id}});
      break;
    }
    default:
      break;  // CloseConnection / MessageError / Fragment: no dispatch
  }
}

void Orb::set_deadline(const ConnectionId& connection, RequestNum request_num,
                       TimePoint deadline, std::function<void()> on_timeout) {
  auto it = pending_.find({connection, request_num});
  if (it == pending_.end()) return;
  it->second.deadline = Pending::Deadline{deadline, std::move(on_timeout)};
}

std::size_t Orb::expire(TimePoint now) {
  std::size_t fired = 0;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (!it->second.deadline || it->second.deadline->at > now) {
      ++it;
      continue;
    }
    auto on_timeout = std::move(it->second.deadline->on_timeout);
    it = pending_.erase(it);
    ++fired;
    if (on_timeout) on_timeout();
  }
  return fired;
}

std::size_t Orb::pending_invocations() const {
  return static_cast<std::size_t>(std::count_if(
      pending_.begin(), pending_.end(),
      [](const auto& e) { return std::holds_alternative<ReplyHandler>(e.second.handler); }));
}

bool Orb::cancel(TimePoint now, const ConnectionId& connection, RequestNum request_num) {
  pending_.erase({connection, request_num});
  giop::CancelRequest body;
  body.request_id = static_cast<std::uint32_t>(request_num);
  giop::GiopMessage msg;
  msg.header.byte_order = byte_order_;
  msg.body = body;
  return stack_.send(now, connection, request_num, giop::encode(msg));
}

void Orb::handle_request(TimePoint now, const ftmp::DeliveredMessage& dm,
                         const giop::Request& request, ByteOrder arg_order) {
  auto servant = servants_.find(ObjectKey{request.object_key});
  if (servant == servants_.end()) {
    // Delivered to both groups (§4): the client group legitimately sees the
    // request too and simply has no servant for it.
    metrics_.unknown_objects.add();
    return;
  }
  // Arguments were marshaled in the sender's GIOP byte order.
  giop::CdrReader args(request.body, arg_order);
  giop::CdrWriter results(byte_order_);
  giop::ReplyStatus status;
  try {
    status = servant->second->invoke(request.operation, args, results);
  } catch (const std::exception& e) {
    status = giop::ReplyStatus::kSystemException;
    results = giop::CdrWriter(byte_order_);
    results.string(e.what());
  }
  metrics_.requests_dispatched.add();
  if (!request.response_expected || servant->second->suppress_reply()) return;

  giop::Reply reply;
  reply.request_id = request.request_id;
  reply.status = status;
  reply.body = results.bytes();
  giop::GiopMessage msg;
  msg.header.byte_order = byte_order_;
  msg.body = std::move(reply);
  send_reply(now, dm, std::move(msg));
}

void Orb::handle_locate_request(TimePoint now, const ftmp::DeliveredMessage& dm,
                                const giop::LocateRequest& request) {
  const bool here = servants_.contains(ObjectKey{request.object_key});
  // Only processors hosting servants answer; the client group stays silent.
  if (!here) return;
  giop::LocateReply reply;
  reply.request_id = request.request_id;
  reply.status = giop::LocateStatus::kObjectHere;
  giop::GiopMessage msg;
  msg.header.byte_order = byte_order_;
  msg.body = std::move(reply);
  send_reply(now, dm, std::move(msg));
}

void Orb::send_reply(TimePoint now, const ftmp::DeliveredMessage& dm,
                     giop::GiopMessage&& reply) {
  Bytes bytes = giop::encode(reply);
  // Another replica's copy that the stack holds reaches every member that
  // survives with this one — even if its sender crashes, since the install
  // cut covers what any survivor holds — so sending this one would only
  // add a duplicate.
  std::set<ProcessorId> copies;
  const giop::MsgType type = giop::type_of(reply.body);
  for (const ftmp::HeldCopy& copy : stack_.held_copies(dm.connection, dm.request_num)) {
    try {
      if (giop::decode(copy.payload).header.type == type) copies.insert(copy.source);
    } catch (const giop::CdrError&) {
      // Not a GIOP message: the client could not use it either.
    }
  }
  if (copies.empty()) {
    // Same connection id and request number as the request (§4): the pair
    // also matches the reply to the request when replaying from a log.
    (void)stack_.send(now, dm.connection, dm.request_num, bytes);
    return;
  }
  metrics_.replies_withheld.add();
  withheld_.insert_or_assign({dm.connection, dm.request_num},
                             Withheld{dm.group, std::move(copies), std::move(bytes)});
  // The reply would have acknowledged everything this member holds: pay
  // that ack now, so that no member waits on this one any longer.
  (void)stack_.pay_ack_debt(now, dm.connection);
}

void Orb::on_membership_changed(TimePoint now, const ftmp::MembershipChanged& change) {
  // Events come in delivery order, so a copy whose sender left before any
  // Reply to its request was delivered here was dropped undelivered.
  for (auto it = withheld_.begin(); it != withheld_.end();) {
    Withheld& w = it->second;
    if (w.group == change.group) {
      for (ProcessorId gone : change.left) w.copies.erase(gone);
    }
    if (!w.copies.empty()) {
      ++it;
      continue;
    }
    (void)stack_.send(now, it->first.first, it->first.second, w.reply);
    metrics_.replies_released.add();
    it = withheld_.erase(it);
  }
}

void Orb::handle_reply(TimePoint now, const giop::Reply& reply,
                       const ftmp::DeliveredMessage& dm, ByteOrder body_order) {
  auto done = take<ReplyHandler>({dm.connection, dm.request_num});
  if (!done) return;  // server replicas see replies too (§4)
  metrics_.request_reply_ms.observe(to_ms(now - done->sent_at));
  metrics_.replies_completed.add();
  std::get<ReplyHandler>(done->handler)(reply, body_order);
}

}  // namespace ftcorba::orb
