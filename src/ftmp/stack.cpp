#include "ftmp/stack.hpp"

#include <algorithm>

#include "common/codec.hpp"
#include "common/log.hpp"

namespace ftcorba::ftmp {

namespace {
// Client side: period between ConnectRequest retransmissions until the
// server responds with Connect; server side: period between Connect
// resends until traffic arrives on the new connection (§7).
constexpr Duration kConnectRetryInterval = 50 * kMillisecond;
}  // namespace

Stack::Stack(ProcessorId self, FtDomainId domain, McastAddress domain_addr, Config config)
    : self_(self), domain_(domain), domain_addr_(domain_addr), config_(config),
      batcher_(config_) {
  stats_.malformed_datagrams = metrics::Counter(
      "ftmp_stack_malformed_datagrams_total",
      "Datagrams dropped: not FTMP-framed or failed header/body decode",
      "datagrams", "stack");
  stats_.unroutable_datagrams = metrics::Counter(
      "ftmp_stack_unroutable_datagrams_total",
      "Well-formed datagrams with no session to route to", "datagrams",
      "stack");
}

GroupSession& Stack::make_session(ProcessorGroupId g, McastAddress addr) {
  auto session = std::make_unique<GroupSession>(self_, g, addr, domain_addr_,
                                                config_, outbox_);
  session->set_flow_listener(flow_listener_);
  auto [it, inserted] = sessions_.emplace(g, std::move(session));
  return *it->second;
}

void Stack::set_flow_listener(FlowListener* listener) {
  flow_listener_ = listener;
  for (auto& [g, session] : sessions_) session->set_flow_listener(listener);
}

void Stack::create_group(TimePoint now, ProcessorGroupId group, McastAddress addr,
                         const std::vector<ProcessorId>& members) {
  make_session(group, addr).bootstrap(now, members);
  observe_events(now);
}

void Stack::expect_join(ProcessorGroupId group, McastAddress addr) {
  if (sessions_.contains(group)) return;
  expected_joins_[group] = addr;
}

bool Stack::add_processor(TimePoint now, ProcessorGroupId group, ProcessorId new_member) {
  GroupSession* s = this->group(group);
  if (!s) return false;
  const bool ok = s->add_processor(now, new_member);
  observe_events(now);
  return ok;
}

bool Stack::remove_processor(TimePoint now, ProcessorGroupId group, ProcessorId member) {
  GroupSession* s = this->group(group);
  if (!s) return false;
  const bool ok = s->remove_processor(now, member);
  observe_events(now);
  return ok;
}

GroupSession* Stack::group(ProcessorGroupId g) {
  auto it = sessions_.find(g);
  return it == sessions_.end() ? nullptr : it->second.get();
}

const GroupSession* Stack::group(ProcessorGroupId g) const {
  auto it = sessions_.find(g);
  return it == sessions_.end() ? nullptr : it->second.get();
}

void Stack::serve_connections(ProcessorGroupId group) { serve_group_ = group; }

void Stack::open_connection(TimePoint now, const ConnectionId& connection,
                            McastAddress server_domain_addr,
                            const std::vector<ProcessorId>& client_processors) {
  ClientConn state;
  state.server_domain_addr = server_domain_addr;
  state.client_processors = client_processors;
  auto [it, inserted] = client_conns_.emplace(connection, std::move(state));
  if (!inserted) return;
  send_connect_request(now, connection, it->second);
}

bool Stack::connection_ready(const ConnectionId& connection) const {
  auto it = client_conns_.find(connection);
  if (it != client_conns_.end() && it->second.established) return true;
  if (serve_group_) {
    const GroupSession* s = this->group(*serve_group_);
    if (s && s->active()) {
      auto sc = server_conns_.find(connection);
      if (sc != server_conns_.end()) return sc->second.connect_sent;
    }
  }
  return false;
}

std::optional<ProcessorGroupId> Stack::connection_group(const ConnectionId& connection) const {
  auto it = client_conns_.find(connection);
  if (it != client_conns_.end() && it->second.established) return it->second.bound_group;
  if (serve_group_ && server_conns_.contains(connection)) return *serve_group_;
  return std::nullopt;
}

bool Stack::send(TimePoint now, const ConnectionId& connection, RequestNum request_num,
                 BytesView giop) {
  const SendStatus status = try_send(now, connection, request_num, giop);
  return status == SendStatus::kSent || status == SendStatus::kQueued;
}

GroupSession* Stack::session_for(const ConnectionId& connection) const {
  auto it = client_conns_.find(connection);
  std::optional<ProcessorGroupId> g;
  if (it != client_conns_.end() && it->second.established) {
    g = it->second.bound_group;
  } else if (serve_group_) {
    // Server replicas reply over the group that serves the connection.
    g = serve_group_;
  }
  if (!g) return nullptr;
  auto s = sessions_.find(*g);
  return s == sessions_.end() ? nullptr : s->second.get();
}

SendStatus Stack::try_send(TimePoint now, const ConnectionId& connection,
                           RequestNum request_num, BytesView giop) {
  GroupSession* s = session_for(connection);
  if (!s) return SendStatus::kInactive;
  const SendStatus status = s->try_send_regular(now, connection, request_num, giop);
  observe_events(now);
  return status;
}

std::vector<HeldCopy> Stack::held_copies(const ConnectionId& connection,
                                         RequestNum request_num) const {
  const GroupSession* s = session_for(connection);
  return s ? s->held_copies(connection, request_num) : std::vector<HeldCopy>{};
}

bool Stack::pay_ack_debt(TimePoint now, const ConnectionId& connection) {
  GroupSession* s = session_for(connection);
  if (!s || !s->pay_ack_debt(now)) return false;
  observe_events(now);
  return true;
}

bool Stack::send_state(TimePoint now, ProcessorGroupId group, Body body) {
  GroupSession* s = this->group(group);
  if (!s) return false;
  const bool sent = s->send_state(now, std::move(body));
  observe_events(now);
  return sent;
}

bool Stack::connection_congested(const ConnectionId& connection) const {
  const auto g = connection_group(connection);
  if (!g) return false;
  const GroupSession* s = this->group(*g);
  return s && s->flow().over_high_watermark();
}

void Stack::send_connect_request(TimePoint now, const ConnectionId& conn,
                                 ClientConn& state) {
  // Per §7: destination processor group id, sequence number and message
  // timestamp are all 0 in a ConnectRequest header.
  Header h;
  h.byte_order = config_.byte_order;
  h.type = MessageType::kConnectRequest;
  h.source = self_;
  ConnectRequestBody body;
  body.connection = conn;
  body.client_processors = state.client_processors;
  Bytes raw = encode_message(Message{h, std::move(body)});
  outbox_.packets.push_back(net::Datagram{state.server_domain_addr, std::move(raw)});
  state.last_request = now;
}

void Stack::server_on_connect_request(TimePoint now, const Message& msg) {
  if (!serve_group_) return;
  GroupSession* s = this->group(*serve_group_);
  if (!s || !s->active()) return;
  // Only the group leader (smallest member id) drives establishment;
  // leadership fails over naturally because the client keeps retrying.
  const auto& members = s->membership().members;
  if (members.empty() || members.front() != self_) return;
  const auto& body = std::get<ConnectRequestBody>(msg.body);
  auto it = server_conns_.find(body.connection);
  if (it == server_conns_.end()) {
    ServerConn state;
    state.client_processors = body.client_processors;
    server_conns_.emplace(body.connection, std::move(state));
    outbox_.events.emplace_back(
        ConnectionRequested{body.connection, body.client_processors});
    progress_server_conns(now);
    return;
  }
  // "the server might receive a ConnectRequest message for a connection
  // that it has already established. The server should ignore such
  // requests" (§7) — but while no traffic has flowed yet the client may
  // simply have missed the Connect, so we re-send it.
  if (it->second.connect_sent && !it->second.traffic_seen) {
    s->resend_stored(self_, it->second.connect_seq, domain_addr_);
    it->second.last_resend = now;
  }
}

void Stack::progress_server_conns(TimePoint now) {
  if (!serve_group_) return;
  GroupSession* s = this->group(*serve_group_);
  if (!s || !s->active()) return;
  const auto& members = s->membership().members;
  if (members.empty() || members.front() != self_) return;
  for (auto& [conn, state] : server_conns_) {
    if (!state.connect_sent) {
      // Send the Connect first: it tells the client group which processor
      // group and multicast address the connection rides (§7), so the
      // client processors can subscribe and then receive the sponsor's
      // retransmitted AddProcessor messages.
      ConnectBody body;
      body.connection = conn;
      body.processor_group = s->id();
      body.multicast_address = s->address();
      body.current_membership = s->membership();
      if (auto seq = s->send_connect(now, std::move(body))) {
        state.connect_sent = true;
        state.connect_seq = *seq;
        state.last_resend = now;
      }
    }
    if (state.connect_sent) {
      for (ProcessorId p : state.client_processors) {
        if (!s->is_member(p)) {
          (void)s->add_processor(now, p);  // rejected while busy; retried later
        }
      }
    }
    if (state.connect_sent && !state.traffic_seen &&
               now - state.last_resend >= kConnectRetryInterval) {
      // "the server processor group retransmits the Connect message
      // periodically ... until it receives messages over the new
      // connection" (§7).
      s->resend_stored(self_, state.connect_seq, domain_addr_);
      state.last_resend = now;
    }
  }
}

void Stack::client_on_connect(const Message& msg) {
  const auto& body = std::get<ConnectBody>(msg.body);
  auto it = client_conns_.find(body.connection);
  if (it == client_conns_.end()) return;
  ClientConn& state = it->second;
  if (state.established) return;
  state.connect_seen = true;
  state.bound_group = body.processor_group;
  state.bound_addr = body.multicast_address;
  GroupSession* s = this->group(body.processor_group);
  if (s && s->active() && s->is_member(self_)) {
    state.established = true;
    outbox_.events.emplace_back(ConnectionEstablished{
        body.connection, state.bound_group, state.bound_addr});
  } else {
    expect_join(body.processor_group, body.multicast_address);
  }
}

void Stack::on_datagram(TimePoint now, const net::Datagram& datagram) {
  last_now_ = std::max(last_now_, now);
  if (looks_like_ftmp_batch(datagram.payload)) {
    // Batched datagram: each sub-frame is a complete FTMP message processed
    // as if it had arrived alone, sliced (not copied) out of the arrival
    // buffer. Envelope corruption drops the remainder of the batch but not
    // the sub-frames already yielded (each is length-delimited).
    BatchParser parser(datagram.payload.view());
    while (const auto sf = parser.next()) {
      on_frame(now, datagram.payload.slice(sf->offset, sf->length));
    }
    if (!parser.ok()) {
      stats_.malformed_datagrams.add();
      FTC_LOG(kDebug) << to_string(self_)
                      << ": dropping malformed batch datagram: " << parser.error();
    }
    return;
  }
  if (!looks_like_ftmp(datagram.payload)) {
    stats_.malformed_datagrams.add();
    return;
  }
  on_frame(now, datagram.payload);
}

void Stack::on_frame(TimePoint now, const SharedBytes& payload) {
  // Hot path: decode only the fixed 45-byte header; the body stays a raw
  // slice of the arrival buffer and is decoded once, at its point of
  // consumption (docs/BUFFERS.md).
  const HeaderView hv = try_decode_header(payload);
  if (!hv) {
    stats_.malformed_datagrams.add();
    FTC_LOG(kDebug) << to_string(self_) << ": dropping malformed datagram: " << hv.error;
    return;
  }
  const Frame frame{hv.header, payload};

  // The few message types the Stack itself consumes (connection
  // establishment and session-less joins) need their bodies here; a
  // malformed body on these cold paths counts exactly as it did when
  // ingress decoded everything.
  const auto decode_full = [&]() -> std::optional<Message> {
    try {
      return Message{frame.header, decode_body(frame.header, frame.body())};
    } catch (const CodecError& e) {
      stats_.malformed_datagrams.add();
      FTC_LOG(kDebug) << to_string(self_) << ": dropping malformed datagram: " << e.what();
      return std::nullopt;
    }
  };

  switch (frame.header.type) {
    case MessageType::kConnectRequest: {
      if (const auto msg = decode_full()) server_on_connect_request(now, *msg);
      break;
    }
    case MessageType::kConnect: {
      const auto msg = decode_full();
      if (!msg) break;
      client_on_connect(*msg);
      if (GroupSession* s = this->group(frame.header.destination_group)) {
        s->handle(now, frame);
      }
      break;
    }
    case MessageType::kAddProcessor: {
      if (GroupSession* s = this->group(frame.header.destination_group)) {
        s->handle(now, frame);
        break;
      }
      const auto msg = decode_full();
      if (!msg) break;
      const auto& body = std::get<AddProcessorBody>(msg->body);
      auto expected = expected_joins_.find(frame.header.destination_group);
      auto floor = join_ts_floor_.find(frame.header.destination_group);
      if (floor != join_ts_floor_.end() &&
          body.current_membership.timestamp < floor->second) {
        // A retransmission of an AddProcessor from an earlier incarnation
        // of this processor's membership: ignore it, the fresh one follows.
        stats_.unroutable_datagrams.add();
      } else if (body.new_member == self_ && expected != expected_joins_.end()) {
        const McastAddress addr = expected->second;
        expected_joins_.erase(expected);
        make_session(frame.header.destination_group, addr)
            .init_from_add(now, *msg, frame.raw);
      } else {
        stats_.unroutable_datagrams.add();
      }
      break;
    }
    default: {
      if (GroupSession* s = this->group(frame.header.destination_group)) {
        s->handle(now, frame);
      } else {
        stats_.unroutable_datagrams.add();
      }
      break;
    }
  }
  observe_events(now);
}

void Stack::observe_events(TimePoint now) {
  for (std::size_t i = events_observed_; i < outbox_.events.size(); ++i) {
    const Event& ev = outbox_.events[i];
    if (const auto* joined = std::get_if<MembershipChanged>(&ev)) {
      // Client side: our join to a connection's group completed.
      const bool self_joined =
          std::find(joined->joined.begin(), joined->joined.end(), self_) !=
          joined->joined.end();
      if (self_joined) {
        for (auto& [conn, state] : client_conns_) {
          if (!state.established && state.connect_seen &&
              state.bound_group == joined->group) {
            state.established = true;
            outbox_.events.emplace_back(
                ConnectionEstablished{conn, state.bound_group, state.bound_addr});
          }
        }
      }
    } else if (const auto* delivered = std::get_if<DeliveredMessage>(&ev)) {
      auto it = server_conns_.find(delivered->connection);
      if (it != server_conns_.end()) it->second.traffic_seen = true;
    }
  }
  events_observed_ = outbox_.events.size();
  progress_server_conns(now);
}

void Stack::tick(TimePoint now) {
  last_now_ = std::max(last_now_, now);
  for (auto& [g, session] : sessions_) session->tick(now);
  for (auto& [conn, state] : client_conns_) {
    if (!state.established &&
        now - state.last_request >= kConnectRetryInterval) {
      send_connect_request(now, conn, state);
    }
  }
  observe_events(now);
}

std::vector<net::Datagram> Stack::take_packets() {
  std::vector<net::Datagram> out;
  if (batcher_.enabled()) {
    for (net::Datagram& d : outbox_.packets) {
      batcher_.stage(last_now_, std::move(d));
    }
    outbox_.packets.clear();
    batcher_.drain(last_now_, out,
                   [this](McastAddress addr) { return batch_waits(addr); });
    return out;
  }
  out.swap(outbox_.packets);
  return out;
}

bool Stack::batch_waits(McastAddress addr) const {
  bool on_addr = false;
  for (const auto& [g, session] : sessions_) {
    if (session->address() != addr && session->retiring_address() != addr) continue;
    if (session->ordering().batches_wait()) return true;
    on_addr = true;
  }
  return !on_addr;
}

std::vector<Event> Stack::take_events() {
  observe_events(last_now_);
  std::vector<Event> out;
  out.swap(outbox_.events);
  events_observed_ = 0;
  return out;
}

std::vector<McastAddress> Stack::subscriptions() const {
  std::vector<McastAddress> out{domain_addr_};
  for (const auto& [g, addr] : expected_joins_) out.push_back(addr);
  for (const auto& [conn, state] : client_conns_) {
    out.push_back(state.server_domain_addr);
    // The Connect's address until the join completes; the session lists it
    // from then on.
    if (state.connect_seen && !state.established) out.push_back(state.bound_addr);
  }
  // Sessions can move to a new address at runtime (Connect rebind, §7);
  // their current and retiring addresses must both be joined.
  for (const auto& [g, session] : sessions_) {
    out.push_back(session->address());
    if (auto retiring = session->retiring_address()) out.push_back(*retiring);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool Stack::leave_group(TimePoint now, ProcessorGroupId g) {
  return remove_processor(now, g, self_);
}

bool Stack::drop_group(ProcessorGroupId g) {
  auto it = sessions_.find(g);
  if (it == sessions_.end()) return false;
  Timestamp& floor = join_ts_floor_[g];
  floor = std::max(floor, it->second->membership().timestamp);
  sessions_.erase(it);
  return true;
}

std::vector<std::pair<ProcessorGroupId, Timestamp>> Stack::join_timestamp_floors()
    const {
  std::map<ProcessorGroupId, Timestamp> floors;
  for (const auto& [g, ts] : join_ts_floor_) floors[g] = ts;
  for (const auto& [g, session] : sessions_) {
    Timestamp& f = floors[g];
    f = std::max(f, session->membership().timestamp);
  }
  return {floors.begin(), floors.end()};
}

void Stack::restore_join_timestamp_floor(ProcessorGroupId g, Timestamp floor) {
  Timestamp& f = join_ts_floor_[g];
  f = std::max(f, floor);
}

bool Stack::rebind_group(TimePoint now, ProcessorGroupId g, McastAddress new_addr) {
  GroupSession* s = this->group(g);
  if (!s) return false;
  const bool ok = s->rebind_address(now, new_addr);
  observe_events(now);
  return ok;
}

}  // namespace ftcorba::ftmp
