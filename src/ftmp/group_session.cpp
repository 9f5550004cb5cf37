#include "ftmp/group_session.hpp"

#include <algorithm>
#include <iterator>
#include <set>
#include <tuple>
#include <utility>

#include "common/log.hpp"

namespace ftcorba::ftmp {

namespace {

/// The ⟨connection, request number⟩ prefix of a Regular body, read in
/// place. Throws CodecError when the body is too short.
std::pair<ConnectionId, RequestNum> read_regular_key(const Frame& frame) {
  Reader r(frame.body(), frame.header.byte_order);
  ConnectionId connection;
  connection.client_domain = FtDomainId{r.u32()};
  connection.client_group = ObjectGroupId{r.u32()};
  connection.server_domain = FtDomainId{r.u32()};
  connection.server_group = ObjectGroupId{r.u32()};
  return {connection, r.u64()};
}

}  // namespace

GroupSession::GroupSession(ProcessorId self, ProcessorGroupId group,
                           McastAddress group_addr, McastAddress domain_addr,
                           const Config& config, Outbox& outbox)
    : self_(self),
      group_(group),
      group_addr_(group_addr),
      domain_addr_(domain_addr),
      config_(config),
      outbox_(outbox),
      rmp_(self, config),
      romp_(self, config),
      ordering_(make_ordering(config.ordering_mode, romp_)),
      pgmp_(self, config, rmp_, romp_, *ordering_),
      flow_(config) {
  heartbeats_sent_ = metrics::counter(
      "ftmp_rmp_heartbeats_sent_total",
      "Heartbeat messages multicast when nothing else was sent within the "
      "heartbeat interval",
      "messages", "rmp");
  acks_sent_ = metrics::counter(
      "ftmp_romp_acks_sent_total",
      "Heartbeats sent to pay an ack debt before the heartbeat interval "
      "(lamport mode; also counted in ftmp_rmp_heartbeats_sent_total)",
      "messages", "romp");
  own_gap_probes_ = metrics::counter(
      "ftmp_rmp_own_gap_probes_total",
      "Heartbeats sent because an own reliable message had not looped back "
      "within kAckDelay (lamport mode; also counted in "
      "ftmp_rmp_heartbeats_sent_total)",
      "messages", "rmp");
}

void GroupSession::bootstrap(TimePoint now, const std::vector<ProcessorId>& members) {
  pgmp_.bootstrap(now, members);
  pump(now);
}

void GroupSession::init_from_add(TimePoint now, const Message& add_msg, SharedBytes raw) {
  pgmp_.init_from_add(now, add_msg);
  // Feed the AddProcessor through the normal reliable path so it is stored,
  // counted in the sponsor's stream and (eventually) ordered here too —
  // on_add_ordered dedupes the self-join.
  handle(now, Frame{add_msg.header, std::move(raw)});
  pump(now);
}

bool GroupSession::is_member(ProcessorId p) const {
  const auto& ms = pgmp_.membership().members;
  return std::find(ms.begin(), ms.end(), p) != ms.end();
}

Header GroupSession::stamp_header(TimePoint now, MessageType type) {
  Header h;
  h.byte_order = config_.byte_order;
  h.source = self_;
  h.destination_group = group_;
  h.type = type;
  h.sequence_number = is_reliable(type) ? rmp_.assign_seq() : rmp_.last_sent();
  h.message_timestamp = romp_.stamp(now);
  h.ack_timestamp = romp_.ack_timestamp();
  return h;
}

void GroupSession::finish_send(TimePoint now, const Header& h, SharedBytes raw,
                               McastAddress target) {
  if (is_reliable(h.type)) {
    // The store shares the outgoing buffer — no copy on the send path.
    rmp_.store(self_, h.sequence_number, raw);
    ordering_->on_own_send(h);
    if (h.type == MessageType::kRegular) {
      flow_.note_sent(h.sequence_number, raw.size());
    }
  }
  // Every freshly-stamped multicast doubles as liveness information, so it
  // resets the heartbeat timer (verbatim retransmissions do not).
  rmp_.note_sent(now);
  outbox_.packets.push_back(net::Datagram{target, std::move(raw)});
}

Header GroupSession::send_message(TimePoint now, Body body, McastAddress target) {
  const Header h = stamp_header(now, type_of(body));
  finish_send(now, h, SharedBytes(encode_message(Message{h, std::move(body)})),
              target);
  return h;
}

void GroupSession::send_heartbeat(TimePoint now) {
  const Header h = stamp_header(now, MessageType::kHeartbeat);
  if (heartbeat_template_.empty()) {
    heartbeat_template_ = encode_message(Message{h, HeartbeatBody{}});
  } else {
    // Every header field except the three below is constant per session:
    // patch them into the cached encoding instead of re-encoding.
    patch_header_u64(heartbeat_template_.data(), kSeqOffset, h.sequence_number,
                     h.byte_order);
    patch_header_u64(heartbeat_template_.data(), kMsgTimestampOffset,
                     h.message_timestamp, h.byte_order);
    patch_header_u64(heartbeat_template_.data(), kAckTimestampOffset,
                     h.ack_timestamp, h.byte_order);
  }
  finish_send(now, h, SharedBytes::copy_of(heartbeat_template_), group_addr_);
  heartbeats_sent_.add();
}

void GroupSession::emit_regular(TimePoint now, const ConnectionId& connection,
                                RequestNum request_num, BytesView giop) {
  const bool collides = looks_like_fragment(giop);
  if (config_.max_regular_payload > 0 &&
      (giop.size() > config_.max_regular_payload || collides)) {
    // Too large for one datagram: fragment; total order reassembles. A
    // payload that happens to start with the fragment magic is wrapped as
    // a single-chunk fragment so it cannot be misparsed on delivery.
    for (Bytes& chunk :
         make_fragments(giop, config_.max_regular_payload, ++fragment_counter_)) {
      RegularBody body;
      body.connection = connection;
      body.request_num = request_num;
      body.giop_message = std::move(chunk);
      send_message(now, std::move(body), group_addr_);
    }
    return;
  }
  // Single-pass encapsulation: header, Regular prefix and GIOP payload are
  // written into one buffer, so the payload is copied exactly once between
  // the ORB handing it down and the datagram going out.
  const Header h = stamp_header(now, MessageType::kRegular);
  Writer w(h.byte_order);
  encode_header(w, h);
  w.u32(connection.client_domain.raw());
  w.u32(connection.client_group.raw());
  w.u32(connection.server_domain.raw());
  w.u32(connection.server_group.raw());
  w.u64(request_num);
  w.raw(giop);
  patch_message_size(w, static_cast<std::uint32_t>(w.size()));
  finish_send(now, h, SharedBytes(std::move(w).take()), group_addr_);
}

bool GroupSession::send_regular(TimePoint now, const ConnectionId& connection,
                                RequestNum request_num, BytesView giop) {
  const SendStatus status = try_send_regular(now, connection, request_num, giop);
  return status == SendStatus::kSent || status == SendStatus::kQueued;
}

SendStatus GroupSession::try_send_regular(TimePoint now,
                                          const ConnectionId& connection,
                                          RequestNum request_num, BytesView giop) {
  if (!active()) return SendStatus::kInactive;
  // §7 flush rule: no ordered transmissions until every member has been
  // heard above the Connect's timestamp. A flush-time send parks in the
  // flow FIFO behind any send the window already holds, and pump()
  // releases them in order once the flush completes.
  if (flushing() || !flow_.may_send(giop.size())) {
    const bool parked = flow_.park(FlowController::Parked{
        connection, request_num, Bytes(giop.begin(), giop.end())});
    return parked ? SendStatus::kQueued : SendStatus::kRejected;
  }
  emit_regular(now, connection, request_num, giop);
  pump(now);
  return SendStatus::kSent;
}

bool GroupSession::pay_ack_debt(TimePoint now) {
  if (!active() || config_.ordering_mode == OrderingMode::kLlft || !romp_.ack_owed()) {
    return false;
  }
  send_heartbeat(now);
  acks_sent_.add();
  pump(now);  // the debt is paid: disarm its timer
  return true;
}

std::vector<HeldCopy> GroupSession::held_copies(const ConnectionId& connection,
                                                RequestNum request_num) const {
  std::vector<HeldCopy> out;
  if (!active()) return out;
  for (const Frame* frame : ordering_->held_frames()) {
    if (frame->header.type != MessageType::kRegular || frame->header.source == self_) {
      continue;
    }
    try {
      if (read_regular_key(*frame) != std::pair{connection, request_num}) continue;
    } catch (const CodecError&) {
      continue;  // dropped as malformed at delivery
    }
    SharedBytes payload = frame->raw.slice(kHeaderSize + kRegularPrefixSize);
    if (looks_like_fragment(payload)) continue;
    out.push_back(HeldCopy{frame->header.source, std::move(payload)});
  }
  return out;
}

bool GroupSession::rebind_address(TimePoint now, McastAddress new_addr) {
  if (!active() || flushing() || rebind_requested_ || new_addr == group_addr_) {
    return false;
  }
  ConnectBody body;
  body.connection = ConnectionId{};  // group-wide rebind
  body.processor_group = group_;
  body.multicast_address = new_addr;
  body.current_membership = pgmp_.membership();
  // Transmitted "using the current IP Multicast address and the current
  // processor group" (§7) and delivered in total order.
  send_message(now, std::move(body), group_addr_);
  rebind_requested_ = true;
  pump(now);
  return true;
}

void GroupSession::begin_rebind(TimePoint now, const Message& connect_msg) {
  const auto& body = std::get<ConnectBody>(connect_msg.body);
  old_addr_ = group_addr_;
  // Keep announcing on the old address long enough that a member whose
  // every copy of the Connect was lost still recovers; afterwards the
  // fault detector takes over (an unreachable member is convicted).
  old_addr_retire_at_ = now + 4 * config_.fault_timeout;
  group_addr_ = body.multicast_address;
  flush_ts_ = connect_msg.header.message_timestamp;
  rebind_requested_ = false;
  rebind_src_ = connect_msg.header.source;
  rebind_seq_ = connect_msg.header.sequence_number;
  last_rebind_resend_ = 0;
  // The flush waits to hear every member above the Connect, its sender
  // too, which owes no ack for it: speak at once (lamport mode).
  romp_.owe_ack();
}

void GroupSession::progress_flush(TimePoint now) {
  if (flush_ts_ && romp_.min_bound() > *flush_ts_) {
    // Every member has spoken above the Connect timestamp: flush complete
    // (drain_flow_queue releases what it parked).
    flush_ts_.reset();
  }
  // Retire the old address once the announcement window has passed and the
  // flush is done.
  if (old_addr_ && !flush_ts_ && now >= old_addr_retire_at_) {
    old_addr_.reset();
  }
}

std::optional<SeqNum> GroupSession::send_connect(TimePoint now, ConnectBody body) {
  if (!active()) return std::nullopt;
  const Header h = send_message(now, std::move(body), domain_addr_);
  pump(now);
  return h.sequence_number;
}

bool GroupSession::send_state(TimePoint now, Body body) {
  if (!active()) return false;
  send_message(now, std::move(body), group_addr_);
  pump(now);
  return true;
}

bool GroupSession::add_processor(TimePoint now, ProcessorId new_member) {
  if (flushing()) return false;
  auto body = pgmp_.make_add(new_member);
  if (!body) return false;
  pgmp_.note_add_sent(new_member, now, *body);
  send_message(now, std::move(*body), group_addr_);
  pump(now);
  return true;
}

bool GroupSession::remove_processor(TimePoint now, ProcessorId member) {
  if (flushing()) return false;
  auto body = pgmp_.make_remove(member);
  if (!body) return false;
  send_message(now, std::move(*body), group_addr_);
  pump(now);
  return true;
}

bool GroupSession::resend_stored(ProcessorId source, SeqNum seq,
                                 std::optional<McastAddress> target) {
  auto raw = rmp_.stored(source, seq);
  if (!raw) return false;
  // Stored messages are byte-identical to the original transmission; the
  // retransmission flag is patched into a pooled copy on this cold path.
  outbox_.packets.push_back(net::Datagram{target.value_or(group_addr_),
                                          with_retransmission_flag(*raw)});
  return true;
}

std::optional<Body> GroupSession::decode_body_checked(const Frame& frame) const {
  try {
    return decode_body(frame.header, frame.body());
  } catch (const CodecError& e) {
    // The fixed header was valid enough to route here, but the body is
    // malformed: drop at the point of consumption.
    FTC_LOG(kWarn) << to_string(self_) << " " << to_string(group_)
                   << ": dropping " << to_string(frame.header.type)
                   << " with malformed body: " << e.what();
    return std::nullopt;
  }
}

void GroupSession::handle(TimePoint now, const Frame& frame) {
  const Header& h = frame.header;
  if (!active()) {
    // Lame-duck service: an evicted member still answers retransmission
    // requests from its stores so laggards can order the removal.
    if (lame_duck(now) && h.type == MessageType::kRetransmitRequest) {
      if (auto body = decode_body_checked(frame)) {
        rmp_.on_retransmit_request(now, std::get<RetransmitRequestBody>(*body));
        for (RmpOut& out : rmp_.take_output()) {
          apply_rmp_out(now, std::move(out));
        }
      }
    }
    return;
  }
  pgmp_.note_heard(h.source, now);
  switch (h.type) {
    case MessageType::kHeartbeat:
      rmp_.on_heartbeat(now, h);
      romp_.on_heartbeat(h, rmp_.contiguous(h.source));
      break;
    case MessageType::kRetransmitRequest:
      // A NACK's header carries the sender's current stream position and
      // fresh timestamps ("derived from the current values provided by the
      // ROMP layer", §5), so it informs gap detection and bounds exactly
      // like a Heartbeat, in addition to soliciting retransmissions.
      rmp_.on_heartbeat(now, h);
      romp_.on_heartbeat(h, rmp_.contiguous(h.source));
      if (auto body = decode_body_checked(frame)) {
        rmp_.on_retransmit_request(now, std::get<RetransmitRequestBody>(*body));
      }
      break;
    case MessageType::kConnectRequest:
      break;  // domain-level; never routed to a session
    default:
      // Reliable, source-ordered path (Regular, Connect, AddProcessor,
      // RemoveProcessor, Suspect, Membership). Bodies stay raw slices of
      // the arrival buffer until delivery.
      for (Frame& m : rmp_.on_reliable(now, frame)) {
        route_source_ordered(now, m);
      }
      break;
  }
  pump(now);
}

void GroupSession::route_source_ordered(TimePoint now, const Frame& frame) {
  romp_.on_source_ordered(frame.header);
  ordering_->on_source_ordered(frame, now);
  // Suspect and Membership are "Reliable: yes, Totally Ordered: no"
  // (Fig. 3): they reach PGMP straight from the source-ordered stream.
  // Their bodies are decoded here — membership changes are the cold path.
  // State-transfer messages take the same reliable source-ordered path but
  // surface as StateMessage events for the ft::StateTransferManager.
  const MessageType type = frame.header.type;
  if (type == MessageType::kStateRequest || type == MessageType::kStateChunk ||
      type == MessageType::kStateDigest) {
    auto body = decode_body_checked(frame);
    if (!body) return;
    StateMessage ev;
    ev.group = group_;
    ev.source = frame.header.source;
    ev.timestamp = frame.header.message_timestamp;
    ev.body = std::move(*body);
    outbox_.events.emplace_back(std::move(ev));
    return;
  }
  if (type != MessageType::kSuspect && type != MessageType::kMembership) return;
  auto body = decode_body_checked(frame);
  if (!body) return;
  const Message msg{frame.header, std::move(*body)};
  if (type == MessageType::kSuspect) {
    pgmp_.on_suspect(now, msg);
  } else {
    pgmp_.on_membership_msg(now, msg);
  }
}

void GroupSession::deliver_ordered(TimePoint now, const Frame& frame) {
  switch (frame.header.type) {
    case MessageType::kRegular: {
      // Hot path: parse the fixed Regular prefix (connection + request
      // number) in place and hand the GIOP payload up as a slice of the
      // arrival buffer — no variant decode, no copy.
      DeliveredMessage ev;
      ev.group = group_;
      ev.source = frame.header.source;
      ev.seq = frame.header.sequence_number;
      ev.timestamp = frame.header.message_timestamp;
      ev.delivered_at = now;
      try {
        std::tie(ev.connection, ev.request_num) = read_regular_key(frame);
      } catch (const CodecError& e) {
        FTC_LOG(kWarn) << to_string(self_) << " " << to_string(group_)
                       << ": dropping Regular with malformed body: " << e.what();
        break;
      }
      SharedBytes giop = frame.raw.slice(kHeaderSize + kRegularPrefixSize);
      if (looks_like_fragment(giop)) {
        auto whole = reassembler_.feed(frame.header.source, giop);
        if (!whole) break;  // partial (or orphan tail): nothing to deliver yet
        ev.giop_message = std::move(*whole);
      } else {
        ev.giop_message = std::move(giop);
      }
      delivered_hw_[ev.source.raw()] = ev.seq;
      outbox_.events.emplace_back(std::move(ev));
      break;
    }
    case MessageType::kAddProcessor: {
      if (auto body = decode_body_checked(frame)) {
        pgmp_.on_add_ordered(now, Message{frame.header, std::move(*body)});
      }
      break;
    }
    case MessageType::kRemoveProcessor: {
      if (auto body = decode_body_checked(frame)) {
        pgmp_.on_remove_ordered(now, Message{frame.header, std::move(*body)});
      }
      break;
    }
    case MessageType::kConnect: {
      // Establishment Connects are handled at the Stack. An ordered
      // Connect that names this group with a *different* multicast address
      // is a rebind (§7): switch and start the flush.
      auto body = decode_body_checked(frame);
      if (!body) break;
      const auto& cb = std::get<ConnectBody>(*body);
      if (cb.processor_group == group_ && cb.multicast_address != group_addr_) {
        begin_rebind(now, Message{frame.header, std::move(*body)});
      }
      break;
    }
    default:
      break;
  }
}

void GroupSession::apply_rmp_out(TimePoint now, RmpOut&& out) {
  if (auto* nack = std::get_if<NackOut>(&out)) {
    RetransmitRequestBody body;
    body.processor = nack->missing_from;
    body.start_seq = nack->start;
    body.stop_seq = nack->stop;
    send_message(now, std::move(body), group_addr_);
  } else if (auto* rt = std::get_if<RetransmitOut>(&out)) {
    // During an address rebind, laggards still listening on the old
    // address must be able to recover: retransmit on both.
    if (old_addr_) {
      outbox_.packets.push_back(net::Datagram{*old_addr_, rt->raw});
    }
    outbox_.packets.push_back(net::Datagram{group_addr_, std::move(rt->raw)});
  }
}

void GroupSession::emit_install(TimePoint now, InstallOut&& install) {
  for (Frame& m : install.remainder) {
    if (m.header.type == MessageType::kRegular) {
      deliver_ordered(now, m);
    } else if (m.header.type == MessageType::kAddProcessor ||
               m.header.type == MessageType::kRemoveProcessor) {
      // Membership operations caught inside a fault-recovery cut: the paper
      // assumes planned changes run only "in the case that there are no
      // faulty processors" (§7.1); we skip them and log (DESIGN.md, known
      // simplifications).
      FTC_LOG(kWarn) << to_string(self_) << " " << to_string(group_)
                     << ": skipping " << to_string(m.header.type)
                     << " caught in fault-recovery cut";
    }
  }
  install.change.group = group_;
  // A removed member's partially-reassembled message can never complete.
  for (ProcessorId gone : install.change.left) {
    reassembler_.forget(gone);
    delivered_hw_.erase(gone.raw());
  }
  // A (re-)joined member's stream rebases (fresh incarnation restarts at
  // seq 1), so its high-water mark must not carry over across the install.
  for (ProcessorId fresh : install.change.joined) {
    delivered_hw_.erase(fresh.raw());
  }
  // Stamp the virtual-synchrony cut: per-source delivered-seq high-water
  // marks at this install point (docs/RECOVERY.md). Every surviving member
  // computes identical values — the install is a common cut.
  install.change.cut_seqs.clear();
  for (ProcessorId p : install.change.membership.members) {
    auto it = delivered_hw_.find(p.raw());
    install.change.cut_seqs.push_back(
        SourceSeq{p, it == delivered_hw_.end() ? 0 : it->second});
  }
  for (FaultReport& f : install.faults) {
    f.group = group_;
    outbox_.events.emplace_back(f);
  }
  outbox_.events.emplace_back(std::move(install.change));
  if (install.self_evicted) {
    deactivated_at_ = now;
    outbox_.events.emplace_back(SelfEvicted{group_});
  }
}

void GroupSession::apply_pgmp_out(TimePoint now, PgmpOut&& out) {
  if (auto* send = std::get_if<SendBodyOut>(&out)) {
    send_message(now, std::move(send->body), group_addr_);
  } else if (auto* resend = std::get_if<ResendStoredOut>(&out)) {
    resend_stored(resend->source, resend->seq);
    // The members order an AddProcessor within a round trip (urgent acks),
    // so the first re-multicast can go out before the joiner has joined the
    // group address; a repeat kAckDelay later spares it the wait for the
    // next one, kJoinRetryInterval away.
    if (config_.ordering_mode == OrderingMode::kLamport) {
      add_echoes_.push_back({resend->source, resend->seq, now + kAckDelay});
    }
  } else if (auto* install = std::get_if<InstallOut>(&out)) {
    emit_install(now, std::move(*install));
  }
}

void GroupSession::pump(TimePoint now) {
  bool progress = true;
  while (progress) {
    progress = false;
    // PGMP output before ROMP collection: a fault-recovery install drains
    // the old-epoch remainder synchronously (inside try_complete, during
    // datagram routing) and queues it as an InstallOut. Removing the
    // faulty member also unblocks ordering for messages past the cut — if
    // those were collected first, they would be delivered AHEAD of the
    // remainder, reordering the stream every member must share.
    for (PgmpOut& out : pgmp_.take_output()) {
      apply_pgmp_out(now, std::move(out));
      progress = true;
    }
    for (Frame& m : ordering_->collect_deliverable(now)) {
      deliver_ordered(now, m);
      progress = true;
    }
    // Engine-originated control traffic (LLFT OrderInfo grants; empty in
    // Lamport mode): stamped and multicast like any protocol message.
    for (Body& body : ordering_->take_protocol_sends()) {
      send_message(now, std::move(body), group_addr_);
      progress = true;
    }
    for (RmpOut& out : rmp_.take_output()) {
      apply_rmp_out(now, std::move(out));
      progress = true;
    }
  }
  if (config_.stability_gc) {
    for (const auto& [src, seq] : romp_.collect_stable()) {
      rmp_.release(src, seq);
      if (src == self_) flow_.on_stable(seq);
    }
  }
  progress_flush(now);
  drain_flow_queue(now);
  if (config_.ordering_mode != OrderingMode::kLamport || !active()) return;
  // Every send above is stamped past the clock and so pays any ack debt.
  // An urgent one falls due now, any other ack_delay() after it arose; the
  // next tick pays a due one.
  if (romp_.ack_urgent()) {
    ack_due_ = now;
  } else if (!romp_.ack_owed()) {
    ack_due_.reset();
  } else if (!ack_due_) {
    ack_due_ = now + ack_delay();
  }
}

Duration GroupSession::ack_delay() const {
  const std::set<ProcessorId>& members = romp_.members();
  const auto self = members.find(self_);
  if (self == members.end()) return kAckDelay;
  const auto slots = static_cast<Duration>(std::min(members.size(), kAckSlots));
  const auto rank = static_cast<Duration>(std::distance(members.begin(), self));
  // A message from a top rank first becomes deliverable at rank slots - 2,
  // once every rank below it has acked: those ranks share the first slot.
  const Duration slot = rank + 2 < slots ? 1 : std::min(rank + 1, slots);
  return kAckDelay * slot / slots;
}

void GroupSession::drain_flow_queue(TimePoint now) {
  if (flushing()) return;
  while (auto parked = flow_.release_one()) {
    emit_regular(now, parked->connection, parked->request_num, parked->giop);
  }
}

void GroupSession::tick(TimePoint now) {
  if (!active()) {
    // Lame-duck heartbeats carry fresh timestamps so members that have not
    // yet ordered our removal can keep ordering.
    if (lame_duck(now) && rmp_.heartbeat_due(now)) {
      send_heartbeat(now);
    }
    return;
  }
  pgmp_.tick(now);
  rmp_.on_tick(now);
  const bool heartbeat_due = rmp_.heartbeat_due(now);
  const bool ack_due = ack_due_ && now >= *ack_due_;
  // kLamport: an own seq that RMP has not received back is probed for once
  // it has been the first one missing for kAckDelay, counted from the first
  // tick that sees it (until then it may still be staged for egress).
  bool probe_due = false;
  const SeqNum missing = rmp_.contiguous(self_) + 1;
  if (config_.ordering_mode != OrderingMode::kLamport || missing > rmp_.last_sent()) {
    own_missing_ = 0;
    probe_at_.reset();
  } else if (missing != own_missing_) {
    own_missing_ = missing;
    probe_at_ = now + kAckDelay;
  } else {
    probe_due = probe_at_ && now >= *probe_at_;
  }
  if (heartbeat_due || ack_due || probe_due) {
    send_heartbeat(now);
    if (!heartbeat_due && ack_due) acks_sent_.add();
    if (!heartbeat_due && probe_due) own_gap_probes_.add();
    if (probe_due) probe_at_.reset();
    // While the old address is retiring, members that have not yet ordered
    // the rebind Connect still need fresh timestamps to make it
    // deliverable — heartbeat on both addresses (a Datagram copy is just a
    // refcount bump).
    if (old_addr_ && !outbox_.packets.empty()) {
      net::Datagram echo = outbox_.packets.back();
      echo.addr = *old_addr_;
      outbox_.packets.push_back(std::move(echo));
    }
  }
  while (!add_echoes_.empty() && now >= add_echoes_.front().due) {
    resend_stored(add_echoes_.front().source, add_echoes_.front().seq);
    add_echoes_.erase(add_echoes_.begin());
  }
  // Re-announce an in-progress rebind on the old address until the whole
  // membership has moved (the retire condition implies everyone switched).
  if (old_addr_ && now - last_rebind_resend_ >= kJoinRetryInterval) {
    last_rebind_resend_ = now;
    resend_stored(rebind_src_, rebind_seq_, *old_addr_);
  }
  pump(now);
}

}  // namespace ftcorba::ftmp
