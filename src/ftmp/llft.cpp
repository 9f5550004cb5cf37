#include "ftmp/llft.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace ftcorba::ftmp {

namespace {

// Grants per OrderInfo body: keeps every body comfortably inside a single
// datagram (12 bytes per grant + header), since OrderInfo — unlike Regular —
// has no fragmentation path.
constexpr std::size_t kMaxGrantsPerBody = 96;

// Bound on buffered future-view OrderInfo bodies (total across views). A
// healthy follower is at most a few installs behind the issuing leader, so
// anything approaching this cap is a partitioned or misbehaving peer
// tagging grants with ever-higher views — which must not grow memory
// without limit.
constexpr std::size_t kMaxFutureBodies = 256;

[[nodiscard]] bool is_membership_change(MessageType t) {
  return t == MessageType::kAddProcessor || t == MessageType::kRemoveProcessor;
}

}  // namespace

LlftOrdering::LlftOrdering(Romp& romp) : romp_(romp) {
  metrics_.sessions = metrics::Gauge(
      "ftmp_ordering_llft_sessions",
      "Group sessions running the LLFT leader-granted ordering engine",
      "sessions", "ordering");
  metrics_.leader_changes = metrics::counter(
      "ftmp_ordering_leader_changes_total",
      "LLFT leadership handovers observed at view changes", "changes",
      "ordering");
  metrics_.grants = metrics::counter(
      "ftmp_ordering_grants_total",
      "Delivery slots granted by this member while leading", "grants",
      "ordering");
  metrics_.stale_grants = metrics::counter(
      "ftmp_ordering_stale_grants_total",
      "Grants dropped because their view tag named a superseded view", "grants",
      "ordering");
  metrics_.future_dropped = metrics::counter(
      "ftmp_ordering_future_dropped_total",
      "Future-view OrderInfo bodies dropped at the bounded buffer cap",
      "bodies", "ordering");
  metrics_.truncations = metrics::counter(
      "ftmp_ordering_truncations_total",
      "Slots truncated at fault installs (referenced message beyond the cut)",
      "slots", "ordering");
  metrics_.stamp_wait_ms = metrics::histogram(
      "ftmp_ordering_stamp_wait_ms",
      "Wait from source-ordered arrival to the leader's grant being consumed",
      "ms", "ordering", metrics::latency_buckets_ms());
  metrics_.slot_wait_ms = metrics::histogram(
      "ftmp_ordering_slot_wait_ms",
      "Wait from grant consumption to slot delivery", "ms", "ordering",
      metrics::latency_buckets_ms());
  metrics_.sessions.add(1);
}

SeqNum LlftOrdering::floor_of(ProcessorId src) const {
  auto it = streams_.find(src);
  return it == streams_.end() ? 0 : it->second.floor;
}

bool LlftOrdering::eligible(ProcessorId m) const {
  auto it = streams_.find(m);
  const Timestamp je = it == streams_.end() ? 0 : it->second.joined_epoch;
  return je != kJoinPending && je < epoch_;
}

void LlftOrdering::recompute_granter() {
  const bool old_have = have_granter_;
  const ProcessorId old = granter_;
  have_granter_ = false;
  const std::set<ProcessorId>& members = romp_.members();
  for (ProcessorId p : members) {
    if (eligible(p)) {
      granter_ = p;
      have_granter_ = true;
      break;
    }
  }
  if (!have_granter_) {
    // Nobody predates the current view (bootstrap, or every established
    // member crashed): fall back to the smallest id whose admission is not
    // pending — still deterministic, and a joiner picks what the members do.
    for (ProcessorId p : members) {
      auto it = streams_.find(p);
      if (it == streams_.end() || it->second.joined_epoch != kJoinPending) {
        granter_ = p;
        have_granter_ = true;
        break;
      }
    }
  }
  if (!have_granter_) granter_ = ProcessorId{};
  if (old_have && have_granter_ && granter_ != old) {
    metrics_.leader_changes.add();
    FTC_LOG(kDebug) << to_string(romp_.self()) << " llft leader " << to_string(old)
                    << " -> " << to_string(granter_) << " epoch=" << epoch_;
  }
}

void LlftOrdering::note_joined_epoch(ProcessorId member, Timestamp epoch) {
  streams_[member].joined_epoch = epoch;
  recompute_granter();
}

void LlftOrdering::apply_floors(const std::vector<SourceSeq>& floors) {
  for (const SourceSeq& f : floors) {
    Stream& s = streams_[f.processor];
    if (f.seq <= s.floor) continue;
    s.floor = f.seq;
    auto end = s.held.upper_bound(s.floor);
    for (auto it = s.held.begin(); it != end; ++it) {
      // Settled below the floor (delivered by the members before we
      // joined, covered by our state snapshot): consume without
      // delivering, or our resume-point reports would stick here.
      romp_.mark_consumed(f.processor, it->first);
      pending_.add(-1);
    }
    s.held.erase(s.held.begin(), end);
    s.granted_hw = std::max(s.granted_hw, s.floor);
  }
}

void LlftOrdering::consume_order_info(ProcessorId from, const OrderInfoBody& body,
                                      TimePoint now) {
  // The view tag alone authenticates a grant: only the member that actually
  // leads epoch E ever emits bodies tagged E (leadership is a deterministic
  // function of the agreed view), so matching the issuer against our local
  // granter_ adds nothing — and deadlocks a joiner, whose init_from_add
  // snapshot cannot reconstruct pre-join eligibility history (it may compute
  // a different leader for the sponsor's view and drop the real one's
  // grants, starving its own AddProcessor of the slot that installs it).
  if (body.view_ts == epoch_) {
    apply_floors(body.floors);
    for (const SourceSeq& g : body.grants) {
      Stream& s = streams_[g.processor];
      if (g.seq <= std::max(s.granted_hw, s.floor)) continue;  // re-grant
      s.granted_hw = g.seq;
      slots_.push_back({g.processor, g.seq, now});
      auto f = s.held.find(g.seq);
      if (f != s.held.end() && now > 0 && f->second.arrival > 0) {
        metrics_.stamp_wait_ms.observe(to_ms(now - f->second.arrival));
      }
    }
  } else if (body.view_ts > epoch_) {
    // Issued under a view we have not installed yet (the issuer is ahead of
    // us): buffer until our own install decides whether it is the leader.
    // Bounded: legitimate racing grants sit at the lowest buffered tags
    // (the issuer is at most a few installs ahead), so at the cap the
    // highest-tagged body goes first.
    if (future_count_ >= kMaxFutureBodies) {
      metrics_.future_dropped.add();
      auto last = std::prev(future_.end());
      if (body.view_ts >= last->first) return;
      last->second.pop_back();
      if (last->second.empty()) future_.erase(last);
      --future_count_;
    }
    future_[body.view_ts].emplace_back(from, body);
    ++future_count_;
  } else {
    metrics_.stale_grants.add(
        body.grants.empty() ? 1 : body.grants.size());
  }
}

SeqNum& LlftOrdering::issued_mark(Stream& s) {
  s.issued_hw = std::max({s.issued_hw, s.floor, s.granted_hw});
  return s.issued_hw;
}

void LlftOrdering::grant_ready(ProcessorId src) {
  if (!leading() || suspended_) return;
  Stream& s = streams_[src];
  SeqNum& hw = issued_mark(s);
  // Every held frame already cleared RMP's contiguous gate, so seq gaps
  // between held entries are non-totally-ordered messages on the same
  // stream (the leader's own OrderInfo, Suspect, Membership) — grant
  // straight across them, in seq order.
  auto it = s.held.upper_bound(hw);
  while (it != s.held.end()) {
    hw = it->first;
    pending_grants_.push_back({src, hw});
    metrics_.grants.add();
    if (is_membership_change(it->second.frame.header.type)) {
      // §7: "the ordering of messages stops" — no grants may trail a
      // membership change, so the slot queue is empty when it installs.
      suspended_ = true;
      return;
    }
    ++it;
  }
}

void LlftOrdering::sweep_ungranted() {
  for (ProcessorId m : romp_.members()) {
    if (!leading() || suspended_) return;
    grant_ready(m);
  }
}

void LlftOrdering::set_view(Timestamp view_ts) {
  const bool new_view = view_ts > epoch_;
  epoch_ = std::max(epoch_, view_ts);
  suspended_ = false;
  // Entries queued under the old epoch are void; the accession sweep below
  // re-grants whatever still needs a slot under the new tag.
  pending_grants_.clear();
  for (auto& [m, s] : streams_) s.issued_hw = 0;
  recompute_granter();
  auto it = future_.begin();
  while (it != future_.end() && it->first <= epoch_) {
    for (auto& [from, body] : it->second) {
      if (it->first == epoch_) {
        // The new leader's grants raced ahead of our install: consume them
        // now, in the order they arrived on its stream.
        consume_order_info(from, body, 0);
      } else {
        metrics_.stale_grants.add(
            body.grants.empty() ? 1 : body.grants.size());
      }
    }
    future_count_ -= it->second.size();
    it = future_.erase(it);
  }
  if (leading()) {
    // Announce the delivered floors once per view (a joiner admitted by
    // this view uses them to discard pre-join backlog), then re-grant
    // surviving backlog. A duplicate membership change resumes granting at
    // the same view and must not announce again: its floors would cover
    // messages granted since the view began, which a member still waiting
    // for one of them would then settle without delivering it.
    advisory_pending_ = advisory_pending_ || new_view;
    sweep_ungranted();
  } else {
    advisory_pending_ = false;
  }
}

void LlftOrdering::on_source_ordered(const Frame& frame, TimePoint now) {
  const Header& h = frame.header;
  if (h.type == MessageType::kOrderInfo) {
    OrderInfoBody body;
    try {
      body = std::get<OrderInfoBody>(decode_body(h, frame.body()));
    } catch (const CodecError& e) {
      FTC_LOG(kWarn) << to_string(romp_.self()) << " malformed OrderInfo from "
                     << to_string(h.source) << ": " << e.what();
      return;
    }
    consume_order_info(h.source, body, now);
    return;
  }
  if (!is_totally_ordered(h.type)) return;
  // Totally-ordered message: held per-source until its slot is granted.
  Stream& s = streams_[h.source];
  if (h.sequence_number <= s.floor) {
    // Settled below an advisory floor (pre-join backlog): never delivered
    // here — the state snapshot covers it.
    romp_.mark_consumed(h.source, h.sequence_number);
    return;
  }
  if (s.held.emplace(h.sequence_number, Held{frame, now}).second) pending_.add(1);
  grant_ready(h.source);
}

Frame LlftOrdering::deliver_held(Stream& s, std::map<SeqNum, Held>::iterator it,
                                 TimePoint now, TimePoint granted_at) {
  Frame f = std::move(it->second.frame);
  romp_.note_delivered(f.header, it->second.arrival, now);
  s.held.erase(it);
  pending_.add(-1);
  s.floor = std::max(s.floor, f.header.sequence_number);
  s.granted_hw = std::max(s.granted_hw, s.floor);
  if (now > 0 && granted_at > 0) {
    metrics_.slot_wait_ms.observe(to_ms(now - granted_at));
  }
  return f;
}

std::vector<const Frame*> LlftOrdering::held_frames() const {
  std::vector<const Frame*> out;
  for (const auto& [src, s] : streams_) {
    for (const auto& [seq, held] : s.held) out.push_back(&held.frame);
  }
  return out;
}

std::vector<Frame> LlftOrdering::collect_deliverable(TimePoint now) {
  std::vector<Frame> out;
  while (!slots_.empty()) {
    const Slot slot = slots_.front();
    Stream& s = streams_[slot.src];
    if (slot.seq <= s.floor) {
      slots_.pop_front();  // settled by an advisory floor
      continue;
    }
    auto it = s.held.find(slot.seq);
    if (it == s.held.end()) break;  // in flight: RMP NACK recovery runs
    slots_.pop_front();
    out.push_back(deliver_held(s, it, now, slot.granted_at));
    if (out.back().header.type != MessageType::kRegular) {
      // Membership-affecting message: the session applies it (and the view
      // change re-keys the grant epoch) before ordering continues.
      break;
    }
  }
  return out;
}

std::vector<Frame> LlftOrdering::drain_up_to_cut(
    const std::map<ProcessorId, SeqNum>& cuts,
    const std::set<ProcessorId>& survivors) {
  std::vector<Frame> out;
  // 1. Flush the slot queue. Slots at or below the cut are deliverable on
  //    every survivor (the equalization gate closed the streams); slots
  //    beyond it reference a crashed source's messages that not every
  //    survivor holds — truncate them deterministically (same queue, same
  //    cuts everywhere). The frames, where held, stay for the new epoch if
  //    their source survived.
  while (!slots_.empty()) {
    const Slot slot = slots_.front();
    slots_.pop_front();
    Stream& s = streams_[slot.src];
    if (slot.seq <= s.floor) continue;
    auto c = cuts.find(slot.src);
    const SeqNum limit = c == cuts.end() ? 0 : c->second;
    if (slot.seq <= limit) {
      auto it = s.held.find(slot.seq);
      if (it != s.held.end()) {
        out.push_back(deliver_held(s, it, 0, slot.granted_at));
        continue;
      }
    }
    metrics_.truncations.add();
  }
  // 2. Ungranted remainder at or below the cut (the old leader died before
  //    granting them): every survivor holds the same set, delivered in
  //    Lamport (timestamp, source) order — deterministic without a leader.
  std::map<std::pair<Timestamp, std::uint32_t>, std::pair<ProcessorId, SeqNum>>
      rest;
  for (const auto& [src, s] : streams_) {
    auto c = cuts.find(src);
    const SeqNum limit = c == cuts.end() ? 0 : c->second;
    for (const auto& [seq, e] : s.held) {
      if (seq > limit) break;
      rest.emplace(
          std::make_pair(e.frame.header.message_timestamp, src.raw()),
          std::make_pair(src, seq));
    }
  }
  for (const auto& [key, ref] : rest) {
    Stream& s = streams_[ref.first];
    out.push_back(deliver_held(s, s.held.find(ref.second), 0, 0));
  }
  // 3. A non-survivor's held messages beyond the cut will never be granted.
  for (auto& [src, s] : streams_) {
    if (survivors.contains(src)) continue;
    auto c = cuts.find(src);
    const SeqNum limit = c == cuts.end() ? 0 : c->second;
    auto it = s.held.upper_bound(limit);
    while (it != s.held.end()) {
      it = s.held.erase(it);
      pending_.add(-1);
    }
  }
  return out;
}

std::vector<Body> LlftOrdering::take_protocol_sends() {
  std::vector<Body> out;
  if (recovering_) return out;  // nothing may outrun our proposed cut
  if (!leading()) {
    pending_grants_.clear();
    advisory_pending_ = false;
    return out;
  }
  if (advisory_pending_) {
    advisory_pending_ = false;
    OrderInfoBody adv;
    adv.view_ts = epoch_;
    for (ProcessorId m : romp_.members()) {
      const SeqNum f = floor_of(m);
      if (f > 0) adv.floors.push_back({m, f});
    }
    if (!adv.floors.empty()) out.emplace_back(std::move(adv));
  }
  for (std::size_t i = 0; i < pending_grants_.size(); i += kMaxGrantsPerBody) {
    OrderInfoBody b;
    b.view_ts = epoch_;
    const std::size_t end =
        std::min(pending_grants_.size(), i + kMaxGrantsPerBody);
    b.grants.assign(pending_grants_.begin() + static_cast<std::ptrdiff_t>(i),
                    pending_grants_.begin() + static_cast<std::ptrdiff_t>(end));
    out.emplace_back(std::move(b));
  }
  pending_grants_.clear();
  return out;
}

void LlftOrdering::on_own_send(const Header& header) {
  if (!is_totally_ordered(header.type)) return;
  const SeqNum earlier = own_sent_hw_;
  own_sent_hw_ = header.sequence_number;
  // Only a Regular: a membership change must suspend granting, which
  // grant_ready does when it arrives. Nor past a suspension or a recovery
  // round, which both stop new grants.
  if (header.type != MessageType::kRegular || !leading() || suspended_ ||
      recovering_) {
    return;
  }
  // Slots follow seq order on every stream: an earlier own message still
  // waiting for its grant (in flight at accession, or sent while granting
  // was stopped) keeps this one behind it, granted on its arrival.
  SeqNum& hw = issued_mark(streams_[romp_.self()]);
  if (hw < earlier) return;
  // Its arrival (taken in at send, or by loopback) finds hw already past
  // it and grants nothing.
  hw = header.sequence_number;
  pending_grants_.push_back({romp_.self(), hw});
  metrics_.grants.add();
}

void LlftOrdering::set_recovering(bool active) {
  if (recovering_ == active) return;
  recovering_ = active;
  if (!active && leading() && !suspended_) {
    // Round aborted (false suspicion withdrawn): resume granting whatever
    // arrived while the round ran; the install path resumes via set_view.
    sweep_ungranted();
  }
}

void LlftOrdering::remove_member(ProcessorId member) {
  if (auto st = streams_.find(member); st != streams_.end()) {
    pending_.add(-static_cast<std::int64_t>(st->second.held.size()));
    streams_.erase(st);
  }
  // Slots referencing the member are either delivered (planned removes:
  // FIFO puts them before the change slot) or truncated by the install
  // drain before this call; purge defensively.
  std::erase_if(slots_, [&](const Slot& s) { return s.src == member; });
  // NOTE: granter recompute is deferred to the set_view PGMP issues next.
}

void LlftOrdering::reset_source(ProcessorId src, SeqNum floor) {
  remove_member(src);
  Stream& s = streams_[src];
  s.floor = s.granted_hw = s.issued_hw = floor;
}

}  // namespace ftcorba::ftmp
