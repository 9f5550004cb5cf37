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

LlftOrdering::LlftOrdering(ProcessorId self, const Config& config)
    : Romp(self, config) {
  llft_metrics_.sessions = metrics::gauge(
      "ftmp_ordering_llft_sessions",
      "Group sessions running the LLFT leader-granted ordering engine",
      "sessions", "ordering");
  llft_metrics_.leader_changes = metrics::counter(
      "ftmp_ordering_leader_changes_total",
      "LLFT leadership handovers observed at view changes", "changes",
      "ordering");
  llft_metrics_.grants = metrics::counter(
      "ftmp_ordering_grants_total",
      "Delivery slots granted by this member while leading", "grants",
      "ordering");
  llft_metrics_.stale_grants = metrics::counter(
      "ftmp_ordering_stale_grants_total",
      "Grants dropped because their view tag named a superseded view", "grants",
      "ordering");
  llft_metrics_.future_dropped = metrics::counter(
      "ftmp_ordering_future_dropped_total",
      "Future-view OrderInfo bodies dropped at the bounded buffer cap",
      "bodies", "ordering");
  llft_metrics_.truncations = metrics::counter(
      "ftmp_ordering_truncations_total",
      "Slots truncated at fault installs (referenced message beyond the cut)",
      "slots", "ordering");
  llft_metrics_.stamp_wait_ms = metrics::histogram(
      "ftmp_ordering_stamp_wait_ms",
      "Wait from source-ordered arrival to the leader's grant being consumed",
      "ms", "ordering", metrics::latency_buckets_ms());
  llft_metrics_.slot_wait_ms = metrics::histogram(
      "ftmp_ordering_slot_wait_ms",
      "Wait from grant consumption to slot delivery", "ms", "ordering",
      metrics::latency_buckets_ms());
  llft_metrics_.sessions.add(1);
}

LlftOrdering::~LlftOrdering() { llft_metrics_.sessions.add(-1); }

SeqNum LlftOrdering::floor_of(ProcessorId src) const {
  auto it = floor_.find(src);
  return it == floor_.end() ? 0 : it->second;
}

bool LlftOrdering::eligible(ProcessorId m) const {
  auto it = joined_epoch_.find(m);
  const Timestamp je = it == joined_epoch_.end() ? 0 : it->second;
  return je != kJoinPending && je < epoch_;
}

void LlftOrdering::recompute_granter() {
  const bool old_have = have_granter_;
  const ProcessorId old = granter_;
  have_granter_ = false;
  for (ProcessorId p : members_) {
    if (eligible(p)) {
      granter_ = p;
      have_granter_ = true;
      break;
    }
  }
  if (!have_granter_ && !members_.empty()) {
    // Nobody predates the current view (bootstrap, or every established
    // member crashed): fall back to the smallest id — still deterministic.
    granter_ = *members_.begin();
    have_granter_ = true;
  }
  if (!have_granter_) granter_ = ProcessorId{};
  if (old_have && have_granter_ && granter_ != old) {
    llft_metrics_.leader_changes.add();
    FTC_LOG(kDebug) << to_string(self_) << " llft leader " << to_string(old)
                    << " -> " << to_string(granter_) << " epoch=" << epoch_;
  }
}

void LlftOrdering::set_members(const std::vector<ProcessorId>& members) {
  Romp::set_members(members);
  // Members handed in wholesale (bootstrap / joiner init) count as
  // established unless note_joined_epoch overrides below.
  for (ProcessorId m : members) joined_epoch_.try_emplace(m, 0);
  recompute_granter();
}

void LlftOrdering::note_joined_epoch(ProcessorId member, Timestamp epoch) {
  joined_epoch_[member] = epoch;
  recompute_granter();
}

void LlftOrdering::apply_floors(const std::vector<SourceSeq>& floors) {
  for (const SourceSeq& f : floors) {
    SeqNum& fl = floor_[f.processor];
    if (f.seq <= fl) continue;
    fl = f.seq;
    auto hs = held_.find(f.processor);
    if (hs != held_.end()) {
      auto& m = hs->second;
      auto end = m.upper_bound(fl);
      for (auto it = m.begin(); it != end; ++it) {
        // Settled below the floor (delivered by the members before we
        // joined, covered by our state snapshot): consume without
        // delivering, or our resume-point reports would stick here.
        mark_consumed(f.processor, it->first);
        --held_count_;
        metrics_.pending.add(-1);
      }
      m.erase(m.begin(), end);
    }
    SeqNum& g = granted_hw_[f.processor];
    g = std::max(g, fl);
    auto ih = issued_hw_.find(f.processor);
    if (ih != issued_hw_.end()) ih->second = std::max(ih->second, fl);
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
      SeqNum& hw = granted_hw_[g.processor];
      if (g.seq <= std::max(hw, floor_of(g.processor))) continue;  // re-grant
      hw = g.seq;
      slots_.push_back({g.processor, g.seq, now});
      auto hs = held_.find(g.processor);
      if (hs != held_.end()) {
        auto f = hs->second.find(g.seq);
        if (f != hs->second.end() && now > 0 && f->second.arrival > 0) {
          llft_metrics_.stamp_wait_ms.observe(to_ms(now - f->second.arrival));
        }
      }
    }
  } else if (body.view_ts > epoch_) {
    // Issued under a view we have not installed yet (the issuer is ahead of
    // us): buffer until our own install decides whether it is the leader.
    // Bounded: legitimate racing grants sit at the lowest buffered tags
    // (the issuer is at most a few installs ahead), so at the cap the
    // highest-tagged body goes first.
    if (future_count_ >= kMaxFutureBodies) {
      llft_metrics_.future_dropped.add();
      auto last = std::prev(future_.end());
      if (body.view_ts >= last->first) return;
      last->second.pop_back();
      if (last->second.empty()) future_.erase(last);
      --future_count_;
    }
    future_[body.view_ts].emplace_back(from, body);
    ++future_count_;
  } else {
    llft_metrics_.stale_grants.add(
        body.grants.empty() ? 1 : body.grants.size());
  }
}

SeqNum& LlftOrdering::issued_mark(ProcessorId src) {
  SeqNum& hw = issued_hw_[src];
  auto gh = granted_hw_.find(src);
  hw = std::max({hw, floor_of(src),
                 gh == granted_hw_.end() ? 0 : gh->second});
  return hw;
}

void LlftOrdering::grant_ready(ProcessorId src) {
  if (!leading() || suspended_) return;
  SeqNum& hw = issued_mark(src);
  auto hs = held_.find(src);
  if (hs == held_.end()) return;
  auto& m = hs->second;
  // Every held frame already cleared RMP's contiguous gate, so seq gaps
  // between held entries are non-totally-ordered messages on the same
  // stream (the leader's own OrderInfo, Suspect, Membership) — grant
  // straight across them, in seq order.
  auto it = m.upper_bound(hw);
  while (it != m.end()) {
    hw = it->first;
    pending_grants_.push_back({src, hw});
    llft_metrics_.grants.add();
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
  for (ProcessorId m : members_) {
    if (!leading() || suspended_) return;
    grant_ready(m);
  }
}

void LlftOrdering::set_view(Timestamp view_ts) {
  epoch_ = std::max(epoch_, view_ts);
  suspended_ = false;
  // Entries queued under the old epoch are void; the accession sweep below
  // re-grants whatever still needs a slot under the new tag.
  pending_grants_.clear();
  issued_hw_.clear();
  recompute_granter();
  auto it = future_.begin();
  while (it != future_.end() && it->first <= epoch_) {
    for (auto& [from, body] : it->second) {
      if (it->first == epoch_) {
        // The new leader's grants raced ahead of our install: consume them
        // now, in the order they arrived on its stream.
        consume_order_info(from, body, 0);
      } else {
        llft_metrics_.stale_grants.add(
            body.grants.empty() ? 1 : body.grants.size());
      }
    }
    future_count_ -= it->second.size();
    it = future_.erase(it);
  }
  if (leading()) {
    // Announce the delivered floors (a joiner admitted by this view uses
    // them to discard pre-join backlog), then re-grant surviving backlog.
    advisory_pending_ = true;
    sweep_ungranted();
  } else {
    advisory_pending_ = false;
  }
}

void LlftOrdering::on_source_ordered(const Frame& frame, TimePoint now) {
  const Header& h = frame.header;
  if (h.type == MessageType::kOrderInfo) {
    // Clock/bounds/stability bookkeeping + mark_consumed, like any other
    // source-ordered control message.
    Romp::on_source_ordered(frame, now);
    OrderInfoBody body;
    try {
      body = std::get<OrderInfoBody>(decode_body(h, frame.body()));
    } catch (const CodecError& e) {
      FTC_LOG(kWarn) << to_string(self_) << " malformed OrderInfo from "
                     << to_string(h.source) << ": " << e.what();
      return;
    }
    consume_order_info(h.source, body, now);
    return;
  }
  if (!is_totally_ordered(h.type)) {
    Romp::on_source_ordered(frame, now);
    return;
  }
  // Totally-ordered message: same receipt bookkeeping as the Lamport
  // engine, but held per-source until its slot is granted instead of
  // entering the (timestamp, source) pending set.
  observe_header(h);
  Timestamp& b = bounds_[h.source];
  b = std::max(b, h.message_timestamp);
  unstable_[h.source][h.message_timestamp] = h.sequence_number;
  if (h.sequence_number <= floor_of(h.source)) {
    // Settled below an advisory floor (pre-join backlog): never delivered
    // here — the state snapshot covers it.
    mark_consumed(h.source, h.sequence_number);
    return;
  }
  auto& m = held_[h.source];
  if (m.emplace(h.sequence_number, HeldEntry{frame, now}).second) {
    ++held_count_;
    metrics_.pending.add(1);
    stats_.pending_peak =
        std::max<std::uint64_t>(stats_.pending_peak, held_count_);
  }
  grant_ready(h.source);
}

Frame LlftOrdering::deliver_held(ProcessorId src,
                                 std::map<SeqNum, HeldEntry>::iterator it,
                                 TimePoint now, TimePoint granted_at) {
  Frame f = std::move(it->second.frame);
  const TimePoint arrival = it->second.arrival;
  held_[src].erase(it);
  --held_count_;
  metrics_.pending.add(-1);
  const SeqNum seq = f.header.sequence_number;
  SeqNum& fl = floor_[src];
  fl = std::max(fl, seq);
  SeqNum& g = granted_hw_[src];
  g = std::max(g, fl);
  SeqNum& lo = last_ordered_[src];
  lo = std::max(lo, seq);
  mark_consumed(src, seq);
  if (now > 0 && arrival > 0) {
    metrics_.ordering_wait_ms.observe(to_ms(now - arrival));
  }
  if (now > 0 && granted_at > 0) {
    llft_metrics_.slot_wait_ms.observe(to_ms(now - granted_at));
  }
  const Timestamp ts = f.header.message_timestamp;
  const Timestamp stable = stable_timestamp();
  metrics_.stability_lag.observe(ts > stable ? double(ts - stable) : 0.0);
  stats_.ordered_delivered += 1;
  metrics_.ordered_delivered.add();
  return f;
}

std::vector<Frame> LlftOrdering::collect_deliverable(TimePoint now) {
  std::vector<Frame> out;
  while (!slots_.empty()) {
    const Slot s = slots_.front();
    if (s.seq <= floor_of(s.src)) {
      slots_.pop_front();  // settled by an advisory floor
      continue;
    }
    auto hs = held_.find(s.src);
    if (hs == held_.end()) break;
    auto it = hs->second.find(s.seq);
    if (it == hs->second.end()) break;  // in flight: RMP NACK recovery runs
    slots_.pop_front();
    out.push_back(deliver_held(s.src, it, now, s.granted_at));
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
    const Slot s = slots_.front();
    slots_.pop_front();
    if (s.seq <= floor_of(s.src)) continue;
    auto c = cuts.find(s.src);
    const SeqNum limit = c == cuts.end() ? 0 : c->second;
    if (s.seq <= limit) {
      auto hs = held_.find(s.src);
      auto it = hs == held_.end() ? std::map<SeqNum, HeldEntry>::iterator{}
                                  : hs->second.find(s.seq);
      if (hs != held_.end() && it != hs->second.end()) {
        out.push_back(deliver_held(s.src, it, 0, s.granted_at));
        continue;
      }
    }
    llft_metrics_.truncations.add();
  }
  // 2. Ungranted remainder at or below the cut (the old leader died before
  //    granting them): every survivor holds the same set, delivered in
  //    Lamport (timestamp, source) order — deterministic without a leader.
  std::map<std::pair<Timestamp, std::uint32_t>, std::pair<ProcessorId, SeqNum>>
      rest;
  for (const auto& [src, m] : held_) {
    auto c = cuts.find(src);
    const SeqNum limit = c == cuts.end() ? 0 : c->second;
    for (const auto& [seq, e] : m) {
      if (seq > limit) break;
      rest.emplace(
          std::make_pair(e.frame.header.message_timestamp, src.raw()),
          std::make_pair(src, seq));
    }
  }
  for (const auto& [key, ref] : rest) {
    auto hs = held_.find(ref.first);
    if (hs == held_.end()) continue;
    auto it = hs->second.find(ref.second);
    if (it == hs->second.end()) continue;
    out.push_back(deliver_held(ref.first, it, 0, 0));
  }
  // 3. A non-survivor's held messages beyond the cut will never be granted.
  for (auto& [src, m] : held_) {
    if (survivors.contains(src)) continue;
    auto c = cuts.find(src);
    const SeqNum limit = c == cuts.end() ? 0 : c->second;
    auto it = m.upper_bound(limit);
    while (it != m.end()) {
      it = m.erase(it);
      --held_count_;
      metrics_.pending.add(-1);
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
    for (ProcessorId m : members_) {
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
  // was stopped) keeps this one on the loopback path behind it.
  SeqNum& hw = issued_mark(self_);
  if (hw < earlier) return;
  // The loopback arrival finds hw already past it and grants nothing.
  hw = header.sequence_number;
  pending_grants_.push_back({self_, hw});
  llft_metrics_.grants.add();
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

void LlftOrdering::remove_member(ProcessorId member, bool drop_pending) {
  Romp::remove_member(member, drop_pending);
  joined_epoch_.erase(member);
  auto hs = held_.find(member);
  if (hs != held_.end()) {
    held_count_ -= hs->second.size();
    metrics_.pending.add(-static_cast<std::int64_t>(hs->second.size()));
    held_.erase(hs);
  }
  floor_.erase(member);
  granted_hw_.erase(member);
  issued_hw_.erase(member);
  // Slots referencing the member are either delivered (planned removes:
  // FIFO puts them before the change slot) or truncated by the install
  // drain before this call; purge defensively.
  std::erase_if(slots_, [&](const Slot& s) { return s.src == member; });
  // NOTE: granter recompute is deferred to the set_view PGMP issues next.
}

void LlftOrdering::reset_source(ProcessorId src, SeqNum floor) {
  Romp::reset_source(src, floor);
  auto hs = held_.find(src);
  if (hs != held_.end()) {
    held_count_ -= hs->second.size();
    metrics_.pending.add(-static_cast<std::int64_t>(hs->second.size()));
    held_.erase(hs);
  }
  floor_[src] = floor;
  granted_hw_[src] = floor;
  issued_hw_[src] = floor;
  std::erase_if(slots_, [&](const Slot& s) { return s.src == src; });
}

}  // namespace ftcorba::ftmp
