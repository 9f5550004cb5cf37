#include "ftmp/pgmp.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace ftcorba::ftmp {

namespace {

[[nodiscard]] std::vector<ProcessorId> sorted(std::vector<ProcessorId> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

[[nodiscard]] bool contains(const std::vector<ProcessorId>& v, ProcessorId p) {
  return std::find(v.begin(), v.end(), p) != v.end();
}

[[nodiscard]] SeqNum seq_for(const std::vector<SourceSeq>& seqs, ProcessorId p) {
  for (const SourceSeq& s : seqs) {
    if (s.processor == p) return s.seq;
  }
  return 0;
}

}  // namespace

Pgmp::Pgmp(ProcessorId self, const Config& config, Rmp& rmp, Romp& romp,
           OrderingPolicy& ordering)
    : self_(self), config_(config), rmp_(rmp), romp_(romp), ordering_(ordering) {
  metrics_.suspicions = metrics::counter(
      "ftmp_pgmp_suspicions_total",
      "Fault-detector suspicions raised (member silent past fault_timeout)",
      "suspicions", "pgmp");
  metrics_.suspect_msgs = metrics::counter(
      "ftmp_pgmp_suspect_msgs_sent_total",
      "Suspect messages multicast (new suspicions and withdrawals)", "messages",
      "pgmp");
  metrics_.membership_msgs = metrics::counter(
      "ftmp_pgmp_membership_msgs_sent_total",
      "Membership proposals multicast during fault-recovery rounds", "messages",
      "pgmp");
  metrics_.convictions = metrics::counter(
      "ftmp_pgmp_convictions_total",
      "Members convicted (excluded by a completed fault-recovery round)",
      "members", "pgmp");
  metrics_.equalization_rounds = metrics::counter(
      "ftmp_pgmp_equalization_rounds_total",
      "Fault-recovery rounds that needed NACK message-set equalization before "
      "the virtually synchronous cut",
      "rounds", "pgmp");
  metrics_.recoveries = metrics::counter(
      "ftmp_pgmp_recoveries_completed_total",
      "Fault-driven membership changes installed", "recoveries", "pgmp");
  metrics_.adds = metrics::counter(
      "ftmp_pgmp_adds_completed_total",
      "AddProcessor changes applied at their ordering point", "members", "pgmp");
  metrics_.removes = metrics::counter(
      "ftmp_pgmp_removes_completed_total",
      "RemoveProcessor changes applied at their ordering point", "members",
      "pgmp");
  metrics_.install_duration_ms = metrics::histogram(
      "ftmp_pgmp_membership_install_duration_ms",
      "Fault recovery: first conviction to virtually synchronous install",
      "ms", "pgmp", metrics::latency_buckets_ms());
  metrics_.add_install_ms = metrics::histogram(
      "ftmp_pgmp_add_install_duration_ms",
      "Sponsor-side AddProcessor latency: multicast to ordering point", "ms",
      "pgmp", metrics::latency_buckets_ms());
}

void Pgmp::admit(ProcessorId member, TimePoint now, SeqNum floor, Timestamp since) {
  // A re-added member's stream is a new incarnation starting at sequence
  // 1. Stored messages of an earlier one alias the same (source, seq) keys
  // and would poison retransmissions, and a deferred purge still pending
  // for it would destroy the new incarnation's messages.
  rmp_.purge_store(member);
  std::erase_if(deferred_purges_, [&](const auto& p) { return p.first == member; });
  rmp_.add_source(member, floor, since);
  romp_.admit(member, floor, since);
  ordering_.reset_source(member, floor);
  peers_[member] = Peer{.last_heard = now};  // fault-timer grace to start
}

void Pgmp::expel(ProcessorId member, TimePoint now) {
  rmp_.remove_source(member);
  rmp_.unpin_store(member.raw());  // in case it was a never-completed joiner
  romp_.expel(member);
  ordering_.remove_member(member);
  peers_.erase(member);
  // Keep its stored messages around for stragglers; purge after a few fault
  // timeouts.
  deferred_purges_.emplace_back(member, now + 4 * config_.fault_timeout);
}

void Pgmp::bootstrap(TimePoint now, const std::vector<ProcessorId>& members) {
  membership_.timestamp = 0;
  membership_.members = sorted(members);
  active_ = true;
  for (ProcessorId m : membership_.members) admit(m, now, 0, 0);
  ordering_.set_view(membership_.timestamp);
  InstallOut install;
  install.change.reason = MembershipChanged::Reason::kInitial;
  install.change.membership = membership_;
  install.change.joined = membership_.members;
  output_.emplace_back(std::move(install));
}

void Pgmp::init_from_add(TimePoint now, const Message& add_msg) {
  const auto& body = std::get<AddProcessorBody>(add_msg.body);
  // Adopt the sponsor's membership AS OF THE SEND — without ourselves, and
  // without a view install. Our AddProcessor flows through our own total
  // order like everyone else's (the session feeds it back through the
  // reliable path), and the view is installed in on_add_ordered when it
  // reaches its ordering point. Installing here from the body would race
  // with membership changes ordered between the sponsor's send and the
  // Add's ordering point: we would bake a stale member list and view
  // timestamp into our first view while the members compute fresher ones.
  membership_.members = sorted(body.current_membership.members);
  membership_.timestamp = body.current_membership.timestamp;
  active_ = true;
  // Streams resume from the sponsor's reported ordered positions; every
  // message at or below them was already delivered before we joined.
  //
  // Bounds start at 0 for everyone. The membership timestamp is NOT a safe
  // starting bound: a recovery round's view timestamp exceeds the survivors'
  // proposal timestamps, but messages above the cut — sent before the round,
  // ordered after the install — can still carry lower timestamps. A joiner
  // admitted in that window which seeded bounds from the view timestamp
  // would find every catch-up retransmission deliverable on arrival and
  // deliver them in arrival order instead of (ts, source) order. Starting at
  // 0 costs nothing: in-order receipt raises a member's bound with its first
  // message, and its heartbeats raise it as soon as our RMP contiguous
  // position matches — i.e. exactly when we provably hold its whole stream.
  for (ProcessorId m : body.current_membership.members) {
    admit(m, now, seq_for(body.current_seqs, m), 0);
  }
  // Every layer tracks our own stream from the start, even though our
  // membership entry is deferred to the Add's ordering point.
  admit(self_, now, 0, 0);
  // Leader-based ordering: we are not leader-eligible until our admission
  // installs, and we consume grants under the sponsor's view until the
  // membership changes ordered before our AddProcessor advance it through
  // the same set_view calls the members make.
  ordering_.note_joined_epoch(self_, kJoinPending);
  ordering_.set_view(body.current_membership.timestamp);
  // The existing members take the AddProcessor's own timestamp as our
  // starting bound, so our clock must already exceed it.
  romp_.witness(add_msg.header.message_timestamp);
  FTC_LOG(kDebug) << to_string(self_) << " init_from_add hdr_ts="
                  << add_msg.header.message_timestamp
                  << " body_ts=" << body.current_membership.timestamp
                  << " seq=" << add_msg.header.sequence_number
                  << " src=" << to_string(add_msg.header.source);
}

void Pgmp::note_heard(ProcessorId src, TimePoint now) {
  auto it = peers_.find(src);
  if (it == peers_.end()) return;
  Peer& peer = it->second;
  peer.last_heard = now;
  // Once we have endorsed a quorum-capable proposal convicting `src`, the
  // round may already have installed at peers holding our matching
  // proposal (we could merely be trailing in equalization) — withdrawing
  // now would dissolve the round locally and resume delivering messages
  // the installed cut discarded everywhere else. Past that point we press
  // on; the removed member rejoins through re-admission. If peers DID
  // withdraw, their announcements dissolve our conviction and the round
  // abort clears the endorsement, re-enabling withdrawal here.
  const bool past_no_return = round_ && round_->convicted.contains(src) &&
                              !round_->proposal.empty() && quorum(round_->proposal);
  if (peer.suspected && !peer.pinned && !past_no_return) {
    // False suspicion (it spoke again): withdraw. This applies even after
    // the suspicion hardened into a conviction, as long as no installable
    // round could have resulted — an asymmetric (one-way) partition makes
    // a live processor look dead, and the resulting round can be
    // permanently stalled by the primary-partition rule (e.g. the proposal
    // is exactly half the membership without the distinguished member).
    // Without withdrawal the group would stay wedged forever after the
    // partition heals. Peers recompute their conviction fixpoint from the
    // announced (smaller) suspect set, which dissolves the round
    // everywhere.
    peer.suspected = false;
    announce_suspects();
  }
}

void Pgmp::suspect_slow(TimePoint now, ProcessorId member) {
  if (!active_ || member == self_) return;
  // Every member has a record (so does this processor, excluded above).
  auto it = peers_.find(member);
  if (it == peers_.end()) return;
  it->second.pinned = true;
  if (it->second.suspected) return;  // already suspect: pin only
  it->second.suspected = true;
  metrics_.suspicions.add();
  if (!suspects_since_) suspects_since_ = now;
  announce_suspects();
}

void Pgmp::announce_suspects() {
  SuspectBody body;
  body.current_membership = membership_;
  for (const auto& [m, peer] : peers_) {
    if (peer.suspected) body.suspects.push_back(m);
  }
  output_.emplace_back(SendBodyOut{std::move(body), /*reliable=*/true});
  metrics_.suspect_msgs.add();
}

bool Pgmp::suspecting() const {
  return std::any_of(peers_.begin(), peers_.end(),
                     [](const auto& e) { return e.second.suspected; });
}

bool Pgmp::stale_round(const Message& msg) const {
  auto it = peers_.find(msg.header.source);
  return it != peers_.end() && msg.header.sequence_number <= it->second.round_floor;
}

std::optional<AddProcessorBody> Pgmp::make_add(ProcessorId new_member) const {
  if (!active_ || reconfiguring()) return std::nullopt;
  if (contains(membership_.members, new_member)) return std::nullopt;
  if (std::any_of(joins_.begin(), joins_.end(),
                  [&](const Join& j) { return j.joiner == new_member; })) {
    return std::nullopt;
  }
  AddProcessorBody body;
  body.current_membership = membership_;
  for (ProcessorId m : membership_.members) {
    // consumed_up_to, not last_ordered_seq: the resume point must lie past
    // any trailing control messages, which a joiner could neither recover
    // (stability may have purged them) nor use (they are epoch-stale).
    body.current_seqs.push_back({m, romp_.consumed_up_to(m)});
  }
  body.new_member = new_member;
  return body;
}

std::optional<RemoveProcessorBody> Pgmp::make_remove(ProcessorId member) const {
  if (!active_ || reconfiguring()) return std::nullopt;
  if (!contains(membership_.members, member)) return std::nullopt;
  return RemoveProcessorBody{member};
}

void Pgmp::note_add_sent(ProcessorId member, TimePoint now,
                         const AddProcessorBody& body) {
  joins_.push_back({.joiner = member, .since = now});
  std::vector<std::pair<ProcessorId, SeqNum>> floors;
  floors.reserve(body.current_seqs.size());
  for (const SourceSeq& s : body.current_seqs) floors.emplace_back(s.processor, s.seq);
  rmp_.pin_store(member.raw(), floors);
}

void Pgmp::on_add_ordered(TimePoint now, const Message& msg) {
  const auto& body = std::get<AddProcessorBody>(msg.body);
  const ProcessorId member = body.new_member;
  // An ordered Add naming the joiner ends our record's in-flight phase.
  auto join = std::find_if(joins_.begin(), joins_.end(), [&](const Join& j) {
    return j.joiner == member && j.in_flight();
  });
  if (join != joins_.end()) metrics_.add_install_ms.observe(to_ms(now - join->since));
  if (contains(membership_.members, member)) {
    // Duplicate (e.g. two sponsors raced to add the same joiner): the
    // member set is unchanged, but the ordering engine must still see the
    // change slot resolve — the LLFT leader suspends granting the moment
    // it grants a membership change and only a view notification resumes
    // it (Lamport's set_view is a no-op, so its traces are untouched).
    ordering_.set_view(membership_.timestamp);
    return;
  }
  membership_.members = sorted([&] {
    auto ms = membership_.members;
    ms.push_back(member);
    return ms;
  }());
  // Strictly above the previous view (timestamps totally order views).
  membership_.timestamp =
      std::max(membership_.timestamp + 1, msg.header.message_timestamp);
  if (member == self_) {
    // Our own AddProcessor reached its ordering point: install the view we
    // deferred in init_from_add. Every membership change ordered before it
    // (e.g. a concurrent rejoin whose Add carried a smaller timestamp) was
    // applied above through the same path the existing members took, so the
    // member list and view timestamp agree with theirs even when the
    // sponsor's AddProcessor body was stale by the time it was ordered.
    metrics_.adds.add();
    ordering_.note_joined_epoch(self_, membership_.timestamp);
    ordering_.set_view(membership_.timestamp);
    refresh_suspicions_after_change();
    InstallOut install;
    install.change.reason = MembershipChanged::Reason::kInitial;
    install.change.membership = membership_;
    install.change.joined = {self_};
    output_.emplace_back(std::move(install));
    return;
  }
  // A new incarnation: every layer's record of the member starts afresh.
  // Its messages are all stamped above the AddProcessor's timestamp, which
  // it witnessed; anything at or below is a straggler of an earlier one.
  admit(member, now, 0, msg.header.message_timestamp);
  // The new member is leader-ineligible until the next view change: the
  // standing leader's floor advisory must reach it first (docs/ORDERING.md).
  ordering_.note_joined_epoch(member, membership_.timestamp);
  ordering_.set_view(membership_.timestamp);
  FTC_LOG(kDebug) << to_string(self_) << " add_ordered " << to_string(member)
                  << " hdr_ts=" << msg.header.message_timestamp
                  << " seq=" << msg.header.sequence_number
                  << " src=" << to_string(msg.header.source);
  metrics_.adds.add();
  if (msg.header.source == self_) {
    // We are the sponsor: keep re-multicasting the ordered AddProcessor
    // until the new member speaks (it cannot NACK before it has joined, §5),
    // the first time at the next tick. The record keeps its pin and moves
    // behind the records already resending.
    if (join != joins_.end()) joins_.erase(join);
    joins_.push_back({.joiner = member,
                      .add_seq = msg.header.sequence_number,
                      .since = now,
                      .last_resend = now - kJoinRetryInterval});
  } else if (join != joins_.end()) {
    // Another sponsor's Add admitted it: an Add of ours for the same
    // joiner can only order as a duplicate now.
    drop_join(join);
  }
  refresh_suspicions_after_change();
  InstallOut install;
  install.change.reason = MembershipChanged::Reason::kProcessorAdded;
  install.change.membership = membership_;
  install.change.joined = {member};
  output_.emplace_back(std::move(install));
}

void Pgmp::on_remove_ordered(TimePoint now, const Message& msg) {
  const auto& body = std::get<RemoveProcessorBody>(msg.body);
  const ProcessorId member = body.member_to_remove;
  if (!contains(membership_.members, member)) {
    // Duplicate (concurrent removes of the same member): no-op for the
    // member set, but resume the ordering engine — see on_add_ordered.
    ordering_.set_view(membership_.timestamp);
    return;
  }
  membership_.members.erase(
      std::remove(membership_.members.begin(), membership_.members.end(), member),
      membership_.members.end());
  membership_.timestamp =
      std::max(membership_.timestamp + 1, msg.header.message_timestamp);
  metrics_.removes.add();
  if (member == self_) {
    self_evict(MembershipChanged::Reason::kProcessorRemoved);
    return;
  }
  expel(member, now);
  ordering_.set_view(membership_.timestamp);
  refresh_suspicions_after_change();
  InstallOut install;
  install.change.reason = MembershipChanged::Reason::kProcessorRemoved;
  install.change.membership = membership_;
  install.change.left = {member};
  output_.emplace_back(std::move(install));
}

void Pgmp::on_suspect(TimePoint now, const Message& msg) {
  if (stale_round(msg)) return;
  const auto& body = std::get<SuspectBody>(msg.body);
  if (body.current_membership.timestamp < membership_.timestamp) {
    return;  // stale epoch (e.g. from before this member rejoined)
  }
  suspicion_[msg.header.source] =
      std::set<ProcessorId>(body.suspects.begin(), body.suspects.end());
  recompute_convicted(now);
  try_complete(now);
}

void Pgmp::on_membership_msg(TimePoint now, const Message& msg) {
  if (stale_round(msg)) return;
  const ProcessorId src = msg.header.source;
  const auto& body = std::get<MembershipBody>(msg.body);
  if (body.current_membership.timestamp < membership_.timestamp) {
    return;  // stale epoch
  }
  Proposal p;
  p.new_membership = sorted(body.new_membership);
  p.seqs = body.current_seqs;
  p.msg_seq = msg.header.sequence_number;
  p.msg_ts = msg.header.message_timestamp;
  // A proposal is implicit suspicion of everyone it excludes.
  auto& row = suspicion_[src];
  for (ProcessorId m : body.current_membership.members) {
    if (!contains(p.new_membership, m)) row.insert(m);
  }
  const bool excludes_self = !contains(p.new_membership, self_);
  proposals_[src] = std::move(p);
  recompute_convicted(now);

  if (excludes_self && active_) {
    // Enough distinct members excluding us means the rest of the group will
    // proceed without us: treat as eviction. Only proposals that could
    // actually install count — a proposal without quorum (exactly half the
    // membership, distinguished member on our side) is permanently stalled
    // by the primary-partition rule, and evicting ourselves on its account
    // would kill the only side of an asymmetric partition that still hears
    // everyone.
    std::size_t excluders = 0;
    for (ProcessorId m : membership_.members) {
      auto it = proposals_.find(m);
      if (it != proposals_.end() && !contains(it->second.new_membership, self_) &&
          quorum(it->second.new_membership)) {
        ++excluders;
      }
    }
    if (2 * excluders > membership_.members.size()) {
      self_evict(MembershipChanged::Reason::kFault);
      return;
    }
  }
  try_complete(now);
}

void Pgmp::recompute_convicted(TimePoint now) {
  // Fixpoint of C = { q : every r in members \ C \ {q} suspects q },
  // computed downward from C0 = everyone suspected by anyone. The downward
  // direction matters: when several processors fail together, none of the
  // dead "judges" can be required to vote on the others.
  std::set<ProcessorId> c;
  for (const auto& [r, suspects] : suspicion_) {
    for (ProcessorId q : suspects) {
      for (ProcessorId m : membership_.members) {
        if (m == q) c.insert(q);
      }
    }
  }
  for (std::size_t iter = 0; iter <= membership_.members.size(); ++iter) {
    std::set<ProcessorId> next;
    for (ProcessorId q : c) {
      bool all_suspect = true;
      bool any_judge = false;
      for (ProcessorId r : membership_.members) {
        if (r == q || c.contains(r)) continue;
        any_judge = true;
        auto it = suspicion_.find(r);
        if (it == suspicion_.end() || !it->second.contains(q)) {
          all_suspect = false;
          break;
        }
      }
      // Judges are the members outside C; q itself never judges itself.
      // When every member lands in C (total distrust) nobody can convict.
      if (any_judge && all_suspect) next.insert(q);
    }
    if (next == c) break;
    c = std::move(next);
  }
  if (round_ ? c == round_->convicted : c.empty()) return;
  if (c.empty()) {
    // Every conviction was withdrawn (false suspicion under an asymmetric
    // partition): abort the round. Its proposals go with it, so a later
    // round starts from fresh cut seqs — mixing stale and fresh proposals
    // would let different survivors compute different cuts. The suspicion
    // matrix stays: rows are corrected by their owners' own withdrawal
    // announcements, and clearing them here would lose live suspicions
    // held by peers that have not re-announced.
    end_round();
    return;
  }
  if (!round_) round_.emplace().started = now;
  round_->convicted = std::move(c);
  maybe_send_membership();
}

std::vector<ProcessorId> Pgmp::proposal_from_convicted() const {
  std::vector<ProcessorId> p;
  for (ProcessorId m : membership_.members) {
    if (!round_->convicted.contains(m)) p.push_back(m);
  }
  return p;
}

bool Pgmp::quorum(const std::vector<ProcessorId>& proposal) const {
  const std::size_t n = membership_.members.size();
  if (2 * proposal.size() > n) return true;
  if (2 * proposal.size() == n && !membership_.members.empty()) {
    // Exactly half: the side holding the smallest processor id wins.
    return contains(proposal, membership_.members.front());
  }
  return false;
}

void Pgmp::maybe_send_membership() {
  const std::vector<ProcessorId> p = proposal_from_convicted();
  if (p == round_->proposal) return;
  round_->proposal = p;
  // From here until the round installs or aborts, a leader-based ordering
  // engine must not let any grant outrun the cut this proposal reports.
  ordering_.set_recovering(true);
  MembershipBody body;
  body.current_membership = membership_;
  for (ProcessorId m : membership_.members) {
    body.current_seqs.push_back({m, own_contiguous(m)});
  }
  body.new_membership = p;
  output_.emplace_back(SendBodyOut{std::move(body), /*reliable=*/true});
  metrics_.membership_msgs.add();
}

SeqNum Pgmp::own_contiguous(ProcessorId m) const {
  if (m == self_) return std::max(rmp_.contiguous(self_), rmp_.last_sent());
  return rmp_.contiguous(m);
}

void Pgmp::try_complete(TimePoint now) {
  if (!active_ || !round_) return;
  const std::vector<ProcessorId> p = proposal_from_convicted();
  if (!quorum(p)) return;  // minority partition: stall (primary-partition rule)
  if (!contains(p, self_)) return;
  // Need a matching proposal from every survivor.
  for (ProcessorId r : p) {
    auto it = proposals_.find(r);
    if (it == proposals_.end() || it->second.new_membership != p) return;
  }
  // Compute the cut.
  std::map<ProcessorId, SeqNum> cuts;
  for (ProcessorId s : membership_.members) {
    if (contains(p, s)) {
      // Survivor: everything it sent before its Membership message.
      cuts[s] = proposals_[s].msg_seq;
    } else {
      SeqNum cut = 0;
      for (ProcessorId r : p) cut = std::max(cut, seq_for(proposals_[r].seqs, s));
      cuts[s] = cut;
    }
  }
  // Equalize: we must hold every message up to the cut ("all of the
  // processors ... have received exactly the same messages", §7.2).
  bool complete = true;
  for (const auto& [s, cut] : cuts) {
    if (rmp_.contiguous(s) < cut) {
      rmp_.note_exists(now, s, cut);
      complete = false;
    }
  }
  if (!complete) {
    if (!round_->equalizing) {
      round_->equalizing = true;
      metrics_.equalization_rounds.add();
    }
    return;  // NACK recovery in flight; retried from tick()
  }

  // Deliver the old-epoch remainder and install the new membership.
  const std::set<ProcessorId> survivors(p.begin(), p.end());
  InstallOut install;
  install.remainder = ordering_.drain_up_to_cut(cuts, survivors);

  std::vector<ProcessorId> crashed;
  // Strictly above the previous view: membership timestamps totally order
  // the views, and proposal timestamps can trail the installed epoch (e.g.
  // when a prior install already advanced it past them). Every survivor
  // computes the same value from the same agreed proposals.
  Timestamp new_ts = membership_.timestamp + 1;
  for (ProcessorId r : p) new_ts = std::max(new_ts, proposals_[r].msg_ts);
  for (ProcessorId m : membership_.members) {
    if (survivors.contains(m)) continue;
    crashed.push_back(m);
    expel(m, now);
    install.faults.push_back(FaultReport{{}, m});
  }
  membership_.members = p;
  membership_.timestamp = new_ts;
  ordering_.set_view(new_ts);
  for (ProcessorId r : p) peers_[r].round_floor = proposals_[r].msg_seq;
  metrics_.convictions.add(crashed.size());
  metrics_.install_duration_ms.observe(to_ms(now - round_->started));
  end_round();
  // The new view starts unsuspected; a live suspicion is raised afresh.
  suspicion_.clear();
  for (auto& [m, peer] : peers_) peer.suspected = peer.pinned = false;
  suspects_since_.reset();

  install.change.reason = MembershipChanged::Reason::kFault;
  install.change.membership = membership_;
  install.change.left = crashed;
  metrics_.recoveries.add();
  output_.emplace_back(std::move(install));
}

void Pgmp::refresh_suspicions_after_change() {
  // Control messages are epoch-guarded by the membership timestamp, so a
  // suspicion announced under the previous membership no longer counts:
  // drop the recorded matrix (each live suspecter re-announces, as we do
  // below for ourselves) to keep fault detection live across concurrent
  // membership changes.
  suspicion_.clear();
  if (suspecting()) announce_suspects();
}

void Pgmp::end_round() {
  round_.reset();
  proposals_.clear();
  ordering_.set_recovering(false);
}

void Pgmp::self_evict(MembershipChanged::Reason reason) {
  active_ = false;
  InstallOut install;
  install.self_evicted = true;
  install.change.reason = reason;
  install.change.membership = membership_;
  install.change.left = {self_};
  output_.emplace_back(std::move(install));
}

void Pgmp::tick(TimePoint now) {
  const Duration slept = last_tick_ ? now - *last_tick_ : 0;
  last_tick_ = now;
  if (!active_) return;
  // A detector that was not running (a stalled process, or a one-thread
  // fleet paused as a whole) heard nothing because it listened to nothing:
  // its silence clocks skip the gap, capped at now for a clock set within
  // it.
  if (slept > config_.heartbeat_interval) {
    const auto credit = [&](TimePoint& t) { t = std::min(t + slept, now); };
    for (auto& [m, peer] : peers_) credit(peer.last_heard);
    if (suspects_since_) credit(*suspects_since_);
    for (Join& join : joins_) credit(join.since);
  }
  // Fault detector: nothing heard within the timeout -> suspect.
  bool suspects_changed = false;
  for (auto& [m, peer] : peers_) {
    if (m == self_ || peer.suspected) continue;
    if (now - peer.last_heard > config_.fault_timeout) {
      peer.suspected = true;
      metrics_.suspicions.add();
      suspects_changed = true;
    }
  }
  if (suspects_changed) announce_suspects();
  if (!suspecting()) {
    suspects_since_.reset();
  } else if (!suspects_since_) {
    suspects_since_ = now;
  }
  // Recovery may now be completable (NACK recovery finished).
  try_complete(now);

  // Stranding detection: suspicions that never resolve mean the rest of
  // the group has moved to an epoch we cannot reach (e.g. it removed a
  // member whose liveness information we still need, and the lame-duck
  // window has passed). Give up and report self-eviction so the fault-
  // tolerance infrastructure can rejoin this processor cleanly.
  if (active_ && suspects_since_ && now - *suspects_since_ > 10 * config_.fault_timeout) {
    self_evict(MembershipChanged::Reason::kFault);
    return;
  }

  // Sponsor records. Either phase is given up after a generous window: an
  // Add that never ordered (e.g. swallowed by a concurrent fault recovery)
  // may then be retried. A resending record also ends when the joiner
  // speaks, or stayed silent long enough to be convicted out again (e.g. it
  // was admitted across a one-way partition) — otherwise it would block
  // make_add for that processor forever while resending an AddProcessor
  // whose membership timestamp the joiner's rejoin floor already rejects.
  for (auto it = joins_.begin(); it != joins_.end();) {
    bool done = now - it->since > 10 * config_.fault_timeout;
    if (!it->in_flight()) {
      auto peer = peers_.find(it->joiner);
      const bool joiner_live = peer != peers_.end() && peer->second.last_heard > it->since;
      done = done || joiner_live || !contains(membership_.members, it->joiner);
    }
    if (done) {
      it = drop_join(it);
      continue;
    }
    if (!it->in_flight() && now - it->last_resend >= kJoinRetryInterval) {
      it->last_resend = now;
      output_.emplace_back(ResendStoredOut{self_, it->add_seq});
    }
    ++it;
  }

  // Deferred purges of removed members' stored messages.
  for (auto it = deferred_purges_.begin(); it != deferred_purges_.end();) {
    if (now >= it->second) {
      rmp_.purge_store(it->first);
      it = deferred_purges_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<Pgmp::Join>::iterator Pgmp::drop_join(std::vector<Join>::iterator join) {
  rmp_.unpin_store(join->joiner.raw());
  return joins_.erase(join);
}

std::vector<PgmpOut> Pgmp::take_output() {
  std::vector<PgmpOut> out;
  out.swap(output_);
  return out;
}

}  // namespace ftcorba::ftmp
