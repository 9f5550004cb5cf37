#include "ft/state_transfer.hpp"

#include <algorithm>
#include <utility>

#include "common/codec.hpp"
#include "common/log.hpp"

namespace ftcorba::ft {

namespace {

[[nodiscard]] std::uint64_t mix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

[[nodiscard]] bool contains(const std::vector<ProcessorId>& v, ProcessorId p) {
  return std::find(v.begin(), v.end(), p) != v.end();
}

// Donor side: a retained snapshot whose joiner has gone silent for this
// long is discarded (the joiner re-anchors at a newer view anyway).
constexpr Duration kSnapshotTtl = 2 * kSecond;

// Anti-entropy cadence: members multicast a StateDigest this often while
// idle (one is always sent right after an install).
constexpr Duration kDigestInterval = 500 * kMillisecond;

}  // namespace

std::uint64_t state_fnv1a64(BytesView data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t state_digest_mix(std::uint64_t digest, std::uint32_t source,
                               SeqNum seq, std::uint64_t payload_hash) {
  std::uint64_t h = digest;
  h = mix64(h ^ (static_cast<std::uint64_t>(source) | 0x517cc1b727220a95ull));
  h = mix64(h ^ seq);
  h = mix64(h ^ payload_hash);
  return h;
}

StateTransferManager::StateTransferManager(ProcessorId self,
                                           ProcessorGroupId group,
                                           ftmp::Stack& stack,
                                           Checkpointable& state, ApplyFn apply)
    : self_(self),
      group_(group),
      stack_(stack),
      state_(state),
      apply_(std::move(apply)) {
  stats_.transfers_completed = metrics::Counter(
      "ftmp_ft_state_transfers_completed_total",
      "State transfers finished (snapshot restored, buffered suffix replayed)",
      "transfers", "ft");
  stats_.transfers_resumed = metrics::Counter(
      "ftmp_ft_state_transfers_resumed_total",
      "Transfers that survived a donor crash by resuming at the next "
      "surviving holder (chunk offset kept)",
      "transfers", "ft");
  stats_.transfers_restarted = metrics::Counter(
      "ftmp_ft_state_transfers_restarted_total",
      "Transfers re-anchored at a newer view cut after all snapshot holders "
      "were lost",
      "transfers", "ft");
  stats_.chunks_sent = metrics::Counter(
      "ftmp_ft_state_chunks_sent_total",
      "StateChunk messages served by this process as donor", "chunks", "ft");
  stats_.bytes_sent = metrics::Counter(
      "ftmp_ft_state_chunk_bytes_sent_total",
      "Snapshot payload bytes served by this process as donor", "bytes", "ft");
  stats_.messages_replayed = metrics::Counter(
      "ftmp_ft_state_messages_replayed_total",
      "Buffered ordered messages applied after a snapshot restore", "messages",
      "ft");
  stats_.digest_mismatches = metrics::Counter(
      "ftmp_ft_state_digest_mismatches_total",
      "Anti-entropy alarms: a peer at the same fingerprint reported a "
      "different rolling digest",
      "mismatches", "ft");
}

std::uint64_t StateTransferManager::fingerprint() const {
  // applied_hw_ is an ordered map keyed by source id, so this fold is
  // already over sorted (source, hw) pairs. Zero watermarks are skipped:
  // a map that never saw a source and a map holding an explicit zero for
  // it describe the same position.
  std::uint64_t h = 0x9ae16a3b2f90404full;
  for (const auto& [source, hw] : applied_hw_) {
    if (hw == 0) continue;
    h = mix64(h ^ source);
    h = mix64(h ^ hw);
  }
  return h;
}

void StateTransferManager::on_event(TimePoint now, const ftmp::Event& event) {
  if (const auto* msg = std::get_if<ftmp::DeliveredMessage>(&event)) {
    if (catchup_) {
      catchup_->buffered.push_back(event);
      stats_.messages_buffered += 1;
      return;
    }
    apply_one(now, *msg);
    return;
  }
  if (const auto* change = std::get_if<ftmp::MembershipChanged>(&event)) {
    on_install(now, *change);
    return;
  }
  if (const auto* msg = std::get_if<ftmp::StateMessage>(&event)) {
    on_state(now, *msg);
    return;
  }
  if (std::get_if<ftmp::SelfEvicted>(&event)) {
    // Out of the group: drop all transfer machinery. The application state
    // and digest stay as they are — a later re-admission restarts recovery
    // from scratch in a fresh incarnation.
    catchup_.reset();
    snapshots_.clear();
    catching_up_.clear();
    live_ = false;
    return;
  }
  // FaultReport / connection events carry nothing for state transfer.
}

void StateTransferManager::apply_one(TimePoint now,
                                     const ftmp::DeliveredMessage& msg) {
  const BytesView payload{msg.giop_message.data(), msg.giop_message.size()};
  digest_ = state_digest_mix(digest_, msg.source.raw(), msg.seq,
                             state_fnv1a64(payload));
  applied_hw_[msg.source.raw()] = msg.seq;
  if (apply_) apply_(now, msg);
}

void StateTransferManager::prune_for_install(
    const ftmp::MembershipChanged& change) {
  // Departed members stop producing; re-admitted members restart their
  // stream at sequence 1 under a fresh incarnation. Either way the old
  // watermark must go, or the replay filter would wrongly exclude a
  // rejoined source's fresh messages.
  for (ProcessorId p : change.left) applied_hw_.erase(p.raw());
  for (ProcessorId p : change.joined) applied_hw_.erase(p.raw());
}

void StateTransferManager::on_install(TimePoint now,
                                      const ftmp::MembershipChanged& change) {
  members_ = change.membership.members;
  std::sort(members_.begin(), members_.end());

  // Track who is mid-transfer (drives snapshot-at-every-install and donor
  // holder sets). Joiners admitted by this install start catching up;
  // members that left mid-transfer stop.
  for (ProcessorId p : change.left) {
    catching_up_.erase(p.raw());
    for (auto& [ts, snap] : snapshots_) snap.interested.erase(p.raw());
  }
  if (change.reason != ftmp::MembershipChanged::Reason::kInitial) {
    for (ProcessorId p : change.joined) {
      if (p != self_) catching_up_.insert(p.raw());
    }
  }

  if (catchup_) {
    // We are the joiner. The install is buffered so its watermark prunes
    // replay in order relative to buffered messages...
    catchup_->buffered.push_back(ftmp::Event{change});
    // ...but the holder bookkeeping must happen now: donors may have died.
    std::vector<ProcessorId> alive;
    for (ProcessorId h : catchup_->holders) {
      // A holder that crashed and was re-admitted is itself catching up
      // now — its snapshot died with the old incarnation.
      if (contains(members_, h) &&
          catching_up_.find(h.raw()) == catching_up_.end()) {
        alive.push_back(h);
      }
    }
    if (alive.empty()) {
      // No snapshot holder survived: re-anchor the whole transfer at this
      // install's cut. Survivors snapshot at every install while anyone is
      // catching up, so a snapshot keyed by this view exists. The buffer is
      // kept — the new cut's watermarks subsume anything it already covers.
      stats_.transfers_restarted.add();
      catchup_->view_ts = change.membership.timestamp;
      catchup_->holders.clear();
      for (ProcessorId p : members_) {
        if (p != self_ && catching_up_.find(p.raw()) == catching_up_.end()) {
          catchup_->holders.push_back(p);
        }
      }
      if (catchup_->holders.empty()) {
        // Nobody caught-up survives at all (we are the last member, or
        // every other member is itself mid-transfer): the group's prior
        // state is unrecoverable. Degrade deterministically — adopt what
        // we have, apply the buffered suffix, and go live — rather than
        // requesting into the void forever.
        FTC_LOG(kWarn) << to_string(self_) << ": state transfer abandoned: "
                       << "no caught-up member survives; going live with "
                       << "locally observed state";
        std::deque<ftmp::Event> buffered = std::move(catchup_->buffered);
        catchup_.reset();
        live_ = true;
        for (const ftmp::Event& ev : buffered) {
          if (const auto* msg = std::get_if<ftmp::DeliveredMessage>(&ev)) {
            auto hw_it = applied_hw_.find(msg->source.raw());
            const SeqNum hw = hw_it == applied_hw_.end() ? 0 : hw_it->second;
            if (msg->seq > hw) apply_one(now, *msg);
          } else if (const auto* ch = std::get_if<ftmp::MembershipChanged>(&ev)) {
            prune_for_install(*ch);
          }
        }
        send_digest(now);
        return;
      }
      catchup_->chunks.clear();
      catchup_->total_chunks = 0;
      catchup_->next_chunk = 0;
      catchup_->last_requested = 0;
      catchup_->snapshot_digest = 0;
      catchup_->cut_digest = 0;
      catchup_->cut_seqs.clear();
      FTC_LOG(kWarn) << to_string(self_) << ": state transfer lost all "
                     << "snapshot holders; restarting at view "
                     << catchup_->view_ts;
      send_request(now);
      return;
    }
    const bool donor_died = alive.front() != catchup_->holders.front();
    catchup_->holders = std::move(alive);
    if (donor_died) {
      // The serving donor crashed mid-transfer. The next surviving holder
      // takes over; our cumulative next_chunk is the resume offset, so
      // nothing already received is re-sent.
      stats_.transfers_resumed.add();
      send_request(now);
    }
    return;
  }

  // Survivor path.
  prune_for_install(change);
  // Our own admission install (the joiner sees it as kInitial with
  // joined = {self}; the founding bootstrap lists every member in joined
  // and ends up with no holders below, going live immediately).
  if (!live_ && contains(change.joined, self_)) {
    begin_catchup(now, change);
    return;
  }
  live_ = true;
  if (!catching_up_.empty()) take_snapshot(now, change);
  // Post-heal anti-entropy: advertise our position + digest at the install.
  send_digest(now);
}

void StateTransferManager::begin_catchup(TimePoint now,
                                         const ftmp::MembershipChanged& change) {
  CatchUp cu;
  cu.view_ts = change.membership.timestamp;
  // Holders are the established members: not us, not anyone admitted by
  // this same install, not anyone still mid-transfer themselves.
  for (ProcessorId p : members_) {
    if (p == self_ || contains(change.joined, p)) continue;
    if (catching_up_.find(p.raw()) != catching_up_.end()) continue;
    cu.holders.push_back(p);
  }
  if (cu.holders.empty()) {
    // Nobody holds prior state (we are the only full member): nothing to
    // transfer — go live with what we have.
    live_ = true;
    return;
  }
  live_ = false;
  catchup_.emplace(std::move(cu));
  send_request(now);
}

void StateTransferManager::take_snapshot(TimePoint now,
                                         const ftmp::MembershipChanged& change) {
  Snapshot snap;
  snap.bytes = state_.snapshot();
  snap.snapshot_digest =
      state_fnv1a64(BytesView{snap.bytes.data(), snap.bytes.size()});
  snap.cut_digest = digest_;
  // The cut is OUR applied watermarks at this install — by virtual
  // synchrony every survivor applied the same prefix, so these match the
  // install's cut_seqs; using the applied map keeps snapshot, digest and
  // fingerprint self-consistent by construction.
  for (const auto& [source, hw] : applied_hw_) {
    if (hw > 0) snap.cut_seqs.push_back({ProcessorId{source}, hw});
  }
  for (ProcessorId p : members_) {
    if (catching_up_.find(p.raw()) == catching_up_.end()) {
      snap.holders.push_back(p);
    }
  }
  snap.interested = catching_up_;
  snap.created_at = now;
  snap.total_chunks = static_cast<std::uint32_t>(std::max<std::size_t>(
      1, (snap.bytes.size() + kStateChunkBytes - 1) / kStateChunkBytes));
  stats_.snapshots_taken += 1;
  snapshots_[change.membership.timestamp] = std::move(snap);
}

void StateTransferManager::on_state(TimePoint now, const ftmp::StateMessage& msg) {
  if (const auto* req = std::get_if<ftmp::StateRequestBody>(&msg.body)) {
    if (msg.source != self_) on_request(now, msg.source, *req);
    return;
  }
  if (const auto* chunk = std::get_if<ftmp::StateChunkBody>(&msg.body)) {
    if (chunk->joiner == self_ && catchup_ &&
        chunk->view_ts == catchup_->view_ts) {
      on_chunk(now, *chunk);
    }
    return;
  }
  if (const auto* dig = std::get_if<ftmp::StateDigestBody>(&msg.body)) {
    if (msg.source != self_) on_peer_digest(now, msg.source, *dig);
    return;
  }
}

void StateTransferManager::on_request(TimePoint now, ProcessorId from,
                                      const ftmp::StateRequestBody& req) {
  // A StateRequest is a liveness claim of catch-up: members that never saw
  // the joiner's admitting install (because they joined later themselves)
  // learn here that `from` is mid-transfer, keeping snapshot-at-install and
  // holder-set computations honest fleet-wide. The joiner's completion
  // digest (below) clears the flag again.
  if (contains(members_, from)) catching_up_.insert(from.raw());
  auto it = snapshots_.find(req.view_ts);
  if (it == snapshots_.end()) return;
  Snapshot& snap = it->second;

  if (req.next_chunk >= snap.total_chunks) {
    // Completion acknowledgement (multicast): every holder releases the
    // joiner; when no joiner needs the snapshot it is dropped immediately.
    snap.interested.erase(from.raw());
    catching_up_.erase(from.raw());
    if (snap.interested.empty()) snapshots_.erase(it);
    return;
  }

  snap.interested.insert(from.raw());
  if (!is_donor(snap)) return;  // a holder, but not the elected donor

  // Request-driven self-clocking: serve a window past the joiner's
  // cumulative offset; the next request both acks and reopens the window.
  const std::uint32_t end =
      std::min(snap.total_chunks, req.next_chunk + kStateWindowChunks);
  for (std::uint32_t seq = req.next_chunk; seq < end; ++seq) {
    ftmp::StateChunkBody chunk;
    chunk.joiner = from;
    chunk.view_ts = req.view_ts;
    chunk.chunk_seq = seq;
    chunk.total_chunks = snap.total_chunks;
    chunk.snapshot_digest = snap.snapshot_digest;
    chunk.cut_digest = snap.cut_digest;
    chunk.cut_seqs = snap.cut_seqs;
    const std::size_t begin = static_cast<std::size_t>(seq) * kStateChunkBytes;
    const std::size_t len = std::min(kStateChunkBytes, snap.bytes.size() - std::min(snap.bytes.size(), begin));
    chunk.payload.assign(snap.bytes.begin() + static_cast<std::ptrdiff_t>(begin),
                         snap.bytes.begin() + static_cast<std::ptrdiff_t>(begin + len));
    const std::size_t sent_bytes = chunk.payload.size();
    if (!stack_.send_state(now, group_, ftmp::Body{std::move(chunk)})) return;
    stats_.chunks_sent.add();
    stats_.bytes_sent.add(sent_bytes);
  }
}

void StateTransferManager::on_chunk(TimePoint now, const ftmp::StateChunkBody& chunk) {
  CatchUp& cu = *catchup_;
  if (cu.total_chunks == 0) {
    // First chunk of this anchor: adopt the transfer geometry and the cut.
    cu.total_chunks = chunk.total_chunks;
    cu.chunks.assign(cu.total_chunks, std::nullopt);
    cu.snapshot_digest = chunk.snapshot_digest;
    cu.cut_digest = chunk.cut_digest;
    cu.cut_seqs = chunk.cut_seqs;
  }
  if (chunk.chunk_seq >= cu.total_chunks) return;
  if (!cu.chunks[chunk.chunk_seq]) {
    cu.chunks[chunk.chunk_seq] = chunk.payload;
    stats_.chunks_received += 1;
    stats_.bytes_received += chunk.payload.size();
  }
  while (cu.next_chunk < cu.total_chunks && cu.chunks[cu.next_chunk]) {
    cu.next_chunk += 1;
  }
  if (cu.next_chunk >= cu.total_chunks ||
      cu.next_chunk >= cu.last_requested + kStateWindowChunks) {
    send_request(now);  // ack progress / reopen the donor's window
  }
  maybe_finish(now);
}

void StateTransferManager::maybe_finish(TimePoint now) {
  CatchUp& cu = *catchup_;
  if (cu.total_chunks == 0 || cu.next_chunk < cu.total_chunks) return;

  Bytes assembled;
  for (const auto& c : cu.chunks) {
    assembled.insert(assembled.end(), c->begin(), c->end());
  }
  if (state_fnv1a64(BytesView{assembled.data(), assembled.size()}) !=
      cu.snapshot_digest) {
    // Reassembly does not match the donor's hash: distrust everything and
    // pull the snapshot again from offset zero.
    stats_.snapshot_verify_failures += 1;
    FTC_LOG(kWarn) << to_string(self_)
                   << ": snapshot digest mismatch on reassembly; re-requesting";
    cu.chunks.assign(cu.total_chunks, std::nullopt);
    cu.next_chunk = 0;
    cu.last_requested = 0;
    send_request(now);
    return;
  }

  state_.restore(BytesView{assembled.data(), assembled.size()});
  digest_ = cu.cut_digest;
  applied_hw_.clear();
  for (const ftmp::SourceSeq& s : cu.cut_seqs) {
    if (s.seq > 0) applied_hw_[s.processor.raw()] = s.seq;
  }

  // Replay the buffered suffix: messages at or before the cut are inside
  // the snapshot (filtered by watermark); installs replay their prunes at
  // the right point in the order.
  std::deque<ftmp::Event> buffered = std::move(cu.buffered);
  const Timestamp view_ts = cu.view_ts;
  const std::uint32_t total = cu.total_chunks;
  catchup_.reset();
  live_ = true;
  for (const ftmp::Event& ev : buffered) {
    if (const auto* msg = std::get_if<ftmp::DeliveredMessage>(&ev)) {
      auto it = applied_hw_.find(msg->source.raw());
      const SeqNum hw = it == applied_hw_.end() ? 0 : it->second;
      if (msg->seq > hw) {
        apply_one(now, *msg);
        stats_.messages_replayed.add();
      }
    } else if (const auto* change = std::get_if<ftmp::MembershipChanged>(&ev)) {
      prune_for_install(*change);
    }
  }

  // Completion ack: a StateRequest at total_chunks releases the snapshot
  // on every holder.
  ftmp::StateRequestBody done;
  done.joiner = self_;
  done.view_ts = view_ts;
  done.next_chunk = total;
  stack_.send_state(now, group_, ftmp::Body{done});

  stats_.transfers_completed.add();
  FTC_LOG(kInfo) << to_string(self_) << ": state transfer complete at view "
                 << view_ts << " (" << stats_.bytes_received << " bytes, "
                 << stats_.messages_replayed.value() << " replayed)";
  send_digest(now);
}

void StateTransferManager::on_peer_digest(TimePoint now, ProcessorId from,
                                          const ftmp::StateDigestBody& body) {
  (void)now;
  // Only caught-up members publish digests, so a digest from `from` ends
  // its catch-up from everyone's point of view (the holders additionally
  // release it on the completion ack, which precedes this digest).
  catching_up_.erase(from.raw());
  for (auto& [ts, snap] : snapshots_) snap.interested.erase(from.raw());
  if (!caught_up()) return;
  // Digests are only comparable at equal positions: same fingerprint,
  // different rolling digest ⇒ the states genuinely diverged.
  if (body.fingerprint == fingerprint() && body.digest != digest_) {
    stats_.digest_mismatches.add();
    FTC_LOG(kWarn) << to_string(self_) << ": state digest mismatch with "
                   << to_string(from) << " at fingerprint "
                   << body.fingerprint << " (theirs " << body.digest
                   << ", ours " << digest_ << ")";
  }
}

void StateTransferManager::send_request(TimePoint now) {
  if (!catchup_) return;
  ftmp::StateRequestBody req;
  req.joiner = self_;
  req.view_ts = catchup_->view_ts;
  req.next_chunk = catchup_->next_chunk;
  stack_.send_state(now, group_, ftmp::Body{req});
  catchup_->last_requested = catchup_->next_chunk;
  catchup_->last_request_at = now;
}

void StateTransferManager::send_digest(TimePoint now) {
  ftmp::StateDigestBody body;
  body.fingerprint = fingerprint();
  body.digest = digest_;
  stack_.send_state(now, group_, ftmp::Body{body});
  last_digest_sent_ = now;
  if (digest_hook_) digest_hook_(now, body.fingerprint, body.digest);
}

bool StateTransferManager::is_donor(const Snapshot& snap) const {
  // The donor is the smallest-id holder still alive; holders are sorted,
  // so the first survivor is the election winner everywhere (no extra
  // agreement round needed: membership IS the agreement).
  for (ProcessorId h : snap.holders) {
    if (contains(members_, h)) return h == self_;
  }
  return false;
}

void StateTransferManager::tick(TimePoint now) {
  if (catchup_ && (catchup_->last_request_at < 0 ||
                   now - catchup_->last_request_at >= kStateRequestInterval)) {
    // Retry/keepalive: re-sends the cumulative offset, which is idempotent
    // on the donor (chunks are keyed by (view_ts, chunk_seq)).
    send_request(now);
  }
  for (auto it = snapshots_.begin(); it != snapshots_.end();) {
    // Age out snapshots nobody is pulling; an in-progress transfer keeps
    // its snapshot alive until completion or the joiner's departure.
    if (it->second.interested.empty() &&
        now - it->second.created_at >= kSnapshotTtl) {
      it = snapshots_.erase(it);
    } else {
      ++it;
    }
  }
  if (live_ && caught_up() &&
      (last_digest_sent_ < 0 || now - last_digest_sent_ >= kDigestInterval)) {
    send_digest(now);
  }
}

}  // namespace ftcorba::ft
