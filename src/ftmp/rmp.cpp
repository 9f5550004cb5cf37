#include "ftmp/rmp.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace ftcorba::ftmp {

namespace {
// At most this many messages are retransmitted per RetransmitRequest; the
// requester re-NACKs for the remainder (bounds burst size).
constexpr std::size_t kMaxRetransmitBurst = 64;
// At most this many missing blocks are NACKed per source per tick.
constexpr std::size_t kMaxNackRunsPerTick = 16;
// Minimum spacing between retransmissions of the same stored message by
// this processor (prevents retransmit storms when several NACKs for one
// message arrive close together).
constexpr Duration kRetransmitInterval = 5 * kMillisecond;
}  // namespace

Rmp::Rmp(ProcessorId self, const Config& config) : self_(self), config_(config) {
  stats_.delivered_in_order = metrics::Counter(
      "ftmp_rmp_delivered_in_order_total",
      "Reliable messages delivered to ROMP in source order", "messages", "rmp");
  stats_.duplicates_ignored = metrics::Counter(
      "ftmp_rmp_duplicates_ignored_total",
      "Reliable messages discarded as duplicates (already contiguous or buffered)",
      "messages", "rmp");
  stats_.nacks_sent = metrics::Counter(
      "ftmp_rmp_retransmit_requests_sent_total",
      "RetransmitRequest (NACK) blocks multicast for detected gaps", "requests",
      "rmp");
  stats_.retransmissions_sent = metrics::Counter(
      "ftmp_rmp_retransmit_requests_served_total",
      "Stored messages re-multicast in answer to RetransmitRequests", "messages",
      "rmp");
  stats_.dropped_unknown_source = metrics::Counter(
      "ftmp_rmp_dropped_unknown_source_total",
      "Reliable messages dropped because the source is not a tracked member",
      "messages", "rmp");
  stats_.dropped_stale_incarnation = metrics::Counter(
      "ftmp_rmp_dropped_stale_incarnation_total",
      "Reliable messages dropped by the incarnation timestamp floor", "messages",
      "rmp");
  stats_.ooo_dropped = metrics::Counter(
      "ftmp_rmp_ooo_dropped_total",
      "Reliable messages dropped at the max_out_of_order_buffer cap "
      "(recovered later via NACK)",
      "messages", "rmp");
  metrics_.store_bytes = metrics::Gauge(
      "ftmp_rmp_store_bytes", "Bytes held in the retransmission store", "bytes",
      "rmp");
  metrics_.out_of_order = metrics::Gauge(
      "ftmp_rmp_out_of_order_messages",
      "Messages buffered out of order awaiting gap fill", "messages", "rmp");
  metrics_.gap_repair_ms = metrics::histogram(
      "ftmp_rmp_gap_repair_ms",
      "Gap-detection-to-repair latency: open gap first observed until the "
      "stream is contiguous again",
      "ms", "rmp", metrics::latency_buckets_ms());
}

void Rmp::update_gap_state(TimePoint now, SourceState& st) {
  if (st.contiguous < st.highest_seen) {
    if (st.gap_open_since < 0) st.gap_open_since = now;
  } else if (st.gap_open_since >= 0) {
    metrics_.gap_repair_ms.observe(to_ms(now - st.gap_open_since));
    st.gap_open_since = -1;
  }
}

void Rmp::add_source(ProcessorId src, SeqNum expect_after, Timestamp min_timestamp) {
  remove_source(src);
  SourceState& st = sources_[src];
  st.contiguous = expect_after;
  st.highest_seen = expect_after;
  st.min_timestamp = min_timestamp;
}

void Rmp::remove_source(ProcessorId src) {
  auto it = sources_.find(src);
  if (it == sources_.end()) return;
  metrics_.out_of_order.add(-static_cast<std::int64_t>(it->second.out_of_order.size()));
  sources_.erase(it);
}

void Rmp::purge_store(ProcessorId src) {
  auto it = store_.lower_bound({src.raw(), 0});
  while (it != store_.end() && it->first.first == src.raw()) {
    metrics_.store_bytes.add(-static_cast<std::int64_t>(it->second.raw.size()));
    it = store_.erase(it);
  }
}

bool Rmp::has_source(ProcessorId src) const { return sources_.contains(src); }

SeqNum Rmp::contiguous(ProcessorId src) const {
  auto it = sources_.find(src);
  return it == sources_.end() ? 0 : it->second.contiguous;
}

SeqNum Rmp::highest_seen(ProcessorId src) const {
  auto it = sources_.find(src);
  return it == sources_.end() ? 0 : it->second.highest_seen;
}

bool Rmp::complete(ProcessorId src) const {
  auto it = sources_.find(src);
  return it == sources_.end() || it->second.contiguous == it->second.highest_seen;
}

void Rmp::store(ProcessorId src, SeqNum seq, SharedBytes raw) {
  // The slice is kept exactly as transmitted/received ("The retransmitted
  // message is identical to the original", §5). The retransmission flag —
  // "true for all subsequent retransmissions", §3.2 — is patched into a
  // pooled copy by with_retransmission_flag only when a retransmission is
  // actually sent, so storing a received message pins the arrival buffer
  // instead of copying it.
  const auto size = static_cast<std::int64_t>(raw.size());
  if (store_.try_emplace({src.raw(), seq}, std::move(raw)).second) {
    metrics_.store_bytes.add(size);
  }
}

std::vector<Frame> Rmp::on_reliable(TimePoint now, Frame frame) {
  const ProcessorId src = frame.header.source;
  const SeqNum seq = frame.header.sequence_number;
  auto it = sources_.find(src);
  if (it == sources_.end()) {
    stats_.dropped_unknown_source.add();
    return {};
  }
  SourceState& st = it->second;

  if (frame.header.message_timestamp <= st.min_timestamp) {
    // A straggler from a previous incarnation of this source id (e.g. a
    // retransmission served by a member that has not yet processed the
    // re-add): poisonous if accepted into the fresh stream.
    stats_.dropped_stale_incarnation.add();
    return {};
  }
  // The first copy of an own message to come back is its loopback, which is
  // no duplicate even when the message was taken in at send: the counter
  // keeps to retransmissions and network duplicates.
  const bool loopback =
      src == self_ && !frame.header.retransmission && seq > st.looped_back;
  if (loopback) st.looped_back = seq;
  if (seq <= st.contiguous || st.out_of_order.contains(seq)) {
    if (!loopback) stats_.duplicates_ignored.add();
    return {};
  }
  return accept(now, st, src, std::move(frame));
}

std::vector<Frame> Rmp::take_own(TimePoint now, Frame frame) {
  auto it = sources_.find(self_);
  if (it == sources_.end() ||
      it->second.contiguous + 1 != frame.header.sequence_number) {
    return {};
  }
  return accept(now, it->second, self_, std::move(frame));
}

std::vector<Frame> Rmp::accept(TimePoint now, SourceState& st, ProcessorId src,
                               Frame frame) {
  const SeqNum seq = frame.header.sequence_number;
  store(src, seq, frame.raw);
  st.highest_seen = std::max(st.highest_seen, seq);

  std::vector<Frame> deliver;
  if (seq == st.contiguous + 1) {
    st.contiguous = seq;
    deliver.push_back(std::move(frame));
    // Drain any buffered messages that are now contiguous.
    auto next = st.out_of_order.find(st.contiguous + 1);
    while (next != st.out_of_order.end()) {
      st.contiguous = next->first;
      deliver.push_back(std::move(next->second));
      st.out_of_order.erase(next);
      metrics_.out_of_order.add(-1);
      next = st.out_of_order.find(st.contiguous + 1);
    }
    stats_.delivered_in_order.add(deliver.size());
  } else {
    if (config_.max_out_of_order_buffer == 0 ||
        st.out_of_order.size() < config_.max_out_of_order_buffer) {
      st.out_of_order.emplace(seq, std::move(frame));
      metrics_.out_of_order.add(1);
    } else {
      // At the cap the message is not buffered, but its stored copy (and
      // everyone else's) still answers the NACK recovery that will refetch
      // it once the gap closes — dropped here means delayed, not lost.
      stats_.ooo_dropped.add();
    }
    queue_nacks(now, st, src);
  }
  update_gap_state(now, st);
  return deliver;
}

void Rmp::on_heartbeat(TimePoint now, const Header& header) {
  auto it = sources_.find(header.source);
  if (it == sources_.end()) return;
  SourceState& st = it->second;
  // "The purpose of a Heartbeat message is to provide the other members ...
  // with the sender's current sequence number" (§5): it reveals gaps even
  // when the tail messages themselves were lost.
  if (header.sequence_number > st.highest_seen) {
    st.highest_seen = header.sequence_number;
  }
  update_gap_state(now, st);
  if (st.highest_seen > st.contiguous) queue_nacks(now, st, header.source);
}

void Rmp::on_retransmit_request(TimePoint now, const RetransmitRequestBody& body) {
  const ProcessorId src = body.processor;
  if (!config_.any_holder_retransmit && src != self_) return;
  std::size_t sent = 0;
  for (SeqNum seq = body.start_seq; seq <= body.stop_seq && sent < kMaxRetransmitBurst; ++seq) {
    auto it = store_.find({src.raw(), seq});
    if (it == store_.end()) continue;
    if (now - it->second.last_retransmit < kRetransmitInterval) {
      continue;  // we answered this very recently (others' answers are not tracked)
    }
    it->second.last_retransmit = now;
    // Patch the retransmission flag into a pooled copy here, on the cold
    // path, so the store itself keeps arrival slices byte-identical.
    output_.emplace_back(RetransmitOut{with_retransmission_flag(it->second.raw)});
    stats_.retransmissions_sent.add();
    ++sent;
  }
}

void Rmp::queue_nacks(TimePoint now, SourceState& st, ProcessorId src) {
  if (now - st.last_nack < kNackInterval) return;
  st.last_nack = now;
  // Walk the gap structure: missing runs between contiguous+1 and
  // highest_seen, skipping seqs buffered out of order.
  SeqNum cursor = st.contiguous + 1;
  std::size_t runs = 0;
  auto buffered = st.out_of_order.begin();
  while (cursor <= st.highest_seen && runs < kMaxNackRunsPerTick) {
    while (buffered != st.out_of_order.end() && buffered->first < cursor) ++buffered;
    SeqNum run_end;
    if (buffered != st.out_of_order.end() && buffered->first <= st.highest_seen) {
      if (buffered->first == cursor) {  // not missing; skip the buffered run
        while (buffered != st.out_of_order.end() && buffered->first == cursor) {
          ++cursor;
          ++buffered;
        }
        continue;
      }
      run_end = buffered->first - 1;
    } else {
      run_end = st.highest_seen;
    }
    output_.emplace_back(NackOut{src, cursor, run_end});
    stats_.nacks_sent.add();
    ++runs;
    cursor = run_end + 1;
  }
}

void Rmp::detect_gaps(TimePoint now, SourceState& st, ProcessorId src) {
  if (st.highest_seen > st.contiguous) queue_nacks(now, st, src);
}

void Rmp::on_tick(TimePoint now) {
  for (auto& [src, st] : sources_) detect_gaps(now, st, src);
}

void Rmp::note_exists(TimePoint now, ProcessorId src, SeqNum seq) {
  auto it = sources_.find(src);
  if (it == sources_.end()) return;
  SourceState& st = it->second;
  if (seq > st.highest_seen) st.highest_seen = seq;
  update_gap_state(now, st);
  if (st.highest_seen > st.contiguous) queue_nacks(now, st, src);
}

std::optional<BytesView> Rmp::stored(ProcessorId src, SeqNum seq) const {
  auto it = store_.find({src.raw(), seq});
  if (it == store_.end()) return std::nullopt;
  return it->second.raw.view();
}

void Rmp::pin_store(std::uint32_t token,
                    const std::vector<std::pair<ProcessorId, SeqNum>>& floors) {
  auto& pin = pins_[token];
  for (const auto& [src, floor] : floors) {
    auto it = pin.find(src.raw());
    if (it == pin.end() || floor < it->second) pin[src.raw()] = floor;
  }
}

void Rmp::unpin_store(std::uint32_t token) { pins_.erase(token); }

void Rmp::release(ProcessorId src, SeqNum up_to) {
  // Stability release stops at any active pin floor for this source.
  for (const auto& [token, pin] : pins_) {
    auto it = pin.find(src.raw());
    if (it != pin.end() && it->second < up_to) up_to = it->second;
  }
  auto it = store_.lower_bound({src.raw(), 0});
  while (it != store_.end() && it->first.first == src.raw() && it->first.second <= up_to) {
    metrics_.store_bytes.add(-static_cast<std::int64_t>(it->second.raw.size()));
    it = store_.erase(it);
  }
}

std::vector<RmpOut> Rmp::take_output() {
  std::vector<RmpOut> out;
  out.swap(output_);
  return out;
}

std::size_t Rmp::stored_count() const { return store_.size(); }

}  // namespace ftcorba::ftmp
