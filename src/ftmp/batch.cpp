#include "ftmp/batch.hpp"

#include <algorithm>

#include "ftmp/wire.hpp"

namespace ftcorba::ftmp {

namespace {
[[nodiscard]] bool is_type(const SharedBytes& frame, MessageType type) {
  return frame.size() > kTypeFieldOffset &&
         frame.view()[kTypeFieldOffset] == static_cast<std::uint8_t>(type);
}
}  // namespace

Batcher::Batcher(const Config& config) : config_(config) {
  if (!enabled()) return;
  metrics_.datagrams =
      metrics::Counter("ftmp_batch_datagrams_total",
                       "Batched (FTMB) datagrams emitted", "datagrams", "batch");
  metrics_.subframes =
      metrics::Counter("ftmp_batch_subframes_total",
                       "Messages packed into batched datagrams", "messages", "batch");
  metrics_.bytes = metrics::Counter("ftmp_batch_bytes_total",
                                    "Bytes of batched datagrams emitted",
                                    "bytes", "batch");
  metrics_.passthrough = metrics::Counter(
      "ftmp_batch_passthrough_total",
      "Datagrams emitted unbatched while batching was enabled", "datagrams",
      "batch");
  metrics_.closed_full =
      metrics::Counter("ftmp_batch_closed_full_total",
                       "Batches closed by the byte budget", "batches", "batch");
  metrics_.closed_timer =
      metrics::Counter("ftmp_batch_closed_timer_total",
                       "Batches closed by the flush timer", "batches", "batch");
  metrics_.closed_partner = metrics::Counter(
      "ftmp_batch_closed_partner_total",
      "Batches opened after a quiet window and closed by a second data frame",
      "batches", "batch");
  metrics_.heartbeats_coalesced = metrics::Counter(
      "ftmp_batch_heartbeats_coalesced_total",
      "Heartbeats that rode a data-bearing batched datagram", "messages",
      "batch");
  metrics_.grant_only = metrics::Counter(
      "ftmp_batch_grant_only_total",
      "Datagrams emitted with an OrderInfo and no Regular (LLFT grants that "
      "rode no data datagram)",
      "datagrams", "batch");
}

void Batcher::stage(TimePoint now, net::Datagram&& d) {
  const std::size_t framed = kBatchLenPrefixSize + d.payload.size();
  const std::size_t budget = config_.batch_max_datagram_bytes;
  Lane& lane = lanes_[d.addr.raw()];
  Open& open = lane.open;

  // A message too large to batch even alone: close this address's open
  // batch first (per-address FIFO order), then pass the message through in
  // its original single-message encoding.
  if (kBatchHeaderSize + framed > budget) {
    close(d.addr.raw(), open);
    metrics_.passthrough.add();
    if (is_type(d.payload, MessageType::kOrderInfo)) metrics_.grant_only.add();
    ready_.push_back(std::move(d));
    return;
  }

  if (open.frames.empty()) {
    open.bytes = kBatchHeaderSize;
    open.opened_at = now;
  } else if (open.bytes + framed > budget) {
    close(d.addr.raw(), open);
    metrics_.closed_full.add();
    open.bytes = kBatchHeaderSize;
    open.opened_at = now;
  }
  open.bytes += framed;
  if (is_type(d.payload, MessageType::kHeartbeat)) {
    open.heartbeats += 1;
  } else {
    // The quiet check runs once per batch, at its first data frame. Until
    // a partner joins, every data frame of a quiet batch was staged in the
    // drain of that first one, so a later staging time marks the partner.
    if (!open.has_data) {
      open.quiet = !lane.last_data || now - *lane.last_data >= flush_after();
    } else if (open.quiet && now > *lane.last_data) {
      open.partnered = true;
    }
    lane.last_data = now;
    open.has_data = true;
    open.has_regular |= is_type(d.payload, MessageType::kRegular);
    open.has_grant |= is_type(d.payload, MessageType::kOrderInfo);
  }
  open.frames.push_back(std::move(d.payload));
}

bool Batcher::pending() const {
  return !ready_.empty() ||
         std::any_of(lanes_.begin(), lanes_.end(),
                     [](const auto& lane) { return !lane.second.open.frames.empty(); });
}

void Batcher::drain(TimePoint now, std::vector<net::Datagram>& out,
                    const std::function<bool(McastAddress)>& waits) {
  const Duration window = flush_after();
  for (auto it = lanes_.begin(); it != lanes_.end();) {
    Lane& lane = it->second;
    Open& open = lane.open;
    const bool expired = now - open.opened_at >= window;
    // A heartbeat-only batch always waits: nothing is in a hurry for it,
    // and the next data frame can carry it.
    if (!open.frames.empty() &&
        (expired || open.partnered ||
         (open.has_data && waits && !waits(McastAddress{it->first})))) {
      if (open.frames.size() > 1) {
        (open.partnered && !expired ? metrics_.closed_partner : metrics_.closed_timer)
            .add();
      }
      close(it->first, open);
    }
    if (open.frames.empty() &&
        (!lane.last_data || now - *lane.last_data >= window)) {
      it = lanes_.erase(it);
    } else {
      ++it;
    }
  }
  if (out.empty()) {
    out = std::move(ready_);
    ready_.clear();
  } else {
    for (net::Datagram& d : ready_) out.push_back(std::move(d));
    ready_.clear();
  }
}

void Batcher::close(std::uint32_t addr_raw, Open& open) {
  if (open.frames.empty()) return;
  if (open.has_grant && !open.has_regular) metrics_.grant_only.add();
  net::Datagram d;
  d.addr = McastAddress{addr_raw};
  if (open.frames.size() == 1) {
    // A lone message keeps its original single-message encoding: no
    // envelope, no copy — an idle heartbeat on the wire is byte-identical
    // to the pre-batching stack's.
    metrics_.passthrough.add();
    d.payload = std::move(open.frames.front());
  } else {
    d.payload = encode_batch(open.frames);
    metrics_.datagrams.add();
    metrics_.subframes.add(open.frames.size());
    metrics_.bytes.add(d.payload.size());
    if (open.has_data && open.heartbeats > 0) {
      metrics_.heartbeats_coalesced.add(open.heartbeats);
    }
  }
  ready_.push_back(std::move(d));
  open = Open{};
}

}  // namespace ftcorba::ftmp
