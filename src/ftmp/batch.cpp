#include "ftmp/batch.hpp"

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

  // A message too large to batch even alone: close this address's open
  // batch first (per-address FIFO order), then pass the message through in
  // its original single-message encoding.
  if (kBatchHeaderSize + framed > budget) {
    auto it = open_.find(d.addr.raw());
    if (it != open_.end()) {
      close(it->first, std::move(it->second), /*by_timer=*/false);
      open_.erase(it);
    }
    metrics_.passthrough.add();
    if (is_type(d.payload, MessageType::kOrderInfo)) metrics_.grant_only.add();
    ready_.push_back(std::move(d));
    return;
  }

  Open& open = open_[d.addr.raw()];
  if (open.frames.empty()) {
    open.bytes = kBatchHeaderSize;
    open.opened_at = now;
  } else if (open.bytes + framed > budget) {
    Open full = std::move(open);
    close(d.addr.raw(), std::move(full), /*by_timer=*/false);
    metrics_.closed_full.add();
    open = Open{};
    open.bytes = kBatchHeaderSize;
    open.opened_at = now;
  }
  open.bytes += framed;
  if (is_type(d.payload, MessageType::kHeartbeat)) {
    open.heartbeats += 1;
  } else {
    open.has_data = true;
    open.has_regular |= is_type(d.payload, MessageType::kRegular);
    open.has_grant |= is_type(d.payload, MessageType::kOrderInfo);
  }
  open.frames.push_back(std::move(d.payload));
}

void Batcher::drain(TimePoint now, std::vector<net::Datagram>& out,
                    const std::function<bool(McastAddress)>& waits) {
  const Duration flush_after =
      static_cast<Duration>(config_.batch_flush_us) * kMicrosecond;
  for (auto it = open_.begin(); it != open_.end();) {
    const Open& open = it->second;
    // A heartbeat-only batch always waits: nothing is in a hurry for it,
    // and the next data frame can carry it.
    if (now - open.opened_at >= flush_after ||
        (open.has_data && waits && !waits(McastAddress{it->first}))) {
      close(it->first, std::move(it->second), /*by_timer=*/true);
      it = open_.erase(it);
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

void Batcher::close(std::uint32_t addr_raw, Open&& open, bool by_timer) {
  if (open.frames.empty()) return;
  if (by_timer && open.frames.size() > 1) {
    metrics_.closed_timer.add();
  }
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
}

}  // namespace ftcorba::ftmp
