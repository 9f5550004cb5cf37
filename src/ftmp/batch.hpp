// batch.hpp — egress datagram batching (docs/BATCHING.md).
//
// The Batcher sits between the stack's outbox and the net driver: every
// outgoing datagram is staged per destination address, and datagrams bound
// for the same multicast group are packed into one wire datagram
// (wire.hpp's "FTMB" envelope + length-prefixed sub-frames) up to
// `batch_max_datagram_bytes`. A batch closes when the next message would
// overflow the budget, or when the `batch_flush_us` micro-flush timer
// expires at the next driver drain; the caller may close an address's
// data-bearing batches at every drain instead (an LLFT follower's, which
// gain nothing by waiting: docs/BATCHING.md). Accumulation holds SharedBytes
// references only; the single copy batching adds happens once per message
// at close (encode_batch), on the send side — receivers slice sub-frames
// out of the arrival buffer, so the zero-copy delivery path is unchanged.
//
// Special cases that keep the wire honest and low-rate behavior identical:
//   * a batch holding exactly one message is emitted as a plain FTMP
//     datagram (no envelope, no copy) — an isolated heartbeat or low-rate
//     Regular looks exactly as it did before batching existed;
//   * a message that cannot fit the budget even alone passes through
//     unbatched, after closing the address's open batch so per-address
//     FIFO order is preserved;
//   * a heartbeat that shares a closed batch with at least one data-bearing
//     message is counted as coalesced — the §5/§6 ack/timestamp fields it
//     carries ride a datagram that was going out anyway;
//   * a datagram that carries an OrderInfo and no Regular is counted as
//     grant-only: an LLFT grant that rode no data datagram.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/clock.hpp"
#include "common/metrics.hpp"
#include "ftmp/config.hpp"
#include "net/packet.hpp"

namespace ftcorba::ftmp {

/// One stack's batching counts, copied out of its Batcher's counters
/// (benches sum them across a fleet regardless of FTMP_METRICS).
struct BatchStats {
  std::uint64_t batch_datagrams = 0;   ///< FTMB datagrams emitted
  std::uint64_t subframes = 0;         ///< messages packed into those
  std::uint64_t batch_bytes = 0;       ///< bytes of emitted FTMB datagrams
  std::uint64_t passthrough = 0;       ///< datagrams emitted unbatched
  std::uint64_t closed_full = 0;       ///< batches closed by the byte budget
  std::uint64_t closed_timer = 0;      ///< batches closed by the flush timer
  std::uint64_t heartbeats_coalesced = 0;  ///< heartbeats riding a data batch
  std::uint64_t grant_only = 0;  ///< datagrams with OrderInfo and no Regular

  /// Mean fraction of the byte budget an emitted batch used (0 when no
  /// batch was emitted) — the fill-ratio figure CI asserts a floor on.
  [[nodiscard]] double fill_ratio(std::size_t budget_bytes) const {
    if (batch_datagrams == 0 || budget_bytes == 0) return 0.0;
    return double(batch_bytes) / (double(batch_datagrams) * double(budget_bytes));
  }
  /// Mean sub-frames per emitted batch datagram.
  [[nodiscard]] double subframes_per_batch() const {
    return batch_datagrams == 0 ? 0.0
                                : double(subframes) / double(batch_datagrams);
  }
};

/// Per-stack egress batcher. Disabled (a pure pass-through that stages
/// nothing) while `batch_max_datagram_bytes` is 0.
class Batcher {
 public:
  explicit Batcher(const Config& config);

  [[nodiscard]] bool enabled() const {
    return config_.batch_max_datagram_bytes > 0;
  }

  /// Stages one outgoing datagram at time `now`.
  void stage(TimePoint now, net::Datagram&& d);

  /// Appends every closed batch to `out`, then closes and appends any open
  /// batch whose flush timer has expired (every open batch when
  /// batch_flush_us is 0), or that holds more than heartbeats and whose
  /// address `waits` rejects (no `waits`: every address waits).
  void drain(TimePoint now, std::vector<net::Datagram>& out,
             const std::function<bool(McastAddress)>& waits = {});

  /// True while messages are staged but not yet emitted.
  [[nodiscard]] bool pending() const { return !open_.empty() || !ready_.empty(); }

  [[nodiscard]] BatchStats stats() const {
    return {metrics_.datagrams.value(),    metrics_.subframes.value(),
            metrics_.bytes.value(),        metrics_.passthrough.value(),
            metrics_.closed_full.value(),  metrics_.closed_timer.value(),
            metrics_.heartbeats_coalesced.value(), metrics_.grant_only.value()};
  }

 private:
  struct Open {
    std::vector<SharedBytes> frames;
    std::size_t bytes = 0;  ///< envelope + staged prefixes and frames
    TimePoint opened_at = 0;
    std::size_t heartbeats = 0;
    bool has_data = false;  ///< any non-heartbeat sub-frame staged
    bool has_regular = false;
    bool has_grant = false;  ///< any OrderInfo staged
  };

  void close(std::uint32_t addr_raw, Open&& open, bool by_timer);

  Config config_;
  // Keyed by raw multicast address; std::map keeps drain order
  // deterministic across runs (the chaos digest depends on it).
  std::map<std::uint32_t, Open> open_;
  std::vector<net::Datagram> ready_;

  // This batcher's counters, each also adding to the process-global
  // ftmp_batch_* counter of its name while batching is on (docs/METRICS.md).
  struct Instruments {
    metrics::Counter datagrams;
    metrics::Counter subframes;
    metrics::Counter bytes;
    metrics::Counter passthrough;
    metrics::Counter closed_full;
    metrics::Counter closed_timer;
    metrics::Counter heartbeats_coalesced;
    metrics::Counter grant_only;
  };
  Instruments metrics_;
};

}  // namespace ftcorba::ftmp
