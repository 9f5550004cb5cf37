// config.hpp — tunable parameters of the FTMP stack. Defaults follow the
// paper's qualitative guidance; the benchmark harness sweeps the ones the
// paper calls out (heartbeat interval, clock mode, retransmission policy).
#pragma once

#include <cstddef>

#include "common/clock.hpp"
#include "common/codec.hpp"

namespace ftcorba::ftmp {

/// Which total-ordering engine a group runs behind the OrderingPolicy seam
/// (src/ftmp/ordering.hpp, docs/ORDERING.md).
enum class OrderingMode {
  /// ROMP's Lamport rule with prompt acknowledgement: delivery waits for a
  /// timestamp bound from every member, but a member counts its own bound
  /// at its clock while none of its reliable messages is in flight, and
  /// acks another member's ordered message within kAckDelay
  /// (group_session.hpp) instead of at its next heartbeat.
  kLamport,
  /// LLFT-style leader-stamped ordering: the view's smallest-id live
  /// member assigns delivery slots via OrderInfo grants; followers deliver
  /// in granted order and verify gaps through RMP retransmission. Leader
  /// failure reconciles through the PGMP install path.
  kLlft,
  /// The paper's ROMP exactly (§5-6): a member's own bound is its last
  /// looped-back message, and idle members advance bounds only with their
  /// periodic heartbeat.
  kLamportPaper,
};

[[nodiscard]] constexpr const char* to_string(OrderingMode m) {
  switch (m) {
    case OrderingMode::kLlft:
      return "llft";
    case OrderingMode::kLamportPaper:
      return "lamport-paper";
    default:
      return "lamport";
  }
}

/// Parses "lamport" / "llft" / "lamport-paper"; returns false (and leaves
/// `out` alone) on anything else.
[[nodiscard]] bool parse_ordering_mode(const char* s, OrderingMode& out);

/// Stack-wide configuration, fixed at construction.
struct Config {
  /// A processor multicasts a Heartbeat to a group if it has not multicast
  /// a Regular message within this period (§5). "The choice of the
  /// heartbeat interval is a compromise between message latency and network
  /// traffic" — bench E3 sweeps it.
  Duration heartbeat_interval = 10 * kMillisecond;

  /// Minimum spacing between successive RetransmitRequests for the same
  /// missing block (rate-limits NACKs while a retransmission is in flight).
  Duration nack_interval = 5 * kMillisecond;

  /// A member that has not been heard from for this long is suspected of
  /// having crashed (PGMP fault detector, driven by heartbeat receipt). The
  /// default is five heartbeat intervals: an idle member heartbeats every
  /// heartbeat_interval, so one that misses five is suspected.
  /// The detector counts silence only while it runs: a driver must tick at
  /// least every heartbeat_interval, and silence inside a longer gap
  /// between two ticks (a stalled or descheduled process) is not counted.
  /// Other windows scale with it: lame-duck heartbeats, rebind retirement
  /// and deferred purges of a removed member's stored messages last
  /// 4 × fault_timeout (200 ms by default); stranding self-eviction and a
  /// sponsor giving up on a join come after 10 × fault_timeout (500 ms).
  Duration fault_timeout = 50 * kMillisecond;

  /// When true (paper behaviour, §5), *any* processor holding a message may
  /// answer a RetransmitRequest for it; when false only the original source
  /// retransmits. Ablation D4 (bench E4).
  bool any_holder_retransmit = true;

  /// Timestamp source: pure Lamport counters (paper default) or simulated
  /// synchronized clocks (§6's GPS option; bench E8).
  TimestampSource::Mode clock_mode = TimestampSource::Mode::kLamport;

  /// Per-processor clock skew applied in kSynchronized mode (models NTP/GPS
  /// residual error).
  Duration clock_skew = 0;

  /// Byte order used for this stack's outgoing messages. Either order is
  /// accepted on input (receiver-makes-right).
  ByteOrder byte_order = ByteOrder::kBig;

  /// Hard cap on buffered out-of-order messages per source, a defence
  /// against pathological senders; 0 = unlimited.
  std::size_t max_out_of_order_buffer = 0;

  /// Regular payloads larger than this are transparently fragmented into
  /// several Regular messages and reassembled in delivery order
  /// (fragment.hpp); 0 disables fragmentation. The default keeps each
  /// datagram under the ~64 KiB UDP limit with protocol headroom.
  std::size_t max_regular_payload = 60000;

  /// When false, ROMP stability never releases RMP's retransmission
  /// buffers — the "no buffer management" ablation of bench E7 (§6's ack
  /// timestamps are exactly what makes reclamation safe).
  bool stability_gc = true;

  // ---- flow control & backpressure (docs/FLOW.md, bench E11) ----

  /// Stability-driven send window: at most this many of this sender's own
  /// Regular messages may be multicast-but-unstable at once; further sends
  /// are parked in a bounded FIFO and released as stability advances.
  /// 0 disables the window entirely (default — no behaviour change).
  /// Requires stability_gc: with reclamation off nothing ever leaves the
  /// window and parked sends would wait forever.
  std::size_t flow_window_messages = 0;

  /// Byte companion to flow_window_messages: sends also park while the
  /// sender's unstable encoded bytes exceed this. 0 = no byte bound. At
  /// least one message is always admitted, so a payload larger than the
  /// bound cannot deadlock.
  std::size_t flow_window_bytes = 0;

  /// Capacity of the parked-send FIFO. A send arriving with the queue at
  /// capacity is dropped, counted (ftmp_flow_send_queue_dropped_total),
  /// and reported as SendStatus::kRejected. 0 = unlimited.
  /// The group counts as congested from the park that reaches 3/4 of it
  /// until the release that reaches 1/4 (Stack::connection_congested; the
  /// ORB defers new client requests in between).
  std::size_t flow_send_queue_limit = 1024;

  // ---- egress batching (docs/BATCHING.md, docs/WIRE.md) ----

  /// Egress batching: pack multiple outgoing FTMP messages addressed to the
  /// same multicast group into one wire datagram (length-prefixed
  /// sub-frames behind an "FTMB" envelope) up to this byte budget.
  /// Retransmissions batch too — §5's identity rule holds per sub-frame —
  /// and a heartbeat staged alongside data rides the data-bearing datagram.
  /// 0 disables batching entirely (default — wire format unchanged).
  std::size_t batch_max_datagram_bytes = 0;

  /// Micro-flush timer for open batches, in microseconds: a batch that is
  /// not yet full is emitted once it has been open this long, bounding the
  /// extra latency batching adds at low rates. 0 = flush at every driver
  /// drain (batching then only coalesces messages staged within one event-
  /// loop step). Under kLlft only the leader's data-bearing batches wait
  /// for it; every other member flushes them at every drain, as with 0
  /// (docs/BATCHING.md).
  /// Effective resolution is the driver's drain cadence (the sim harness
  /// and UDP driver both drain at least once per tick).
  std::uint64_t batch_flush_us = 500;

  // ---- state transfer (docs/RECOVERY.md) ----

  /// Snapshot bytes per StateChunk. Chunks are idempotent by
  /// (view_ts, chunk_seq), so a resumed transfer re-streams only what the
  /// joiner still misses.
  std::size_t state_chunk_bytes = 8192;

  /// Request-driven flow control: the donor answers one StateRequest with
  /// at most this many chunks; the joiner's next cumulative request clocks
  /// the next window.
  std::size_t state_window_chunks = 4;

  /// Joiner side: spacing between StateRequests while a transfer is
  /// outstanding (also the retry/resume cadence after donor silence).
  Duration state_request_interval = 20 * kMillisecond;

  // ---- ordering engine (docs/ORDERING.md) ----

  /// Total-order engine for every group on this stack. The default is
  /// Lamport ROMP with prompt acknowledgement; kLamportPaper is the
  /// paper's rule, pinned byte-identical to the pre-seam stack by
  /// tests/ftmp/ordering_equivalence_test.cpp; kLlft trades the
  /// stability round for leader-stamped delivery (lower latency, leader
  /// reconciliation on failure).
  OrderingMode ordering_mode = OrderingMode::kLamport;
};

}  // namespace ftcorba::ftmp
