// state_transfer.hpp — post-heal state reconciliation layered above PGMP
// view installs (docs/RECOVERY.md).
//
// The paper's §7 virtual-synchrony install points give every surviving
// member a common cut: when an install admits a new or rejoining member,
// each survivor snapshots its application state AT the install event, and
// the smallest-id surviving holder (the donor) streams the snapshot to the
// joiner as chunked, request-clocked StateChunk messages over the existing
// reliable channel. The joiner buffers concurrently ordered messages during
// the transfer and applies snapshot -> buffered suffix -> live traffic, so
// catch-up costs O(snapshot + window), not O(run length).
//
// Robustness to the protocol's own faults:
//   - chunks are idempotent by (view_ts, chunk_seq); the joiner's cumulative
//     StateRequest doubles as the resume offset, so a donor crash just
//     re-elects the next surviving holder and resumes mid-stream;
//   - if no holder survives a later view change, the joiner re-anchors the
//     whole transfer at the new install's cut (survivors snapshot at every
//     install while anyone is still catching up);
//   - after every heal members exchange rolling state digests (anti-entropy):
//     equal fingerprints (cut positions) must carry equal digests.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/metrics.hpp"
#include "ft/replication.hpp"
#include "ftmp/events.hpp"
#include "ftmp/stack.hpp"

namespace ftcorba::ft {

/// Snapshot bytes per StateChunk. Chunks are idempotent by
/// (view_ts, chunk_seq), so a resumed transfer re-streams only what the
/// joiner still misses.
inline constexpr std::size_t kStateChunkBytes = 8192;

/// Request-driven flow control: the donor answers one StateRequest with at
/// most this many chunks; the joiner's next cumulative request clocks the
/// next window.
inline constexpr std::uint32_t kStateWindowChunks = 4;

/// Joiner side: spacing between StateRequests while a transfer is
/// outstanding (also the retry/resume cadence after donor silence).
inline constexpr Duration kStateRequestInterval = 20 * kMillisecond;

/// Application state that can be checkpointed at a virtual-synchrony cut
/// and restored wholesale on a catching-up member.
class Checkpointable {
 public:
  virtual ~Checkpointable() = default;

  /// Serializes the complete application state. Must be deterministic:
  /// members at the same cut produce byte-identical snapshots.
  [[nodiscard]] virtual Bytes snapshot() const = 0;

  /// Replaces the state from a snapshot.
  virtual void restore(BytesView snapshot) = 0;
};

/// FNV-1a/64 over a byte range (snapshot and payload hashing).
[[nodiscard]] std::uint64_t state_fnv1a64(BytesView data);

/// One step of the rolling, order-sensitive state digest: folds an applied
/// message (source, seq, payload hash) into the chain. Members that applied
/// the same messages in the same order hold the same digest.
[[nodiscard]] std::uint64_t state_digest_mix(std::uint64_t digest,
                                             std::uint32_t source, SeqNum seq,
                                             std::uint64_t payload_hash);

/// Counters pinned by the integration tests and surfaced by chaos campaigns.
/// Each Counter also adds to the process-global ftmp_ft_state_* counter of
/// its name; the plain tallies are this manager's alone.
struct StateTransferStats {
  metrics::Counter transfers_completed;
  metrics::Counter transfers_resumed;    ///< donor re-elected, chunk offset kept
  metrics::Counter transfers_restarted;  ///< re-anchored at a newer view cut
  std::uint64_t snapshots_taken = 0;
  metrics::Counter chunks_sent;
  std::uint64_t chunks_received = 0;
  metrics::Counter bytes_sent;
  std::uint64_t bytes_received = 0;       ///< snapshot bytes this joiner received
  std::uint64_t messages_buffered = 0;    ///< ordered messages parked during transfer
  metrics::Counter messages_replayed;    ///< buffered suffix applied after restore
  std::uint64_t snapshot_verify_failures = 0;
  metrics::Counter digest_mismatches;    ///< anti-entropy alarms observed
};

/// Drives state transfer for one member of one processor group. The owner
/// feeds every upward Stack event through on_event (in take_events order —
/// that order IS the total order the cut is defined on) and calls tick
/// alongside the stack's own ticks. Regular deliveries reach the
/// application only through this manager: live and replayed messages go
/// through the ApplyFn; messages ordered during a transfer are buffered.
class StateTransferManager {
 public:
  /// Applies one delivered message to the application (servant apply,
  /// message-log append, trace records...). Called for live traffic and,
  /// after a snapshot restore, for the buffered suffix.
  using ApplyFn = std::function<void(TimePoint, const ftmp::DeliveredMessage&)>;

  /// Observes every StateDigest this member multicasts (fingerprint,
  /// digest) — the chaos trace/checker tap.
  using DigestFn = std::function<void(TimePoint, std::uint64_t fingerprint,
                                      std::uint64_t digest)>;

  StateTransferManager(ProcessorId self, ProcessorGroupId group,
                       ftmp::Stack& stack, Checkpointable& state, ApplyFn apply);

  void set_digest_hook(DigestFn hook) { digest_hook_ = std::move(hook); }

  /// Consumes one upward Stack event (call for every event, in order).
  void on_event(TimePoint now, const ftmp::Event& event);

  /// Timer work: StateRequest retry/resume cadence, snapshot TTL GC,
  /// periodic anti-entropy digests.
  void tick(TimePoint now);

  /// Multicasts a StateDigest immediately (the periodic tick cadence does
  /// this on its own; callers use this to pin a final digest exchange at a
  /// known point, e.g. the chaos engine's end-of-campaign probe).
  void publish_digest(TimePoint now) { send_digest(now); }

  /// False while this member is catching up (snapshot transfer + suffix
  /// replay not yet finished).
  [[nodiscard]] bool caught_up() const { return !catchup_.has_value(); }

  /// Rolling order-sensitive digest over every message applied here.
  [[nodiscard]] std::uint64_t digest() const { return digest_; }

  /// Position identifier: hash over the sorted per-source applied-seq
  /// high-water marks (zero entries excluded).
  [[nodiscard]] std::uint64_t fingerprint() const;

  [[nodiscard]] const StateTransferStats& stats() const { return stats_; }

  /// Snapshots currently retained for catching-up members (tests).
  [[nodiscard]] std::size_t retained_snapshots() const { return snapshots_.size(); }

 private:
  /// A snapshot retained on a (potential) donor, keyed by the install
  /// timestamp of its cut.
  struct Snapshot {
    Bytes bytes;
    std::uint64_t snapshot_digest = 0;
    std::uint64_t cut_digest = 0;
    std::vector<ftmp::SourceSeq> cut_seqs;
    std::vector<ProcessorId> holders;   ///< survivors at the cut (sorted)
    std::set<std::uint32_t> interested; ///< joiners not yet completed
    TimePoint created_at = 0;
    std::uint32_t total_chunks = 1;
  };

  /// This member's own catch-up, while it is the joiner.
  struct CatchUp {
    Timestamp view_ts = 0;               ///< anchor: admitting install's ts
    std::vector<ProcessorId> holders;    ///< live snapshot holders
    std::vector<std::optional<Bytes>> chunks;
    std::uint32_t total_chunks = 0;      ///< 0 until the first chunk arrives
    std::uint32_t next_chunk = 0;        ///< cumulative: first chunk missing
    std::uint32_t last_requested = 0;    ///< next_chunk of the last request
    std::uint64_t snapshot_digest = 0;
    std::uint64_t cut_digest = 0;
    std::vector<ftmp::SourceSeq> cut_seqs;
    TimePoint last_request_at = -1;
    std::deque<ftmp::Event> buffered;    ///< ordered events parked until restore
  };

  void apply_one(TimePoint now, const ftmp::DeliveredMessage& msg);
  void prune_for_install(const ftmp::MembershipChanged& change);
  void on_install(TimePoint now, const ftmp::MembershipChanged& change);
  void begin_catchup(TimePoint now, const ftmp::MembershipChanged& change);
  void take_snapshot(TimePoint now, const ftmp::MembershipChanged& change);
  void on_state(TimePoint now, const ftmp::StateMessage& msg);
  void on_request(TimePoint now, ProcessorId from, const ftmp::StateRequestBody& req);
  void on_chunk(TimePoint now, const ftmp::StateChunkBody& chunk);
  void on_peer_digest(TimePoint now, ProcessorId from, const ftmp::StateDigestBody& body);
  void maybe_finish(TimePoint now);
  void send_request(TimePoint now);
  void send_digest(TimePoint now);
  [[nodiscard]] bool is_donor(const Snapshot& snap) const;

  ProcessorId self_;
  ProcessorGroupId group_;
  ftmp::Stack& stack_;
  Checkpointable& state_;
  ApplyFn apply_;
  DigestFn digest_hook_;

  std::map<std::uint64_t, Snapshot> snapshots_;  ///< view_ts -> snapshot
  std::set<std::uint32_t> catching_up_;          ///< members mid-transfer
  std::optional<CatchUp> catchup_;
  std::map<std::uint32_t, SeqNum> applied_hw_;   ///< source -> applied seq hw
  std::uint64_t digest_ = 0;
  std::vector<ProcessorId> members_;             ///< current membership
  TimePoint last_digest_sent_ = -1;
  bool live_ = false;  ///< a membership is installed and we are caught up

  StateTransferStats stats_;
};

}  // namespace ftcorba::ft
