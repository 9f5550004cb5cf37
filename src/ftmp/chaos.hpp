// chaos.hpp — deterministic chaos campaigns over the simulated FTMP fleet.
//
// A campaign is a pure function of its seed: the seed generates a
// declarative fault schedule (correlated loss bursts, asymmetric one-way
// partitions, symmetric partitions, membership flapping, delay storms,
// slow links, crash-restart; with spare processors also planned joins,
// planned leaves and address rebinds), the schedule is applied to a
// SimHarness fleet step by step, and seven invariant checkers run
// continuously:
//
//   1. total order     — every member delivers a prefix-consistent view of
//                        one committed ledger per group;
//   2. view agreement  — members installing a membership at the same
//                        timestamp install the same member list, and each
//                        incarnation's view timestamps only move forward;
//   3. no dup/skip     — no (source, seq, ts) delivered twice to one
//                        incarnation, no gap inside an incarnation;
//   4. §5 retransmit   — a retransmission is byte-identical to the original
//                        except the retransmission flag (checked from a
//                        wire tap against the golden header offsets);
//   5. primary rule    — two concurrently active memberships of one group
//                        always intersect (no split brain);
//   6. flow balance    — flow windows/queues respect their configured
//                        bounds and no process-wide gauge goes negative;
//   7. state convergence — after every heal, members' rolling state digests
//                        (ft::StateTransferManager anti-entropy) agree at
//                        equal fingerprints, and the quiesced fleet ends at
//                        one common (fingerprint, digest).
//
// Checkers 1–3 and 7 are replayable offline from a recorded campaign trace
// (`ftmp_inspect --invariants`); 4–6 need the live wire/sessions and run
// online only. On violation the campaign reports the seed, the schedule,
// and the offending step so one command reproduces the run bit-for-bit.
//
// Crash-restart is a real restart: the victim loses all volatile state,
// reloads its durable message log (ft::PersistentLog) — verified against
// what the engine recorded before the crash — and re-enters the group
// through PGMP re-admission (expect_join + a sponsor's AddProcessor).
// Churn events (joins, leaves, rebinds, spare crashes) wait for the first
// step at which the group is quiescent: no member of the view is down and
// every live member has installed it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "ftmp/config.hpp"

namespace ftcorba::ftmp::chaos {

/// FNV-1a 64-bit — the hash used for payload identity in traces/digests.
[[nodiscard]] constexpr std::uint64_t fnv1a64(const std::uint8_t* data,
                                              std::size_t n,
                                              std::uint64_t h = 0xcbf29ce484222325ull) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// ---- fault schedule ---------------------------------------------------------

enum class FaultKind : std::uint8_t {
  kLossBurst,          ///< Gilbert–Elliott burst loss on links out of a set.
  kOneWayPartition,    ///< Directed blocks from cell A toward cell B.
  kSymmetricPartition, ///< set_partition({A}) — rest of fleet is the other cell.
  kFlap,               ///< One member repeatedly isolated in sub-timeout pulses.
  kDelayStorm,         ///< Large delay + jitter on links out of a set.
  kSlowLink,           ///< One directed link degraded (delay + mild loss).
  // Every kind from here on acts on processors, not on the network.
  kCrashRestart,       ///< Fail-stop crash, later restart + log replay + rejoin.
  // Churn (ScheduleParams::spares > 0), applied only while the group is
  // quiescent:
  kJoin,               ///< A spare is admitted: expect_join + a sponsor's Add.
  kLeave,              ///< A sponsor removes a spare; its session is dropped.
  kRebind,             ///< A sponsor moves the group to a fresh address.
};

[[nodiscard]] const char* to_string(FaultKind k);

/// One scheduled fault. Active during [at, at+duration); kCrashRestart
/// crashes at `at` and restarts at `at+duration`. Joins, leaves and
/// rebinds are instantaneous (duration 0); a rebind names no processor.
struct Fault {
  FaultKind kind{};
  TimePoint at = 0;
  Duration duration = 0;
  std::vector<ProcessorId> a;  ///< subject cell / victim (kind-dependent)
  std::vector<ProcessorId> b;  ///< target cell (kOneWayPartition only)
  double loss = 0.0;           ///< good-state loss (kLossBurst, kSlowLink)
  double burst_loss = 0.0;     ///< bad-state loss (kLossBurst)
  double burst_enter = 0.0;
  double burst_exit = 0.0;
  Duration delay = 0;          ///< extra delay (kDelayStorm, kSlowLink)
  Duration jitter = 0;
  Duration flap_period = 0;    ///< isolation pulse width (kFlap)

  /// One-line rendering in the schedule grammar (docs/CHAOS.md).
  [[nodiscard]] std::string describe() const;
};

/// Knobs of the schedule generator.
struct ScheduleParams {
  std::uint32_t processors = 6;       ///< founders P1..Pn
  Duration duration = 30 * kSecond;   ///< simulated campaign length
  std::size_t faults = 10;            ///< scheduled network and crash faults
  /// Spares P(n+1)..P(n+spares) start outside the group. When > 0 the
  /// schedule also holds a churn stream, drawn after the faults from its
  /// own RNG split: joins and leaves of spares, spare crash-restarts and
  /// address rebinds. The faults themselves never name a spare.
  std::uint32_t spares = 0;
};

/// A generated schedule: `faults` sorted by activation time.
struct Schedule {
  std::uint64_t seed = 0;
  ScheduleParams params;
  std::vector<Fault> faults;

  /// Full schedule in the grammar, one fault per line.
  [[nodiscard]] std::string to_string() const;
};

/// Generates the fault schedule for `seed` — pure: equal seeds and params
/// yield identical schedules.
[[nodiscard]] Schedule generate_schedule(std::uint64_t seed,
                                         const ScheduleParams& params);

// ---- invariants -------------------------------------------------------------

enum class InvariantKind : std::uint8_t {
  kTotalOrder,
  kViewAgreement,
  kDuplicateDelivery,
  kRetransmitIdentity,
  kPrimaryExclusivity,
  kFlowBalance,
  kStateConvergence,  ///< equal state fingerprints must carry equal digests
};

[[nodiscard]] const char* to_string(InvariantKind k);

/// One detected violation.
struct Violation {
  InvariantKind kind{};
  TimePoint at = 0;
  ProcessorId processor{};
  std::string detail;
};

/// A Regular delivery as recorded in a campaign trace (`D` record).
struct DeliveryRecord {
  TimePoint at = 0;
  std::uint32_t proc = 0;
  std::uint32_t group = 0;
  std::uint32_t source = 0;
  std::uint64_t seq = 0;
  std::uint64_t ts = 0;
  std::uint64_t hash = 0;  ///< fnv1a64 of the GIOP payload
};

/// A membership install as recorded in a campaign trace (`V` record).
struct ViewRecord {
  TimePoint at = 0;
  std::uint32_t proc = 0;
  std::uint32_t group = 0;
  std::uint64_t view_ts = 0;
  std::vector<std::uint32_t> members;
};

/// A state-digest broadcast as recorded in a campaign trace (`S` record,
/// chaos-trace v2): the fingerprint identifies the member's applied
/// position, the digest its order-sensitive rolling state hash
/// (ft::StateTransferManager, docs/RECOVERY.md).
struct StateDigestRecord {
  TimePoint at = 0;
  std::uint32_t proc = 0;
  std::uint32_t group = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t digest = 0;
};

/// The replayable invariant core: total order, view agreement, no
/// duplicate/skipped delivery. Fed online by the campaign engine and
/// offline by the trace replayer — identical verdicts either way.
///
/// Model: per group a committed ledger, extended by whichever processor
/// delivers a position first. Every processor incarnation (a restart or a
/// drop+rejoin starts a new one, signalled via on_reset) holds a cursor
/// into the ledger; its deliveries must match the ledger at the cursor.
/// A fresh incarnation may skip forward (virtual synchrony admits it at
/// the join cut) but must be contiguous from its first delivery on.
///
/// Virtual synchrony exception: a processor partitioned into a minority
/// may deliver messages (fully ordered before the partition) that no
/// survivor ever received; the primary's install cut excludes them. When
/// a new view excludes processors, the longest ledger suffix delivered
/// ONLY by the excluded processors is an abandoned fork: it is truncated,
/// and the forked processors' deliveries are ignored until they reset
/// (drop + rejoin), exactly as the application abandons a removed
/// replica's divergent tail on re-admission. A suffix entry corroborated
/// by any surviving member is never truncated — disagreement among
/// survivors is always a violation.
class InvariantChecker {
 public:
  void on_delivery(const DeliveryRecord& d);
  void on_view(const ViewRecord& v);
  /// Records a member's state-digest broadcast. Digests of forked members
  /// (abandoned-minority tails) are ignored until their reset, like their
  /// deliveries.
  void on_state_digest(const StateDigestRecord& s);
  /// Starts a new incarnation of `proc` (restart or drop+rejoin).
  void on_reset(std::uint32_t proc);
  /// End of the observation window: order conflicts still parked waiting
  /// for a view install that never came become violations, and the final
  /// state digests are checked for convergence (two members whose last
  /// broadcasts share a fingerprint must share the digest). Call once,
  /// after the last record.
  void finalize();

  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::uint64_t deliveries_checked() const { return deliveries_; }

 private:
  struct LedgerEntry {
    std::uint32_t source;
    std::uint64_t seq;
    std::uint64_t ts;
    std::uint64_t hash;
    std::set<std::uint32_t> deliverers;  ///< every proc that delivered it
  };
  struct Cursor {
    std::size_t next = 0;     ///< next ledger index this incarnation expects
    bool synced = false;      ///< false until the incarnation's first delivery
  };

  void flag(InvariantKind kind, TimePoint at, std::uint32_t proc,
            std::string detail);
  void check_order(const DeliveryRecord& d, bool may_park);
  void drain_pending(std::uint32_t group, bool force);

  std::map<std::uint32_t, std::vector<LedgerEntry>> ledgers_;  // group -> ledger
  // (group, proc) -> cursor; reset via epoch bumps.
  std::map<std::pair<std::uint32_t, std::uint32_t>, Cursor> cursors_;
  std::map<std::uint32_t, std::uint32_t> epochs_;  // proc -> incarnation
  // (group, proc, epoch) -> delivered (source, seq, ts) set for dup checks.
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>,
           std::set<std::tuple<std::uint32_t, std::uint64_t, std::uint64_t>>>
      delivered_;
  // (group, view_ts) -> member list agreed so far.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::vector<std::uint32_t>>
      views_;
  // (group, proc) -> last installed view_ts in the current epoch.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> last_view_;
  // group -> (highest view_ts installed anywhere, its member set). Drives
  // abandoned-fork truncation: a member excluded by the newest view may
  // hold deliveries nobody else ever corroborates.
  std::map<std::uint32_t, std::pair<std::uint64_t, std::set<std::uint32_t>>>
      newest_view_;
  // (group, proc): proc delivered an abandoned fork of group's ledger (it
  // was partitioned out past the cut). Its deliveries are ignored until its
  // next on_reset (drop + rejoin or restart).
  std::set<std::pair<std::uint32_t, std::uint32_t>> forked_;
  // (group, proc) -> deliveries that conflicted with the committed order.
  // An install's remainder is delivered before its MembershipChanged (the
  // remainder belongs to the old view), so a survivor's first post-cut
  // deliveries can conflict with an abandoned fork the upcoming view
  // install is about to truncate: park them and re-check at the next view
  // record. Conflicts still parked at finalize()/reset are violations.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<DeliveryRecord>>
      pending_;
  // (group, proc) -> the member's most recent state-digest broadcast;
  // checked for pairwise convergence at finalize().
  std::map<std::pair<std::uint32_t, std::uint32_t>, StateDigestRecord>
      last_digest_;
  std::vector<Violation> violations_;
  std::uint64_t deliveries_ = 0;
};

// ---- campaign ---------------------------------------------------------------

struct CampaignConfig {
  std::uint64_t seed = 1;
  ScheduleParams params;
  /// Path to write the campaign trace to ("" = no trace file).
  std::string trace_path;
  /// Directory for the per-processor persistent logs ("" = a fresh
  /// directory under the system temp dir, removed again on success).
  std::string log_dir;
  /// Print progress and fault applications to stdout.
  bool verbose = false;
  /// Forces egress batching on every stack in the fleet with this byte
  /// budget (Config::batch_max_datagram_bytes); 0 leaves batching off.
  /// The wire-tap §5 identity checker understands FTMB sub-frames either
  /// way, so campaigns exercise the batched wire format under faults.
  std::size_t batch_max_datagram_bytes = 0;
  /// Total-ordering engine for every stack in the fleet (ordering.hpp);
  /// recorded in the trace header so offline replay knows the mode.
  OrderingMode ordering_mode = OrderingMode::kLamport;
};

struct CampaignResult {
  std::uint64_t seed = 0;
  Schedule schedule;
  std::vector<Violation> violations;
  /// fnv1a64 over every delivery and view record, in order — the
  /// determinism fingerprint (`--repeat` compares digests across runs).
  std::uint64_t digest = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t faults_applied = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t joins = 0;    ///< spares admitted by churn joins
  std::uint64_t leaves = 0;   ///< spares removed by churn leaves
  std::uint64_t rebinds = 0;  ///< group address changes
  std::uint64_t checker_steps = 0;
  /// State-transfer traffic across the fleet (ft::StateTransferManager).
  std::uint64_t state_transfers = 0;       ///< catch-ups completed
  std::uint64_t state_resumes = 0;         ///< donor-crash mid-transfer resumes
  std::uint64_t state_restarts = 0;        ///< transfers re-anchored at a newer cut
  std::uint64_t state_digest_mismatches = 0;  ///< anti-entropy alarms observed
  bool converged = false;  ///< fleet reached one common membership at the end
  bool log_replay_ok = true;  ///< every restart reloaded its pre-crash log
  /// Every member ended caught up, at one common state fingerprint AND one
  /// common rolling digest (post-heal anti-entropy convergence).
  bool state_converged = false;

  [[nodiscard]] bool ok() const {
    return violations.empty() && converged && log_replay_ok && state_converged;
  }
};

/// Runs one campaign. Deterministic: equal configs produce equal results
/// (digest included). Never throws on protocol misbehavior — that becomes
/// a Violation; throws only on environmental failure (unwritable paths).
[[nodiscard]] CampaignResult run_campaign(const CampaignConfig& cfg);

/// The chaos_campaign command line that re-runs `cfg` verbosely, with a
/// trace (chaos_campaign's failure hint and ftmp_inspect's replay hint).
[[nodiscard]] std::string repro_command(const CampaignConfig& cfg);

// ---- trace replay -----------------------------------------------------------

/// Result of replaying a recorded campaign trace offline.
struct TraceReplay {
  bool parsed = false;        ///< header and every record were well formed
  std::string parse_error;
  std::uint32_t version = 0;  ///< trace format version from the header
  /// The run the header records: its seed, its ordering engine
  /// (kLamportPaper when absent — such traces predate the seam and ran the
  /// paper's Lamport rule) and, when `shape_recorded`, its processors,
  /// duration, faults, spares and batch budget.
  CampaignConfig run;
  bool shape_recorded = false;
  std::uint64_t records = 0;  ///< D/V/R/S records replayed
  std::vector<Violation> violations;
};

/// Re-runs the replayable checkers (total order, view agreement, dup/skip,
/// state-digest convergence) over a trace written by run_campaign.
/// Accepts both v1 traces (no S records) and v2 traces. Malformed input
/// yields parsed == false and a parse_error; it never throws.
[[nodiscard]] TraceReplay replay_trace(std::istream& in);
[[nodiscard]] TraceReplay replay_trace_file(const std::string& path);

}  // namespace ftcorba::ftmp::chaos
