#include "ftmp/chaos.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdarg>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string_view>

#include "common/codec.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "ft/persistent_log.hpp"
#include "ft/state_transfer.hpp"
#include "ftmp/sim_harness.hpp"
#include "ftmp/wire.hpp"

namespace ftcorba::ftmp::chaos {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kLossBurst: return "loss-burst";
    case FaultKind::kOneWayPartition: return "oneway-partition";
    case FaultKind::kSymmetricPartition: return "partition";
    case FaultKind::kFlap: return "flap";
    case FaultKind::kDelayStorm: return "delay-storm";
    case FaultKind::kSlowLink: return "slow-link";
    case FaultKind::kCrashRestart: return "crash-restart";
    case FaultKind::kJoin: return "join";
    case FaultKind::kLeave: return "leave";
    case FaultKind::kRebind: return "rebind";
  }
  return "?";
}

const char* to_string(InvariantKind k) {
  switch (k) {
    case InvariantKind::kTotalOrder: return "total-order";
    case InvariantKind::kViewAgreement: return "view-agreement";
    case InvariantKind::kDuplicateDelivery: return "duplicate-delivery";
    case InvariantKind::kRetransmitIdentity: return "retransmit-identity";
    case InvariantKind::kPrimaryExclusivity: return "primary-exclusivity";
    case InvariantKind::kFlowBalance: return "flow-balance";
    case InvariantKind::kStateConvergence: return "state-convergence";
  }
  return "?";
}

namespace {

std::string cell_to_string(const std::vector<ProcessorId>& cell) {
  std::string out = "{";
  for (std::size_t i = 0; i < cell.size(); ++i) {
    if (i) out += ",";
    out += to_string(cell[i]);
  }
  return out + "}";
}

double ms(Duration d) { return double(d) / kMillisecond; }

}  // namespace

std::string Fault::describe() const {
  char buf[256];
  std::string line;
  std::snprintf(buf, sizeof buf, "%-17s @%-8.0fms for %-6.0fms a=%s",
                to_string(kind), ms(at), ms(duration), cell_to_string(a).c_str());
  line = buf;
  if (!b.empty()) line += " b=" + cell_to_string(b);
  switch (kind) {
    case FaultKind::kLossBurst:
      std::snprintf(buf, sizeof buf, " burst=%.2f enter=%.2f exit=%.2f",
                    burst_loss, burst_enter, burst_exit);
      line += buf;
      break;
    case FaultKind::kDelayStorm:
    case FaultKind::kSlowLink:
      std::snprintf(buf, sizeof buf, " delay=%.1fms jitter=%.1fms loss=%.2f",
                    ms(delay), ms(jitter), loss);
      line += buf;
      break;
    case FaultKind::kFlap:
      std::snprintf(buf, sizeof buf, " period=%.0fms", ms(flap_period));
      line += buf;
      break;
    default:
      break;
  }
  return line;
}

std::string Schedule::to_string() const {
  std::ostringstream out;
  out << "schedule seed=" << seed << " procs=" << params.processors
      << " duration=" << ms(params.duration) << "ms faults=" << faults.size();
  if (params.spares > 0) out << " spares=" << params.spares;
  out << "\n";
  for (const Fault& f : faults) out << "  " << f.describe() << "\n";
  return out.str();
}

// ---- schedule generation ----------------------------------------------------

namespace {

// The churn stream: one join or leave per kChurnSpacing of usable time,
// plus the soak's two rebinds and three spare crash-restarts.
constexpr Duration kChurnSpacing = 250 * kMillisecond;
constexpr std::size_t kChurnRebinds = 2;
constexpr std::size_t kChurnCrashes = 3;

/// Picks `k` distinct processors (ascending ids) from P1..Pn, excluding any
/// in `taken`.
std::vector<ProcessorId> pick_cell(Rng& rng, std::uint32_t procs, std::size_t k,
                                   const std::vector<ProcessorId>& taken = {}) {
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t i = 1; i <= procs; ++i) {
    bool is_taken = false;
    for (ProcessorId t : taken) is_taken = is_taken || t.raw() == i;
    if (!is_taken) candidates.push_back(i);
  }
  std::vector<ProcessorId> out;
  for (std::size_t j = 0; j < k && !candidates.empty(); ++j) {
    const std::size_t idx = rng.next_below(candidates.size());
    out.push_back(ProcessorId{candidates[idx]});
    candidates.erase(candidates.begin() + std::ptrdiff_t(idx));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

Schedule generate_schedule(std::uint64_t seed, const ScheduleParams& params) {
  Schedule sched;
  sched.seed = seed;
  sched.params = params;
  Rng rng = Rng(seed).split(0xC4A05u);  // independent of every runtime stream
  const std::uint32_t n = std::max<std::uint32_t>(3, params.processors);
  // Leave a settle-in head and a healing tail free of new faults.
  const Duration head = 1 * kSecond;
  const Duration usable =
      params.duration > head + 3 * kSecond ? params.duration - head - 3 * kSecond
                                           : 1 * kSecond;
  // At most one crash-restart per ~3 processors keeps a quorum plausible
  // even with overlapping faults (the engine still guards at runtime).
  const std::size_t max_crashes = std::max<std::size_t>(1, n / 3);
  std::size_t crashes = 0;

  for (std::size_t i = 0; i < params.faults; ++i) {
    Fault f;
    f.at = head + Duration(rng.next_below(std::uint64_t(usable)));
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 18) {
      f.kind = FaultKind::kLossBurst;
      f.a = pick_cell(rng, n, 1 + rng.next_below(2));
      f.loss = 0.02;
      f.burst_loss = 0.60 + double(rng.next_below(30)) / 100.0;
      f.burst_enter = 0.05 + double(rng.next_below(15)) / 100.0;
      f.burst_exit = 0.15 + double(rng.next_below(20)) / 100.0;
      f.duration = (500 + Duration(rng.next_below(2000))) * kMillisecond;
    } else if (roll < 34) {
      f.kind = FaultKind::kOneWayPartition;
      f.a = pick_cell(rng, n, 1 + rng.next_below(2));
      f.b = pick_cell(rng, n, 1 + rng.next_below(2), f.a);
      f.duration = (200 + Duration(rng.next_below(1200))) * kMillisecond;
    } else if (roll < 50) {
      f.kind = FaultKind::kSymmetricPartition;
      // Minority cell only: the rest cell keeps the primary partition.
      f.a = pick_cell(rng, n, 1 + rng.next_below(std::max<std::uint64_t>(1, n / 2 - 1)));
      f.duration = (300 + Duration(rng.next_below(1500))) * kMillisecond;
    } else if (roll < 62) {
      f.kind = FaultKind::kFlap;
      f.a = pick_cell(rng, n, 1);
      f.flap_period = (30 + Duration(rng.next_below(50))) * kMillisecond;
      f.duration = (300 + Duration(rng.next_below(1000))) * kMillisecond;
    } else if (roll < 74) {
      f.kind = FaultKind::kDelayStorm;
      f.a = pick_cell(rng, n, 1 + rng.next_below(2));
      f.delay = (2 + Duration(rng.next_below(10))) * kMillisecond;
      f.jitter = (5 + Duration(rng.next_below(20))) * kMillisecond;
      f.duration = (500 + Duration(rng.next_below(2000))) * kMillisecond;
    } else if (roll < 86 || crashes >= max_crashes) {
      f.kind = FaultKind::kSlowLink;
      f.a = pick_cell(rng, n, 1);
      f.b = pick_cell(rng, n, 1, f.a);
      f.delay = (1 + Duration(rng.next_below(8))) * kMillisecond;
      f.jitter = (2 + Duration(rng.next_below(10))) * kMillisecond;
      f.loss = 0.05 + double(rng.next_below(10)) / 100.0;
      f.duration = (1000 + Duration(rng.next_below(3000))) * kMillisecond;
    } else {
      f.kind = FaultKind::kCrashRestart;
      f.a = pick_cell(rng, n, 1);
      f.duration = (600 + Duration(rng.next_below(1500))) * kMillisecond;
      ++crashes;
    }
    sched.faults.push_back(std::move(f));
  }
  const auto by_time = [](const Fault& x, const Fault& y) { return x.at < y.at; };

  if (params.spares > 0) {
    // Its own split, so the faults above are the same with or without it.
    Rng churn_rng = Rng(seed).split(0x5BA4Eu);
    auto draw = [&](FaultKind kind) {
      Fault f;
      f.kind = kind;
      f.at = head + Duration(churn_rng.next_below(std::uint64_t(usable)));
      return f;
    };
    std::vector<Fault> churn;
    for (std::size_t i = 0; i < kChurnRebinds; ++i) churn.push_back(draw(FaultKind::kRebind));
    for (std::size_t i = 0; i < kChurnCrashes; ++i) {
      churn.push_back(draw(FaultKind::kCrashRestart));
      churn.back().duration = (600 + Duration(churn_rng.next_below(1500))) * kMillisecond;
    }
    for (Duration t = 0; t + kChurnSpacing <= usable; t += kChurnSpacing) {
      churn.push_back(draw(FaultKind::kJoin));
    }
    std::stable_sort(churn.begin(), churn.end(), by_time);
    // Name the spares in time order, tracking who is in the group if every
    // event applies: a join or leave toggles a random spare that is not
    // down, a crash takes one that is in (or becomes a toggle when none is)
    // and leaves it out after its restart.
    std::vector<bool> in(params.spares, false);
    std::vector<TimePoint> down_until(params.spares, 0);
    for (Fault& f : churn) {
      if (f.kind == FaultKind::kRebind) continue;
      std::vector<std::uint32_t> up, up_in;
      for (std::uint32_t s = 0; s < params.spares; ++s) {
        if (down_until[s] > f.at) continue;
        up.push_back(s);
        if (in[s]) up_in.push_back(s);
      }
      if (up.empty()) continue;  // every spare is down: dropped below
      const bool crash = f.kind == FaultKind::kCrashRestart && !up_in.empty();
      const auto& pool = crash ? up_in : up;
      const std::uint32_t s = pool[churn_rng.next_below(pool.size())];
      f.a = {ProcessorId{params.processors + 1 + s}};
      if (crash) {
        down_until[s] = f.at + f.duration;
        in[s] = false;
      } else {
        f.kind = in[s] ? FaultKind::kLeave : FaultKind::kJoin;
        f.duration = 0;
        in[s] = !in[s];
      }
    }
    std::erase_if(churn, [](const Fault& f) {
      return f.a.empty() && f.kind != FaultKind::kRebind;
    });
    sched.faults.insert(sched.faults.end(), churn.begin(), churn.end());
  }
  std::stable_sort(sched.faults.begin(), sched.faults.end(), by_time);
  return sched;
}

// ---- invariant checker ------------------------------------------------------

namespace {
constexpr std::size_t kMaxViolations = 200;  // stop accumulating past this

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  std::uint8_t bytes[8];
  std::memcpy(bytes, &v, 8);
  return fnv1a64(bytes, 8, h);
}
}  // namespace

void InvariantChecker::flag(InvariantKind kind, TimePoint at, std::uint32_t proc,
                            std::string detail) {
  if (violations_.size() >= kMaxViolations) return;
  violations_.push_back(
      Violation{kind, at, ProcessorId{proc}, std::move(detail)});
}

void InvariantChecker::on_delivery(const DeliveryRecord& d) {
  ++deliveries_;
  // A processor on an abandoned fork (partitioned out past the primary's
  // cut) keeps delivering its stale tail until the harness drops and
  // rejoins it; none of that is checkable against the committed ledger.
  if (forked_.contains({d.group, d.proc})) return;
  const std::uint32_t epoch = epochs_[d.proc];

  // No duplicate delivery within one incarnation.
  auto& seen = delivered_[{d.group, d.proc, epoch}];
  if (!seen.insert({d.source, d.seq, d.ts}).second) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "P%u delivered (src=P%u seq=%llu ts=%llu) twice",
                  d.proc, d.source, (unsigned long long)d.seq,
                  (unsigned long long)d.ts);
    flag(InvariantKind::kDuplicateDelivery, d.at, d.proc, buf);
    return;
  }

  // Order conflicts park until the next view record; while anything is
  // parked, later deliveries queue behind it to preserve delivery order.
  auto pending = pending_.find({d.group, d.proc});
  if (pending != pending_.end() && !pending->second.empty()) {
    pending->second.push_back(d);
    return;
  }
  check_order(d, /*may_park=*/true);
}

void InvariantChecker::check_order(const DeliveryRecord& d, bool may_park) {
  auto& ledger = ledgers_[d.group];
  const LedgerEntry entry{d.source, d.seq, d.ts, d.hash, {}};
  Cursor& cur = cursors_[{d.group, d.proc}];
  auto matches = [&](const LedgerEntry& e) {
    return e.source == entry.source && e.seq == entry.seq && e.ts == entry.ts;
  };

  if (!cur.synced) {
    // A fresh incarnation may resume anywhere at or past its old position
    // (virtual synchrony admits it at the join cut), then must be
    // contiguous.
    std::size_t j = cur.next;
    while (j < ledger.size() && !matches(ledger[j])) ++j;
    if (j < ledger.size()) {
      if (ledger[j].hash != entry.hash) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "payload hash mismatch at ledger[%zu] (src=P%u seq=%llu)",
                      j, d.source, (unsigned long long)d.seq);
        flag(InvariantKind::kTotalOrder, d.at, d.proc, buf);
      }
      ledger[j].deliverers.insert(d.proc);
      cur.next = j + 1;
    } else {
      ledger.push_back(entry);  // first deliverer at the frontier
      ledger.back().deliverers.insert(d.proc);
      cur.next = ledger.size();
    }
    cur.synced = true;
    return;
  }

  if (cur.next == ledger.size()) {
    ledger.push_back(entry);  // extends the committed order
    ledger.back().deliverers.insert(d.proc);
    cur.next += 1;
    return;
  }
  LedgerEntry& expected = ledger[cur.next];
  if (matches(expected)) {
    expected.deliverers.insert(d.proc);
    if (expected.hash != entry.hash) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "payload hash mismatch at ledger[%zu] (src=P%u seq=%llu)",
                    cur.next, d.source, (unsigned long long)d.seq);
      flag(InvariantKind::kTotalOrder, d.at, d.proc, buf);
    }
    cur.next += 1;
    return;
  }
  // Mismatch. It may only look like one: an install's remainder arrives
  // before its MembershipChanged record, so a survivor's post-cut stream
  // legitimately conflicts with an abandoned fork the imminent view
  // install will truncate. Park and re-check at the next view record.
  if (may_park) {
    pending_[{d.group, d.proc}].push_back(d);
    return;
  }
  // Distinguish a skip (entry appears later) from divergence.
  std::size_t j = cur.next + 1;
  while (j < ledger.size() && !matches(ledger[j])) ++j;
  char buf[256];
  if (j < ledger.size()) {
    std::snprintf(buf, sizeof buf,
                  "P%u skipped %zu committed deliveries: expected "
                  "(src=P%u seq=%llu ts=%llu) at ledger[%zu], got "
                  "(src=P%u seq=%llu ts=%llu) from ledger[%zu]",
                  d.proc, j - cur.next, expected.source,
                  (unsigned long long)expected.seq,
                  (unsigned long long)expected.ts, cur.next, d.source,
                  (unsigned long long)d.seq, (unsigned long long)d.ts, j);
    flag(InvariantKind::kTotalOrder, d.at, d.proc, buf);
    ledger[j].deliverers.insert(d.proc);
    cur.next = j + 1;
  } else {
    std::snprintf(buf, sizeof buf,
                  "P%u diverged from committed order at ledger[%zu]: expected "
                  "(src=P%u seq=%llu ts=%llu), delivered (src=P%u seq=%llu "
                  "ts=%llu) which is in nobody's ledger",
                  d.proc, cur.next, expected.source,
                  (unsigned long long)expected.seq,
                  (unsigned long long)expected.ts, d.source,
                  (unsigned long long)d.seq, (unsigned long long)d.ts);
    flag(InvariantKind::kTotalOrder, d.at, d.proc, buf);
    cur.next = ledger.size();  // resync at the frontier to limit cascades
  }
}

void InvariantChecker::drain_pending(std::uint32_t group, bool force) {
  for (auto& [key, queue] : pending_) {
    if (key.first != group || queue.empty()) continue;
    if (forked_.contains(key)) {
      queue.clear();  // abandoned fork: its conflicting tail dies with it
      continue;
    }
    std::vector<DeliveryRecord> retry;
    retry.swap(queue);
    for (std::size_t i = 0; i < retry.size(); ++i) {
      if (!queue.empty()) {
        // Re-parked: keep the remainder queued behind it, in order.
        queue.insert(queue.end(), retry.begin() + i, retry.end());
        break;
      }
      check_order(retry[i], /*may_park=*/!force);
    }
  }
}

void InvariantChecker::on_state_digest(const StateDigestRecord& s) {
  // A forked member's digests describe an abandoned tail; like its
  // deliveries, they are unchecked until it resets and rejoins.
  if (forked_.contains({s.group, s.proc})) return;
  last_digest_[{s.group, s.proc}] = s;
}

void InvariantChecker::finalize() {
  for (auto& [group, ledger] : ledgers_) drain_pending(group, /*force=*/true);
  // State convergence: among each group's final digest broadcasts, any two
  // members claiming the same applied position (fingerprint) must hold the
  // same rolling state digest — same messages, same order, same bytes.
  for (auto a = last_digest_.begin(); a != last_digest_.end(); ++a) {
    if (forked_.contains(a->first)) continue;
    for (auto b = std::next(a); b != last_digest_.end(); ++b) {
      if (b->first.first != a->first.first) break;  // map is group-major
      if (forked_.contains(b->first)) continue;
      const StateDigestRecord& x = a->second;
      const StateDigestRecord& y = b->second;
      if (x.fingerprint == y.fingerprint && x.digest != y.digest) {
        char buf[192];
        std::snprintf(buf, sizeof buf,
                      "P%u and P%u share state fingerprint %llx but report "
                      "digests %llx vs %llx",
                      x.proc, y.proc, (unsigned long long)x.fingerprint,
                      (unsigned long long)x.digest, (unsigned long long)y.digest);
        flag(InvariantKind::kStateConvergence, std::max(x.at, y.at), x.proc, buf);
      }
    }
  }
}

void InvariantChecker::on_view(const ViewRecord& v) {
  auto [it, inserted] = views_.try_emplace({v.group, v.view_ts}, v.members);
  if (!inserted && it->second != v.members) {
    std::ostringstream out;
    out << "conflicting memberships installed at view ts " << v.view_ts << ": {";
    for (std::uint32_t m : it->second) out << "P" << m << " ";
    out << "} vs {";
    for (std::uint32_t m : v.members) out << "P" << m << " ";
    out << "}";
    flag(InvariantKind::kViewAgreement, v.at, v.proc, out.str());
  }
  auto [lv, fresh] = last_view_.try_emplace({v.group, v.proc}, v.view_ts);
  if (!fresh) {
    if (v.view_ts < lv->second) {
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "P%u view timestamp moved backwards: %llu after %llu", v.proc,
                    (unsigned long long)v.view_ts, (unsigned long long)lv->second);
      flag(InvariantKind::kViewAgreement, v.at, v.proc, buf);
    }
    lv->second = std::max(lv->second, v.view_ts);
  }

  // Newest view per group; only an advance can abandon a fork (a stale
  // view reported late by a partitioned member must not truncate anything).
  auto& [newest_ts, newest_members] = newest_view_[v.group];
  const bool advances =
      v.view_ts > newest_ts || (v.view_ts == newest_ts && newest_members.empty());
  if (advances) {
    newest_ts = v.view_ts;
    newest_members = std::set<std::uint32_t>(v.members.begin(), v.members.end());

    // Every processor the new view excludes is now on an abandoned fork,
    // whether or not it contributed to a truncated suffix below: it may
    // still drain a stale backlog after the partition heals (it has not
    // learned of its eviction yet), and none of those deliveries may
    // extend or re-commit the survivors' ledger. Its deliveries are
    // ignored until it rejoins through a reset.
    for (const auto& [key, cur] : cursors_) {
      if (key.first == v.group && !newest_members.contains(key.second)) {
        forked_.insert(key);
      }
    }
    for (const auto& [key, queue] : pending_) {
      if (key.first == v.group && !newest_members.contains(key.second)) {
        forked_.insert(key);
      }
    }

    // Abandoned-fork truncation: the longest committed suffix delivered
    // only by processors the new view excludes was never corroborated by
    // any survivor — the primary's install cut dropped it (the excluded
    // side may have fully ordered those messages before the partition, but
    // nobody in the new view ever received them). Survivors re-commit the
    // positions in their own order; the forked processors' tails are
    // ignored until they rejoin through a reset, which is when the
    // application abandons a removed replica's divergent state too.
    auto lg = ledgers_.find(v.group);
    if (lg != ledgers_.end()) {
      auto& ledger = lg->second;
      std::size_t keep = ledger.size();
      auto survivor_saw = [&](const LedgerEntry& e) {
        for (std::uint32_t p : e.deliverers) {
          if (newest_members.contains(p)) return true;
        }
        return false;
      };
      while (keep > 0 && !survivor_saw(ledger[keep - 1])) --keep;
      if (keep < ledger.size()) {
        for (std::size_t i = keep; i < ledger.size(); ++i) {
          for (std::uint32_t p : ledger[i].deliverers) {
            forked_.insert({v.group, p});
          }
        }
        ledger.resize(keep);
        for (auto& [key, cur] : cursors_) {
          if (key.first == v.group) cur.next = std::min(cur.next, keep);
        }
      }
    }
  }
  // Parked order conflicts get their re-check at every view record: either
  // the truncation above resolved them, or they stay parked for the next
  // view / the finalize sweep.
  drain_pending(v.group, /*force=*/false);
}

void InvariantChecker::on_reset(std::uint32_t proc) {
  // Conflicts the dying incarnation never resolved are real — unless it
  // was on an abandoned fork, which dies with it.
  for (auto& [key, queue] : pending_) {
    if (key.second != proc || queue.empty()) continue;
    if (forked_.contains(key)) {
      queue.clear();
      continue;
    }
    std::vector<DeliveryRecord> retry;
    retry.swap(queue);
    for (const DeliveryRecord& d : retry) check_order(d, /*may_park=*/false);
  }
  epochs_[proc] += 1;
  for (auto& [key, cur] : cursors_) {
    if (key.second == proc) cur.synced = false;
  }
  for (auto it = last_view_.begin(); it != last_view_.end();) {
    it = it->first.second == proc ? last_view_.erase(it) : std::next(it);
  }
  // The dead incarnation's digest claims die with it; the fresh one speaks
  // for itself after its state transfer completes.
  for (auto it = last_digest_.begin(); it != last_digest_.end();) {
    it = it->first.second == proc ? last_digest_.erase(it) : std::next(it);
  }
  // A reset abandons any fork: the fresh incarnation re-enters at a join
  // cut and is checked normally from there.
  for (auto it = forked_.begin(); it != forked_.end();) {
    it = it->second == proc ? forked_.erase(it) : std::next(it);
  }
}

// ---- campaign engine --------------------------------------------------------

namespace {

constexpr FtDomainId kDomain{1};
constexpr McastAddress kDomainAddr{100};
constexpr ProcessorGroupId kGroup{1};
constexpr McastAddress kGroupAddr{200};

ConnectionId chaos_conn() {
  return ConnectionId{FtDomainId{1}, ObjectGroupId{7}, FtDomainId{1},
                      ObjectGroupId{8}};
}

/// The campaign's application state machine: an order-sensitive hash chain
/// plus the full per-message hash history, so snapshots grow with applied
/// traffic (several chunks by mid-campaign — the transfer window, resume
/// and reassembly paths all get exercised) and any ordering or payload
/// divergence between members shows up as differing accumulators.
class ToyState final : public ft::Checkpointable {
 public:
  void apply(const DeliveredMessage& m) {
    const std::uint64_t h = fnv1a64(m.giop_message.data(), m.giop_message.size());
    acc_ = fnv1a64(reinterpret_cast<const std::uint8_t*>(&h), sizeof h, acc_);
    history_.push_back(h);
  }

  [[nodiscard]] Bytes snapshot() const override {
    Writer w(ByteOrder::kBig);
    w.u64(acc_);
    w.u32(static_cast<std::uint32_t>(history_.size()));
    for (std::uint64_t h : history_) w.u64(h);
    return std::move(w).take();
  }

  void restore(BytesView snapshot) override {
    Reader r(snapshot, ByteOrder::kBig);
    acc_ = r.u64();
    history_.clear();
    const std::uint32_t n = r.u32();
    history_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) history_.push_back(r.u64());
  }

  [[nodiscard]] std::uint64_t accumulator() const { return acc_; }
  [[nodiscard]] std::size_t applied() const { return history_.size(); }

 private:
  std::uint64_t acc_ = 0xcbf29ce484222325ull;
  std::vector<std::uint64_t> history_;
};

class Engine {
 public:
  explicit Engine(const CampaignConfig& cfg)
      : cfg_(cfg),
        sched_(generate_schedule(cfg.seed, cfg.params)),
        h_(base_link(), cfg.seed, 1 * kMillisecond),
        rng_(Rng(cfg.seed).split(0x7AFF1Cu)) {}

  CampaignResult run();

 private:
  struct Proc {
    std::unique_ptr<ft::PersistentLog> plog;
    std::vector<ft::LogEntry> shadow;  ///< what we appended this incarnation
    std::unique_ptr<ToyState> app;     ///< application state (checkpointable)
    std::unique_ptr<ft::StateTransferManager> st;
    std::uint32_t incarnation = 0;
    bool alive = true;
  };
  struct CrashState {
    bool crashed = false;
    bool done = false;  ///< restart performed (or crash skipped)
  };

  static net::LinkModel base_link() {
    net::LinkModel link;
    link.loss = 0.01;
    link.duplicate = 0.005;
    link.jitter = 300 * kMicrosecond;
    return link;
  }
  Config stack_config() const {
    Config cfg;
    cfg.heartbeat_interval = 5 * kMillisecond;
    cfg.fault_timeout = 150 * kMillisecond;
    cfg.flow_window_messages = 64;
    cfg.batch_max_datagram_bytes = cfg_.batch_max_datagram_bytes;
    cfg.ordering_mode = cfg_.ordering_mode;
    return cfg;
  }

  void setup();
  void on_event(ProcessorId p, TimePoint t, const Event& ev);
  void on_wire(TimePoint t, const net::Datagram& d);
  void check_frame(TimePoint t, BytesView frame);
  void on_step(TimePoint t);
  void apply_network_faults(TimePoint t);
  void process_crash_restarts();
  void heal_stranded();
  void drive_rejoins();
  bool admit(ProcessorId p, ProcessorId boss);
  void apply_churn();
  bool quiesce_and_probe();

  [[nodiscard]] std::optional<ProcessorId> sponsor();
  [[nodiscard]] bool quiescent();
  [[nodiscard]] bool spare(ProcessorId p) const {
    return p.raw() > cfg_.params.processors;
  }
  /// A spare outside the group and not joining it: not part of the fleet.
  [[nodiscard]] bool idle(ProcessorId p) const {
    return spare(p) && !in_group_.contains(p) && !pending_join_.contains(p);
  }
  [[nodiscard]] std::size_t fleet_size() const;
  [[nodiscard]] std::size_t live_count() const;
  std::string log_path(ProcessorId p, std::uint32_t incarnation) const;
  void open_log(ProcessorId p);
  void make_app(ProcessorId p);
  void absorb_transfer_stats(Proc& proc);
  void trace_line(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  void record_reset(TimePoint t, ProcessorId p);
  void flag_online(InvariantKind kind, TimePoint at, ProcessorId p,
                   std::string detail);

  CampaignConfig cfg_;
  Schedule sched_;
  SimHarness h_;
  Rng rng_;
  InvariantChecker checker_;
  CampaignResult result_;

  std::map<ProcessorId, Proc> procs_;
  std::set<ProcessorId> in_group_;
  std::set<ProcessorId> pending_join_;
  std::vector<CrashState> crash_state_;  // parallel to sched_.faults
  std::vector<char> announced_;          // fault activation logged once
  std::size_t next_churn_ = 0;           // first join/leave/rebind not yet due
  McastAddress group_addr_ = kGroupAddr;  // moved by rebinds

  std::filesystem::path log_dir_;
  bool own_log_dir_ = false;
  std::FILE* trace_ = nullptr;

  // §5 retransmit identity: first-transmission hash (retransmission flag
  // masked) per (source, group, seq, msg_ts).
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t, std::uint64_t>,
           std::uint64_t>
      first_tx_;
  std::set<std::string> flagged_once_;  // step-checker dedup
  std::uint64_t fault_fingerprint_ = ~0ull;
  std::uint64_t request_counter_ = 0;
  std::uint64_t probe_base_ = 0;  // request numbers >= this are probes
  std::map<ProcessorId, std::uint64_t> probe_seen_;
  bool force_heal_ = false;
  TimePoint next_state_dump_ = 0;
};

std::optional<ProcessorId> Engine::sponsor() {
  for (const auto& [p, proc] : procs_) {
    if (!proc.alive) continue;
    if (!in_group_.contains(p)) continue;
    const GroupSession* g = h_.stack(p).group(kGroup);
    if (g && g->active()) return p;
  }
  return std::nullopt;
}

bool Engine::quiescent() {
  // The rule for membership operations (DESIGN.md §6: planned changes run
  // only when no processor is faulty): no member of the sponsor's view is
  // down, and every live member's active session lists that view.
  const auto boss = sponsor();
  if (!boss) return false;
  const auto& want = h_.stack(*boss).group(kGroup)->membership().members;
  for (ProcessorId m : want) {
    if (!procs_.at(m).alive) return false;
  }
  for (ProcessorId p : in_group_) {
    if (!procs_.at(p).alive) continue;
    const GroupSession* g = h_.stack(p).group(kGroup);
    if (!g || !g->active() || g->membership().members != want) return false;
  }
  return true;
}

std::size_t Engine::fleet_size() const {
  std::size_t n = 0;
  for (const auto& [p, proc] : procs_) n += idle(p) ? 0 : 1;
  return n;
}

std::size_t Engine::live_count() const {
  std::size_t n = 0;
  for (const auto& [p, proc] : procs_) n += proc.alive && !idle(p) ? 1 : 0;
  return n;
}

std::string Engine::log_path(ProcessorId p, std::uint32_t incarnation) const {
  return (log_dir_ / ("p" + std::to_string(p.raw()) + "." +
                      std::to_string(incarnation) + ".log"))
      .string();
}

void Engine::open_log(ProcessorId p) {
  Proc& proc = procs_.at(p);
  proc.plog = std::make_unique<ft::PersistentLog>(log_path(p, proc.incarnation));
  proc.shadow.clear();
}

void Engine::absorb_transfer_stats(Proc& proc) {
  if (!proc.st) return;
  const ft::StateTransferStats& s = proc.st->stats();
  result_.state_transfers += s.transfers_completed.value();
  result_.state_resumes += s.transfers_resumed.value();
  result_.state_restarts += s.transfers_restarted.value();
  result_.state_digest_mismatches += s.digest_mismatches.value();
}

void Engine::make_app(ProcessorId p) {
  // A fresh application incarnation: restart and drop+rejoin both abandon
  // volatile app state (the fork is unrecoverable); the new manager pulls
  // everything back through state transfer at the re-admitting install.
  Proc& proc = procs_.at(p);
  absorb_transfer_stats(proc);
  proc.app = std::make_unique<ToyState>();
  ToyState* app = proc.app.get();
  proc.st = std::make_unique<ft::StateTransferManager>(
      p, kGroup, h_.stack(p), *app,
      [app](TimePoint, const DeliveredMessage& m) { app->apply(m); });
  proc.st->set_digest_hook([this, p](TimePoint t, std::uint64_t fp,
                                     std::uint64_t dg) {
    StateDigestRecord rec{t, p.raw(), kGroup.raw(), fp, dg};
    checker_.on_state_digest(rec);
    trace_line("S %lld %u %u %llx %llx\n", (long long)t, rec.proc, rec.group,
               (unsigned long long)fp, (unsigned long long)dg);
  });
}

void Engine::trace_line(const char* fmt, ...) {
  if (!trace_) return;
  va_list args;
  va_start(args, fmt);
  std::vfprintf(trace_, fmt, args);
  va_end(args);
}

void Engine::flag_online(InvariantKind kind, TimePoint at, ProcessorId p,
                         std::string detail) {
  if (result_.violations.size() >= kMaxViolations) return;
  result_.violations.push_back(Violation{kind, at, p, std::move(detail)});
}

void Engine::setup() {
  if (cfg_.log_dir.empty()) {
    log_dir_ = std::filesystem::temp_directory_path() /
               ("ftmp_chaos_" + std::to_string(cfg_.seed) + "_" +
                std::to_string(::getpid()));
    own_log_dir_ = true;
  } else {
    log_dir_ = cfg_.log_dir;
  }
  std::filesystem::create_directories(log_dir_);
  if (!cfg_.trace_path.empty()) {
    trace_ = std::fopen(cfg_.trace_path.c_str(), "w");
    if (!trace_) throw std::runtime_error("cannot open trace file " + cfg_.trace_path);
    // The header records the whole run, so a failing trace names the
    // command that reproduces it (repro_command).
    std::fprintf(trace_,
                 "# chaos-trace v2 seed=%" PRIu64 " ordering=%s procs=%u duration=%" PRId64
                 " faults=%zu spares=%u batch=%zu\n",
                 cfg_.seed, to_string(cfg_.ordering_mode), cfg_.params.processors,
                 std::int64_t(cfg_.params.duration / kMillisecond), cfg_.params.faults,
                 cfg_.params.spares, cfg_.batch_max_datagram_bytes);
  }
  // Gauge balance is checked against a clean slate (process-global
  // instruments; no-ops when metrics are compiled out).
  metrics::reset_all();

  std::vector<ProcessorId> founders;
  for (std::uint32_t i = 1; i <= cfg_.params.processors + cfg_.params.spares; ++i) {
    const ProcessorId p{i};
    h_.add_processor(p, kDomain, kDomainAddr, stack_config());
    procs_.emplace(p, Proc{});
    open_log(p);
    make_app(p);
    if (!spare(p)) {
      founders.push_back(p);
      in_group_.insert(p);
    }
    h_.set_event_handler(
        p, [this, p](TimePoint t, const Event& ev) { on_event(p, t, ev); });
  }
  h_.network().set_tap(
      [this](TimePoint t, ProcessorId, const net::Datagram& d) { on_wire(t, d); });
  h_.set_step_hook([this](TimePoint t) { on_step(t); });
  for (ProcessorId p : founders) {
    h_.stack(p).create_group(h_.now(), kGroup, kGroupAddr, founders);
  }
  crash_state_.assign(sched_.faults.size(), CrashState{});
  announced_.assign(sched_.faults.size(), 0);
}

void Engine::on_event(ProcessorId p, TimePoint t, const Event& ev) {
  if (const auto* d = std::get_if<DeliveredMessage>(&ev)) {
    const std::uint64_t hash =
        fnv1a64(d->giop_message.data(), d->giop_message.size());
    DeliveryRecord rec{t,      p.raw(),  d->group.raw(), d->source.raw(),
                       d->seq, d->timestamp, hash};
    checker_.on_delivery(rec);
    result_.deliveries += 1;
    result_.digest = mix64(result_.digest, rec.proc);
    result_.digest = mix64(result_.digest, rec.source);
    result_.digest = mix64(result_.digest, rec.seq);
    result_.digest = mix64(result_.digest, rec.ts);
    result_.digest = mix64(result_.digest, rec.hash);
    trace_line("D %lld %u %u %u %llu %llu %llx\n", (long long)t, rec.proc,
               rec.group, rec.source, (unsigned long long)rec.seq,
               (unsigned long long)rec.ts, (unsigned long long)rec.hash);
    Proc& proc = procs_.at(p);
    ft::LogEntry entry{ft::MessageKind::kRequest, d->connection, d->request_num,
                      d->timestamp, d->giop_message};
    proc.plog->append(entry);
    proc.plog->flush();
    proc.shadow.push_back(std::move(entry));
    if (probe_base_ && d->request_num >= probe_base_) probe_seen_[p] += 1;
    if (proc.st) proc.st->on_event(t, ev);
    return;
  } else if (const auto* m = std::get_if<MembershipChanged>(&ev)) {
    ViewRecord rec;
    rec.at = t;
    rec.proc = p.raw();
    rec.group = m->group.raw();
    rec.view_ts = m->membership.timestamp;
    for (ProcessorId mem : m->membership.members) rec.members.push_back(mem.raw());
    checker_.on_view(rec);
    result_.digest = mix64(result_.digest, rec.proc);
    result_.digest = mix64(result_.digest, rec.view_ts);
    for (std::uint32_t mem : rec.members) {
      result_.digest = mix64(result_.digest, mem);
    }
    if (trace_) {
      std::string members;
      for (std::size_t i = 0; i < rec.members.size(); ++i) {
        if (i) members += ",";
        members += std::to_string(rec.members[i]);
      }
      trace_line("V %lld %u %u %llu %s\n", (long long)t, rec.proc, rec.group,
                 (unsigned long long)rec.view_ts, members.c_str());
    }
  }
  // Everything else (installs, state-transfer frames, self-eviction) feeds
  // the state-transfer manager; Regular deliveries returned above.
  Proc& proc = procs_.at(p);
  if (proc.st) proc.st->on_event(t, ev);
}

void Engine::on_wire(TimePoint t, const net::Datagram& d) {
  // Batched datagrams carry several complete FTMP messages; §5's identity
  // rule applies to each sub-frame independently (docs/WIRE.md).
  if (looks_like_ftmp_batch(d.payload)) {
    BatchParser parser(d.payload.view());
    while (const auto sf = parser.next()) {
      check_frame(t, d.payload.view().subspan(sf->offset, sf->length));
    }
    return;
  }
  check_frame(t, d.payload.view());
}

void Engine::check_frame(TimePoint t, BytesView frame) {
  const HeaderView hv = try_decode_header(frame);
  if (!hv.ok) return;
  // Hash with the retransmission flag masked: the only byte §5 allows a
  // retransmission to change.
  std::uint64_t hash = fnv1a64(frame.data(), kRetransFlagOffset);
  const std::uint8_t zero = 0;
  hash = fnv1a64(&zero, 1, hash);
  hash = fnv1a64(frame.data() + kRetransFlagOffset + 1,
                 frame.size() - kRetransFlagOffset - 1, hash);
  const auto key = std::make_tuple(hv.header.source.raw(),
                                   hv.header.destination_group.raw(),
                                   hv.header.sequence_number,
                                   hv.header.message_timestamp);
  if (!hv.header.retransmission) {
    first_tx_.try_emplace(key, hash);
    return;
  }
  auto it = first_tx_.find(key);
  char buf[192];
  if (it == first_tx_.end()) {
    std::snprintf(buf, sizeof buf,
                  "retransmission of (src=P%u grp=G%u seq=%llu ts=%llu) whose "
                  "original was never transmitted",
                  hv.header.source.raw(), hv.header.destination_group.raw(),
                  (unsigned long long)hv.header.sequence_number,
                  (unsigned long long)hv.header.message_timestamp);
    flag_online(InvariantKind::kRetransmitIdentity, t, hv.header.source, buf);
  } else if (it->second != hash) {
    std::snprintf(buf, sizeof buf,
                  "retransmission of (src=P%u grp=G%u seq=%llu ts=%llu) is not "
                  "byte-identical to the original (flag byte excluded)",
                  hv.header.source.raw(), hv.header.destination_group.raw(),
                  (unsigned long long)hv.header.sequence_number,
                  (unsigned long long)hv.header.message_timestamp);
    flag_online(InvariantKind::kRetransmitIdentity, t, hv.header.source, buf);
  }
}

void Engine::apply_network_faults(TimePoint t) {
  // Fingerprint of the active fault set (flap phase included); the network
  // is reconfigured only when it changes — a pure function of (schedule, t).
  std::uint64_t fp = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < sched_.faults.size(); ++i) {
    const Fault& f = sched_.faults[i];
    if (f.kind >= FaultKind::kCrashRestart) continue;  // not a network fault
    const bool active =
        !force_heal_ && t >= f.at && t < f.at + f.duration;
    std::uint64_t phase = 0;
    if (active && f.kind == FaultKind::kFlap && f.flap_period > 0) {
      phase = ((t - f.at) / f.flap_period) % 2;
    }
    fp = mix64(fp, (std::uint64_t(i) << 2) | (std::uint64_t(active) << 1) | phase);
    if (active && !announced_[i]) {
      announced_[i] = 1;
      result_.faults_applied += 1;
      trace_line("F %lld %s\n", (long long)t, f.describe().c_str());
      if (cfg_.verbose) {
        std::printf("  [%8.0fms] apply %s\n", ms(t), f.describe().c_str());
      }
    }
  }
  if (fp == fault_fingerprint_) return;
  fault_fingerprint_ = fp;

  net::SimNetwork& net = h_.network();
  net.clear_blocked_links();
  net.clear_link_overrides();
  const std::uint32_t fleet = cfg_.params.processors + cfg_.params.spares;
  const Fault* partition = nullptr;
  for (const Fault& f : sched_.faults) {
    const bool active = !force_heal_ && t >= f.at && t < f.at + f.duration;
    if (!active) continue;
    switch (f.kind) {
      case FaultKind::kLossBurst: {
        net::LinkModel m = base_link();
        m.loss = f.loss;
        m.burst_loss = f.burst_loss;
        m.burst_enter = f.burst_enter;
        m.burst_exit = f.burst_exit;
        for (ProcessorId x : f.a) {
          for (std::uint32_t y = 1; y <= fleet; ++y) {
            if (y != x.raw()) net.set_link(x, ProcessorId{y}, m);
          }
        }
        break;
      }
      case FaultKind::kOneWayPartition:
        net.set_oneway_partition(f.a, f.b);
        break;
      case FaultKind::kSymmetricPartition:
        partition = &f;  // the most recent active one wins
        break;
      case FaultKind::kFlap: {
        const bool isolated = ((t - f.at) / f.flap_period) % 2 == 0;
        if (isolated) {
          for (ProcessorId x : f.a) {
            for (std::uint32_t y = 1; y <= fleet; ++y) {
              if (y == x.raw()) continue;
              net.block_link(x, ProcessorId{y});
              net.block_link(ProcessorId{y}, x);
            }
          }
        }
        break;
      }
      case FaultKind::kDelayStorm: {
        net::LinkModel m = base_link();
        m.delay = m.delay + f.delay;
        m.jitter = f.jitter;
        for (ProcessorId x : f.a) {
          for (std::uint32_t y = 1; y <= fleet; ++y) {
            if (y != x.raw()) net.set_link(x, ProcessorId{y}, m);
          }
        }
        break;
      }
      case FaultKind::kSlowLink: {
        net::LinkModel m = base_link();
        m.delay = m.delay + f.delay;
        m.jitter = f.jitter;
        m.loss = f.loss;
        net.set_link(f.a[0], f.b[0], m);
        break;
      }
      case FaultKind::kCrashRestart:
      case FaultKind::kJoin:
      case FaultKind::kLeave:
      case FaultKind::kRebind:
        break;
    }
  }
  if (partition) {
    net.set_partition({partition->a});
  } else {
    net.heal();
  }
}

void Engine::on_step(TimePoint t) {
  result_.checker_steps += 1;
  apply_network_faults(t);

  // State-transfer timers: request retry/resume, snapshot TTL, periodic
  // anti-entropy digests.
  for (auto& [p, proc] : procs_) {
    if (proc.alive && proc.st) proc.st->tick(t);
  }

  if (cfg_.verbose && t >= next_state_dump_) {
    next_state_dump_ = t + 500 * kMillisecond;
    std::string line;
    for (const auto& [p, proc] : procs_) {
      const GroupSession* g = proc.alive ? h_.stack(p).group(kGroup) : nullptr;
      char buf[96];
      if (!proc.alive) {
        std::snprintf(buf, sizeof buf, " %s=dead", to_string(p).c_str());
      } else if (!g) {
        std::snprintf(buf, sizeof buf, " %s=nosession", to_string(p).c_str());
      } else {
        std::snprintf(buf, sizeof buf, " %s=%s%s%s|%zu|ts%llu",
                      to_string(p).c_str(), g->active() ? "up" : "down",
                      g->flushing() ? ",flush" : "",
                      g->pgmp().reconfiguring() ? ",reconf" : "",
                      g->membership().members.size(),
                      (unsigned long long)g->membership().timestamp);
      }
      line += buf;
    }
    std::printf("  [%8.0fms] state%s\n", ms(t), line.c_str());
  }

  // Primary-partition exclusivity: any two concurrently active memberships
  // of the group must intersect (no split brain).
  std::vector<std::pair<ProcessorId, std::vector<ProcessorId>>> actives;
  for (const auto& [p, proc] : procs_) {
    if (!proc.alive) continue;
    const GroupSession* g = h_.stack(p).group(kGroup);
    if (g && g->active()) actives.emplace_back(p, g->membership().members);
  }
  for (std::size_t i = 0; i < actives.size(); ++i) {
    for (std::size_t j = i + 1; j < actives.size(); ++j) {
      bool intersect = false;
      for (ProcessorId m : actives[i].second) {
        for (ProcessorId m2 : actives[j].second) intersect |= (m == m2);
      }
      if (!intersect) {
        std::string key = "primary:" + to_string(actives[i].first) + ":" +
                          to_string(actives[j].first);
        if (flagged_once_.insert(key).second) {
          flag_online(InvariantKind::kPrimaryExclusivity, t, actives[i].first,
                      "disjoint active memberships at " +
                          to_string(actives[i].first) + " and " +
                          to_string(actives[j].first) + " (split brain)");
        }
      }
    }
  }

  // Flow gauge balance: windows and queues respect their configured bounds.
  const Config cfg = stack_config();
  for (const auto& [p, proc] : procs_) {
    if (!proc.alive) continue;
    const GroupSession* g = h_.stack(p).group(kGroup);
    if (!g || !g->active()) continue;
    if (cfg.flow_window_messages > 0 &&
        g->flow().in_flight_messages() > cfg.flow_window_messages) {
      const std::string key = "floww:" + to_string(p);
      if (flagged_once_.insert(key).second) {
        flag_online(InvariantKind::kFlowBalance, t, p,
                    to_string(p) + " in-flight " +
                        std::to_string(g->flow().in_flight_messages()) +
                        " exceeds flow window " +
                        std::to_string(cfg.flow_window_messages));
      }
    }
    if (g->flow().queue_depth() > kFlowSendQueueLimit) {
      const std::string key = "flowq:" + to_string(p);
      if (flagged_once_.insert(key).second) {
        flag_online(InvariantKind::kFlowBalance, t, p,
                    to_string(p) + " parked queue " +
                        std::to_string(g->flow().queue_depth()) +
                        " exceeds limit " +
                        std::to_string(kFlowSendQueueLimit));
      }
    }
  }
  // Process-wide gauges must never go negative (throttled: snapshot takes a
  // lock; a no-op with metrics compiled out).
  if (result_.checker_steps % 256 == 0) {
    for (const metrics::Sample& s : metrics::snapshot()) {
      if (s.type == metrics::Type::kGauge && s.gauge < 0) {
        const std::string key = "gauge:" + s.name;
        if (flagged_once_.insert(key).second) {
          flag_online(InvariantKind::kFlowBalance, t, ProcessorId{0},
                      "gauge " + s.name + " went negative (" +
                          std::to_string(s.gauge) + ")");
        }
      }
    }
  }
}

void Engine::record_reset(TimePoint t, ProcessorId p) {
  checker_.on_reset(p.raw());
  trace_line("R %lld %u\n", (long long)t, p.raw());
}

void Engine::process_crash_restarts() {
  const TimePoint now = h_.now();
  for (std::size_t i = 0; i < sched_.faults.size(); ++i) {
    const Fault& f = sched_.faults[i];
    if (f.kind != FaultKind::kCrashRestart) continue;
    CrashState& st = crash_state_[i];
    const ProcessorId victim = f.a[0];
    if (!st.crashed && !st.done && now >= f.at) {
      // Runtime guards: never crash below a live majority of the fleet, and
      // never crash a member whose loss would leave the current installed
      // membership without the strict majority it needs to convict the
      // crash and carry on (the membership may have shrunk under earlier
      // faults; the schedule generator cannot know that). A spare crash is
      // churn: it needs the spare in the group and the group quiescent.
      bool safe = procs_.at(victim).alive && live_count() > fleet_size() / 2 + 1 &&
                  (!spare(victim) || (in_group_.contains(victim) && quiescent()));
      if (safe) {
        if (const auto boss = sponsor()) {
          const auto& members = h_.stack(*boss).group(kGroup)->membership().members;
          std::size_t live_after = 0;
          bool victim_member = false;
          for (ProcessorId m : members) {
            victim_member |= (m == victim);
            if (m != victim && procs_.at(m).alive) ++live_after;
          }
          if (victim_member && live_after * 2 <= members.size()) safe = false;
        } else {
          safe = false;  // no active session anywhere: do not make it worse
        }
      }
      if (!safe) {
        if (now > f.at + f.duration / 2) st.done = true;  // give up on this one
        continue;
      }
      h_.crash(victim);
      procs_.at(victim).alive = false;
      st.crashed = true;
      result_.crashes += 1;
      result_.faults_applied += 1;
      trace_line("X %lld %u\n", (long long)now, victim.raw());
      if (cfg_.verbose) {
        std::printf("  [%8.0fms] apply %s\n", ms(now), f.describe().c_str());
      }
    }
    if (st.crashed && !st.done && now >= f.at + f.duration) {
      Proc& proc = procs_.at(victim);
      // The durable log must replay exactly what the previous incarnation
      // recorded before the crash.
      proc.plog->flush();
      const auto loaded = ft::PersistentLog::load(log_path(victim, proc.incarnation));
      if (loaded != proc.shadow) {
        result_.log_replay_ok = false;
        if (cfg_.verbose) {
          std::printf("  !! %s log replay mismatch: %zu loaded vs %zu recorded\n",
                      to_string(victim).c_str(), loaded.size(),
                      proc.shadow.size());
        }
      }
      h_.restart(victim);
      proc.alive = true;
      proc.incarnation += 1;
      open_log(victim);
      make_app(victim);  // rebind to the fresh Stack; app state starts empty
      result_.restarts += 1;
      record_reset(now, victim);
      in_group_.erase(victim);
      if (!spare(victim)) {  // a restarted spare waits for a churn join
        h_.stack(victim).expect_join(kGroup, group_addr_);
        pending_join_.insert(victim);
      }
      st.done = true;
      if (cfg_.verbose) {
        std::printf("  [%8.0fms] restart %s (incarnation %u, %zu log entries replayed)\n",
                    ms(now), to_string(victim).c_str(), proc.incarnation,
                    loaded.size());
      }
    }
  }
}

void Engine::heal_stranded() {
  // A live member whose session self-evicted (stranded in a healed minority
  // or convicted while flapping) is dropped and re-admitted — the FT
  // infrastructure's job, played here by the campaign driver.
  for (ProcessorId p : std::set<ProcessorId>(in_group_)) {
    if (!procs_.at(p).alive) continue;
    GroupSession* g = h_.stack(p).group(kGroup);
    if (g && !g->active() && !g->lame_duck(h_.now())) {
      in_group_.erase(p);
      h_.stack(p).drop_group(kGroup);
      record_reset(h_.now(), p);
      make_app(p);  // forked app state is abandoned with the session
      h_.stack(p).expect_join(kGroup, group_addr_);
      pending_join_.insert(p);
      if (cfg_.verbose) {
        std::printf("  [%8.0fms] %s stranded (evicted session dropped; re-admitting)\n",
                    ms(h_.now()), to_string(p).c_str());
      }
    }
  }

  // Silent eviction: a member cut out of the primary partition while it
  // could not hear the recovery round keeps running in its stale view
  // forever — after the install nobody sends control traffic it could
  // learn its eviction from, and the survivors' stores GC past its gap.
  // The fleet's newest installed view is authoritative (view timestamps
  // totally order installs); a live session sitting strictly below it AND
  // excluded from it can never rejoin by protocol means, so the driver —
  // playing the FT infrastructure — resets and re-admits it.
  Timestamp best_ts = 0;
  std::vector<ProcessorId> best_members;
  for (ProcessorId p : in_group_) {
    if (!procs_.at(p).alive) continue;
    GroupSession* g = h_.stack(p).group(kGroup);
    if (!g || !g->active()) continue;
    const auto& m = g->pgmp().membership();
    if (m.timestamp > best_ts) {
      best_ts = m.timestamp;
      best_members = m.members;
    }
  }
  for (ProcessorId p : std::set<ProcessorId>(in_group_)) {
    if (!procs_.at(p).alive) continue;
    GroupSession* g = h_.stack(p).group(kGroup);
    if (!g || !g->active()) continue;
    const auto& m = g->pgmp().membership();
    const bool excluded =
        std::find(best_members.begin(), best_members.end(), p) == best_members.end();
    if (m.timestamp < best_ts && excluded) {
      in_group_.erase(p);
      h_.stack(p).drop_group(kGroup);
      record_reset(h_.now(), p);
      make_app(p);  // stale-minority app state is abandoned too
      h_.stack(p).expect_join(kGroup, group_addr_);
      pending_join_.insert(p);
      if (cfg_.verbose) {
        std::printf("  [%8.0fms] %s in stale minority view ts=%llu (newest ts=%llu "
                    "excludes it); re-admitting\n",
                    ms(h_.now()), to_string(p).c_str(),
                    (unsigned long long)m.timestamp, (unsigned long long)best_ts);
      }
    }
  }
}

void Engine::drive_rejoins() {
  for (ProcessorId p : std::set<ProcessorId>(pending_join_)) {
    if (!procs_.at(p).alive) continue;
    const auto boss = sponsor();
    if (!boss) return;
    if (admit(p, *boss)) {
      result_.rejoins += 1;
      if (cfg_.verbose) {
        std::printf("  [%8.0fms] %s rejoined\n", ms(h_.now()), to_string(p).c_str());
      }
    }
  }
}

bool Engine::admit(ProcessorId p, ProcessorId boss) {
  // `p` is in pending_join_ with expect_join done; `boss` sponsors it.
  if (!h_.stack(boss).add_processor(h_.now(), kGroup, p)) {
    if (cfg_.verbose) {
      const GroupSession* g = h_.stack(boss).group(kGroup);
      std::printf("  [%8.0fms] add_processor(%s) via %s refused "
                  "(flushing=%d reconfiguring=%d member=%d)\n",
                  ms(h_.now()), to_string(p).c_str(), to_string(boss).c_str(),
                  g && g->flushing(), g && g->pgmp().reconfiguring(),
                  g && g->is_member(p));
    }
    return false;
  }
  const bool joined = h_.run_until_pred(
      [&] {
        GroupSession* g = h_.stack(p).group(kGroup);
        return g && g->is_member(p);
      },
      h_.now() + 10 * kSecond);
  if (joined) {
    pending_join_.erase(p);
    in_group_.insert(p);
  } else if (cfg_.verbose) {
    std::printf("  [%8.0fms] %s join did not complete in time\n", ms(h_.now()),
                to_string(p).c_str());
  }
  return joined;
}

void Engine::apply_churn() {
  // Joins, leaves and rebinds apply one per step, in schedule order, at the
  // first step at or after their time at which the group is quiescent. An
  // event that no longer fits the fleet (its spare is already in or out, or
  // down) or that the sponsor refuses is skipped.
  while (next_churn_ < sched_.faults.size() &&
         sched_.faults[next_churn_].kind < FaultKind::kJoin) {
    ++next_churn_;
  }
  if (next_churn_ == sched_.faults.size()) return;
  const Fault& f = sched_.faults[next_churn_];
  const TimePoint now = h_.now();
  if (now < f.at || !quiescent()) return;
  ++next_churn_;
  const ProcessorId boss = *sponsor();
  const auto announce = [&] {
    trace_line("F %lld %s\n", (long long)now, f.describe().c_str());
    if (cfg_.verbose) std::printf("  [%8.0fms] apply %s\n", ms(now), f.describe().c_str());
  };
  switch (f.kind) {
    case FaultKind::kJoin: {
      const ProcessorId p = f.a[0];
      if (!idle(p)) return;
      announce();
      h_.stack(p).expect_join(kGroup, group_addr_);
      pending_join_.insert(p);  // a join that does not complete is retried
      result_.joins += admit(p, boss) ? 1 : 0;
      return;
    }
    case FaultKind::kLeave: {
      const ProcessorId p = f.a[0];
      if (!in_group_.contains(p) || !procs_.at(p).alive || p == boss ||
          !h_.stack(boss).remove_processor(now, kGroup, p)) {
        return;
      }
      announce();
      // Out of in_group_ first, so heal_stranded never re-admits the
      // session the removal deactivates.
      in_group_.erase(p);
      h_.run_until_pred([&] { return !h_.stack(boss).group(kGroup)->is_member(p); },
                        now + 10 * kSecond);
      // Keep the leaver's session until the whole group has ordered the
      // removal, then drop it: the next join is a fresh incarnation.
      h_.run_until_pred([&] { return quiescent(); }, h_.now() + 10 * kSecond);
      h_.stack(p).drop_group(kGroup);
      record_reset(h_.now(), p);
      make_app(p);
      result_.leaves += 1;
      return;
    }
    case FaultKind::kRebind: {
      const McastAddress fresh{300 + std::uint32_t(result_.rebinds)};
      if (!h_.stack(boss).rebind_group(now, kGroup, fresh)) return;
      announce();
      group_addr_ = fresh;
      result_.rebinds += 1;
      for (ProcessorId p : pending_join_) {
        if (procs_.at(p).alive) h_.stack(p).expect_join(kGroup, group_addr_);
      }
      return;
    }
    default:
      return;
  }
}

bool Engine::quiesce_and_probe() {
  // Heal everything, finish outstanding restarts, then prove liveness: a
  // round of probe messages every live member must deliver.
  force_heal_ = true;
  fault_fingerprint_ = ~0ull;
  for (std::size_t i = 0; i < sched_.faults.size(); ++i) {
    Fault& f = sched_.faults[i];
    CrashState& st = crash_state_[i];
    if (f.kind != FaultKind::kCrashRestart) continue;
    if (st.crashed && !st.done) {
      f.duration = 0;  // force the restart now regardless of schedule time
    } else if (!st.crashed) {
      st.done = true;  // no new crashes while quiescing
    }
  }
  const TimePoint heal_deadline = h_.now() + 30 * kSecond;
  while (h_.now() < heal_deadline) {
    process_crash_restarts();
    heal_stranded();
    drive_rejoins();
    if (pending_join_.empty() && in_group_.size() == fleet_size()) break;
    h_.run_for(200 * kMillisecond);
  }
  if (in_group_.size() != fleet_size()) {
    if (cfg_.verbose) {
      std::printf("  [%8.0fms] quiesce: only %zu/%zu processors back in the group "
                  "(pending %zu, sponsor %s)\n",
                  ms(h_.now()), in_group_.size(), fleet_size(),
                  pending_join_.size(),
                  sponsor() ? to_string(*sponsor()).c_str() : "none");
    }
    return false;
  }

  probe_base_ = request_counter_ + 1;
  const std::size_t kProbes = 5;
  const auto boss = sponsor();
  if (!boss) return false;
  for (std::size_t i = 0; i < kProbes; ++i) {
    Bytes payload(48, std::uint8_t{0xAB});
    const std::uint64_t req = ++request_counter_;
    std::memcpy(payload.data(), &req, sizeof req);
    if (!h_.stack(*boss).group(kGroup)->send_regular(h_.now(), chaos_conn(), req,
                                                     payload)) {
      return false;
    }
    h_.run_for(5 * kMillisecond);
  }
  const bool all_delivered = h_.run_until_pred(
      [&] {
        for (ProcessorId p : in_group_) {
          if (probe_seen_[p] < kProbes) return false;
        }
        return true;
      },
      h_.now() + 15 * kSecond);
  // Membership agreement at the end.
  const bool agree = all_delivered && quiescent();
  if (!agree) return false;

  // State convergence: every member finishes its catch-up (a transfer may
  // still be streaming from the last rejoin), then the whole fleet must sit
  // at one common (fingerprint, digest) — and the application accumulators
  // must agree with each other too.
  const bool caught_up = h_.run_until_pred(
      [&] {
        for (ProcessorId p : in_group_) {
          const Proc& proc = procs_.at(p);
          if (!proc.st || !proc.st->caught_up()) return false;
        }
        return true;
      },
      h_.now() + 15 * kSecond);
  result_.state_converged = caught_up;
  if (caught_up) {
    const Proc& first = procs_.at(*in_group_.begin());
    const std::uint64_t want_fp = first.st->fingerprint();
    const std::uint64_t want_digest = first.st->digest();
    const std::uint64_t want_acc = first.app->accumulator();
    for (ProcessorId p : in_group_) {
      const Proc& proc = procs_.at(p);
      const bool same = proc.st->fingerprint() == want_fp &&
                        proc.st->digest() == want_digest &&
                        proc.app->accumulator() == want_acc;
      if (!same) {
        result_.state_converged = false;
        if (cfg_.verbose) {
          std::printf("  !! %s state diverged: fp=%llx digest=%llx acc=%llx "
                      "(expected %llx/%llx/%llx)\n",
                      to_string(p).c_str(),
                      (unsigned long long)proc.st->fingerprint(),
                      (unsigned long long)proc.st->digest(),
                      (unsigned long long)proc.app->accumulator(),
                      (unsigned long long)want_fp,
                      (unsigned long long)want_digest,
                      (unsigned long long)want_acc);
        }
      }
    }
  } else if (cfg_.verbose) {
    std::printf("  [%8.0fms] quiesce: state transfer did not complete on every "
                "member\n", ms(h_.now()));
  }
  // Pin one final digest broadcast per member into the trace so the offline
  // replay checks convergence at the same cut the engine did.
  for (ProcessorId p : in_group_) {
    Proc& proc = procs_.at(p);
    if (proc.alive && proc.st) proc.st->publish_digest(h_.now());
  }
  return agree;
}

CampaignResult Engine::run() {
  result_.seed = cfg_.seed;
  setup();
  const TimePoint end = h_.now() + cfg_.params.duration;
  h_.run_for(200 * kMillisecond);  // settle the founding membership

  while (h_.now() < end) {
    // Poisson-ish traffic from random in-group live members.
    for (int i = 0; i < 3; ++i) {
      std::vector<ProcessorId> members(in_group_.begin(), in_group_.end());
      if (members.empty()) break;
      const ProcessorId sender = members[rng_.next_below(members.size())];
      if (!procs_.at(sender).alive) continue;
      GroupSession* g = h_.stack(sender).group(kGroup);
      if (!g || !g->active()) continue;
      const std::uint64_t req = ++request_counter_;
      Bytes payload(32 + rng_.next_below(160));
      std::memcpy(payload.data(), &req, sizeof req);
      const std::uint32_t raw = sender.raw();
      std::memcpy(payload.data() + 8, &raw, sizeof raw);
      if (g->send_regular(h_.now(), chaos_conn(), req, payload)) {
        result_.messages_sent += 1;
      }
    }
    h_.run_for((1 + Duration(rng_.next_below(4))) * kMillisecond);
    h_.clear_events();  // on_event saw them; the harness's copy only grows
    process_crash_restarts();
    heal_stranded();
    drive_rejoins();
    apply_churn();
  }

  result_.converged = quiesce_and_probe();
  result_.schedule = sched_;
  for (auto& [p, proc] : procs_) absorb_transfer_stats(proc);
  checker_.finalize();
  for (const Violation& v : checker_.violations()) {
    if (result_.violations.size() < kMaxViolations) result_.violations.push_back(v);
  }
  std::sort(result_.violations.begin(), result_.violations.end(),
            [](const Violation& x, const Violation& y) { return x.at < y.at; });

  if (trace_) {
    std::fclose(trace_);
    trace_ = nullptr;
  }
  // Release the per-proc log writers before deciding the directory's fate.
  for (auto& [p, proc] : procs_) proc.plog.reset();
  if (own_log_dir_ && result_.ok()) {
    std::error_code ec;
    std::filesystem::remove_all(log_dir_, ec);
  }
  return result_;
}

}  // namespace

CampaignResult run_campaign(const CampaignConfig& cfg) {
  Engine engine(cfg);
  return engine.run();
}

std::string repro_command(const CampaignConfig& cfg) {
  std::ostringstream cmd;
  cmd << "chaos_campaign --seed " << cfg.seed << " --procs " << cfg.params.processors
      << " --duration " << cfg.params.duration / kMillisecond << " --faults "
      << cfg.params.faults << " --ordering " << to_string(cfg.ordering_mode)
      << " --trace chaos_" << cfg.seed << ".trace -v";
  if (cfg.params.spares > 0) cmd << " --spares " << cfg.params.spares;
  if (cfg.batch_max_datagram_bytes > 0) cmd << " --batch " << cfg.batch_max_datagram_bytes;
  return cmd.str();
}

// ---- trace replay -----------------------------------------------------------

namespace {

// A trace field in `base` (decimal, or hex for hashes) that must fit T:
// digits only, no sign, no blanks.
template <typename T>
bool parse_uint(std::string_view text, T& out, int base = 10) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v, base);
  if (ec != std::errc{} || ptr != end || v > std::uint64_t(std::numeric_limits<T>::max())) {
    return false;
  }
  out = T(v);
  return true;
}

// The header's key=value fields, in any order. seed is required; the run's
// shape counts as recorded only when all five of its fields are present.
bool parse_header(const std::string& line, TraceReplay& out) {
  // v1 traces predate state transfer (no S records); v2 adds them. Both
  // replay with the same checker.
  const bool v1 = line.rfind("# chaos-trace v1 ", 0) == 0;
  if (!v1 && line.rfind("# chaos-trace v2 ", 0) != 0) {
    out.parse_error = "not a chaos-trace v1/v2 file (bad header)";
    return false;
  }
  out.version = v1 ? 1 : 2;
  CampaignConfig& run = out.run;
  run.ordering_mode = OrderingMode::kLamportPaper;
  std::uint64_t duration_ms = 0;
  using Parse = std::function<bool(const std::string&)>;
  const std::pair<const char*, Parse> keys[] = {
      {"seed", [&](const std::string& v) { return parse_uint(v, run.seed); }},
      {"ordering",
       [&](const std::string& v) { return parse_ordering_mode(v.c_str(), run.ordering_mode); }},
      {"procs", [&](const std::string& v) { return parse_uint(v, run.params.processors); }},
      {"duration",
       [&](const std::string& v) {
         return parse_uint(v, duration_ms) &&
                duration_ms <= std::uint64_t(std::numeric_limits<Duration>::max() / kMillisecond);
       }},
      {"faults", [&](const std::string& v) { return parse_uint(v, run.params.faults); }},
      {"spares", [&](const std::string& v) { return parse_uint(v, run.params.spares); }},
      {"batch", [&](const std::string& v) { return parse_uint(v, run.batch_max_datagram_bytes); }},
  };
  unsigned seen = 0;  // bit k: keys[k] was present
  std::istringstream fields(line.substr(std::strlen("# chaos-trace vN ")));
  for (std::string field; fields >> field;) {
    const std::size_t eq = field.find('=');
    std::size_t k = 0;
    while (k < std::size(keys) && field.compare(0, eq, keys[k].first) != 0) ++k;
    if (eq == std::string::npos || k == std::size(keys) ||
        !keys[k].second(field.substr(eq + 1))) {
      out.parse_error = "bad header field '" + field + "'";
      return false;
    }
    seen |= 1u << k;
  }
  if (!(seen & 1u)) {
    out.parse_error = "not a chaos-trace v1/v2 file (no seed in the header)";
    return false;
  }
  run.params.duration = Duration(duration_ms) * kMillisecond;
  out.shape_recorded = (seen >> 2) == 0x1F;
  return true;
}

// A record's fields after its type letter, split at blanks.
std::vector<std::string> split_fields(const std::string& line) {
  std::istringstream in(line.substr(1));
  std::vector<std::string> out;
  for (std::string field; in >> field;) out.push_back(std::move(field));
  return out;
}

// An F record's fault: a to_string(FaultKind) name.
bool is_fault_kind(const std::string& name) {
  for (auto k = std::uint8_t(FaultKind::kLossBurst); k <= std::uint8_t(FaultKind::kRebind); ++k) {
    if (name == to_string(FaultKind(k))) return true;
  }
  return false;
}

// A V record's member list: comma-separated processor ids.
bool parse_members(const std::string& text, std::vector<std::uint32_t>& out) {
  std::istringstream ids(text);
  for (std::string tok; std::getline(ids, tok, ',');) {
    if (!parse_uint(tok, out.emplace_back())) return false;
  }
  return true;
}

}  // namespace

TraceReplay replay_trace(std::istream& in) {
  TraceReplay out;
  std::string line;
  std::getline(in, line);
  if (!parse_header(line, out)) return out;

  InvariantChecker checker;
  std::size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    // Every record has exactly its fields, each checked (hashes in hex).
    const std::vector<std::string> f = split_fields(line);
    bool ok = false;
    switch (line[0]) {
      // Crash markers and fault applications feed no checker.
      case 'X': {
        TimePoint at = 0;
        std::uint32_t proc = 0;
        if (f.size() == 2 && parse_uint(f[0], at) && parse_uint(f[1], proc)) continue;
        break;
      }
      case 'F': {
        TimePoint at = 0;
        if (f.size() >= 2 && parse_uint(f[0], at) && is_fault_kind(f[1])) continue;
        break;
      }
      case 'D': {
        DeliveryRecord d;
        ok = f.size() == 7 && parse_uint(f[0], d.at) && parse_uint(f[1], d.proc) &&
             parse_uint(f[2], d.group) && parse_uint(f[3], d.source) &&
             parse_uint(f[4], d.seq) && parse_uint(f[5], d.ts) &&
             parse_uint(f[6], d.hash, 16);
        if (ok) checker.on_delivery(d);
        break;
      }
      case 'V': {
        ViewRecord v;
        ok = f.size() == 5 && parse_uint(f[0], v.at) && parse_uint(f[1], v.proc) &&
             parse_uint(f[2], v.group) && parse_uint(f[3], v.view_ts) &&
             parse_members(f[4], v.members);
        if (ok) checker.on_view(v);
        break;
      }
      case 'R': {
        TimePoint at = 0;
        std::uint32_t proc = 0;
        ok = f.size() == 2 && parse_uint(f[0], at) && parse_uint(f[1], proc);
        if (ok) checker.on_reset(proc);
        break;
      }
      case 'S': {
        StateDigestRecord s;
        ok = f.size() == 5 && parse_uint(f[0], s.at) && parse_uint(f[1], s.proc) &&
             parse_uint(f[2], s.group) && parse_uint(f[3], s.fingerprint, 16) &&
             parse_uint(f[4], s.digest, 16);
        if (ok) checker.on_state_digest(s);
        break;
      }
      default:
        out.parse_error = "unknown record '" + line.substr(0, 1) + "' at line " +
                          std::to_string(lineno);
        return out;
    }
    if (!ok) {
      out.parse_error = "malformed " + line.substr(0, 1) + " record at line " +
                        std::to_string(lineno);
      return out;
    }
    out.records += 1;
  }
  checker.finalize();
  out.parsed = true;
  out.violations = checker.violations();
  return out;
}

TraceReplay replay_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    TraceReplay out;
    out.parse_error = "cannot open " + path;
    return out;
  }
  return replay_trace(in);
}

}  // namespace ftcorba::ftmp::chaos
