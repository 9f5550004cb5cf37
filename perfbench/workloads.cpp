#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "fleet.hpp"
#include "ft/replication.hpp"
#include "ftmp/llft.hpp"
#include "gate.hpp"
#include "giop/cdr.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

// ---- fixed settings (NOTES.md records why) ----
constexpr int kSetupRepeats = 21;                     // set-ups per run; median
constexpr Duration kWarmup = 1500 * kMillisecond;     // load before measuring
constexpr Duration kCoolDown = 300 * kMillisecond;    // window messages settle
constexpr Duration kPhaseTimeout = 5 * kSecond;       // any wait that can stall
constexpr Duration kSlice = kSecond;                  // window slice; medians over slices
constexpr std::size_t kPayloadBytes = 64;             // multicast payloads
constexpr std::size_t kStampBytes = 24;               // CDR source, req, due
constexpr std::size_t kFloodWindow = 256;             // flood flow window
constexpr std::size_t kBatchBudget = 8192;            // as in bench_e9
constexpr std::uint64_t kBatchFlushUs = 500;
constexpr double kPacedRate = 1000.0;                 // msg/s over all members
constexpr int kPacedCycles = 2;                       // leader crashes (NOTES.md: why 2)
constexpr double kPacedFaultFreeShare = 0.75;         // of --seconds
constexpr std::size_t kOutstanding = 8;               // invoke_orb clients
constexpr double kThinkMs = 5.0;                      // mean client think time
constexpr std::size_t kArgBytes = 1000;               // ~1 KiB CDR argument
constexpr Duration kInvokeDeadline = 2 * kSecond;

const FtDomainId kDomain{1};
const ProcessorGroupId kGroup{1};
const orb::ObjectKey kLedgerKey{"ledger"};

ConnectionId mcast_conn() {
  return ConnectionId{kDomain, ObjectGroupId{1}, kDomain, ObjectGroupId{2}};
}

double median(const std::vector<double>& v) { return quantile_of(v, 0.5); }

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double rss_peak_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Registry values at one instant, by instrument name.
struct RegSnap {
  std::unordered_map<std::string, metrics::Sample> by_name;

  static RegSnap take() {
    RegSnap s;
    for (metrics::Sample& x : metrics::snapshot()) s.by_name.emplace(x.name, std::move(x));
    return s;
  }
  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0 : it->second.counter;
  }
};

double counter_delta(const RegSnap& a, const RegSnap& b, const std::string& name) {
  return double(b.counter(name) - a.counter(name));
}

/// Quantile of the observations a registry histogram gained between two
/// snapshots, interpolated linearly inside the bucket it falls in.
double hist_quantile(const RegSnap& a, const RegSnap& b, const std::string& name,
                     double q, std::uint64_t* count_out = nullptr) {
  auto ib = b.by_name.find(name);
  if (ib == b.by_name.end()) return 0.0;
  const metrics::Sample& hb = ib->second;
  auto ia = a.by_name.find(name);
  std::vector<double> d(hb.buckets.size(), 0.0);
  double total = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    const std::uint64_t before = ia == a.by_name.end() ? 0 : ia->second.buckets.at(i);
    d[i] = double(hb.buckets[i] - before);
    total += d[i];
  }
  if (count_out) *count_out = static_cast<std::uint64_t>(total);
  if (total == 0) return 0.0;
  const double target = q * total;
  double cum = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (d[i] > 0 && cum + d[i] >= target) {
      const double lo = i == 0 ? 0.0 : hb.bounds[i - 1];
      const double hi = i < hb.bounds.size() ? hb.bounds[i] : hb.bounds.back();
      return lo + (hi - lo) * ((target - cum) / d[i]);
    }
    cum += d[i];
  }
  return hb.bounds.back();
}

// ---- the invoke_orb replica state machine and its client-side model ----

/// Deterministic ledger: each "apply" folds its argument into a running
/// FNV digest and returns the new digest plus the argument masked by it
/// (a ~1 KiB result).
struct LedgerState {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::uint64_t applied = 0;

  /// Applies one operation; fills `result` and returns the new digest.
  std::uint64_t apply(std::uint64_t op, BytesView data, Bytes& result) {
    std::uint8_t opb[8];
    for (int i = 0; i < 8; ++i) opb[i] = static_cast<std::uint8_t>(op >> (8 * i));
    digest = fnv1a(opb, 8, digest);
    digest = fnv1a(data.data(), data.size(), digest);
    applied += 1;
    result.resize(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      result[i] = static_cast<std::uint8_t>(data[i] ^ (digest >> (8 * (i % 8))));
    }
    return digest;
  }
};

class LedgerMachine : public ft::StateMachine {
 public:
  giop::ReplyStatus apply(const std::string& operation, giop::CdrReader& in,
                          giop::CdrWriter& out) override {
    if (operation != "apply") {
      out.string("unknown operation");
      return giop::ReplyStatus::kUserException;
    }
    const std::uint64_t op = in.ulonglong_();
    const Bytes data = in.octet_seq();
    Bytes result;
    out.ulonglong_(state_.apply(op, data, result));
    out.octet_seq(result);
    return giop::ReplyStatus::kNoException;
  }
  [[nodiscard]] Bytes snapshot() const override {
    giop::CdrWriter w;
    w.ulonglong_(state_.digest);
    w.ulonglong_(state_.applied);
    return w.bytes();
  }
  void restore(BytesView snapshot) override {
    giop::CdrReader r(snapshot);
    state_.digest = r.ulonglong_();
    state_.applied = r.ulonglong_();
  }

 private:
  LedgerState state_;
};

// ---------------------------------------------------------------------------
// Shared workload skeleton
// ---------------------------------------------------------------------------

/// One crash of a member, timed from outside (detect, install, resume,
/// failover) and checked (excluded, and re-admitted where the workload
/// re-admits).
struct Cycle {
  ProcessorId victim{};
  TimePoint crash_at = 0;
  std::uint64_t suspicions_at_crash = 0;
  std::optional<TimePoint> detect_at;
  std::map<std::uint32_t, TimePoint> installed;   // survivor -> fault install
  std::map<std::uint32_t, TimePoint> resumed;     // survivor -> first delivery after it
  std::optional<std::uint64_t> probe;             // first op issued after the crash
  std::map<std::uint32_t, TimePoint> probe_done;  // survivor -> probe delivered
  std::optional<TimePoint> failover_at;
  std::set<std::uint32_t> saw_readmit;            // survivors with a view with victim back
};

class Workload {
 public:
  explicit Workload(const Params& p)
      : p_(p), tracer_(p.trace), rng_(p.seed), fault_rng_(rng_.split(1)),
        suspicions_(metrics::counter("ftmp_pgmp_suspicions_total",
                                     "Suspicions raised", "suspicions", "ftmp")) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  Report run();

 protected:
  // ---- per-workload hooks ----
  /// Adds the members and starts the protocol (groups, connections).
  virtual void build() = 0;
  /// True once the fleet is ready for load.
  virtual bool ready() = 0;
  /// Starts the load (called once, after set-up).
  virtual void start_load() {}
  /// Issues this round's load (called inside the round span).
  virtual void offer(TimePoint now) = 0;
  /// Consumes one DeliveredMessage event at `m`; returns its gate key.
  virtual std::uint64_t on_delivered(Member& m, TimePoint t, ftmp::Event& ev) = 0;
  /// `m` observed a view that contains it.
  virtual void on_admitted(Member& m) { (void)m; }
  /// The measured phases after warm-up.
  virtual void measure() = 0;
  /// True once every operation of a live source has completed everywhere.
  virtual bool drained() = 0;
  /// Workload checks and metrics after the drain.
  virtual void finish(Report& rep) = 0;

  // ---- helpers for the hooks ----
  McastAddress fresh_addr() { return McastAddress{next_addr_++}; }
  static std::uint32_t gate_tag(const Member& m) { return m.id.raw() * 256 + m.incarnation; }
  void gate_join(const Member& m) {
    gate_.join(gate_tag(m), to_string(m.id) + "#" + std::to_string(m.incarnation));
  }

  void round();
  void run_for(Duration d);
  bool run_until(const std::function<bool()>& pred, Duration timeout);
  void open_window();
  void close_window();
  /// True if an operation issued at `t` falls in the measurement window.
  [[nodiscard]] bool measured(TimePoint t) const {
    return t0_ != 0 && t >= t0_ && (in_window_ || t < t1_);
  }

  /// Crashes `victim` and opens a cycle; the caller runs rounds until
  /// cycle_failed_over() and then (optionally) re-admits.
  void crash(ProcessorId victim);
  [[nodiscard]] bool cycle_failed_over();
  void note_probe(std::uint64_t key) {
    if (cur_ && !cur_->probe) cur_->probe = key;
  }
  void probe_delivered(std::uint32_t member, TimePoint t, std::uint64_t key) {
    if (cur_ && cur_->probe && *cur_->probe == key) cur_->probe_done.emplace(member, t);
  }
  void close_cycle() {
    if (cur_) cycles_.push_back(*cur_);
    cur_.reset();
  }
  [[nodiscard]] std::string cycle_label() const {
    return "cycle " + std::to_string(cycles_.size() + 1);
  }
  /// What the open cycle has seen so far, for failure messages.
  [[nodiscard]] std::string cycle_state() const;

  [[nodiscard]] std::vector<Member*> live() const;
  void violation(std::string v) { violations_.push_back(std::move(v)); }
  /// Reports every metric; `ops_scale` converts counted completions into
  /// operations (a multicast message completes once per member).
  void add_metrics(Report& rep, double ops_scale);

  Params p_;
  Tracer tracer_;
  // Seeded input streams, kept apart so that the load, the fault schedule
  // and the clients' think times do not shift one another.
  Rng rng_;        // load: arrivals, senders, payloads, arguments
  Rng fault_rng_;  // crash victims and crash times
  std::unique_ptr<Fleet> fleet_;
  std::uint32_t next_addr_ = 0;
  std::vector<double> setup_s_;
  bool in_window_ = false;
  bool load_on_ = false;
  TimePoint t0_ = 0, t1_ = 0;
  RegSnap reg0_, reg1_;
  AllocStats alloc0_{}, alloc1_{};
  ftmp::BatchStats batch0_{}, batch1_{};
  std::size_t batch_budget_ = 0;
  PollCounts counts_{};
  std::uint64_t offers_ = 0, queued_ = 0;  // try_send_regular dispositions in window
  /// The window is cut into slices of `slice_`; throughput and latency
  /// quantiles are taken per slice and reported as the median over the
  /// full slices, so one host stall moves one slice, not the result.
  struct Slice {
    LogHist latency_ms;   // operations issued in the slice
    std::uint64_t ops = 0;  // operations completed in the slice
  };
  Duration slice_ = kSlice;
  std::vector<Slice> slices_;
  Slice& slice_at(TimePoint t) {
    const auto i = static_cast<std::size_t>((t - t0_) / slice_);
    if (i >= slices_.size()) slices_.resize(i + 1);
    return slices_[i];
  }
  /// One operation issued at `issued` completed at `done` (one sample per
  /// operation and member for multicast).
  void record_latency(TimePoint issued, TimePoint done) {
    if (measured(issued)) slice_at(issued).latency_ms.add(to_ms(done - issued));
  }
  void count_op(TimePoint done) {
    if (in_window_) slice_at(done).ops += 1;
  }
  LogHist gen_lag_ms_;
  double dups_ = 0;  // duplicate replies suppressed in window (invoke_orb)

  OrderGate gate_;
  std::vector<std::string> violations_;
  std::uint64_t attempted_ = 0, failed_ = 0;

  std::optional<Cycle> cur_;
  std::vector<Cycle> cycles_;
  metrics::CounterHandle suspicions_;

 private:
  void on_event(Member& m, TimePoint t, ftmp::Event& ev);
  void gate_deliver(const Member& m, std::uint64_t key);
  [[nodiscard]] ftmp::BatchStats batch_sum();

  std::set<std::uint32_t> admitted_;  // gate tags that saw themselves in a view
  // Self-test corruption: one delivery at the first member is held back
  // and fed to the gate after the next one.
  int corrupt_state_ = 0;
  std::uint64_t held_key_ = 0;
};

std::vector<Member*> Workload::live() const {
  std::vector<Member*> out;
  for (const auto& m : fleet_->members()) {
    if (m->alive) out.push_back(m.get());
  }
  return out;
}

std::string Workload::cycle_state() const {
  std::string out = "detected=" + std::string(cur_ && cur_->detect_at ? "yes" : "no");
  if (!cur_) return out;
  auto ids = [](const std::map<std::uint32_t, TimePoint>& m) {
    std::string s;
    for (const auto& [id, t] : m) s += " P" + std::to_string(id);
    return s.empty() ? std::string(" none") : s;
  };
  return out + " installed:" + ids(cur_->installed) + " resumed:" + ids(cur_->resumed) +
         " probe " + (cur_->probe ? "issued" : "not issued") +
         ", delivered at:" + ids(cur_->probe_done);
}

void Workload::gate_deliver(const Member& m, std::uint64_t key) {
  const std::uint32_t tag = gate_tag(m);
  const bool target = fleet_->members().front().get() == &m;
  if (p_.corrupt_log && target && in_window_ && corrupt_state_ == 0) {
    held_key_ = key;
    corrupt_state_ = 1;
    return;
  }
  gate_.deliver(tag, key);
  if (corrupt_state_ == 1 && target) {
    gate_.deliver(tag, held_key_);
    corrupt_state_ = 2;
  }
}

void Workload::on_event(Member& m, TimePoint t, ftmp::Event& ev) {
  if (std::holds_alternative<ftmp::DeliveredMessage>(ev)) {
    gate_deliver(m, on_delivered(m, t, ev));
    if (cur_ && cur_->installed.contains(m.id.raw())) cur_->resumed.emplace(m.id.raw(), t);
    return;
  }
  auto* mc = std::get_if<ftmp::MembershipChanged>(&ev);
  if (!mc) return;  // the ORB consumes DeliveredMessage events only
  const auto& members = mc->membership.members;
  if (std::find(members.begin(), members.end(), m.id) != members.end() &&
      admitted_.insert(gate_tag(m)).second) {
    on_admitted(m);
  }
  if (!cur_) return;
  const ProcessorId v = cur_->victim;
  if (mc->reason == ftmp::MembershipChanged::Reason::kFault &&
      std::find(mc->left.begin(), mc->left.end(), v) != mc->left.end()) {
    cur_->installed.emplace(m.id.raw(), t);
  }
  if (std::find(mc->joined.begin(), mc->joined.end(), v) != mc->joined.end()) {
    cur_->saw_readmit.insert(m.id.raw());
  }
}

ftmp::BatchStats Workload::batch_sum() {
  ftmp::BatchStats s;
  for (Member* m : live()) {
    const ftmp::BatchStats& b = m->stack().batch_stats();
    s.batch_datagrams += b.batch_datagrams;
    s.subframes += b.subframes;
    s.batch_bytes += b.batch_bytes;
  }
  return s;
}

void Workload::round() {
  {
    Span r(tracer_, SpanKind::kRound);
    if (load_on_) offer(now_ns());
    fleet_->round([this](Member& m, TimePoint t, ftmp::Event& ev) { on_event(m, t, ev); });
  }
  if (cur_ && !cur_->detect_at && suspicions_.value() > cur_->suspicions_at_crash) {
    cur_->detect_at = now_ns();
  }
}

void Workload::run_for(Duration d) {
  const TimePoint end = now_ns() + d;
  while (now_ns() < end) round();
}

bool Workload::run_until(const std::function<bool()>& pred, Duration timeout) {
  const TimePoint end = now_ns() + timeout;
  while (!pred()) {
    if (now_ns() >= end) return false;
    round();
  }
  return true;
}

void Workload::open_window() {
  reg0_ = RegSnap::take();
  alloc0_ = alloc_stats();
  batch0_ = batch_sum();
  fleet_->reset_counts();
  offers_ = queued_ = 0;
  tracer_.start_window();
  in_window_ = true;
  t0_ = now_ns();
}

void Workload::close_window() {
  t1_ = now_ns();
  in_window_ = false;
  tracer_.stop_window();
  counts_ = fleet_->counts();
  reg1_ = RegSnap::take();
  alloc1_ = alloc_stats();
  batch1_ = batch_sum();
}

void Workload::crash(ProcessorId victim) {
  Cycle c;
  c.victim = victim;
  c.suspicions_at_crash = suspicions_.value();
  Member& m = fleet_->member(victim);
  gate_.crash(gate_tag(m));
  fleet_->crash(m);
  c.crash_at = now_ns();
  cur_ = c;
}

bool Workload::cycle_failed_over() {
  if (!cur_) return true;
  if (cur_->failover_at) return true;
  for (Member* m : live()) {
    const std::uint32_t id = m->id.raw();
    if (!cur_->installed.contains(id) || !cur_->probe_done.contains(id) ||
        !cur_->resumed.contains(id)) {
      return false;
    }
  }
  TimePoint last = 0;
  for (const auto& [id, t] : cur_->probe_done) last = std::max(last, t);
  cur_->failover_at = last;
  return true;
}

Report Workload::run() {
  // Set-up, several times: every fleet but the last is torn down again.
  for (int k = 0; k < kSetupRepeats; ++k) {
    fleet_.reset();
    gate_ = OrderGate{};
    admitted_.clear();
    next_addr_ = p_.addr_base + std::uint32_t(k) * 8;
    const TimePoint s0 = now_ns();
    fleet_ = std::make_unique<Fleet>(p_.port, tracer_, rng_.split(3).next_u64());
    build();
    for (const auto& m : fleet_->members()) gate_join(*m);
    const bool ok = run_until([this] { return ready(); }, kPhaseTimeout);
    setup_s_.push_back(to_ms(now_ns() - s0) / 1e3);
    if (!ok) {
      violation("set-up did not complete within 5 s");
      break;
    }
  }

  if (violations_.empty()) {
    load_on_ = true;
    start_load();
    run_for(kWarmup);
    measure();
    load_on_ = false;
    if (!run_until([this] { return drained() && gate_.settled(); }, kPhaseTimeout)) {
      violation("drain did not complete within 5 s");
    }
  }
  if (p_.corrupt_log && corrupt_state_ != 2) violation("no delivery to corrupt");
  for (const std::string& v : gate_.finish()) violation(v);

  Report rep;
  finish(rep);
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(gate_.digest()));
  rep.notes.emplace_back("order_digest", digest);
  rep.notes.emplace_back("order_length", std::to_string(gate_.length()));
  rep.notes.emplace_back("crash_cycles", std::to_string(cycles_.size()));
  rep.violations = violations_;
  rep.correct = violations_.empty();
  rep.attempted = attempted_;
  rep.failed = failed_ + violations_.size();
  if (p_.trace && !p_.spans_path.empty() && !tracer_.write_csv(p_.spans_path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", p_.spans_path.c_str());
  }
  return rep;
}

void Workload::add_metrics(Report& rep, double ops_scale) {
  double ops = 0;  // operations completed in the window
  for (const Slice& sl : slices_) ops += double(sl.ops) / ops_scale;
  const double dgrams_out = counter_delta(reg0_, reg1_, "net_udp_datagrams_out_total");
  const auto full = static_cast<std::size_t>((t1_ - t0_) / slice_);
  std::vector<double> rate, p50, p99;
  std::int64_t lat_n = 0;
  for (std::size_t i = 0; i < full && i < slices_.size(); ++i) {
    const Slice& sl = slices_[i];
    rate.push_back(double(sl.ops) / ops_scale / (to_ms(slice_) / 1e3));
    p50.push_back(sl.latency_ms.quantile(0.5));
    p99.push_back(sl.latency_ms.quantile(0.99));
    lat_n += static_cast<std::int64_t>(sl.latency_ms.count());
  }
  // The per-slice values behind the medians, to show a run's own spread.
  auto join = [](const std::vector<double>& v) {
    std::string out;
    char buf[32];
    for (double x : v) {
      std::snprintf(buf, sizeof buf, "%s%.4g", out.empty() ? "" : " ", x);
      out += buf;
    }
    return out;
  };
  rep.notes.emplace_back("ops_per_s_by_slice", join(rate));
  rep.notes.emplace_back("latency_p99_ms_by_slice", join(p99));
  rep.metrics.push_back({"setup_s", median(setup_s_), "s",
                         static_cast<std::int64_t>(setup_s_.size())});
  rep.metrics.push_back({"ops_per_s", median(rate), "1/s", std::int64_t(rate.size())});
  rep.metrics.push_back({"latency_p50_ms", median(p50), "ms", lat_n});
  rep.metrics.push_back({"latency_p99_ms", median(p99), "ms", lat_n});

  std::vector<double> failover, detect, install, resume;
  for (const Cycle& c : cycles_) {
    if (c.failover_at) failover.push_back(to_ms(*c.failover_at - c.crash_at));
    if (c.detect_at) detect.push_back(to_ms(*c.detect_at - c.crash_at));
    TimePoint inst = 0;
    Duration res = 0;
    for (const auto& [id, t] : c.installed) inst = std::max(inst, t);
    for (const auto& [id, t] : c.resumed) res = std::max(res, t - c.installed.at(id));
    if (!c.installed.empty()) install.push_back(to_ms(inst - c.crash_at));
    if (!c.resumed.empty()) resume.push_back(to_ms(res));
  }
  rep.metrics.push_back({"failover_ms", median(failover), "ms",
                         static_cast<std::int64_t>(failover.size())});
  rep.metrics.push_back({"datagrams_per_op", ratio(dgrams_out, ops), "count", -1});
  rep.metrics.push_back({"rss_peak_mib", rss_peak_mib(), "MiB", -1});
  rep.metrics.push_back({"failed_frac",
                         ratio(double(failed_ + violations_.size()), double(attempted_)),
                         "ratio", -1});
  if (!p_.trace) return;

  // ---- per-layer metrics (traced run only) ----
  auto us = [](std::int64_t ns) { return double(ns) / 1e3; };
  auto mean_us = [&](SpanKind k) {
    const SpanAgg& a = tracer_.agg(k);
    return ratio(us(a.total_ns), double(a.calls));
  };
  auto add = [&](const char* name, double v, const char* unit, std::int64_t n = -1) {
    rep.metrics.push_back({name, v, unit, n});
  };
  const PollCounts& c = counts_;
  add("net.recv_us_per_dgram", ratio(us(c.recv_busy_ns), double(c.dgrams_in)), "us");
  add("net.dgrams_per_recv_call", ratio(double(c.dgrams_in), double(c.recv_calls - c.recv_empty)),
      "count");
  add("net.recv_empty_frac", ratio(double(c.recv_empty), double(c.recv_calls)), "ratio");
  add("net.send_us_per_dgram",
      ratio(us(tracer_.agg(SpanKind::kSend).total_ns), double(c.dgrams_out)), "us");
  add("common.bufs_per_dgram_in",
      ratio(double((alloc1_.fresh_buffers - alloc0_.fresh_buffers) +
                   (alloc1_.pool_hits - alloc0_.pool_hits)),
            double(c.dgrams_in)),
      "count");
  add("common.copied_bytes_per_op",
      ratio(double(alloc1_.copied_bytes - alloc0_.copied_bytes), ops), "B");
  add("runtime.ingest_us_per_dgram",
      ratio(us(tracer_.agg(SpanKind::kIngest).total_ns), double(c.dgrams_in)), "us");
  add("runtime.tick_us", mean_us(SpanKind::kTick), "us");
  add("runtime.drain_us_per_dgram",
      ratio(us(tracer_.agg(SpanKind::kDrain).total_ns), double(c.dgrams_out)), "us");
  add("runtime.sync_us_per_round",
      ratio(us(tracer_.agg(SpanKind::kSync).total_ns), double(c.member_polls)), "us");
  add("ftmp.flow.queued_frac", ratio(double(queued_), double(offers_)), "ratio");
  const double bd = double(batch1_.batch_datagrams - batch0_.batch_datagrams);
  add("ftmp.batch.fill",
      ratio(double(batch1_.batch_bytes - batch0_.batch_bytes), bd * double(batch_budget_)),
      "ratio");
  add("ftmp.batch.subframes_per_dgram", ratio(double(batch1_.subframes - batch0_.subframes), bd),
      "count");
  add("ftmp.rmp.heartbeats_per_op",
      ratio(counter_delta(reg0_, reg1_, "ftmp_rmp_heartbeats_sent_total"), ops), "count");
  add("ftmp.rmp.nacks_per_kop",
      ratio(1000 * counter_delta(reg0_, reg1_, "ftmp_rmp_retransmit_requests_sent_total"), ops),
      "count");
  std::uint64_t waits = 0;
  const double w50 = hist_quantile(reg0_, reg1_, "ftmp_romp_ordering_wait_ms", 0.5, &waits);
  add("ftmp.ordering.wait_p50_ms", w50, "ms", std::int64_t(waits));
  add("ftmp.ordering.wait_p99_ms",
      hist_quantile(reg0_, reg1_, "ftmp_romp_ordering_wait_ms", 0.99), "ms", std::int64_t(waits));
  add("ftmp.ordering.grants_per_op",
      ratio(counter_delta(reg0_, reg1_, "ftmp_ordering_grants_total"), ops), "count");
  add("ftmp.pgmp.detect_ms", median(detect), "ms", std::int64_t(detect.size()));
  add("ftmp.pgmp.install_ms", median(install), "ms", std::int64_t(install.size()));
  add("ftmp.ordering.resume_ms", median(resume), "ms", std::int64_t(resume.size()));
  add("ftmp.pgmp.false_suspicions", counter_delta(reg0_, reg1_, "ftmp_pgmp_suspicions_total"),
      "count");
  add("giop.marshal_us_per_op", mean_us(SpanKind::kMarshal), "us");
  add("ft.dups_per_op", ratio(dups_, ops), "count");
  add("bench.round_us", mean_us(SpanKind::kRound), "us");
  add("bench.uncovered_frac", 1.0 - ratio(double(tracer_.covered_ns()), double(t1_ - t0_)),
      "ratio");

  // Self time per layer (each span minus its children), per operation. A
  // layer whose call sites a workload does not run is left out.
  std::map<std::string, std::pair<std::uint64_t, std::int64_t>> layers;  // calls, self ns
  for (std::size_t k = 0; k < static_cast<std::size_t>(SpanKind::kCount); ++k) {
    const std::string name = span_name(static_cast<SpanKind>(k));
    const SpanAgg& a = tracer_.agg(static_cast<SpanKind>(k));
    auto& [calls, self] = layers[name.substr(0, name.find('.'))];
    calls += a.calls;
    self += a.self_ns;
  }
  for (const auto& [layer, cs] : layers) {
    if (cs.first > 0) {
      rep.metrics.push_back({layer + ".self_us_per_op", ratio(us(cs.second), ops), "us", -1});
    }
  }

  // Timings of call sites only some workloads run.
  if (tracer_.agg(SpanKind::kGroupSend).calls > 0) {
    add("ftmp.send_us_per_op", mean_us(SpanKind::kGroupSend), "us");
  }
  if (tracer_.agg(SpanKind::kInvoke).calls > 0) {
    add("orb.invoke_us", mean_us(SpanKind::kInvoke), "us");
    add("orb.event_us_per_delivery", mean_us(SpanKind::kOnEvent), "us");
  }
  std::uint64_t slots = 0;
  const double s50 = hist_quantile(reg0_, reg1_, "ftmp_ordering_slot_wait_ms", 0.5, &slots);
  if (slots > 0) add("ftmp.ordering.slot_wait_p50_ms", s50, "ms", std::int64_t(slots));
  if (gen_lag_ms_.count() > 0) {
    add("bench.gen_lag_p99_ms", gen_lag_ms_.quantile(0.99), "ms",
        std::int64_t(gen_lag_ms_.count()));
  }
}

// ---------------------------------------------------------------------------
// flood_lamport and paced_llft: stamped multicast on one processor group
// ---------------------------------------------------------------------------

class MulticastWorkload : public Workload {
 public:
  MulticastWorkload(const Params& p, bool paced) : Workload(p), paced_(paced) {
    cfg_.ordering_mode = paced ? ftmp::OrderingMode::kLlft : ftmp::OrderingMode::kLamport;
    cfg_.batch_max_datagram_bytes = kBatchBudget;
    cfg_.batch_flush_us = kBatchFlushUs;
    if (!paced) cfg_.flow_window_messages = kFloodWindow;
    batch_budget_ = kBatchBudget;
  }

 protected:
  static constexpr std::uint32_t kMembers = 3;

  /// Per-source send state. Request numbers continue across a source's
  /// incarnations, so (source, req) names one message for the whole run.
  struct Source {
    std::uint64_t sent = 0;                // last request number sent
    std::vector<std::uint64_t> inc_first;  // first request of each incarnation
  };
  /// What one member incarnation has delivered from one source.
  struct Seen {
    std::uint64_t last = 0;           // last request delivered
    std::uint64_t required_from = 0;  // first request it must deliver (0 = unset)
  };

  void build() override {
    group_addr_ = fresh_addr();
    const McastAddress domain_addr = fresh_addr();
    std::vector<ProcessorId> ids;
    for (std::uint32_t i = 1; i <= kMembers; ++i) ids.push_back(ProcessorId{i});
    for (ProcessorId id : ids) fleet_->add(id, kDomain, domain_addr, cfg_);
    const TimePoint now = now_ns();
    for (ProcessorId id : ids) {
      fleet_->member(id).stack().create_group(now, kGroup, group_addr_, ids);
    }
    sources_.assign(kMembers + 1, Source{});
    for (std::uint32_t s = 1; s <= kMembers; ++s) sources_[s].inc_first.push_back(1);
    seen_.clear();
    for (ProcessorId id : ids) {
      for (std::uint32_t s = 1; s <= kMembers; ++s) {
        seen_[gate_tag(fleet_->member(id))][s].required_from = 1;
      }
    }
    rounds_seen_ = 0;
  }

  bool ready() override {
    // Groups exist and the first round's subscription sync joined them.
    for (Member* m : live()) {
      if (!m->stack().group(kGroup)) return false;
    }
    return rounds_seen_++ > 0;
  }

  void on_admitted(Member& m) override {
    // Everything a source sends from now on must reach this incarnation.
    for (std::uint32_t s = 1; s <= kMembers; ++s) {
      Seen& seen = seen_[gate_tag(m)][s];
      if (seen.required_from == 0) seen.required_from = sources_[s].sent + 1;
    }
  }

  /// The member that sends a message drawn for `preferred`: itself when it
  /// is an active member, else the next active member in id order.
  Member* sender_for(std::uint32_t preferred) {
    for (std::uint32_t k = 0; k < kMembers; ++k) {
      const std::uint32_t id = 1 + (preferred - 1 + k) % kMembers;
      Member& m = fleet_->member(ProcessorId{id});
      if (!m.alive) continue;
      ftmp::GroupSession* g = m.stack().group(kGroup);
      if (g && g->active() && g->is_member(m.id)) return &m;
    }
    return nullptr;
  }

  /// Payload bytes after the stamp: a pure function of (seed, source,
  /// request), so receivers verify them without the sender keeping a copy.
  void filler(std::uint32_t src, std::uint64_t req, std::uint8_t* out) const {
    std::uint64_t x = runtime::mix64(p_.seed ^ op_key(src, req));
    for (std::size_t i = 0; i < kPayloadBytes - kStampBytes; ++i) {
      if (i % 8 == 0) x = runtime::mix64(x + i);
      out[i] = static_cast<std::uint8_t>(x >> (8 * (i % 8)));
    }
  }

  /// Marshals and multicasts one stamped message from `m`.
  ftmp::SendStatus send_one(Member& m, TimePoint due) {
    const std::uint32_t src = m.id.raw();
    const std::uint64_t req = sources_[src].sent + 1;
    Bytes payload;
    {
      Span s(tracer_, SpanKind::kMarshal, src, req);
      giop::CdrWriter w;
      w.ulong_(src);
      w.ulonglong_(req);
      w.longlong_(due);
      std::uint8_t fill[kPayloadBytes - kStampBytes];
      filler(src, req, fill);
      w.raw(BytesView(fill, sizeof fill));
      payload = std::move(w).take();
    }
    const TimePoint now = now_ns();
    ftmp::SendStatus st;
    {
      Span s(tracer_, SpanKind::kGroupSend, src, req);
      st = m.stack().group(kGroup)->try_send_regular(now, mcast_conn(), req, payload);
    }
    if (st != ftmp::SendStatus::kSent && st != ftmp::SendStatus::kQueued) {
      violation(std::string("try_send_regular refused a message: ") + ftmp::to_string(st));
      return st;
    }
    sources_[src].sent = req;
    attempted_ += 1;
    note_probe(op_key(src, req));
    if (in_window_) {
      offers_ += 1;
      if (st == ftmp::SendStatus::kQueued) queued_ += 1;
    }
    return st;
  }

  void start_load() override { next_due_ = now_ns(); }

  void offer(TimePoint now) override {
    if (!paced_) {
      // Closed loop: each member offers until the flow window parks a
      // message, and again once its parked queue has drained.
      for (Member* m : live()) {
        ftmp::GroupSession* g = m->stack().group(kGroup);
        if (!g || !g->active()) continue;
        while (g->flow().queue_depth() == 0 && send_one(*m, now_ns()) == ftmp::SendStatus::kSent) {
        }
      }
      return;
    }
    // Open loop: Poisson arrivals, each sent at its due time by a seeded
    // member.
    while (next_due_ <= now) {
      const auto preferred = static_cast<std::uint32_t>(1 + rng_.next_below(kMembers));
      if (Member* m = sender_for(preferred)) {
        if (in_window_) gen_lag_ms_.add(to_ms(now - next_due_));
        send_one(*m, next_due_);
      }
      next_due_ += static_cast<Duration>(rng_.next_exponential(double(kSecond) / kPacedRate));
    }
  }

  std::uint64_t on_delivered(Member& m, TimePoint t, ftmp::Event& ev) override {
    const auto& dm = std::get<ftmp::DeliveredMessage>(ev);
    std::uint32_t src = 0;
    std::uint64_t req = 0;
    TimePoint due = 0;
    bool intact = dm.giop_message.size() == kPayloadBytes;
    if (intact) {
      giop::CdrReader r(dm.giop_message);
      src = r.ulong_();
      req = r.ulonglong_();
      due = r.longlong_();
      intact = src >= 1 && src <= kMembers && src == dm.source.raw() && req >= 1 &&
               req <= sources_[src].sent;
      if (intact) {
        std::uint8_t fill[kPayloadBytes - kStampBytes];
        filler(src, req, fill);
        intact = std::memcmp(fill, dm.giop_message.data() + kStampBytes, sizeof fill) == 0;
      }
    }
    const std::uint64_t key = op_key(src, req);
    Span s(tracer_, SpanKind::kDeliver, src, req);
    if (!intact) {
      violation(to_string(m.id) + " delivered a payload that no member sent (" +
                std::to_string(dm.giop_message.size()) + " B from " + to_string(dm.source) +
                ")");
      return key;
    }
    // Source order: each source's requests arrive contiguously, except for
    // a jump to the first request of a later incarnation (messages of a
    // crashed incarnation may be lost).
    Seen& seen = seen_[gate_tag(m)][src];
    const auto& firsts = sources_[src].inc_first;
    const bool fresh_inc = std::find(firsts.begin(), firsts.end(), req) != firsts.end();
    const bool ok = seen.last == 0
                        ? (seen.required_from == 0 || req <= seen.required_from || fresh_inc)
                        : (req == seen.last + 1 || (req > seen.last && fresh_inc));
    if (!ok) {
      violation(to_string(m.id) + "#" + std::to_string(m.incarnation) + " delivered P" +
                std::to_string(src) + "/" + std::to_string(req) + " after P" +
                std::to_string(src) + "/" + std::to_string(seen.last));
    }
    seen.last = std::max(seen.last, req);
    record_latency(due, t);
    count_op(t);
    probe_delivered(m.id.raw(), t, key);
    return key;
  }

  void measure() override {
    const Duration total = static_cast<Duration>(p_.seconds * double(kSecond));
    if (!paced_) {
      open_window();
      run_for(total - kCoolDown - kSecond / 2);
      close_window();
      run_for(kCoolDown);
      crash_and_fail_over(
          ProcessorId{static_cast<std::uint32_t>(1 + fault_rng_.next_below(kMembers))}, false);
      return;
    }
    open_window();
    run_for(static_cast<Duration>(double(total) * kPacedFaultFreeShare));
    close_window();
    for (int c = 0; c < kPacedCycles; ++c) {
      run_for(static_cast<Duration>(fault_rng_.next_in(300, 500)) * kMillisecond);
      Member* any = sender_for(1);
      const auto* llft = any ? dynamic_cast<const ftmp::LlftOrdering*>(
                                   &any->stack().group(kGroup)->ordering())
                             : nullptr;
      if (!llft) {
        violation(cycle_label() + ": no LLFT leader to crash");
        return;
      }
      if (!crash_and_fail_over(llft->leader(), true)) return;
    }
  }

  /// One crash: failover timed and checked, then (paced) re-admission of
  /// the victim as a new incarnation.
  bool crash_and_fail_over(ProcessorId victim, bool readmit) {
    crash(victim);
    if (!run_until([this] { return cycle_failed_over(); }, kPhaseTimeout)) {
      violation(cycle_label() + ": crash of " + to_string(victim) +
                " did not fail over within 5 s (" + cycle_state() + ")");
      close_cycle();
      return false;
    }
    const bool ok = !readmit || readmit_victim();
    close_cycle();
    return ok;
  }

  bool readmit_victim() {
    Member& v = fleet_->member(cur_->victim);
    fleet_->restart(v);
    gate_join(v);
    sources_[v.id.raw()].inc_first.push_back(sources_[v.id.raw()].sent + 1);
    v.stack().expect_join(kGroup, group_addr_);
    bool sponsored = false;
    const bool ok = run_until(
        [&] {
          if (!sponsored) {
            // The smallest-id active survivor sponsors the join.
            for (Member* m : live()) {
              ftmp::GroupSession* g = m == &v ? nullptr : m->stack().group(kGroup);
              if (g && g->active()) {
                sponsored = g->add_processor(now_ns(), v.id);
                break;
              }
            }
          }
          if (seen_[gate_tag(v)][1].required_from == 0) return false;  // not admitted yet
          for (Member* m : live()) {
            if (m != &v && !cur_->saw_readmit.contains(m->id.raw())) return false;
          }
          return true;
        },
        kPhaseTimeout);
    if (!ok) {
      violation(cycle_label() + ": " + to_string(v.id) + " was not re-admitted within 5 s");
    }
    return ok;
  }

  /// The last request a live source sent in its current incarnation, or 0
  /// if it sent none.
  [[nodiscard]] std::uint64_t live_last(const Member& src) const {
    const Source& s = sources_[src.id.raw()];
    return s.sent >= s.inc_first.back() ? s.sent : 0;
  }

  bool drained() override {
    for (Member* m : live()) {
      for (Member* src : live()) {
        const std::uint64_t last = live_last(*src);
        const Seen& seen = seen_[gate_tag(*m)][src->id.raw()];
        if (last != 0 && seen.required_from != 0 && last >= seen.required_from &&
            seen.last < last) {
          return false;
        }
      }
    }
    return true;
  }

  void finish(Report& rep) override {
    // Failed operations: messages of a live source's current incarnation
    // that a live member was required to deliver and did not.
    std::uint64_t missing = 0;
    for (Member* src : live()) {
      const std::uint64_t last = live_last(*src);
      if (last == 0) continue;
      std::uint64_t reached = last;
      for (Member* m : live()) {
        const Seen& seen = seen_[gate_tag(*m)][src->id.raw()];
        if (seen.required_from == 0 || seen.required_from > last) continue;
        reached = std::min(reached, std::max(seen.last, seen.required_from - 1));
      }
      missing += last - reached;
    }
    failed_ += missing;
    add_metrics(rep, kMembers);
  }

  bool paced_;
  ftmp::Config cfg_;
  McastAddress group_addr_{};
  std::vector<Source> sources_;  // by source id
  std::unordered_map<std::uint32_t, std::map<std::uint32_t, Seen>> seen_;  // tag -> src
  TimePoint next_due_ = 0;
  int rounds_seen_ = 0;
};

// ---------------------------------------------------------------------------
// invoke_orb: GIOP invocations on three active replicas
// ---------------------------------------------------------------------------

class InvokeWorkload : public Workload {
 public:
  explicit InvokeWorkload(const Params& p) : Workload(p), think_rng_(rng_.split(2)) {
    slice_ = 2 * kSecond;  // ~1000 invocations per slice, so p99 has ten beyond it
  }

 protected:
  struct Call {
    TimePoint issued = 0;
    std::uint64_t expect_digest = 0;
    std::uint64_t expect_result = 0;  // FNV of the expected result bytes
  };

  void build() override {
    server_domain_addr_ = fresh_addr();
    const McastAddress client_domain_addr = fresh_addr();
    const McastAddress group_addr = fresh_addr();
    conn_ = ConnectionId{kClientDomain, ObjectGroupId{10}, kServerDomain, ObjectGroupId{20}};
    servers_ = {ProcessorId{1}, ProcessorId{2}, ProcessorId{3}};
    machines_.clear();
    ftmp::Config cfg;  // defaults: Lamport, no batching, no flow window
    for (ProcessorId id : servers_) fleet_->add(id, kServerDomain, server_domain_addr_, cfg);
    Member& client = fleet_->add(kClient, kClientDomain, client_domain_addr, cfg);
    const TimePoint now = now_ns();
    for (ProcessorId id : servers_) {
      Member& m = fleet_->member(id);
      m.stack().create_group(now, kGroup, group_addr, servers_);
      m.stack().serve_connections(kGroup);
      m.orb = std::make_unique<orb::Orb>(m.stack());
      auto machine = std::make_shared<LedgerMachine>();
      machines_[id.raw()] = machine;
      m.orb->activate(kLedgerKey, std::make_shared<ft::ActiveReplica>(machine));
    }
    client.orb = std::make_unique<orb::Orb>(client.stack());
    client.stack().open_connection(now, conn_, server_domain_addr_, {kClient});
  }

  bool ready() override {
    // Connection established and the client admitted to the server group.
    if (!fleet_->member(kClient).stack().connection_ready(conn_)) return false;
    for (ProcessorId id : servers_) {
      ftmp::GroupSession* g = fleet_->member(id).stack().group(kGroup);
      if (!g || !g->is_member(kClient)) return false;
    }
    return true;
  }

  void offer(TimePoint now) override {
    orb::Orb& client = *fleet_->member(kClient).orb;
    client.expire(now);
    while (!idle_until_.empty() && idle_until_.front() <= now) {
      std::pop_heap(idle_until_.begin(), idle_until_.end(), std::greater<>());
      idle_until_.pop_back();
      const std::uint64_t op = calls_.size() + 1;
      Bytes data(kArgBytes);
      for (std::size_t i = 0; i < kArgBytes; i += 8) {
        const std::uint64_t r = rng_.next_u64();
        for (std::size_t b = 0; b < 8 && i + b < kArgBytes; ++b) {
          data[i + b] = static_cast<std::uint8_t>(r >> (8 * b));
        }
      }
      giop::CdrWriter args;
      {
        Span s(tracer_, SpanKind::kMarshal, kClient.raw(), op);
        args.ulonglong_(op);
        args.octet_seq(data);
      }
      Call call;
      Bytes result;
      call.expect_digest = model_.apply(op, data, result);
      call.expect_result = fnv1a(result.data(), result.size());
      call.issued = now_ns();
      std::optional<RequestNum> req;
      {
        Span s(tracer_, SpanKind::kInvoke, kClient.raw(), op);
        req = client.invoke(call.issued, conn_, kLedgerKey, "apply", args,
                            [this, op](const giop::Reply& reply, ByteOrder order) {
                              complete(op, reply, order);
                            });
      }
      attempted_ += 1;
      if (!req) {
        // Refused: the model already applied it, so the replicas' final
        // state cannot match the model either.
        failed_ += 1;
        violation("Orb::invoke refused invocation " + std::to_string(op));
        return;
      }
      calls_.push_back(call);
      outstanding_ += 1;
      note_probe(op);
      client.set_deadline(conn_, *req, call.issued + kInvokeDeadline, [this] {
        failed_ += 1;
        finish_call(now_ns());
      });
    }
  }

  /// A client's invocation ended: it thinks for a seeded exponential time
  /// before its next one (random think times keep the clients from
  /// falling into lock-step with the heartbeat timer).
  void finish_call(TimePoint t) {
    outstanding_ -= 1;
    idle_until_.push_back(
        t + static_cast<Duration>(think_rng_.next_exponential(kThinkMs * double(kMillisecond))));
    std::push_heap(idle_until_.begin(), idle_until_.end(), std::greater<>());
  }

  void start_load() override { idle_until_.assign(kOutstanding, now_ns()); }

  void complete(std::uint64_t op, const giop::Reply& reply, ByteOrder order) {
    const TimePoint t = now_ns();
    const Call& call = calls_.at(op - 1);
    finish_call(t);
    bool ok = reply.status == giop::ReplyStatus::kNoException;
    if (ok) {
      try {
        giop::CdrReader r(reply.body, order);
        const std::uint64_t digest = r.ulonglong_();
        const Bytes result = r.octet_seq();
        ok = digest == call.expect_digest &&
             fnv1a(result.data(), result.size()) == call.expect_result;
      } catch (const giop::CdrError&) {
        ok = false;
      }
    }
    if (!ok) {
      failed_ += 1;
      violation("invocation " + std::to_string(op) + " returned a wrong result");
    }
    record_latency(call.issued, t);
    count_op(t);
    if (cur_ && cur_->probe && *cur_->probe == op) {
      for (Member* m : live()) probe_delivered(m->id.raw(), t, op);
    }
  }

  std::uint64_t on_delivered(Member& m, TimePoint t, ftmp::Event& ev) override {
    const auto& dm = std::get<ftmp::DeliveredMessage>(ev);
    Span s(tracer_, SpanKind::kOnEvent, kClient.raw(), dm.request_num);
    m.orb->on_event(t, ev);
    return op_key(dm.source.raw(), dm.seq);
  }

  void measure() override {
    const Duration total = static_cast<Duration>(p_.seconds * double(kSecond));
    const orb::Orb& client = *fleet_->member(kClient).orb;
    const std::uint64_t dups0 = client.stats().duplicates_suppressed;
    open_window();
    run_for(total - kCoolDown - kSecond / 2);
    close_window();
    dups_ = double(client.stats().duplicates_suppressed - dups0);
    run_for(kCoolDown);
    const ProcessorId victim = servers_[fault_rng_.next_below(servers_.size())];
    crash(victim);
    if (!run_until([this] { return cycle_failed_over(); }, kPhaseTimeout)) {
      violation(cycle_label() + ": crash of " + to_string(victim) +
                " did not fail over within 5 s (" + cycle_state() + ")");
    }
    close_cycle();
  }

  bool drained() override {
    fleet_->member(kClient).orb->expire(now_ns());
    return outstanding_ == 0;
  }

  void finish(Report& rep) override {
    // Live replicas end in the state the model reaches after every issued
    // invocation (so they also agree with each other).
    giop::CdrWriter expect;
    expect.ulonglong_(model_.digest);
    expect.ulonglong_(model_.applied);
    for (ProcessorId id : servers_) {
      if (fleet_->member(id).alive && machines_.at(id.raw())->snapshot() != expect.bytes()) {
        violation(to_string(id) + " replica snapshot differs from the model");
      }
    }
    add_metrics(rep, 1);
  }

 private:
  static constexpr FtDomainId kClientDomain{1};
  static constexpr FtDomainId kServerDomain{2};
  static constexpr ProcessorId kClient{10};

  McastAddress server_domain_addr_{};
  ConnectionId conn_{};
  std::vector<ProcessorId> servers_;
  std::map<std::uint32_t, std::shared_ptr<LedgerMachine>> machines_;
  LedgerState model_;
  std::vector<Call> calls_;
  std::size_t outstanding_ = 0;
  std::vector<TimePoint> idle_until_;  // min-heap: when each idle client invokes
  Rng think_rng_;
};

}  // namespace

bool known_workload(const std::string& name) {
  return name == "flood_lamport" || name == "paced_llft" || name == "invoke_orb";
}

Report run_workload(const Params& params) {
  std::unique_ptr<Workload> w;
  if (params.workload == "invoke_orb") {
    w = std::make_unique<InvokeWorkload>(params);
  } else {
    w = std::make_unique<MulticastWorkload>(params, params.workload == "paced_llft");
  }
  return w->run();
}

}  // namespace perfbench
