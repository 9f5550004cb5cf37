#include "runtime/shard.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <variant>

#include "common/codec.hpp"
#include "ftmp/messages.hpp"
#include "ftmp/wire.hpp"

namespace ftcorba::runtime {

namespace {

// Per-shard instruments are registered for the first few shards only: the
// registry identifies instruments by name, and an unbounded shard count
// must not grow it without bound. Aggregate counters always cover every
// shard.
constexpr std::size_t kMetricShards = 16;

// Capacity of each shard's egress datagram ring (shard -> front; threaded
// mode only, like the ingress ring).
constexpr std::size_t kEgressRingCapacity = 8192;

// Cadence of each shard's timer wheel tick — the resolution of the
// heartbeat / fault-detector / NACK / batch micro-flush timers, exactly
// like the granularity handed to Stack::tick by the other drivers.
constexpr Duration kTickGranularity = 1 * kMillisecond;

// Max frames a shard consumes from its ingress ring per loop iteration
// before running timers and draining egress (keeps egress latency and
// timer jitter bounded under flood).
constexpr std::size_t kIngressBurst = 64;

// Idle strategy: a shard that found no work yields this many loop
// iterations before sleeping kIdleSleep (single-core friendly: the yields
// let the producer run).
constexpr std::size_t kSpinIterations = 64;
constexpr Duration kIdleSleep = 50 * kMicrosecond;

std::string shard_metric(std::size_t shard, const char* suffix) {
  return "ftmp_runtime_shard" + std::to_string(shard) + "_" + suffix;
}

}  // namespace

ShardedRuntime::ShardedRuntime(ProcessorId self, FtDomainId domain,
                               McastAddress domain_addr, ftmp::Config stack_config,
                               RuntimeConfig config)
    : self_(self), domain_(domain), domain_addr_(domain_addr),
      stack_config_(stack_config), config_(config) {
  if (config_.shards == 0) config_.shards = 1;
  inline_mode_ = config_.shards == 1 && config_.inline_single_shard;
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto sh = std::make_unique<Shard>();
    sh->stack = std::make_unique<ftmp::Stack>(self_, domain_, domain_addr_,
                                              stack_config_);
    if (!inline_mode_) {
      sh->rings = std::make_unique<Rings>(config_.ingress_ring_capacity,
                                          kEgressRingCapacity);
    }
    if (i < kMetricShards) {
      sh->frames_in = metrics::Counter(
          shard_metric(i, "frames_total"),
          "Frames routed to and consumed by this stack shard", "frames", "runtime");
      sh->delivered = metrics::Counter(
          shard_metric(i, "delivered_total"),
          "Ordered messages this shard delivered upward", "messages", "runtime");
      sh->ring_drops = metrics::Counter(
          shard_metric(i, "ring_drops_total"),
          "Ingress frames dropped with this shard's ring full (drop_when_full)",
          "frames", "runtime");
      const std::string stalls = shard_metric(i, "stalls_total");
      const char* stalls_help =
          "Backpressure waits on this shard's rings (ingress full or egress full)";
      sh->ingress_stalls = metrics::Counter(stalls, stalls_help, "stalls", "runtime");
      sh->egress_stalls = metrics::Counter(stalls, stalls_help, "stalls", "runtime");
      sh->m_depth = metrics::gauge(
          shard_metric(i, "queue_depth"),
          "Ingress ring occupancy, sampled at each shard tick", "frames",
          "runtime");
    }
    shards_.push_back(std::move(sh));
  }

  m_routed_ = metrics::counter("ftmp_runtime_frames_routed_total",
                               "Frames demuxed to a shard by the I/O front",
                               "frames", "runtime");
  m_split_subframes_ = metrics::counter(
      "ftmp_runtime_batch_subframes_routed_total",
      "Sub-frames split out of FTMB batch datagrams at the routing front",
      "frames", "runtime");
  m_malformed_ = metrics::counter(
      "ftmp_runtime_malformed_batches_total",
      "FTMB envelopes the routing front could not fully parse", "datagrams",
      "runtime");
  m_drops_ = metrics::counter("ftmp_runtime_ring_drops_total",
                              "Ingress frames dropped across all shards",
                              "frames", "runtime");
  m_stalls_ = metrics::counter(
      "ftmp_runtime_backpressure_stalls_total",
      "Yield-spins while a shard ring was full (front ingress + shard egress)",
      "stalls", "runtime");
  m_egress_ = metrics::counter("ftmp_runtime_egress_datagrams_total",
                               "Datagrams collected from shard egress rings",
                               "datagrams", "runtime");
  m_shards_ = metrics::gauge("ftmp_runtime_shards",
                             "Stack shards configured in this process",
                             "shards", "runtime");
  m_shards_.set(std::int64_t(config_.shards));
}

ShardedRuntime::~ShardedRuntime() { stop(); }

// ---- demux & routing ------------------------------------------------------

std::size_t ShardedRuntime::default_shard(ProcessorGroupId group) const {
  return std::size_t(mix64(group.raw()) % shards_.size());
}

std::size_t ShardedRuntime::assign_group(ProcessorGroupId group) {
  std::lock_guard lk(route_mu_);
  auto it = routes_.group_to_shard.find(group.raw());
  if (it != routes_.group_to_shard.end()) return it->second;
  std::uint32_t shard;
  if (config_.placement == RuntimeConfig::Placement::kRoundRobin) {
    shard = next_rr_shard_;
    next_rr_shard_ = (next_rr_shard_ + 1) % std::uint32_t(shards_.size());
  } else {
    shard = std::uint32_t(default_shard(group));
  }
  routes_.group_to_shard.emplace(group.raw(), shard);
  route_gen_.fetch_add(1, std::memory_order_release);
  return shard;
}

std::size_t ShardedRuntime::assign_conn(const ConnectionId& conn) {
  std::lock_guard lk(route_mu_);
  auto it = routes_.conn_to_shard.find(conn);
  if (it != routes_.conn_to_shard.end()) return it->second;
  const std::uint64_t key = (std::uint64_t(conn.client_domain.raw()) << 32 |
                             conn.client_group.raw()) ^
                            mix64(std::uint64_t(conn.server_domain.raw()) << 32 |
                                  conn.server_group.raw());
  const auto shard = std::uint32_t(mix64(key) % shards_.size());
  routes_.conn_to_shard.emplace(conn, shard);
  route_gen_.fetch_add(1, std::memory_order_release);
  return shard;
}

void ShardedRuntime::refresh_route_cache() const {
  const std::uint64_t gen = route_gen_.load(std::memory_order_acquire);
  if (gen == route_cache_gen_) return;
  std::lock_guard lk(route_mu_);
  route_cache_ = routes_;
  route_cache_gen_ = gen;
}

std::size_t ShardedRuntime::route_frame(const ftmp::HeaderView& hv,
                                        const net::Datagram& datagram) {
  refresh_route_cache();
  const ftmp::Header& h = hv.header;
  if (h.type == ftmp::MessageType::kConnect) {
    // Cold path: a Connect binds a connection to a processor group. The
    // client end's state lives on the connection's shard, so the group it
    // announces is pinned there (before any AddProcessor for that group
    // can arrive); on server members the group is already routed.
    try {
      const ftmp::Body body =
          ftmp::decode_body(h, datagram.payload.view().subspan(ftmp::kHeaderSize));
      const auto& connect = std::get<ftmp::ConnectBody>(body);
      std::lock_guard lk(route_mu_);
      auto conn_it = routes_.conn_to_shard.find(connect.connection);
      if (conn_it != routes_.conn_to_shard.end()) {
        auto [g_it, inserted] = routes_.group_to_shard.emplace(
            connect.processor_group.raw(), conn_it->second);
        if (inserted) route_gen_.fetch_add(1, std::memory_order_release);
        return g_it->second;
      }
      auto g_it = routes_.group_to_shard.find(h.destination_group.raw());
      if (g_it != routes_.group_to_shard.end()) return g_it->second;
    } catch (const CodecError&) {
      // Malformed Connect body: fall through to group routing; the owning
      // stack counts it exactly as the single-stack path would.
    }
    return default_shard(h.destination_group);
  }
  if (h.destination_group.raw() != 0) {
    auto it = route_cache_.group_to_shard.find(h.destination_group.raw());
    if (it != route_cache_.group_to_shard.end()) return it->second;
    return default_shard(h.destination_group);
  }
  // Domain-level traffic without a group (ConnectRequest): the serving
  // group's shard handles it; shard 0 until serve_connections was called.
  return route_cache_.serve_shard;
}

// ---- control plane --------------------------------------------------------

void ShardedRuntime::post(std::size_t shard,
                          std::function<void(ftmp::Stack&, TimePoint)> fn) {
  Shard& sh = *shards_[shard];
  if (!running()) {
    fn(*sh.stack, 0);
    return;
  }
  {
    std::lock_guard lk(sh.cmd_mu);
    sh.cmds.push_back(std::move(fn));
  }
  sh.has_cmds.store(true, std::memory_order_release);
}

void ShardedRuntime::create_group(TimePoint now, ProcessorGroupId group,
                                  McastAddress addr,
                                  const std::vector<ProcessorId>& members) {
  const std::size_t shard = assign_group(group);
  post(shard, [=](ftmp::Stack& s, TimePoint at) {
    s.create_group(at != 0 ? at : now, group, addr, members);
  });
}

void ShardedRuntime::expect_join(ProcessorGroupId group, McastAddress addr) {
  const std::size_t shard = assign_group(group);
  post(shard, [=](ftmp::Stack& s, TimePoint) { s.expect_join(group, addr); });
}

bool ShardedRuntime::add_processor(TimePoint now, ProcessorGroupId group,
                                   ProcessorId new_member) {
  const std::size_t shard = assign_group(group);
  if (!running()) return shards_[shard]->stack->add_processor(now, group, new_member);
  post(shard, [=](ftmp::Stack& s, TimePoint at) {
    (void)s.add_processor(at, group, new_member);
  });
  return true;
}

bool ShardedRuntime::remove_processor(TimePoint now, ProcessorGroupId group,
                                      ProcessorId member) {
  const std::size_t shard = assign_group(group);
  if (!running()) return shards_[shard]->stack->remove_processor(now, group, member);
  post(shard, [=](ftmp::Stack& s, TimePoint at) {
    (void)s.remove_processor(at, group, member);
  });
  return true;
}

bool ShardedRuntime::leave_group(TimePoint now, ProcessorGroupId group) {
  return remove_processor(now, group, self_);
}

bool ShardedRuntime::rebind_group(TimePoint now, ProcessorGroupId group,
                                  McastAddress new_addr) {
  const std::size_t shard = assign_group(group);
  if (!running()) return shards_[shard]->stack->rebind_group(now, group, new_addr);
  post(shard, [=](ftmp::Stack& s, TimePoint at) {
    (void)s.rebind_group(at, group, new_addr);
  });
  return true;
}

void ShardedRuntime::serve_connections(ProcessorGroupId group) {
  const std::size_t shard = assign_group(group);
  {
    std::lock_guard lk(route_mu_);
    routes_.serve_shard = std::uint32_t(shard);
    route_gen_.fetch_add(1, std::memory_order_release);
  }
  post(shard, [=](ftmp::Stack& s, TimePoint) { s.serve_connections(group); });
}

void ShardedRuntime::open_connection(TimePoint now, const ConnectionId& connection,
                                     McastAddress server_domain_addr,
                                     const std::vector<ProcessorId>& client_processors) {
  const std::size_t shard = assign_conn(connection);
  post(shard, [=](ftmp::Stack& s, TimePoint at) {
    s.open_connection(at != 0 ? at : now, connection, server_domain_addr,
                      client_processors);
  });
}

bool ShardedRuntime::connection_ready(const ConnectionId& connection) const {
  if (running() && !inline_mode_) return false;  // read via events instead
  for (const auto& sh : shards_) {
    if (sh->stack->connection_ready(connection)) return true;
  }
  return false;
}

bool ShardedRuntime::send(TimePoint now, const ConnectionId& connection,
                          RequestNum request_num, BytesView giop) {
  std::size_t shard;
  {
    std::lock_guard lk(route_mu_);
    auto it = routes_.conn_to_shard.find(connection);
    shard = it != routes_.conn_to_shard.end() ? it->second : routes_.serve_shard;
  }
  if (!running()) {
    return shards_[shard]->stack->send(now, connection, request_num, giop);
  }
  Bytes payload(giop.begin(), giop.end());
  post(shard, [=, p = std::move(payload)](ftmp::Stack& s, TimePoint at) {
    (void)s.send(at, connection, request_num, p);
  });
  return true;
}

// ---- lifecycle ------------------------------------------------------------

void ShardedRuntime::start() {
  if (inline_mode_ || running()) return;
  stop_requested_.store(false, std::memory_order_release);
  exited_.store(0, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->thread = std::thread([this, i] { shard_main(i); });
  }
}

void ShardedRuntime::stop() {
  if (inline_mode_ || !running()) return;
  stop_requested_.store(true, std::memory_order_release);
  // Keep the egress rings flowing until every shard's loop has ended: a
  // shard draining its final frames may be blocked on a full egress ring
  // and needs the front to consume (joining first would deadlock).
  net::Datagram d;
  while (exited_.load(std::memory_order_acquire) < shards_.size()) {
    bool any = false;
    for (auto& sh : shards_) {
      while (sh->rings->egress.try_pop(d)) {
        parting_egress_.push_back(std::move(d));
        any = true;
      }
    }
    if (!any) std::this_thread::yield();
  }
  for (auto& sh : shards_) {
    if (sh->thread.joinable()) sh->thread.join();
  }
  // Final sweep: datagrams pushed between the last drain and loop exit.
  for (auto& sh : shards_) {
    while (sh->rings->egress.try_pop(d)) parting_egress_.push_back(std::move(d));
  }
  running_.store(false, std::memory_order_release);
}

// ---- front-thread IO ------------------------------------------------------

void ShardedRuntime::enqueue(std::size_t shard, TimePoint now, net::Datagram d) {
  Shard& sh = *shards_[shard];
  Inbound in{now, std::move(d)};
  SpscRing<Inbound>& ring = sh.rings->ingress;
  if (ring.try_push(std::move(in))) return;
  if (config_.drop_when_full) {
    sh.ring_drops.add();
    m_drops_.add();
    return;
  }
  // Backpressure: yield until the shard catches up (single-core friendly —
  // the yield is what lets the consumer run at all).
  std::uint64_t spins = 0;
  while (!ring.try_push(std::move(in))) {
    ++spins;
    if (spins % 64 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(10));
    } else {
      std::this_thread::yield();
    }
  }
  sh.ingress_stalls.add(spins);
  m_stalls_.add(spins);
}

void ShardedRuntime::ingest(TimePoint now, const net::Datagram& datagram) {
  if (inline_mode_) {
    Shard& sh = *shards_[0];
    sh.frames_in.add();
    m_routed_.add();
    sh.stack->on_datagram(now, datagram);
    return;
  }
  if (ftmp::looks_like_ftmp_batch(datagram.payload)) {
    // Split the batch at the front so each sub-frame reaches its owning
    // shard: sub-frames are zero-copy slices pinning the one arrival
    // buffer, exactly as Stack::on_datagram would slice them.
    ftmp::BatchParser parser(datagram.payload.view());
    while (const auto sf = parser.next()) {
      net::Datagram sub{datagram.addr,
                        datagram.payload.slice(sf->offset, sf->length)};
      const ftmp::HeaderView hv = ftmp::try_decode_header(sub.payload);
      m_split_subframes_.add();
      m_routed_.add();
      if (!hv) {
        enqueue(0, now, std::move(sub));  // shard 0's stack counts malformed
        continue;
      }
      enqueue(route_frame(hv, sub), now, std::move(sub));
    }
    if (!parser.ok()) m_malformed_.add();
    return;
  }
  const ftmp::HeaderView hv = ftmp::try_decode_header(datagram.payload);
  m_routed_.add();
  if (!hv) {
    enqueue(0, now, datagram);  // non-FTMP input: shard 0's stack counts it
    return;
  }
  enqueue(route_frame(hv, datagram), now, datagram);
}

void ShardedRuntime::tick(TimePoint now) {
  if (!inline_mode_) return;  // threaded shards tick from their own wheels
  shards_[0]->stack->tick(now);
}

void ShardedRuntime::drain_egress(std::vector<net::Datagram>& out) {
  if (inline_mode_) {
    auto packets = shards_[0]->stack->take_packets();
    shards_[0]->egress_datagrams.add(packets.size());
    m_egress_.add(packets.size());
    out.insert(out.end(), std::make_move_iterator(packets.begin()),
               std::make_move_iterator(packets.end()));
    return;
  }
  if (!parting_egress_.empty()) {
    out.insert(out.end(), std::make_move_iterator(parting_egress_.begin()),
               std::make_move_iterator(parting_egress_.end()));
    parting_egress_.clear();
  }
  net::Datagram d;
  for (auto& sh : shards_) {
    std::size_t n = 0;
    while (sh->rings->egress.try_pop(d)) {
      out.push_back(std::move(d));
      ++n;
    }
    if (n != 0) m_egress_.add(n);
  }
}

std::vector<ftmp::Event> ShardedRuntime::take_events() {
  if (inline_mode_) {
    auto evs = shards_[0]->stack->take_events();
    std::uint64_t delivered = 0;
    for (const auto& ev : evs) {
      if (std::holds_alternative<ftmp::DeliveredMessage>(ev)) ++delivered;
    }
    if (delivered != 0) shards_[0]->delivered.add(delivered);
    return evs;
  }
  std::vector<ftmp::Event> out;
  for (auto& sh : shards_) {
    std::vector<ftmp::Event> batch;
    {
      std::lock_guard lk(sh->ev_mu);
      batch.swap(sh->events);
    }
    out.insert(out.end(), std::make_move_iterator(batch.begin()),
               std::make_move_iterator(batch.end()));
  }
  return out;
}

std::vector<McastAddress> ShardedRuntime::subscriptions() const {
  std::set<std::uint32_t> all;
  if (inline_mode_ || !running()) {
    for (const auto& sh : shards_) {
      for (McastAddress a : sh->stack->subscriptions()) all.insert(a.raw());
    }
  } else {
    for (const auto& sh : shards_) {
      std::lock_guard lk(sh->sub_mu);
      for (McastAddress a : sh->subs) all.insert(a.raw());
    }
  }
  std::vector<McastAddress> out;
  out.reserve(all.size());
  for (std::uint32_t raw : all) out.emplace_back(raw);
  return out;
}

// ---- introspection --------------------------------------------------------

std::size_t ShardedRuntime::shard_of_group(ProcessorGroupId group) const {
  std::lock_guard lk(route_mu_);
  auto it = routes_.group_to_shard.find(group.raw());
  if (it != routes_.group_to_shard.end()) return it->second;
  return default_shard(group);
}

ShardStats ShardedRuntime::shard_stats(std::size_t shard) const {
  const Shard& sh = *shards_.at(shard);
  ShardStats s;
  s.frames_in = sh.frames_in.value();
  s.delivered = sh.delivered.value();
  s.egress_datagrams = sh.egress_datagrams.value();
  s.ring_drops = sh.ring_drops.value();
  s.ingress_stalls = sh.ingress_stalls.value();
  s.egress_stalls = sh.egress_stalls.value();
  s.ticks = sh.ticks.value();
  if (sh.rings) {
    s.ingress_depth = sh.rings->ingress.size();
    s.egress_depth = sh.rings->egress.size();
  }
  return s;
}

std::uint64_t ShardedRuntime::delivered_total() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->delivered.value();
  return total;
}

ftmp::Stack& ShardedRuntime::stack(std::size_t shard) {
  return *shards_.at(shard)->stack;
}

// ---- shard thread ---------------------------------------------------------

void ShardedRuntime::run_stack_step(Shard& sh, TimePoint now) {
  (void)now;
  auto packets = sh.stack->take_packets();
  if (!packets.empty()) {
    sh.egress_datagrams.add(packets.size());
    for (net::Datagram& d : packets) {
      std::uint64_t spins = 0;
      while (!sh.rings->egress.try_push(std::move(d))) {
        // The front thread is the consumer; it keeps draining during
        // stop(), so this wait always terminates.
        ++spins;
        if (spins % 64 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(10));
        } else {
          std::this_thread::yield();
        }
      }
      if (spins != 0) {
        sh.egress_stalls.add(spins);
        m_stalls_.add(spins);
      }
    }
  }
  auto evs = sh.stack->take_events();
  if (!evs.empty()) {
    std::uint64_t delivered = 0;
    for (const auto& ev : evs) {
      if (std::holds_alternative<ftmp::DeliveredMessage>(ev)) ++delivered;
    }
    if (delivered != 0) sh.delivered.add(delivered);
    std::lock_guard lk(sh.ev_mu);
    sh.events.insert(sh.events.end(), std::make_move_iterator(evs.begin()),
                     std::make_move_iterator(evs.end()));
  }
}

void ShardedRuntime::shard_main(std::size_t index) {
  Shard& sh = *shards_[index];
  SpscRing<Inbound>& ingress = sh.rings->ingress;
  TimerWheel wheel(kTickGranularity);
  TimePoint now = wall_now();
  wheel.schedule(now + kTickGranularity, 0);
  std::size_t idle = 0;
  for (;;) {
    bool did_work = false;

    Inbound in;
    std::size_t burst = 0;
    while (burst < kIngressBurst && ingress.try_pop(in)) {
      now = std::max(now, in.now);
      sh.stack->on_datagram(in.now, in.datagram);
      in.datagram = net::Datagram{};
      ++burst;
    }
    if (burst != 0) {
      sh.frames_in.add(burst);
      did_work = true;
    }

    if (sh.has_cmds.load(std::memory_order_acquire)) {
      std::vector<std::function<void(ftmp::Stack&, TimePoint)>> cmds;
      {
        std::lock_guard lk(sh.cmd_mu);
        cmds.swap(sh.cmds);
        sh.has_cmds.store(false, std::memory_order_release);
      }
      for (auto& fn : cmds) fn(*sh.stack, now);
      did_work = !cmds.empty() || did_work;
    }

    now = std::max(now, wall_now());
    wheel.advance(now, [&](std::uint64_t) {
      sh.stack->tick(now);
      sh.ticks.add();
      sh.m_depth.set(std::int64_t(ingress.size()));
      {
        std::lock_guard lk(sh.sub_mu);
        sh.subs = sh.stack->subscriptions();
      }
      wheel.schedule(now + kTickGranularity, 0);
    });

    run_stack_step(sh, now);

    if (did_work) {
      idle = 0;
      continue;
    }
    if (stop_requested_.load(std::memory_order_acquire) && ingress.empty() &&
        !sh.has_cmds.load(std::memory_order_acquire)) {
      // Drained: flush whatever the final tick produced and exit.
      sh.stack->tick(std::max(now, wall_now()));
      run_stack_step(sh, now);
      exited_.fetch_add(1, std::memory_order_release);
      break;
    }
    ++idle;
    if (idle <= kSpinIterations) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::nanoseconds(kIdleSleep));
    }
  }
}

}  // namespace ftcorba::runtime
