#include "fleet.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {
// Datagrams per recvmmsg call: ShardedUdpDriver's default, passed to it
// explicitly so the traced and untraced paths make identical calls.
constexpr std::size_t kReceiveBatch = 64;
}  // namespace

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kRound: return "bench.round";
    case SpanKind::kRecv: return "net.receive_many";
    case SpanKind::kIngest: return "runtime.ingest";
    case SpanKind::kTick: return "runtime.tick";
    case SpanKind::kDrain: return "runtime.drain_egress";
    case SpanKind::kSend: return "net.send_many";
    case SpanKind::kSync: return "runtime.sync";
    case SpanKind::kGroupSend: return "ftmp.send";
    case SpanKind::kMarshal: return "giop.marshal";
    case SpanKind::kInvoke: return "orb.invoke";
    case SpanKind::kEvents: return "bench.events";
    case SpanKind::kDeliver: return "bench.deliver";
    case SpanKind::kOnEvent: return "orb.on_event";
    case SpanKind::kCount: break;
  }
  return "?";
}

void Tracer::begin(SpanKind kind, std::uint32_t op_src, std::uint64_t op_req) {
  Open o;
  o.kind = kind;
  if (records_.size() < cap_) {
    Record r;
    r.parent = stack_.empty() ? 0 : stack_.back().record;
    r.kind = kind;
    r.op_src = op_src;
    r.op_req = op_req;
    records_.push_back(r);
    o.record = static_cast<std::uint32_t>(records_.size());
  }
  stack_.push_back(o);
  stack_.back().start = now_ns();  // last, so set-up is outside the span
}

void Tracer::end() {
  const std::int64_t t = now_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = t - o.start;
  SpanAgg& a = agg_[static_cast<std::size_t>(o.kind)];
  a.calls += 1;
  a.total_ns += dur;
  a.self_ns += dur - o.child_ns;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
    if (stack_.size() == 1 && stack_.front().kind == SpanKind::kRound) {
      covered_ns_ += dur;
    }
  }
  if (o.record != 0) {
    Record& r = records_[o.record - 1];
    r.start = o.start;
    r.end = t;
  }
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "id,parent,name,start_ns,end_ns,op_src,op_req\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f, "%zu,%u,%s,%lld,%lld,%u,%llu\n", i + 1, r.parent,
                 span_name(r.kind), static_cast<long long>(r.start),
                 static_cast<long long>(r.end), r.op_src,
                 static_cast<unsigned long long>(r.op_req));
  }
  return std::fclose(f) == 0;
}

Member& Fleet::add(ProcessorId id, FtDomainId domain, McastAddress domain_addr,
                   const ftmp::Config& config) {
  auto m = std::make_unique<Member>();
  m->id = id;
  m->domain = domain;
  m->domain_addr = domain_addr;
  m->config = config;
  start(*m);
  members_.push_back(std::move(m));
  return *members_.back();
}

Member& Fleet::member(ProcessorId id) {
  for (auto& m : members_) {
    if (m->id == id) return *m;
  }
  throw std::out_of_range("perfbench: unknown member " + to_string(id));
}

void Fleet::start(Member& m) {
  m.rt = std::make_unique<runtime::ShardedRuntime>(m.id, m.domain, m.domain_addr,
                                                   m.config);
  for (const auto& [group, ts] : m.floors) {
    m.stack().restore_join_timestamp_floor(group, ts);
  }
  net::UdpMulticastTransport::Options opts;
  opts.port = port_;
  opts.interface_ip = "127.0.0.1";
  opts.loopback = true;
  m.drv = std::make_unique<runtime::ShardedUdpDriver>(*m.rt, opts, kReceiveBatch);
  // The driver's constructor joined exactly the current subscriptions.
  m.joined = m.rt->subscriptions();
  m.alive = true;
}

void Fleet::crash(Member& m) {
  m.floors = m.stack().join_timestamp_floors();
  m.orb.reset();
  m.drv.reset();  // closes every socket of the member
  m.rt.reset();
  m.joined.clear();
  m.alive = false;
}

void Fleet::restart(Member& m) {
  m.incarnation += 1;
  start(m);
}

void Fleet::sync_subscriptions(Member& m) {
  // ShardedUdpDriver::sync_subscriptions, made through public calls.
  std::vector<McastAddress> want = m.rt->subscriptions();
  std::sort(want.begin(), want.end(),
            [](McastAddress a, McastAddress b) { return a.raw() < b.raw(); });
  net::UdpMulticastTransport& tp = m.drv->transport();
  for (McastAddress addr : want) {
    if (std::find(m.joined.begin(), m.joined.end(), addr) == m.joined.end()) {
      tp.join(addr);
      m.joined.push_back(addr);
    }
  }
  for (std::size_t i = 0; i < m.joined.size();) {
    if (std::find(want.begin(), want.end(), m.joined[i]) == want.end()) {
      tp.leave(m.joined[i]);
      m.joined.erase(m.joined.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

std::size_t Fleet::poll(Member& m) {
  if (!tracer_.enabled()) return m.drv->poll_once(0);

  // ShardedUdpDriver::poll_once(0), one public call per span.
  const bool on = tracer_.on();
  net::UdpMulticastTransport& tp = m.drv->transport();
  const std::int64_t r0 = on ? now_ns() : 0;
  std::vector<net::Datagram> burst;
  {
    Span s(tracer_, SpanKind::kRecv);
    burst = tp.receive_many(0, kReceiveBatch);
  }
  const TimePoint now = now_ns();
  for (const net::Datagram& d : burst) {
    Span s(tracer_, SpanKind::kIngest);
    m.rt->ingest(now, d);
  }
  {
    Span s(tracer_, SpanKind::kTick);
    m.rt->tick(now);
  }
  egress_.clear();
  {
    Span s(tracer_, SpanKind::kDrain);
    m.rt->drain_egress(egress_);
  }
  if (!egress_.empty()) {
    Span s(tracer_, SpanKind::kSend);
    tp.send_many(egress_);
  }
  {
    Span s(tracer_, SpanKind::kSync);
    sync_subscriptions(m);
  }
  if (on) {
    counts_.member_polls += 1;
    counts_.recv_calls += 1;
    if (burst.empty()) {
      counts_.recv_empty += 1;
    } else {
      // Busy time of a non-empty receive: from the call to the ingest
      // timestamp, which is taken right after it returns.
      counts_.recv_busy_ns += now - r0;
    }
    counts_.dgrams_in += burst.size();
    counts_.dgrams_out += egress_.size();
  }
  return burst.size();
}

std::size_t Fleet::round(const EventFn& on_event) {
  order_.resize(members_.size());
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const std::size_t j = order_rng_.next_below(i + 1);
    order_[i] = order_[j];
    order_[j] = i;
  }
  std::size_t ingested = 0;
  for (std::size_t i : order_) {
    Member& m = *members_[i];
    if (!m.alive) continue;
    ingested += poll(m);
    Span s(tracer_, SpanKind::kEvents);
    std::vector<ftmp::Event> events = m.rt->take_events();
    if (events.empty()) continue;
    const TimePoint t = now_ns();
    for (ftmp::Event& ev : events) on_event(m, t, ev);
  }
  return ingested;
}

}  // namespace perfbench
