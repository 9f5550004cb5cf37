// One owner per instrument (docs/METRICS.md): every event the layers count
// in a metrics::Counter adds once to the counting instance's tally and once
// to the process-global registry counter of its name. After a lossy run
// with batching and a flow window on, an ORB client invoking three active
// replicas, each such registry counter must equal the sum of its
// instances' tallies. State transfer's counters, which this fleet does not
// run, are checked the same way in state_transfer_test.cpp. Likewise every
// level a layer keeps in a metrics::Gauge is that instance's share of the
// registry gauge, so once a lossy fleet's stacks are gone every such gauge
// reads 0 again.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/metrics.hpp"
#include "ft/replication.hpp"
#include "ftmp/sim_harness.hpp"
#include "orb/orb.hpp"

#if FTCORBA_METRICS_ENABLED

namespace ftcorba {
namespace {

constexpr FtDomainId kClientDomain{1};
constexpr FtDomainId kServerDomain{2};
constexpr McastAddress kClientDomainAddr{100};
constexpr McastAddress kServerDomainAddr{101};
constexpr ProcessorGroupId kServerGroup{1};
constexpr McastAddress kServerGroupAddr{200};
constexpr ProcessorId kClient{10};
const orb::ObjectKey kKey{"sum"};

ConnectionId conn() {
  return ConnectionId{kClientDomain, ObjectGroupId{10}, kServerDomain, ObjectGroupId{20}};
}

/// "add"(longlong) -> running sum.
class SumMachine : public ft::StateMachine {
 public:
  giop::ReplyStatus apply(const std::string&, giop::CdrReader& in,
                          giop::CdrWriter& out) override {
    sum_ += in.longlong_();
    out.longlong_(sum_);
    return giop::ReplyStatus::kNoException;
  }
  [[nodiscard]] Bytes snapshot() const override { return {}; }
  void restore(BytesView) override {}

 private:
  std::int64_t sum_ = 0;
};

/// GIOP Replies delivered at `p`: every reply a replica multicast, when
/// `p` misses none of them.
std::uint64_t replies_delivered(const ftmp::SimHarness& h, ProcessorId p) {
  std::uint64_t n = 0;
  for (const ftmp::Event& ev : h.events(p)) {
    const auto* dm = std::get_if<ftmp::DeliveredMessage>(&ev);
    if (dm && giop::decode(dm->giop_message).header.type == giop::MsgType::kReply) ++n;
  }
  return n;
}

std::uint64_t registry_counter(const std::string& name) {
  for (const metrics::Sample& s : metrics::snapshot()) {
    if (s.name == name) return s.counter;
  }
  ADD_FAILURE() << "counter not registered: " << name;
  return 0;
}

TEST(CounterFleet, InstanceTalliesSumToTheRegistryCounter) {
  metrics::reset_all();
  net::LinkModel link;
  link.loss = 0.05;
  link.jitter = 300 * kMicrosecond;
  ftmp::Config config;
  config.batch_max_datagram_bytes = 1400;
  config.flow_window_messages = 2;
  ftmp::SimHarness h(link, 26);

  const std::vector<ProcessorId> servers{ProcessorId{1}, ProcessorId{2}, ProcessorId{3}};
  for (ProcessorId p : servers) h.add_processor(p, kServerDomain, kServerDomainAddr, config);
  h.add_processor(kClient, kClientDomain, kClientDomainAddr, config);
  std::map<ProcessorId, std::unique_ptr<orb::Orb>> orbs;
  for (ProcessorId p : h.processors()) {
    orbs[p] = std::make_unique<orb::Orb>(h.stack(p));
    orb::Orb* o = orbs[p].get();
    h.set_event_handler(p, [o](TimePoint t, const ftmp::Event& ev) { o->on_event(t, ev); });
  }
  for (ProcessorId p : servers) {
    h.stack(p).create_group(h.now(), kServerGroup, kServerGroupAddr, servers);
    h.stack(p).serve_connections(kServerGroup);
    orbs[p]->activate(kKey, std::make_shared<ft::ActiveReplica>(std::make_shared<SumMachine>()));
  }
  h.stack(kClient).open_connection(h.now(), conn(), kServerDomainAddr, {kClient});
  ASSERT_TRUE(h.run_until_pred([&] { return h.stack(kClient).connection_ready(conn()); },
                               h.now() + 5 * kSecond));

  constexpr int kCalls = 40;
  int replies = 0;
  std::map<int, std::vector<std::int64_t>> results;  // call -> each completion's sum
  for (int i = 1; i <= kCalls; ++i) {
    giop::CdrWriter args;
    args.longlong_(i);
    while (!orbs[kClient]->invoke(h.now(), conn(), kKey, "add", args,
                                  [&replies, &results, i](const giop::Reply& reply,
                                                          ByteOrder order) {
                                    ++replies;
                                    giop::CdrReader r(reply.body, order);
                                    results[i].push_back(r.longlong_());
                                  })) {
      h.run_for(kMillisecond);  // deferred under backpressure: retry
    }
    if (i % 4 == 0) h.run_for(2 * kMillisecond);
  }
  ASSERT_TRUE(h.run_until_pred([&] { return replies == kCalls; }, h.now() + 10 * kSecond));
  h.run_for(500 * kMillisecond);
  // Each call completed once, with the running sum 1 + ... + i.
  for (int i = 1; i <= kCalls; ++i) {
    EXPECT_EQ(results[i], (std::vector<std::int64_t>{i * (i + 1) / 2})) << "call " << i;
  }

  std::map<std::string, std::uint64_t> tallies;
  // The connection may be bound to the server group itself.
  const std::set<ProcessorGroupId> groups{kServerGroup,
                                          *h.stack(kClient).connection_group(conn())};
  for (ProcessorId p : h.processors()) {
    ftmp::Stack& stack = h.stack(p);
    tallies["ftmp_stack_malformed_datagrams_total"] += stack.stats().malformed_datagrams.value();
    tallies["ftmp_stack_unroutable_datagrams_total"] += stack.stats().unroutable_datagrams.value();
    const ftmp::BatchStats b = stack.batch_stats();
    tallies["ftmp_batch_datagrams_total"] += b.batch_datagrams;
    tallies["ftmp_batch_subframes_total"] += b.subframes;
    tallies["ftmp_batch_bytes_total"] += b.batch_bytes;
    tallies["ftmp_batch_passthrough_total"] += b.passthrough;
    tallies["ftmp_batch_closed_full_total"] += b.closed_full;
    tallies["ftmp_batch_closed_timer_total"] += b.closed_timer;
    tallies["ftmp_batch_closed_partner_total"] += b.closed_partner;
    tallies["ftmp_batch_heartbeats_coalesced_total"] += b.heartbeats_coalesced;
    tallies["ftmp_batch_grant_only_total"] += b.grant_only;
    for (ProcessorGroupId g : groups) {
      const ftmp::GroupSession* session = stack.group(g);
      if (!session) continue;
      const ftmp::RmpStats& r = session->rmp().stats();
      tallies["ftmp_rmp_delivered_in_order_total"] += r.delivered_in_order.value();
      tallies["ftmp_rmp_duplicates_ignored_total"] += r.duplicates_ignored.value();
      tallies["ftmp_rmp_retransmit_requests_sent_total"] += r.nacks_sent.value();
      tallies["ftmp_rmp_retransmit_requests_served_total"] += r.retransmissions_sent.value();
      tallies["ftmp_rmp_dropped_unknown_source_total"] += r.dropped_unknown_source.value();
      tallies["ftmp_rmp_dropped_stale_incarnation_total"] +=
          r.dropped_stale_incarnation.value();
      tallies["ftmp_rmp_ooo_dropped_total"] += r.ooo_dropped.value();
      const ftmp::FlowStats& f = session->flow().stats();
      tallies["ftmp_flow_pacing_stalls_total"] += f.pacing_stalls.value();
      tallies["ftmp_flow_send_queue_dropped_total"] += f.queue_drops.value();
      tallies["ftmp_flow_queue_high_events_total"] += f.queue_high_events.value();
      tallies["ftmp_flow_releases_total"] += f.releases.value();
    }
    const orb::OrbStats o = orbs[p]->stats();
    tallies["giop_requests_dispatched_total"] += o.requests_dispatched;
    tallies["giop_replies_completed_total"] += o.replies_completed;
    tallies["giop_undecodable_payloads_total"] += o.undecodable_payloads;
    tallies["giop_unknown_objects_total"] += o.unknown_objects;
    tallies["giop_requests_deferred_total"] += o.requests_deferred;
    tallies["giop_replies_withheld_total"] += o.replies_withheld;
    tallies["giop_replies_released_total"] += o.replies_released;
    EXPECT_EQ(orbs[p]->withheld_replies(), 0u) << "a withheld reply never ended at " << p.raw();
    const ft::DedupStats& d = orbs[p]->dedup().stats();
    tallies["ft_dedup_accepted_total"] += d.accepted.value();
    tallies["ft_dedup_suppressed_total"] += d.suppressed.value();
    // The ORB reports its suppressor's count; it keeps none of its own.
    EXPECT_EQ(o.duplicates_suppressed, d.suppressed.value()) << p.raw();
  }
  for (const auto& [name, sum] : tallies) {
    EXPECT_EQ(registry_counter(name), sum) << name;
  }
  // The run reaches the mechanisms it checks.
  EXPECT_GT(tallies["ftmp_batch_datagrams_total"], 0u);
  EXPECT_GT(tallies["ftmp_rmp_retransmit_requests_sent_total"], 0u);
  EXPECT_GT(tallies["ftmp_flow_pacing_stalls_total"], 0u);
  EXPECT_EQ(tallies["giop_requests_dispatched_total"], 3u * kCalls);
  // Every dispatch either multicast its reply or withheld it because
  // another replica's copy was on its way; a released reply was multicast.
  EXPECT_EQ(replies_delivered(h, kClient) + tallies["giop_replies_withheld_total"] -
                tallies["giop_replies_released_total"],
            tallies["giop_requests_dispatched_total"]);
  EXPECT_GT(tallies["giop_replies_withheld_total"], 0u);
}

std::int64_t registry_gauge(const std::string& name) {
  for (const metrics::Sample& s : metrics::snapshot()) {
    if (s.name == name) return s.gauge;
  }
  return 0;
}

class GaugeFleet : public ::testing::TestWithParam<ftmp::OrderingMode> {};

TEST_P(GaugeFleet, EveryShareReturnsWhenItsStackGoes) {
  metrics::reset_all();
  constexpr ProcessorGroupId kGroup{1};
  const std::vector<ProcessorId> members{ProcessorId{1}, ProcessorId{2}, ProcessorId{3}};
  {
    net::LinkModel link;
    link.loss = 0.1;
    link.jitter = 300 * kMicrosecond;
    ftmp::Config config;
    config.ordering_mode = GetParam();
    config.batch_max_datagram_bytes = 1400;
    config.flow_window_messages = 4;
    ftmp::SimHarness h(link, 27);
    for (ProcessorId p : members) h.add_processor(p, kServerDomain, kServerDomainAddr, config);
    for (ProcessorId p : members) h.stack(p).create_group(h.now(), kGroup, kServerGroupAddr, members);
    h.run_for(50 * kMillisecond);
    // A flood cut off mid-flight, at a moment some member buffers a message
    // out of order: every member still stores, holds, has in flight and
    // parks messages when its stack is destroyed.
    RequestNum req = 0;
    for (int round = 0;
         round < 40 || (round < 400 && registry_gauge("ftmp_rmp_out_of_order_messages") == 0);
         ++round) {
      for (ProcessorId p : members) {
        ++req;
        (void)h.stack(p).group(kGroup)->try_send_regular(h.now(), conn(), req,
                                                         Bytes(200, std::uint8_t(req)));
      }
      h.run_for(kMillisecond / 2);
    }
    for (const char* name : {"ftmp_rmp_store_bytes", "ftmp_romp_pending_messages",
                             "ftmp_rmp_out_of_order_messages",
                             "ftmp_flow_window_in_flight_messages",
                             "ftmp_flow_window_in_flight_bytes", "ftmp_flow_send_queue_depth"}) {
      EXPECT_GT(registry_gauge(name), 0) << name << " is exercised";
    }
  }
  // Set-only gauges record a peak or a configuration, not a share.
  const std::set<std::string> set_only{"ftmp_flow_send_queue_highwater"};
  std::size_t checked = 0;
  for (const metrics::Sample& s : metrics::snapshot()) {
    if (s.type != metrics::Type::kGauge || s.name.rfind("ftmp_", 0) != 0 ||
        set_only.contains(s.name)) {
      continue;
    }
    EXPECT_EQ(s.gauge, 0) << s.name;
    ++checked;
  }
  EXPECT_GE(checked, GetParam() == ftmp::OrderingMode::kLlft ? 7u : 6u);
}

INSTANTIATE_TEST_SUITE_P(Modes, GaugeFleet,
                         ::testing::Values(ftmp::OrderingMode::kLamport,
                                           ftmp::OrderingMode::kLlft),
                         [](const ::testing::TestParamInfo<ftmp::OrderingMode>& param) {
                           return std::string(to_string(param.param));
                         });

}  // namespace
}  // namespace ftcorba

#endif  // FTCORBA_METRICS_ENABLED
