// E6 — the GIOP mapping (§3/§4): end-to-end request/reply latency of a
// replicated invocation over FTMP versus a plain point-to-point IIOP-like
// connection (GIOP over a reliable unicast channel) on the same simulated
// link, plus the duplicate-suppression accounting that active replication
// makes necessary ("Each message ... is delivered to both groups, which
// enables duplicate detection and suppression").
//
// Expected shape: IIOP point-to-point is the latency floor (no ordering
// wait); FTMP replicated invocations cost a few extra simulated
// milliseconds (bounded by the heartbeat interval) and grow mildly with
// the replica count — the price of strong replica consistency. A replica
// that already holds another replica's reply withholds its own (orb.hpp),
// so the wire carries about one reply per invocation whatever the replica
// count; packets per invocation count every datagram multicast during the
// measured invocations, heartbeats and acks included.
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "ft/replication.hpp"
#include "orb/iiop_sim.hpp"
#include "orb/orb.hpp"
#include "support.hpp"

using namespace ftcorba;
using namespace ftcorba::bench;

namespace {

constexpr FtDomainId kClientDomain{9};
constexpr McastAddress kClientDomainAddr{109};
const orb::ObjectKey kKey{"echo"};

ConnectionId conn_for() {
  return ConnectionId{kClientDomain, ObjectGroupId{1}, kBenchDomain, ObjectGroupId{2}};
}

class EchoMachine : public ft::StateMachine {
 public:
  giop::ReplyStatus apply(const std::string&, giop::CdrReader& in,
                          giop::CdrWriter& out) override {
    out.octet_seq(in.octet_seq());
    return giop::ReplyStatus::kNoException;
  }
  Bytes snapshot() const override { return {}; }
  void restore(BytesView) override {}
};

struct FtmpRow {
  int clients = 0;
  int servers = 0;
  int invocations = 0;
  Samples latency_ms;
  std::uint64_t packets = 0;     // SimNetwork packets_sent over the invocations
  std::uint64_t suppressed = 0;
  std::uint64_t withheld = 0;

  [[nodiscard]] double packets_per_invocation() const {
    return double(packets) / double(invocations);
  }
};

FtmpRow run_ftmp_invocations(int server_replicas, int client_replicas, int invocations) {
  ftmp::SimHarness h({}, /*seed=*/1234 + server_replicas * 10 + client_replicas);
  std::vector<ProcessorId> servers, clients;
  for (int i = 1; i <= server_replicas; ++i) servers.push_back(ProcessorId{std::uint32_t(i)});
  for (int i = 0; i < client_replicas; ++i) clients.push_back(ProcessorId{std::uint32_t(10 + i)});

  std::map<ProcessorId, std::unique_ptr<orb::Orb>> orbs;
  for (ProcessorId p : servers) h.add_processor(p, kBenchDomain, kBenchDomainAddr);
  for (ProcessorId p : clients) h.add_processor(p, kClientDomain, kClientDomainAddr);
  for (ProcessorId p : servers) {
    h.stack(p).create_group(h.now(), kBenchGroup, kBenchGroupAddr, servers);
    h.stack(p).serve_connections(kBenchGroup);
  }
  for (ProcessorId p : h.processors()) {
    orbs[p] = std::make_unique<orb::Orb>(h.stack(p));
    orb::Orb* o = orbs[p].get();
    h.set_event_handler(p, [o](TimePoint t, const ftmp::Event& ev) { o->on_event(t, ev); });
  }
  auto machine = std::make_shared<EchoMachine>();
  for (ProcessorId p : servers) {
    orbs[p]->activate(kKey, std::make_shared<ft::ActiveReplica>(machine));
  }
  for (ProcessorId p : clients) {
    h.stack(p).open_connection(h.now(), conn_for(), kBenchDomainAddr, clients);
  }
  h.run_until_pred(
      [&] {
        for (ProcessorId p : clients) {
          if (!h.stack(p).connection_ready(conn_for())) return false;
        }
        return true;
      },
      h.now() + 10 * kSecond);
  h.run_for(100 * kMillisecond);

  FtmpRow row;
  row.clients = client_replicas;
  row.servers = server_replicas;
  row.invocations = invocations;
  h.network().reset_stats();
  Rng rng(99 + server_replicas);
  for (int i = 0; i < invocations; ++i) {
    // Randomize the phase relative to heartbeat timers so the latency
    // distribution is not a single deterministic point.
    h.run_for(Duration(rng.next_below(9000)) * kMicrosecond);
    const TimePoint sent_at = h.now();
    int completions = 0;
    // Every client replica issues the same invocation (active replication).
    for (ProcessorId p : clients) {
      giop::CdrWriter args;
      args.octet_seq(stamp_payload(sent_at, 64));
      orbs[p]->invoke(sent_at, conn_for(), kKey, "echo", args,
                      [&, p](const giop::Reply&, ByteOrder) {
                        if (p == clients[0]) {
                          row.latency_ms.add(to_ms(h.now() - sent_at));
                        }
                        ++completions;
                      });
    }
    h.run_until_pred([&] { return completions == int(clients.size()); },
                     h.now() + 5 * kSecond);
    h.run_for(2 * kMillisecond);
  }
  row.packets = h.network().stats().packets_sent;
  // The last invocation completes on the first reply; the copies other
  // replicas sent are still being ordered. Let them reach every member
  // before reading the counters.
  h.run_for(50 * kMillisecond);
  for (ProcessorId p : h.processors()) {
    row.suppressed += orbs[p]->stats().duplicates_suppressed;
    row.withheld += orbs[p]->stats().replies_withheld;
  }
  return row;
}

struct IiopRow {
  Samples latency_ms;
  double packets_per_invocation = 0;
};

IiopRow run_iiop_invocations(int invocations) {
  net::SimNetwork net({}, /*seed=*/4321);
  const ProcessorId kClient{1}, kServer{2};
  const McastAddress kClientInbox{60}, kServerInbox{61};
  net.attach(kClient);
  net.attach(kServer);
  net.subscribe(kClient, kClientInbox);
  net.subscribe(kServer, kServerInbox);

  class EchoServant : public orb::Servant {
   public:
    giop::ReplyStatus invoke(const std::string&, giop::CdrReader& in,
                             giop::CdrWriter& out) override {
      out.octet_seq(in.octet_seq());
      return giop::ReplyStatus::kNoException;
    }
  };
  orb::IiopEndpoint client(kClientInbox, kServerInbox);
  orb::IiopEndpoint server(kServerInbox, kClientInbox);
  server.serve(kKey, std::make_shared<EchoServant>());

  TimePoint now = 0;
  auto pump = [&] {
    for (net::Datagram& d : client.take_packets()) net.send(now, kClient, d);
    for (net::Datagram& d : server.take_packets()) net.send(now, kServer, d);
  };
  auto run_for = [&](Duration d) {
    const TimePoint until = now + d;
    while (now < until) {
      now += 100 * kMicrosecond;
      while (auto delivery = net.pop_due(now)) {
        if (delivery->dest == kClient) {
          client.on_datagram(now, delivery->datagram.payload);
        } else {
          server.on_datagram(now, delivery->datagram.payload);
        }
        pump();
      }
      client.tick(now);
      server.tick(now);
      pump();
    }
  };

  IiopRow row;
  for (int i = 0; i < invocations; ++i) {
    const TimePoint sent_at = now;
    bool done = false;
    giop::CdrWriter args;
    args.octet_seq(stamp_payload(sent_at, 64));
    client.invoke(now, kKey, "echo", args, [&](const giop::Reply&) {
      row.latency_ms.add(to_ms(now - sent_at));
      done = true;
    });
    pump();
    while (!done) run_for(1 * kMillisecond);
    run_for(2 * kMillisecond);
  }
  row.packets_per_invocation = double(net.stats().packets_sent) / double(invocations);
  return row;
}

// Machine-readable rows: per configuration, the latency distribution and
// the wire cost of an invocation.
void write_json(const char* path, const IiopRow& iiop, const std::vector<FtmpRow>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "e6: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"experiment\": \"e6_giop\",\n  \"rows\": [\n");
  std::fprintf(f,
               "    {\"protocol\": \"IIOP\", \"clients\": 1, \"servers\": 1, "
               "\"mean_ms\": %.3f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
               "\"packets_per_invocation\": %.2f}%s\n",
               iiop.latency_ms.mean(), iiop.latency_ms.median(),
               iiop.latency_ms.percentile(99), iiop.packets_per_invocation,
               rows.empty() ? "" : ",");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const FtmpRow& r = rows[i];
    std::fprintf(f,
                 "    {\"protocol\": \"FTMP\", \"clients\": %d, \"servers\": %d, "
                 "\"mean_ms\": %.3f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"packets_per_invocation\": %.2f, \"suppressed\": %llu, "
                 "\"withheld\": %llu}%s\n",
                 r.clients, r.servers, r.latency_ms.mean(), r.latency_ms.median(),
                 r.latency_ms.percentile(99), r.packets_per_invocation(),
                 static_cast<unsigned long long>(r.suppressed),
                 static_cast<unsigned long long>(r.withheld),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", path, rows.size() + 1);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = "BENCH_giop.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }
  banner("E6", "GIOP request/reply: replicated FTMP invocation vs point-to-point IIOP");

  const int kInvocations = 100;
  std::printf("%-26s | %9s | %9s | %9s | %9s | %10s | %8s\n", "configuration", "mean ms",
              "p50 ms", "p99 ms", "pkts/inv", "suppressed", "withheld");
  std::printf("---------------------------+-----------+-----------+-----------+-----------+"
              "------------+---------\n");

  const IiopRow iiop = run_iiop_invocations(kInvocations);
  std::printf("%-26s | %9.3f | %9.3f | %9.3f | %9.2f | %10s | %8s\n",
              "IIOP 1 client, 1 server", iiop.latency_ms.mean(), iiop.latency_ms.median(),
              iiop.latency_ms.percentile(99), iiop.packets_per_invocation, "-", "-");

  std::vector<FtmpRow> rows;
  for (int servers : {1, 2, 3}) {
    for (int clients : {1, 2}) {
      const FtmpRow row = run_ftmp_invocations(servers, clients, kInvocations);
      char label[64];
      std::snprintf(label, sizeof(label), "FTMP %dc x %ds replicas", clients, servers);
      std::printf("%-26s | %9.3f | %9.3f | %9.3f | %9.2f | %10llu | %8llu\n", label,
                  row.latency_ms.mean(), row.latency_ms.median(),
                  row.latency_ms.percentile(99), row.packets_per_invocation(),
                  static_cast<unsigned long long>(row.suppressed),
                  static_cast<unsigned long long>(row.withheld));
      rows.push_back(row);
    }
  }
  std::printf("%d invocations each; 64 B echo; LAN 100us. \"pkts/inv\" counts every\n"
              "datagram multicast during the invocations. \"suppressed\" counts the\n"
              "duplicate replica requests+replies discarded via <connection id,\n"
              "request number> (§4) — the mechanism that makes replication exactly-once;\n"
              "\"withheld\" counts the replies a replica did not send because it already\n"
              "held another replica's copy.\n",
              kInvocations);
  write_json(json_path, iiop, rows);
  return 0;
}
