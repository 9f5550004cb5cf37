// Ordering pins (docs/ORDERING.md): any wire or delivery drift in any
// mode is a failing build, not a judgement call.
//  * Lamport as the paper states it (lamport-paper) stays byte-identical
//    to the stack from before the OrderingPolicy seam existed (captured
//    at commit ae8a84b).
//  * LLFT, plain and batched, and a mid-stream crash with its fault
//    install under lamport-paper and LLFT (pins drain_up_to_cut and member
//    removal): captured at commit 1379157, before Romp became the concrete
//    tracker both delivery rules share; LLFT batched again when a member
//    that is not leading came to close its data-bearing batches at the
//    next drain.
//  * The default Lamport mode with prompt acknowledgement (own-clock
//    bound, ack debt), plain, batched and crash: captured when ack debts
//    became rank-staggered (kAckSlots).
//  * Re-admission after the crash (a joiner's init_from_add and the
//    members' re-add) under lamport-paper, lamport and LLFT: captured at
//    commit 55bcf65, before each layer kept one record per member; the
//    lamport one again when membership messages came to be acked at once
//    and joiners greeted.
//  * All four LLFT pins again when a member came to take its own Regulars
//    and OrderInfo in at send instead of on their loopback arrival: only
//    the wire and event digests moved, the egress and delivered counts
//    held.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ftmp/stack.hpp"

namespace ftcorba::ftmp {
namespace {

constexpr FtDomainId kDomain{1};
constexpr McastAddress kDomainAddr{100};
constexpr ProcessorGroupId kGroup{1};
constexpr McastAddress kGroupAddr{200};

ConnectionId test_conn() {
  return ConnectionId{FtDomainId{1}, ObjectGroupId{10}, FtDomainId{1},
                      ObjectGroupId{20}};
}

void fnv1a(std::uint64_t& h, const std::uint8_t* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
}

void fnv1a_u64(std::uint64_t& h, std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = std::uint8_t(v >> (8 * i));
  fnv1a(h, b, 8);
}

struct Observed {
  std::uint64_t wire_digest = 14695981039346656037ULL;
  std::uint64_t event_digest = 14695981039346656037ULL;
  std::uint64_t egress_datagrams = 0;
  std::uint64_t delivered = 0;
  bool fold_views = false;  // crash scenario only: older pins predate it

  void on_wire(const net::Datagram& d) {
    ++egress_datagrams;
    fnv1a_u64(wire_digest, d.addr.raw());
    fnv1a(wire_digest, d.payload.data(), d.payload.size());
  }
  void on_event(const Event& ev) {
    if (const auto* m = std::get_if<DeliveredMessage>(&ev)) {
      ++delivered;
      fnv1a_u64(event_digest, m->source.raw());
      fnv1a_u64(event_digest, m->seq);
      fnv1a_u64(event_digest, std::uint64_t(m->timestamp));
      fnv1a(event_digest, m->giop_message.data(), m->giop_message.size());
    } else if (const auto* v = std::get_if<MembershipChanged>(&ev);
               v && fold_views) {
      for (ProcessorId p : v->membership.members) fnv1a_u64(event_digest, p.raw());
      fnv1a_u64(event_digest, std::uint64_t(v->membership.timestamp));
    }
  }
  friend bool operator==(const Observed&, const Observed&) = default;
};

enum class Scenario { kSteady, kCrash, kReadmit };

// Three bare stacks, full multicast loopback (every datagram reaches every
// node including its sender), fixed 1ms schedule, interleaved scripted
// sends for the first half and an idle heartbeat/stability tail for the
// second. Digests cover every egress datagram and every delivery of all
// three members, so ordering, stability GC, flush and heartbeat behavior
// are all pinned.
//
// With kCrash, P1 (the LLFT leader) stops for good at step 120. Its last
// datagrams reach P2 only, so P3 recovers them from P2 during the
// fault-recovery equalization; the survivors install {P2, P3} within the
// run, and view installs are folded into the event digest.
//
// kReadmit continues the crash run for 400 more steps: at step 400 P1
// restarts as a fresh Stack and P2 sponsors its re-admission, and from
// step 500 all three members send again.
Observed run_scenario(Config config, Scenario scenario = Scenario::kSteady) {
  // Every pin was captured at this fault timeout.
  config.fault_timeout = 200 * kMillisecond;
  const bool crash = scenario != Scenario::kSteady;
  const bool readmit = scenario == Scenario::kReadmit;
  auto p1 = std::make_unique<Stack>(ProcessorId{1}, kDomain, kDomainAddr, config);
  Stack p2(ProcessorId{2}, kDomain, kDomainAddr, config);
  Stack p3(ProcessorId{3}, kDomain, kDomainAddr, config);
  const std::vector<ProcessorId> members{ProcessorId{1}, ProcessorId{2},
                                         ProcessorId{3}};
  Stack* nodes[] = {p1.get(), &p2, &p3};
  TimePoint now = 1 * kMillisecond;
  for (Stack* n : nodes) n->create_group(now, kGroup, kGroupAddr, members);

  constexpr int kCrashStep = 120;
  constexpr int kRestartStep = 400;
  const auto sending = [&](int step) {
    return step < 200 || (readmit && step >= 500 && step < 700);
  };
  Observed seen;
  seen.fold_views = crash;
  for (int step = 0; step < (readmit ? 800 : 400); ++step) {
    now += 1 * kMillisecond;
    if (readmit && step == kRestartStep) {
      p1 = std::make_unique<Stack>(ProcessorId{1}, kDomain, kDomainAddr, config);
      nodes[0] = p1.get();
      p1->expect_join(kGroup, kGroupAddr);
      EXPECT_TRUE(p2.add_processor(now, kGroup, ProcessorId{1}));
    }
    const auto up = [&](const Stack* n) {
      return !crash || n != p1.get() || step < kCrashStep ||
             (readmit && step >= kRestartStep);
    };
    if (step % 7 == 0 && sending(step) && up(p1.get())) {
      EXPECT_TRUE(p1->group(kGroup)->send_regular(
          now, test_conn(), std::uint64_t(step + 1),
          bytes_of("n1#" + std::to_string(step))));
    }
    if (step % 11 == 3 && sending(step)) {
      EXPECT_TRUE(p2.group(kGroup)->send_regular(
          now, test_conn(), std::uint64_t(step + 1),
          bytes_of("p2#" + std::to_string(step))));
    }
    if (step % 13 == 5 && sending(step)) {
      EXPECT_TRUE(p3.group(kGroup)->send_regular(
          now, test_conn(), std::uint64_t(step + 1),
          bytes_of("p3#" + std::to_string(step))));
    }
    std::vector<std::pair<const Stack*, net::Datagram>> wire;
    for (Stack* n : nodes) {
      if (!up(n)) continue;
      n->tick(now);
      for (auto& d : n->take_packets()) {
        seen.on_wire(d);
        wire.emplace_back(n, std::move(d));
      }
    }
    for (const auto& [from, d] : wire) {
      for (Stack* n : nodes) {
        const bool lost =
            crash && step == kCrashStep - 1 && from == p1.get() && n == &p3;
        if (up(n) && !lost) n->on_datagram(now, d);
      }
    }
    for (Stack* n : nodes) {
      if (!up(n)) continue;
      for (const Event& ev : n->take_events()) seen.on_event(ev);
    }
  }
  if (crash) {
    const std::vector<ProcessorId> survivors{ProcessorId{2}, ProcessorId{3}};
    for (const Stack* n : nodes) {
      if (n == p1.get() && !readmit) continue;
      EXPECT_EQ(n->group(kGroup)->membership().members, readmit ? members : survivors);
    }
  }
  return seen;
}

Config with(OrderingMode mode, std::size_t batch_bytes = 0) {
  Config cfg;
  cfg.ordering_mode = mode;
  cfg.batch_max_datagram_bytes = batch_bytes;
  return cfg;
}

Config llft(std::size_t batch_bytes = 0) {
  return with(OrderingMode::kLlft, batch_bytes);
}

Config lamport_paper() { return with(OrderingMode::kLamportPaper); }

void expect_pinned(const char* what, const Observed& seen, const Observed& pin) {
  std::printf("%s: wire=0x%016llx event=0x%016llx egress=%llu delivered=%llu\n",
              what, (unsigned long long)seen.wire_digest,
              (unsigned long long)seen.event_digest,
              (unsigned long long)seen.egress_datagrams,
              (unsigned long long)seen.delivered);
  EXPECT_EQ(seen.wire_digest, pin.wire_digest) << what;
  EXPECT_EQ(seen.event_digest, pin.event_digest) << what;
  EXPECT_EQ(seen.egress_datagrams, pin.egress_datagrams) << what;
  EXPECT_EQ(seen.delivered, pin.delivered) << what;
}

// Captured from the pre-refactor tree (see file header). If a deliberate
// lamport-paper wire change ever lands, re-capture BOTH tests' constants in
// the same commit that justifies the change.
constexpr std::uint64_t kPreRefactorWireDigest = 0xafe6d7b726ea243dULL;
constexpr std::uint64_t kPreRefactorEventDigest = 0x8e7d67aa84146a96ULL;
constexpr std::uint64_t kPreRefactorEgress = 154;
constexpr std::uint64_t kPreRefactorDelivered = 186;

// Captured at commit 1379157 (see file header).
const Observed kLlftPin{0x3e3b45a6d461f414ULL, 0x8b67f72e77c5fb7cULL, 216, 186};
const Observed kLlftBatchedPin{0xdddb67283256f122ULL, 0xb13cb3baea656b6dULL, 154, 186};
const Observed kLamportCrashPin{0x3a38e853cbeb34caULL, 0x2d68ac0178fc80feULL, 127, 139};
const Observed kLlftCrashPin{0x7bdb9177c038f3abULL, 0xe6ba1065dbe2df41ULL, 167, 140};

// Captured with rank-staggered prompt acknowledgement (see file header).
const Observed kLamportPromptPin{0xcc2c9b954a321bb0ULL, 0x4cbccdaaa9343b57ULL, 198, 186};
const Observed kLamportPromptBatchedPin{0xe93d96f6cf2a21c9ULL, 0x30de9a76fd48d80bULL, 171, 186};
const Observed kLamportPromptCrashPin{0x3ab64038dd7a889cULL, 0xf0c08617d1a49914ULL, 156, 139};

// Captured at commit 55bcf65, the lamport one re-captured (see file header).
const Observed kLamportReadmitPin{0x899eba6499f9b29eULL, 0x5d6b5a2aa686769aULL, 284, 322};
const Observed kLamportPromptReadmitPin{0xc86cb385cf5d211aULL, 0x329937921e10f620ULL, 356, 322};
const Observed kLlftReadmitPin{0x86b96edfd0138c0dULL, 0x61f7ba298a08ff99ULL, 370, 323};

TEST(OrderingEquivalence, LamportDefaultPinnedByteIdenticalToPreRefactor) {
  expect_pinned("lamport-paper", run_scenario(lamport_paper()),
                {kPreRefactorWireDigest, kPreRefactorEventDigest,
                 kPreRefactorEgress, kPreRefactorDelivered});
}

TEST(OrderingEquivalence, LlftPinned) {
  expect_pinned("llft", run_scenario(llft()), kLlftPin);
}

TEST(OrderingEquivalence, LlftBatchedPinned) {
  expect_pinned("llft batched", run_scenario(llft(1400)), kLlftBatchedPin);
}

TEST(OrderingEquivalence, LamportCrashPinned) {
  expect_pinned("lamport-paper crash", run_scenario(lamport_paper(), Scenario::kCrash),
                kLamportCrashPin);
}

TEST(OrderingEquivalence, LamportPromptPinned) {
  expect_pinned("lamport", run_scenario(Config{}), kLamportPromptPin);
}

TEST(OrderingEquivalence, LamportPromptBatchedPinned) {
  expect_pinned("lamport batched",
                run_scenario(with(OrderingMode::kLamport, 1400)),
                kLamportPromptBatchedPin);
}

TEST(OrderingEquivalence, LamportPromptCrashPinned) {
  expect_pinned("lamport crash", run_scenario(Config{}, Scenario::kCrash),
                kLamportPromptCrashPin);
}

#if FTCORBA_METRICS_ENABLED
// Every own datagram loops back here, so the own-gap probe never fires.
TEST(OrderingEquivalence, LamportPromptScenariosSendNoProbe) {
  const auto probes = [] {
    for (const metrics::Sample& s : metrics::snapshot()) {
      if (s.name == "ftmp_rmp_own_gap_probes_total") return s.counter;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t before = probes();
  (void)run_scenario(Config{});
  (void)run_scenario(with(OrderingMode::kLamport, 1400));
  (void)run_scenario(Config{}, Scenario::kCrash);
  EXPECT_EQ(probes(), before);
}
#endif  // FTCORBA_METRICS_ENABLED

TEST(OrderingEquivalence, LlftCrashPinned) {
  expect_pinned("llft crash", run_scenario(llft(), Scenario::kCrash), kLlftCrashPin);
}

TEST(OrderingEquivalence, LamportReadmitPinned) {
  expect_pinned("lamport-paper readmit",
                run_scenario(lamport_paper(), Scenario::kReadmit),
                kLamportReadmitPin);
}

TEST(OrderingEquivalence, LamportPromptReadmitPinned) {
  expect_pinned("lamport readmit", run_scenario(Config{}, Scenario::kReadmit),
                kLamportPromptReadmitPin);
}

TEST(OrderingEquivalence, LlftReadmitPinned) {
  expect_pinned("llft readmit", run_scenario(llft(), Scenario::kReadmit),
                kLlftReadmitPin);
}

}  // namespace
}  // namespace ftcorba::ftmp
