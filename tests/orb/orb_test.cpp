// Unit tests for the mini-ORB over a 2-member simulated deployment:
// dispatch, oneway, locate, cancel, exceptions, unknown objects, the
// suppress_reply hook, and deferral while the group is congested.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>

#include "ftmp/flow.hpp"
#include "ftmp/sim_harness.hpp"
#include "orb/orb.hpp"

namespace ftcorba::orb {
namespace {

constexpr FtDomainId kDomain{1};
constexpr McastAddress kDomainAddr{100};
constexpr ProcessorGroupId kGroup{1};
constexpr McastAddress kGroupAddr{200};
const ObjectKey kEcho{"echo"};

ConnectionId conn() {
  return ConnectionId{kDomain, ObjectGroupId{1}, kDomain, ObjectGroupId{2}};
}

class EchoServant : public Servant {
 public:
  giop::ReplyStatus invoke(const std::string& operation, giop::CdrReader& in,
                           giop::CdrWriter& out) override {
    ++invocations;
    if (operation == "echo") {
      out.string(in.string());
      return giop::ReplyStatus::kNoException;
    }
    if (operation == "fail") {
      out.string("deliberate");
      return giop::ReplyStatus::kUserException;
    }
    if (operation == "throw") {
      throw std::runtime_error("servant blew up");
    }
    out.string("no such op");
    return giop::ReplyStatus::kSystemException;
  }
  int invocations = 0;
};

struct OrbWorld {
  ftmp::SimHarness h{{}, 21};
  ProcessorId server{1}, client{2};
  std::unique_ptr<Orb> server_orb, client_orb;
  std::shared_ptr<EchoServant> servant = std::make_shared<EchoServant>();

  explicit OrbWorld(const ftmp::Config& config = {}) {
    const std::vector<ProcessorId> members{server, client};
    for (ProcessorId p : members) h.add_processor(p, kDomain, kDomainAddr, config);
    for (ProcessorId p : members) {
      h.stack(p).create_group(h.now(), kGroup, kGroupAddr, members);
    }
    h.stack(server).serve_connections(kGroup);
    server_orb = std::make_unique<Orb>(h.stack(server));
    client_orb = std::make_unique<Orb>(h.stack(client));
    wire(server, *server_orb);
    wire(client, *client_orb);
    server_orb->activate(kEcho, servant);
    // The client is already a group member; establish the connection.
    h.stack(client).open_connection(h.now(), conn(), kDomainAddr, {client});
    h.run_until_pred([&] { return h.stack(client).connection_ready(conn()); },
                     h.now() + 5 * kSecond);
  }

  void wire(ProcessorId p, Orb& orb) {
    Orb* o = &orb;
    h.set_event_handler(p, [o](TimePoint t, const ftmp::Event& ev) { o->on_event(t, ev); });
  }
};

TEST(Orb, EchoRoundTrip) {
  OrbWorld w;
  std::string result;
  giop::CdrWriter args;
  args.string("marco");
  auto num = w.client_orb->invoke(w.h.now(), conn(), kEcho, "echo", args,
                                  [&](const giop::Reply& reply, ByteOrder order) {
                                    giop::CdrReader r(reply.body, order);
                                    result = r.string();
                                  });
  ASSERT_TRUE(num.has_value());
  w.h.run_for(300 * kMillisecond);
  EXPECT_EQ(result, "marco");
  EXPECT_EQ(w.client_orb->pending_invocations(), 0u);
  EXPECT_EQ(w.server_orb->stats().requests_dispatched, 1u);
}

TEST(Orb, RequestNumbersIncreasePerConnection) {
  OrbWorld w;
  giop::CdrWriter args;
  args.string("x");
  auto a = w.client_orb->invoke(w.h.now(), conn(), kEcho, "echo", args, nullptr);
  auto b = w.client_orb->invoke(w.h.now(), conn(), kEcho, "echo", args, nullptr);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(*b, *a + 1);
}

TEST(Orb, OnewayDispatchesWithoutReply) {
  OrbWorld w;
  giop::CdrWriter args;
  args.string("fire-and-forget");
  auto num = w.client_orb->invoke(w.h.now(), conn(), kEcho, "echo", args, nullptr,
                                  /*response_expected=*/false);
  ASSERT_TRUE(num.has_value());
  w.h.run_for(300 * kMillisecond);
  EXPECT_EQ(w.servant->invocations, 1);
  EXPECT_EQ(w.client_orb->pending_invocations(), 0u);
  EXPECT_EQ(w.client_orb->stats().replies_completed, 0u);
}

TEST(Orb, UserExceptionPropagates) {
  OrbWorld w;
  giop::ReplyStatus status = giop::ReplyStatus::kNoException;
  std::string detail;
  giop::CdrWriter args;
  args.string("ignored");
  w.client_orb->invoke(w.h.now(), conn(), kEcho, "fail", args,
                       [&](const giop::Reply& reply, ByteOrder order) {
                         status = reply.status;
                         giop::CdrReader r(reply.body, order);
                         detail = r.string();
                       });
  w.h.run_for(300 * kMillisecond);
  EXPECT_EQ(status, giop::ReplyStatus::kUserException);
  EXPECT_EQ(detail, "deliberate");
}

TEST(Orb, ServantThrowBecomesSystemException) {
  OrbWorld w;
  giop::ReplyStatus status = giop::ReplyStatus::kNoException;
  giop::CdrWriter args;
  args.string("ignored");
  w.client_orb->invoke(w.h.now(), conn(), kEcho, "throw", args,
                       [&](const giop::Reply& reply, ByteOrder) { status = reply.status; });
  w.h.run_for(300 * kMillisecond);
  EXPECT_EQ(status, giop::ReplyStatus::kSystemException);
}

TEST(Orb, UnknownObjectCounted) {
  OrbWorld w;
  giop::CdrWriter args;
  args.string("x");
  w.client_orb->invoke(w.h.now(), conn(), ObjectKey{"nothing"}, "echo", args, nullptr);
  w.h.run_for(300 * kMillisecond);
  EXPECT_GE(w.server_orb->stats().unknown_objects, 1u);
  EXPECT_EQ(w.servant->invocations, 0);
}

TEST(Orb, LocateFindsActivatedObject) {
  OrbWorld w;
  std::optional<giop::LocateStatus> status;
  w.client_orb->locate(w.h.now(), conn(), kEcho,
                       [&](giop::LocateStatus s) { status = s; });
  w.h.run_for(300 * kMillisecond);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, giop::LocateStatus::kObjectHere);
}

TEST(Orb, DeactivateStopsDispatch) {
  OrbWorld w;
  w.server_orb->deactivate(kEcho);
  giop::CdrWriter args;
  args.string("x");
  bool replied = false;
  w.client_orb->invoke(w.h.now(), conn(), kEcho, "echo", args,
                       [&](const giop::Reply&, ByteOrder) { replied = true; });
  w.h.run_for(300 * kMillisecond);
  EXPECT_FALSE(replied);
  EXPECT_EQ(w.servant->invocations, 0);
}

TEST(Orb, SuppressReplyServantIsSilent) {
  class SilentServant : public Servant {
   public:
    giop::ReplyStatus invoke(const std::string&, giop::CdrReader&,
                             giop::CdrWriter&) override {
      ++seen;
      return giop::ReplyStatus::kNoException;
    }
    bool suppress_reply() const override { return true; }
    int seen = 0;
  };
  OrbWorld w;
  auto silent = std::make_shared<SilentServant>();
  w.server_orb->activate(kEcho, silent);
  giop::CdrWriter args;
  args.string("x");
  bool replied = false;
  w.client_orb->invoke(w.h.now(), conn(), kEcho, "echo", args,
                       [&](const giop::Reply&, ByteOrder) { replied = true; });
  w.h.run_for(300 * kMillisecond);
  EXPECT_EQ(silent->seen, 1) << "dispatched";
  EXPECT_FALSE(replied) << "but never answered";
}

TEST(Orb, DeadlineFiresWhenServerGone) {
  OrbWorld w;
  w.server_orb->deactivate(kEcho);  // nobody will answer
  giop::CdrWriter args;
  args.string("x");
  bool replied = false, timed_out = false;
  auto num = w.client_orb->invoke(w.h.now(), conn(), kEcho, "echo", args,
                                  [&](const giop::Reply&, ByteOrder) { replied = true; });
  ASSERT_TRUE(num.has_value());
  w.client_orb->set_deadline(conn(), *num, w.h.now() + 100 * kMillisecond,
                             [&] { timed_out = true; });
  w.h.run_for(200 * kMillisecond);
  EXPECT_EQ(w.client_orb->expire(w.h.now()), 1u);
  EXPECT_TRUE(timed_out);
  EXPECT_FALSE(replied);
  EXPECT_EQ(w.client_orb->pending_invocations(), 0u);
}

TEST(Orb, DeadlineDisarmedByReply) {
  OrbWorld w;
  giop::CdrWriter args;
  args.string("quick");
  bool timed_out = false;
  std::string result;
  auto num = w.client_orb->invoke(w.h.now(), conn(), kEcho, "echo", args,
                                  [&](const giop::Reply& reply, ByteOrder order) {
                                    giop::CdrReader r(reply.body, order);
                                    result = r.string();
                                  });
  ASSERT_TRUE(num.has_value());
  w.client_orb->set_deadline(conn(), *num, w.h.now() + 5 * kSecond,
                             [&] { timed_out = true; });
  w.h.run_for(300 * kMillisecond);
  EXPECT_EQ(result, "quick");
  EXPECT_EQ(w.client_orb->expire(w.h.now() + 10 * kSecond), 0u)
      << "completed invocation must not time out";
  EXPECT_FALSE(timed_out);
}

TEST(Orb, LocateAnsweredBeforeItsDeadlineNeverTimesOut) {
  OrbWorld w;
  std::optional<giop::LocateStatus> status;
  bool timed_out = false;
  auto num = w.client_orb->locate(w.h.now(), conn(), kEcho,
                                  [&](giop::LocateStatus s) { status = s; });
  ASSERT_TRUE(num.has_value());
  w.client_orb->set_deadline(conn(), *num, w.h.now() + 5 * kSecond,
                             [&] { timed_out = true; });
  w.h.run_for(300 * kMillisecond);
  ASSERT_EQ(status, giop::LocateStatus::kObjectHere);
  EXPECT_EQ(w.client_orb->expire(w.h.now() + 10 * kSecond), 0u);
  EXPECT_FALSE(timed_out);
}

TEST(Orb, LocateOfAnUnhostedKeyTimesOutOnce) {
  OrbWorld w;
  bool answered = false;
  int timeouts = 0;
  auto num = w.client_orb->locate(w.h.now(), conn(), ObjectKey{"nothing"},
                                  [&](giop::LocateStatus) { answered = true; });
  ASSERT_TRUE(num.has_value());
  w.client_orb->set_deadline(conn(), *num, w.h.now() + 100 * kMillisecond,
                             [&] { ++timeouts; });
  w.h.run_for(200 * kMillisecond);
  EXPECT_EQ(w.client_orb->expire(w.h.now()), 1u);
  EXPECT_EQ(w.client_orb->expire(w.h.now() + 10 * kSecond), 0u);
  EXPECT_EQ(timeouts, 1);
  EXPECT_FALSE(answered) << "no replica hosts the key, so none answers";
}

TEST(Orb, InvokeDefersWhileTheGroupIsCongestedAndResumesAfter) {
  ftmp::Config config;
  config.flow_window_messages = 1;
  OrbWorld w(config);
  giop::CdrWriter args;
  args.string("x");
  std::map<std::uint32_t, int> completed;
  const auto count = [&](const giop::Reply& reply, ByteOrder) {
    ++completed[reply.request_id];
  };

  // Calls in one instant: the window takes the first, the rest park, and
  // the call that parks the kFlowHighWatermark-th send congests the group
  // (until the queue drains to kFlowLowWatermark).
  const RequestNum congesting = ftmp::kFlowHighWatermark + 1;
  for (RequestNum want = 1; want <= congesting; ++want) {
    ASSERT_FALSE(w.h.stack(w.client).connection_congested(conn())) << "call " << want;
    EXPECT_EQ(w.client_orb->invoke(w.h.now(), conn(), kEcho, "echo", args, count), want);
  }
  ASSERT_TRUE(w.h.stack(w.client).connection_congested(conn()));
  EXPECT_FALSE(w.client_orb->invoke(w.h.now(), conn(), kEcho, "echo", args, count).has_value());
  EXPECT_FALSE(w.client_orb->locate(w.h.now(), conn(), kEcho, nullptr).has_value());
  EXPECT_EQ(w.client_orb->stats().requests_deferred, 2u);

  ASSERT_TRUE(w.h.run_until_pred(
      [&] { return !w.h.stack(w.client).connection_congested(conn()); },
      w.h.now() + 60 * kSecond));
  EXPECT_EQ(w.client_orb->invoke(w.h.now(), conn(), kEcho, "echo", args, count),
            congesting + 1)
      << "a deferred call consumes no request number";
  ASSERT_TRUE(w.h.run_until_pred(
      [&] { return w.client_orb->pending_invocations() == 0; },
      w.h.now() + 60 * kSecond));
  std::map<std::uint32_t, int> each_once;
  for (RequestNum n = 1; n <= congesting + 1; ++n) each_once[std::uint32_t(n)] = 1;
  EXPECT_EQ(completed, each_once);
  EXPECT_EQ(w.servant->invocations, static_cast<int>(congesting + 1));
}

TEST(Orb, InvokeOnUnreadyConnectionFails) {
  ftmp::SimHarness h({}, 31);
  h.add_processor(ProcessorId{1}, kDomain, kDomainAddr);
  Orb orb(h.stack(ProcessorId{1}));
  giop::CdrWriter args;
  EXPECT_FALSE(orb.invoke(0, conn(), kEcho, "echo", args, nullptr).has_value());
  // The request counter was rolled back: the next successful invoke starts
  // at 1 again (replica determinism).
  EXPECT_FALSE(orb.invoke(0, conn(), kEcho, "echo", args, nullptr).has_value());
}

}  // namespace
}  // namespace ftcorba::orb
