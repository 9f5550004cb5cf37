// Unit tests for the replication building blocks: ActiveReplica dispatch
// and snapshots, and BufferingServant cut semantics.
#include <gtest/gtest.h>

#include "ft/replication.hpp"

namespace ftcorba::ft {
namespace {

class Adder : public StateMachine {
 public:
  giop::ReplyStatus apply(const std::string& operation, giop::CdrReader& in,
                          giop::CdrWriter& out) override {
    if (operation != "add") {
      out.string("bad op");
      return giop::ReplyStatus::kUserException;
    }
    total_ += in.longlong_();
    out.longlong_(total_);
    return giop::ReplyStatus::kNoException;
  }
  Bytes snapshot() const override {
    giop::CdrWriter w;
    w.longlong_(total_);
    return w.bytes();
  }
  void restore(BytesView snapshot) override {
    giop::CdrReader r(snapshot);
    total_ = r.longlong_();
  }
  std::int64_t total() const { return total_; }

 private:
  std::int64_t total_ = 0;
};

giop::CdrReader args_of(std::int64_t v, giop::CdrWriter& storage) {
  storage.longlong_(v);
  return giop::CdrReader(storage.bytes());
}

TEST(ActiveReplica, AppliesAndCounts) {
  auto machine = std::make_shared<Adder>();
  ActiveReplica replica(machine);
  giop::CdrWriter storage;
  giop::CdrReader in = args_of(5, storage);
  giop::CdrWriter out;
  EXPECT_EQ(replica.invoke("add", in, out), giop::ReplyStatus::kNoException);
  EXPECT_EQ(machine->total(), 5);
  EXPECT_EQ(replica.applied(), 1u);
  EXPECT_FALSE(replica.suppress_reply());
}

TEST(ActiveReplica, GetStateReturnsSnapshotWithoutCountingAsApply) {
  auto machine = std::make_shared<Adder>();
  machine->restore([] {
    giop::CdrWriter w;
    w.longlong_(77);
    return w.bytes();
  }());
  ActiveReplica replica(machine);
  giop::CdrWriter empty_args;
  giop::CdrReader in(empty_args.bytes());
  giop::CdrWriter out;
  EXPECT_EQ(replica.invoke(kGetStateOp, in, out), giop::ReplyStatus::kNoException);
  EXPECT_EQ(replica.applied(), 0u);
  giop::CdrReader r(out.bytes());
  Adder fresh;
  fresh.restore(r.octet_seq());
  EXPECT_EQ(fresh.total(), 77);
}

TEST(BufferingServant, RecordsAfterCutOnly) {
  BufferingServant buffer;
  EXPECT_TRUE(buffer.suppress_reply());
  giop::CdrWriter s1, s2, s3, out;
  {
    giop::CdrReader in = args_of(1, s1);
    (void)buffer.invoke("add", in, out);
  }
  EXPECT_FALSE(buffer.cut_seen());
  EXPECT_EQ(buffer.buffered().size(), 1u);
  {
    giop::CdrWriter empty;
    giop::CdrReader in(empty.bytes());
    (void)buffer.invoke(kGetStateOp, in, out);  // the snapshot cut
  }
  EXPECT_TRUE(buffer.cut_seen());
  EXPECT_TRUE(buffer.buffered().empty()) << "pre-cut requests are inside the snapshot";
  {
    giop::CdrReader in = args_of(2, s2);
    (void)buffer.invoke("add", in, out);
  }
  {
    giop::CdrReader in = args_of(3, s3);
    (void)buffer.invoke("add", in, out);
  }
  ASSERT_EQ(buffer.buffered().size(), 2u);
  // Replaying the buffer onto a restored machine reproduces the state.
  Adder machine;
  machine.restore([] {
    giop::CdrWriter w;
    w.longlong_(1);
    return w.bytes();
  }());
  for (const auto& req : buffer.buffered()) {
    giop::CdrReader in(req.arguments, req.order);
    giop::CdrWriter ignored;
    (void)machine.apply(req.operation, in, ignored);
  }
  EXPECT_EQ(machine.total(), 6);
}

}  // namespace
}  // namespace ftcorba::ft
