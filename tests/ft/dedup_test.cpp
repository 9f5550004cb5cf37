// Unit tests for duplicate detection/suppression (§4).
#include <gtest/gtest.h>

#include "ft/dedup.hpp"

namespace ftcorba::ft {
namespace {

ConnectionId conn(std::uint32_t tag = 1) {
  return ConnectionId{FtDomainId{tag}, ObjectGroupId{1}, FtDomainId{2}, ObjectGroupId{2}};
}

TEST(Dedup, FirstCopyAcceptedRestSuppressed) {
  DuplicateSuppressor d;
  EXPECT_TRUE(d.accept(conn(), 1, MessageKind::kRequest));
  EXPECT_FALSE(d.accept(conn(), 1, MessageKind::kRequest));
  EXPECT_FALSE(d.accept(conn(), 1, MessageKind::kRequest));
  EXPECT_EQ(d.stats().accepted.value(), 1u);
  EXPECT_EQ(d.stats().suppressed.value(), 2u);
}

TEST(Dedup, RequestAndReplyAreDistinct) {
  DuplicateSuppressor d;
  EXPECT_TRUE(d.accept(conn(), 1, MessageKind::kRequest));
  EXPECT_TRUE(d.accept(conn(), 1, MessageKind::kReply));
  EXPECT_FALSE(d.accept(conn(), 1, MessageKind::kReply));
}

TEST(Dedup, ConnectionsAreIndependent) {
  DuplicateSuppressor d;
  EXPECT_TRUE(d.accept(conn(1), 1, MessageKind::kRequest));
  EXPECT_TRUE(d.accept(conn(2), 1, MessageKind::kRequest));
}

TEST(Dedup, SeenDoesNotRecord) {
  DuplicateSuppressor d;
  EXPECT_FALSE(d.seen(conn(), 1, MessageKind::kRequest));
  EXPECT_TRUE(d.accept(conn(), 1, MessageKind::kRequest));
  EXPECT_TRUE(d.seen(conn(), 1, MessageKind::kRequest));
  EXPECT_FALSE(d.seen(conn(), 2, MessageKind::kRequest));
}

TEST(Dedup, PrefixReclaimsAndStillSuppresses) {
  DuplicateSuppressor d;
  for (RequestNum n = 1; n <= 100; ++n) {
    EXPECT_TRUE(d.accept(conn(), n, MessageKind::kRequest));
  }
  EXPECT_EQ(d.size(), 0u) << "1..100 is one prefix";
  // A late replica copy of a reclaimed request must still be suppressed.
  EXPECT_FALSE(d.accept(conn(), 50, MessageKind::kRequest));
  EXPECT_TRUE(d.seen(conn(), 50, MessageKind::kRequest));
  // Later numbers behave normally.
  EXPECT_TRUE(d.accept(conn(), 101, MessageKind::kRequest));
  EXPECT_EQ(d.size(), 0u);
}

TEST(Dedup, OutOfOrderNumbersJoinThePrefixOnceTheGapFills) {
  DuplicateSuppressor d;
  EXPECT_TRUE(d.accept(conn(), 3, MessageKind::kRequest));
  EXPECT_EQ(d.size(), 1u);
  EXPECT_TRUE(d.accept(conn(), 1, MessageKind::kRequest));
  EXPECT_EQ(d.size(), 1u) << "3 still waits for 2";
  EXPECT_FALSE(d.seen(conn(), 2, MessageKind::kRequest));
  EXPECT_TRUE(d.accept(conn(), 2, MessageKind::kRequest));
  EXPECT_EQ(d.size(), 0u) << "nothing retained once 1..3 are in";
  EXPECT_FALSE(d.accept(conn(), 3, MessageKind::kRequest));
}

TEST(Dedup, OnewayRequestLeavesAHoleOnlyInTheReplyPrefix) {
  DuplicateSuppressor d;
  for (RequestNum n = 1; n <= 5; ++n) {
    EXPECT_TRUE(d.accept(conn(), n, MessageKind::kRequest));
    // Request 2 is oneway: it never gets a reply.
    if (n != 2) {
      EXPECT_TRUE(d.accept(conn(), n, MessageKind::kReply));
    }
  }
  EXPECT_EQ(d.size(), 3u) << "replies 3..5 sit above the hole at 2";
  EXPECT_TRUE(d.seen(conn(), 1, MessageKind::kReply));
  EXPECT_FALSE(d.seen(conn(), 2, MessageKind::kReply));
  EXPECT_FALSE(d.accept(conn(), 4, MessageKind::kReply));
  EXPECT_FALSE(d.accept(conn(), 5, MessageKind::kRequest));
}

TEST(Dedup, LargeRequestNumbers) {
  DuplicateSuppressor d;
  const RequestNum big = ~RequestNum{0} >> 2;
  EXPECT_TRUE(d.accept(conn(), big, MessageKind::kRequest));
  EXPECT_FALSE(d.accept(conn(), big, MessageKind::kRequest));
  EXPECT_TRUE(d.accept(conn(), big, MessageKind::kReply));
}

}  // namespace
}  // namespace ftcorba::ft
