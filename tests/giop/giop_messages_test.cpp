// Unit tests for the GIOP 1.0 message codec (§3.1 of the paper; the eight
// types of the CORBA 2.2 GIOP).
#include <gtest/gtest.h>

#include "giop/messages.hpp"

namespace ftcorba::giop {
namespace {

Request sample_request() {
  Request r;
  r.service_context = {{5, bytes_of("ctx")}};
  r.request_id = 42;
  r.response_expected = true;
  r.object_key = bytes_of("counter");
  r.operation = "add";
  r.requesting_principal = bytes_of("me");
  CdrWriter args;
  args.longlong_(17);
  r.body = args.bytes();
  return r;
}

std::vector<GiopMessage> sample_messages(ByteOrder order) {
  std::vector<GiopMessage> out;
  GiopHeader h;
  h.byte_order = order;
  out.push_back({h, sample_request()});
  {
    Reply r;
    r.request_id = 42;
    r.status = ReplyStatus::kNoException;
    CdrWriter body;
    body.longlong_(17);
    r.body = body.bytes();
    out.push_back({h, r});
  }
  out.push_back({h, CancelRequest{42}});
  out.push_back({h, LocateRequest{7, bytes_of("key")}});
  out.push_back({h, LocateReply{7, LocateStatus::kObjectHere, {}}});
  out.push_back({h, CloseConnection{}});
  out.push_back({h, MessageError{}});
  out.push_back({h, Fragment{bytes_of("tail-bytes")}});
  return out;
}

class GiopRoundTrip : public ::testing::TestWithParam<ByteOrder> {};

TEST_P(GiopRoundTrip, AllEightTypes) {
  for (const GiopMessage& m : sample_messages(GetParam())) {
    const Bytes wire = encode(m);
    EXPECT_TRUE(looks_like_giop(wire));
    const GiopMessage decoded = decode(wire);
    GiopMessage expected = m;
    expected.header.type = type_of(m.body);
    expected.header.message_size = decoded.header.message_size;
    EXPECT_EQ(decoded, expected) << "type " << to_string(type_of(m.body));
  }
}

INSTANTIATE_TEST_SUITE_P(BothOrders, GiopRoundTrip,
                         ::testing::Values(ByteOrder::kBig, ByteOrder::kLittle),
                         [](const auto& p) {
                           return p.param == ByteOrder::kBig ? "BigEndian"
                                                             : "LittleEndian";
                         });

TEST(Giop, HeaderLayout) {
  GiopMessage m{GiopHeader{}, CancelRequest{1}};
  const Bytes wire = encode(m);
  EXPECT_EQ(wire[0], 'G');
  EXPECT_EQ(wire[1], 'I');
  EXPECT_EQ(wire[2], 'O');
  EXPECT_EQ(wire[3], 'P');
  EXPECT_EQ(wire[4], 1);  // major
  EXPECT_EQ(wire[5], 0);  // minor
  EXPECT_EQ(wire[6], 0);  // big-endian flag
  EXPECT_EQ(wire[7], static_cast<std::uint8_t>(MsgType::kCancelRequest));
  // message_size covers the body only.
  EXPECT_EQ(wire.size(), kGiopHeaderSize + 4);
}

TEST(Giop, RequestArgumentsAre8Aligned) {
  GiopMessage m{GiopHeader{}, sample_request()};
  const Bytes wire = encode(m);
  const GiopMessage decoded = decode(wire);
  const auto& req = std::get<Request>(decoded.body);
  CdrReader args(req.body, decoded.header.byte_order);
  EXPECT_EQ(args.longlong_(), 17);
}

TEST(Giop, BadMagicRejected) {
  Bytes wire = encode({GiopHeader{}, MessageError{}});
  wire[0] = 'X';
  EXPECT_THROW((void)decode(wire), CdrError);
  EXPECT_FALSE(looks_like_giop(wire));
}

TEST(Giop, SizeMismatchRejected) {
  Bytes wire = encode({GiopHeader{}, CancelRequest{1}});
  wire.push_back(0);
  EXPECT_THROW((void)decode(wire), CdrError);
}

TEST(Giop, TruncatedHeaderRejected) {
  Bytes wire = encode({GiopHeader{}, MessageError{}});
  wire.resize(8);
  EXPECT_THROW((void)decode(wire), CdrError);
}

TEST(Giop, BadTypeRejected) {
  Bytes wire = encode({GiopHeader{}, MessageError{}});
  wire[7] = 99;
  EXPECT_THROW((void)decode(wire), CdrError);
}

TEST(Giop, BadReplyStatusRejected) {
  Reply r;
  r.request_id = 1;
  Bytes wire = encode({GiopHeader{}, r});
  // Reply body: service-context count (4) + request id (4) + status (4).
  wire[kGiopHeaderSize + 8 + 3] = 9;
  EXPECT_THROW((void)decode(wire), CdrError);
}

TEST(Giop, UnsupportedMajorVersionRejected) {
  Bytes wire = encode({GiopHeader{}, MessageError{}});
  wire[4] = 2;
  EXPECT_THROW((void)decode(wire), CdrError);
}

TEST(Giop, OnewayRequestRoundTrips) {
  Request r = sample_request();
  r.response_expected = false;
  const GiopMessage decoded = decode(encode({GiopHeader{}, r}));
  EXPECT_FALSE(std::get<Request>(decoded.body).response_expected);
}

TEST(Giop, EmptyBodyRequest) {
  Request r;
  r.request_id = 1;
  r.object_key = bytes_of("k");
  r.operation = "ping";
  const GiopMessage decoded = decode(encode({GiopHeader{}, r}));
  EXPECT_TRUE(std::get<Request>(decoded.body).body.empty());
}

TEST(Giop, TypeNames) {
  EXPECT_STREQ(to_string(MsgType::kRequest), "Request");
  EXPECT_STREQ(to_string(MsgType::kFragment), "Fragment");
}

}  // namespace
}  // namespace ftcorba::giop
