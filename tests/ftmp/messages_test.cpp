// Unit tests for the thirteen FTMP message body codecs (§5–§7 plus the
// state-transfer frames of docs/RECOVERY.md and the LLFT OrderInfo
// grants of docs/ORDERING.md), including a parameterized round-trip
// sweep over both byte orders.
#include <gtest/gtest.h>

#include "ftmp/messages.hpp"
#include "ftmp/wire.hpp"

namespace ftcorba::ftmp {
namespace {

ConnectionId sample_conn() {
  return ConnectionId{FtDomainId{1}, ObjectGroupId{2}, FtDomainId{3}, ObjectGroupId{4}};
}

MembershipInfo sample_membership() {
  return MembershipInfo{777, {ProcessorId{1}, ProcessorId{2}, ProcessorId{5}}};
}

Header header_for(MessageType type, ByteOrder order) {
  Header h;
  h.byte_order = order;
  h.type = type;
  h.source = ProcessorId{9};
  h.destination_group = ProcessorGroupId{3};
  h.sequence_number = 1001;
  h.message_timestamp = 2002;
  h.ack_timestamp = 1500;
  return h;
}

std::vector<Message> sample_messages(ByteOrder order) {
  std::vector<Message> out;
  {
    RegularBody b;
    b.connection = sample_conn();
    b.request_num = 88;
    b.giop_message = bytes_of("GIOP-payload-bytes");
    out.push_back({header_for(MessageType::kRegular, order), b});
  }
  out.push_back({header_for(MessageType::kRetransmitRequest, order),
                 RetransmitRequestBody{ProcessorId{4}, 10, 20}});
  out.push_back({header_for(MessageType::kHeartbeat, order), HeartbeatBody{}});
  out.push_back({header_for(MessageType::kConnectRequest, order),
                 ConnectRequestBody{sample_conn(), {ProcessorId{10}, ProcessorId{11}}}});
  out.push_back({header_for(MessageType::kConnect, order),
                 ConnectBody{sample_conn(), ProcessorGroupId{3}, McastAddress{200},
                             sample_membership()}});
  out.push_back({header_for(MessageType::kAddProcessor, order),
                 AddProcessorBody{sample_membership(),
                                  {{ProcessorId{1}, 5}, {ProcessorId{2}, 7}},
                                  ProcessorId{6}}});
  out.push_back({header_for(MessageType::kRemoveProcessor, order),
                 RemoveProcessorBody{ProcessorId{2}}});
  out.push_back({header_for(MessageType::kSuspect, order),
                 SuspectBody{sample_membership(), {ProcessorId{5}}}});
  out.push_back({header_for(MessageType::kMembership, order),
                 MembershipBody{sample_membership(),
                                {{ProcessorId{1}, 5}, {ProcessorId{2}, 7}, {ProcessorId{5}, 0}},
                                {ProcessorId{1}, ProcessorId{2}}}});
  out.push_back({header_for(MessageType::kStateRequest, order),
                 StateRequestBody{ProcessorId{6}, 901, 17}});
  {
    StateChunkBody b;
    b.joiner = ProcessorId{6};
    b.view_ts = 901;
    b.chunk_seq = 3;
    b.total_chunks = 9;
    b.snapshot_digest = 0x1122334455667788ull;
    b.cut_digest = 0x99AABBCCDDEEFF00ull;
    b.cut_seqs = {{ProcessorId{1}, 41}, {ProcessorId{2}, 7}};
    b.payload = bytes_of("snapshot-slice");
    out.push_back({header_for(MessageType::kStateChunk, order), b});
  }
  out.push_back({header_for(MessageType::kStateDigest, order),
                 StateDigestBody{0xDEADBEEFCAFEF00Dull, 0x0123456789ABCDEFull}});
  {
    OrderInfoBody b;
    b.view_ts = 901;
    b.floors = {{ProcessorId{1}, 40}, {ProcessorId{3}, 12}};
    b.grants = {{ProcessorId{2}, 41}, {ProcessorId{1}, 41}, {ProcessorId{2}, 42}};
    out.push_back({header_for(MessageType::kOrderInfo, order), b});
  }
  return out;
}

class MessagesRoundTrip : public ::testing::TestWithParam<ByteOrder> {};

TEST_P(MessagesRoundTrip, EveryTypeRoundTrips) {
  for (const Message& m : sample_messages(GetParam())) {
    const Bytes wire = encode_message(m);
    const Message decoded = decode_message(wire);
    // The encoder fills message_size; compare everything else verbatim.
    Message expected = m;
    expected.header.message_size = decoded.header.message_size;
    EXPECT_EQ(decoded, expected)
        << "type " << to_string(m.header.type) << " order "
        << (GetParam() == ByteOrder::kBig ? "BE" : "LE");
    EXPECT_EQ(decoded.header.message_size, wire.size());
  }
}

INSTANTIATE_TEST_SUITE_P(BothOrders, MessagesRoundTrip,
                         ::testing::Values(ByteOrder::kBig, ByteOrder::kLittle),
                         [](const auto& p) {
                           return p.param == ByteOrder::kBig ? "BigEndian"
                                                             : "LittleEndian";
                         });

// Pins the OrderInfo (type 13) body bytes exactly — docs/WIRE.md §3:
// u64 view timestamp, then the floors and grants sequences, each a u32
// count followed by (u32 processor, u64 seq) entries.
TEST(Messages, OrderInfoGoldenBodyBytes) {
  OrderInfoBody b;
  b.view_ts = 901;
  b.floors = {{ProcessorId{1}, 40}};
  b.grants = {{ProcessorId{2}, 41}, {ProcessorId{1}, 41}};
  const Bytes wire =
      encode_message({header_for(MessageType::kOrderInfo, ByteOrder::kBig), b});
  const Bytes expected = {
      // view_ts = 901
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x85,
      // floors: count 1, (P1, 40)
      0x00, 0x00, 0x00, 0x01,
      0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x28,
      // grants: count 2, (P2, 41), (P1, 41)
      0x00, 0x00, 0x00, 0x02,
      0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x29,
      0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x29,
  };
  ASSERT_EQ(wire.size(), kHeaderSize + expected.size());
  EXPECT_EQ(Bytes(wire.begin() + kHeaderSize, wire.end()), expected);
}

TEST(Messages, TypeOfMatchesAlternative) {
  for (const Message& m : sample_messages(ByteOrder::kBig)) {
    EXPECT_EQ(type_of(m.body), m.header.type);
  }
}

TEST(Messages, SizeMismatchRejected) {
  Message m{header_for(MessageType::kHeartbeat, ByteOrder::kBig), HeartbeatBody{}};
  Bytes wire = encode_message(m);
  wire.push_back(0);  // trailing garbage makes datagram longer than header says
  EXPECT_THROW((void)decode_message(wire), CodecError);
}

TEST(Messages, TruncatedBodyRejected) {
  Message m{header_for(MessageType::kRegular, ByteOrder::kBig),
            RegularBody{sample_conn(), 1, bytes_of("payload")}};
  Bytes wire = encode_message(m);
  wire.resize(wire.size() - 3);
  EXPECT_THROW((void)decode_message(wire), CodecError);
}

TEST(Messages, InvertedRetransmitRangeRejected) {
  Message m{header_for(MessageType::kRetransmitRequest, ByteOrder::kBig),
            RetransmitRequestBody{ProcessorId{1}, 20, 10}};
  const Bytes wire = encode_message(m);
  EXPECT_THROW((void)decode_message(wire), CodecError);
}

TEST(Messages, HostileLengthFieldRejected) {
  // A processor-list count claiming 2^31 entries must not allocate.
  Message m{header_for(MessageType::kSuspect, ByteOrder::kBig),
            SuspectBody{sample_membership(), {ProcessorId{5}}}};
  Bytes wire = encode_message(m);
  // The suspects count is the last u32-count in the body; stomp the byte
  // after the membership block. Simpler: craft via direct corruption of the
  // final 4-byte count (suspects list of size 1 sits at the end - 4 - 4).
  const std::size_t count_offset = wire.size() - 8;  // count + one entry
  wire[count_offset] = 0x7F;
  wire[count_offset + 1] = 0xFF;
  wire[count_offset + 2] = 0xFF;
  wire[count_offset + 3] = 0xFF;
  EXPECT_THROW((void)decode_message(wire), CodecError);
}

TEST(Messages, EmptyGiopPayloadAllowed) {
  Message m{header_for(MessageType::kRegular, ByteOrder::kBig),
            RegularBody{sample_conn(), 5, {}}};
  const Message decoded = decode_message(encode_message(m));
  EXPECT_TRUE(std::get<RegularBody>(decoded.body).giop_message.empty());
}

TEST(Messages, LargePayloadRoundTrips) {
  Bytes big(64 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i);
  Message m{header_for(MessageType::kRegular, ByteOrder::kLittle),
            RegularBody{sample_conn(), 5, big}};
  const Message decoded = decode_message(encode_message(m));
  EXPECT_EQ(std::get<RegularBody>(decoded.body).giop_message, big);
}

TEST(Messages, CrossEndianDecode) {
  // A little-endian sender's message decodes on a big-endian-default
  // receiver (receiver-makes-right via the header flag).
  Message m{header_for(MessageType::kAddProcessor, ByteOrder::kLittle),
            AddProcessorBody{sample_membership(), {{ProcessorId{1}, 5}}, ProcessorId{6}}};
  const Message decoded = decode_message(encode_message(m));
  EXPECT_EQ(std::get<AddProcessorBody>(decoded.body).new_member, ProcessorId{6});
  EXPECT_EQ(decoded.header.sequence_number, 1001u);
}

}  // namespace
}  // namespace ftcorba::ftmp
