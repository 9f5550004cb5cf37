// Unit tests for the FTMP header codec (§3.2).
#include <gtest/gtest.h>

#include "ftmp/wire.hpp"

namespace ftcorba::ftmp {
namespace {

Header sample_header() {
  Header h;
  h.byte_order = ByteOrder::kBig;
  h.retransmission = false;
  h.type = MessageType::kRegular;
  h.source = ProcessorId{42};
  h.destination_group = ProcessorGroupId{7};
  h.sequence_number = 123456789;
  h.message_timestamp = 987654321;
  h.ack_timestamp = 55;
  return h;
}

TEST(Wire, HeaderRoundTripBigEndian) {
  Header h = sample_header();
  Writer w(h.byte_order);
  encode_header(w, h);
  patch_message_size(w, static_cast<std::uint32_t>(w.size()));
  h.message_size = static_cast<std::uint32_t>(w.size());

  Reader r(w.bytes());
  const Header decoded = decode_header(r);
  EXPECT_EQ(decoded, h);
  EXPECT_TRUE(r.exhausted());
}

TEST(Wire, HeaderRoundTripLittleEndian) {
  Header h = sample_header();
  h.byte_order = ByteOrder::kLittle;
  h.retransmission = true;
  Writer w(h.byte_order);
  encode_header(w, h);
  patch_message_size(w, kHeaderSize);
  h.message_size = kHeaderSize;

  Reader r(w.bytes());  // reader starts big-endian; flag switches it
  const Header decoded = decode_header(r);
  EXPECT_EQ(decoded, h);
}

TEST(Wire, HeaderSizeConstantMatchesEncoding) {
  Writer w;
  encode_header(w, sample_header());
  EXPECT_EQ(w.size(), kHeaderSize);
}

TEST(Wire, MagicIsFtmp) {
  Writer w;
  encode_header(w, sample_header());
  const Bytes& b = w.bytes();
  EXPECT_EQ(b[0], 'F');
  EXPECT_EQ(b[1], 'T');
  EXPECT_EQ(b[2], 'M');
  EXPECT_EQ(b[3], 'P');
  EXPECT_TRUE(looks_like_ftmp(b));
}

TEST(Wire, BadMagicRejected) {
  Writer w;
  encode_header(w, sample_header());
  Bytes b = w.bytes();
  b[0] = 'X';
  Reader r(b);
  EXPECT_THROW((void)decode_header(r), CodecError);
  EXPECT_FALSE(looks_like_ftmp(b));
}

TEST(Wire, UnsupportedVersionRejected) {
  Header h = sample_header();
  h.version.major = 9;
  Writer w;
  encode_header(w, h);
  Reader r(w.bytes());
  EXPECT_THROW((void)decode_header(r), CodecError);
}

TEST(Wire, BadByteOrderFlagRejected) {
  Writer w;
  encode_header(w, sample_header());
  Bytes b = w.bytes();
  b[6] = 2;  // byte-order flag
  Reader r(b);
  EXPECT_THROW((void)decode_header(r), CodecError);
}

TEST(Wire, BadTypeRejected) {
  Writer w;
  encode_header(w, sample_header());
  Bytes b = w.bytes();
  b[12] = 0;  // type field (after magic4 + ver2 + order1 + retrans1 + size4)
  Reader r(b);
  EXPECT_THROW((void)decode_header(r), CodecError);
  b[12] = 14;  // one past kOrderInfo, the highest assigned type
  Reader r2(b);
  EXPECT_THROW((void)decode_header(r2), CodecError);
}

TEST(Wire, TruncatedHeaderRejected) {
  Writer w;
  encode_header(w, sample_header());
  const Bytes b = w.bytes();
  const Bytes truncated(b.begin(), b.end() - 1);
  Reader r(truncated);
  EXPECT_THROW((void)decode_header(r), CodecError);
}

// --- golden bytes ---------------------------------------------------------
// Pins the exact wire layout the offset constants describe. If the encoder
// and the kXxxOffset constants ever disagree, this fails byte-by-byte
// before any in-place patch (retransmission flag, heartbeat template) can
// corrupt live traffic.

TEST(WireGolden, HeaderBytesBigEndian) {
  Header h = sample_header();  // source 42, group 7, seq 123456789,
                               // msg ts 987654321, ack ts 55
  Writer w(h.byte_order);
  encode_header(w, h);
  patch_message_size(w, kHeaderSize);
  const std::uint8_t expected[kHeaderSize] = {
      'F',  'T',  'M',  'P',                            // kMagicOffset
      0x01, 0x00,                                       // kVersionOffset: 1.0
      0x00,                                             // kByteOrderFlagOffset
      0x00,                                             // kRetransFlagOffset
      0x00, 0x00, 0x00, 0x2D,                           // kSizeFieldOffset: 45
      0x01,                                             // kTypeFieldOffset: Regular
      0x00, 0x00, 0x00, 0x2A,                           // kSourceOffset: 42
      0x00, 0x00, 0x00, 0x07,                           // kGroupOffset: 7
      0x00, 0x00, 0x00, 0x00, 0x07, 0x5B, 0xCD, 0x15,   // kSeqOffset
      0x00, 0x00, 0x00, 0x00, 0x3A, 0xDE, 0x68, 0xB1,   // kMsgTimestampOffset
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x37,   // kAckTimestampOffset
  };
  ASSERT_EQ(w.size(), kHeaderSize);
  for (std::size_t i = 0; i < kHeaderSize; ++i) {
    EXPECT_EQ(w.bytes()[i], expected[i]) << "at offset " << i;
  }
}

TEST(WireGolden, HeaderBytesLittleEndian) {
  Header h = sample_header();
  h.byte_order = ByteOrder::kLittle;
  Writer w(h.byte_order);
  encode_header(w, h);
  patch_message_size(w, kHeaderSize);
  const std::uint8_t expected[kHeaderSize] = {
      'F',  'T',  'M',  'P',                            // kMagicOffset
      0x01, 0x00,                                       // kVersionOffset: 1.0
      0x01,                                             // kByteOrderFlagOffset
      0x00,                                             // kRetransFlagOffset
      0x2D, 0x00, 0x00, 0x00,                           // kSizeFieldOffset: 45
      0x01,                                             // kTypeFieldOffset: Regular
      0x2A, 0x00, 0x00, 0x00,                           // kSourceOffset: 42
      0x07, 0x00, 0x00, 0x00,                           // kGroupOffset: 7
      0x15, 0xCD, 0x5B, 0x07, 0x00, 0x00, 0x00, 0x00,   // kSeqOffset
      0xB1, 0x68, 0xDE, 0x3A, 0x00, 0x00, 0x00, 0x00,   // kMsgTimestampOffset
      0x37, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,   // kAckTimestampOffset
  };
  ASSERT_EQ(w.size(), kHeaderSize);
  for (std::size_t i = 0; i < kHeaderSize; ++i) {
    EXPECT_EQ(w.bytes()[i], expected[i]) << "at offset " << i;
  }
}

TEST(WireGolden, RetransmissionFlagPatchTouchesOneByte) {
  Header h = sample_header();
  Writer w(h.byte_order);
  encode_header(w, h);
  patch_message_size(w, kHeaderSize);
  const Bytes original = std::move(w).take();
  const SharedBytes patched = with_retransmission_flag(original);
  ASSERT_EQ(patched.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    if (i == kRetransFlagOffset) {
      EXPECT_EQ(patched[i], 1u) << "retransmission flag must be set";
    } else {
      EXPECT_EQ(patched[i], original[i]) << "byte " << i << " must be identical (§5)";
    }
  }
}

TEST(WireGolden, PatchHeaderU64RewritesNamedFields) {
  for (ByteOrder order : {ByteOrder::kBig, ByteOrder::kLittle}) {
    Header h = sample_header();
    h.byte_order = order;
    Writer w(order);
    encode_header(w, h);
    patch_message_size(w, kHeaderSize);
    Bytes b = std::move(w).take();
    patch_header_u64(b.data(), kSeqOffset, 0x1122334455667788ull, order);
    patch_header_u64(b.data(), kMsgTimestampOffset, 9999, order);
    patch_header_u64(b.data(), kAckTimestampOffset, 7777, order);
    Reader r(b);
    const Header decoded = decode_header(r);
    EXPECT_EQ(decoded.sequence_number, 0x1122334455667788ull);
    EXPECT_EQ(decoded.message_timestamp, 9999u);
    EXPECT_EQ(decoded.ack_timestamp, 7777u);
    EXPECT_EQ(decoded.source, h.source) << "neighbouring fields untouched";
  }
}

TEST(WireGolden, TryDecodeHeaderMatchesThrowingDecoder) {
  Header h = sample_header();
  Writer w(h.byte_order);
  encode_header(w, h);
  patch_message_size(w, kHeaderSize);
  h.message_size = kHeaderSize;
  const Bytes b = std::move(w).take();
  const HeaderView hv = try_decode_header(b);
  ASSERT_TRUE(hv);
  EXPECT_EQ(hv.header, h);
}

TEST(WireGolden, TryDecodeHeaderRejectsSizeMismatch) {
  Header h = sample_header();
  Writer w(h.byte_order);
  encode_header(w, h);
  patch_message_size(w, kHeaderSize);
  Bytes b = std::move(w).take();
  b.push_back(0);  // datagram longer than the size field says
  const HeaderView hv = try_decode_header(b);
  EXPECT_FALSE(hv);
  EXPECT_NE(hv.error.find("message size mismatch"), std::string::npos) << hv.error;
}

TEST(WireGolden, TryDecodeHeaderErrorWordingMatchesReader) {
  // Ingress logging relies on the non-throwing decoder reproducing the
  // historical Reader/decode_header messages verbatim.
  Writer w;
  encode_header(w, sample_header());
  patch_message_size(w, kHeaderSize);
  Bytes b = std::move(w).take();

  Bytes bad_magic = b;
  bad_magic[kMagicOffset] = 'X';
  EXPECT_EQ(try_decode_header(bad_magic).error, "bad FTMP magic");

  Bytes bad_order = b;
  bad_order[kByteOrderFlagOffset] = 2;
  EXPECT_EQ(try_decode_header(bad_order).error, "bad byte-order flag");

  Bytes bad_type = b;
  bad_type[kTypeFieldOffset] = 14;
  EXPECT_EQ(try_decode_header(bad_type).error, "bad message type 14");

  Bytes truncated(b.begin(), b.begin() + 10);
  EXPECT_FALSE(try_decode_header(truncated));
}

TEST(Wire, AllTypeNamesDistinct) {
  std::set<std::string> names;
  for (int t = 1; t <= 13; ++t) {
    names.insert(to_string(static_cast<MessageType>(t)));
  }
  EXPECT_EQ(names.size(), 13u);
  EXPECT_EQ(std::string(to_string(MessageType::kHeartbeat)), "Heartbeat");
  EXPECT_EQ(std::string(to_string(MessageType::kStateChunk)), "StateChunk");
}

}  // namespace
}  // namespace ftcorba::ftmp
