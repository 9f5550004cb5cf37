// Property tests for the zero-copy receive split (docs/BUFFERS.md): the
// header-only ingress decode plus the deferred body decode must together be
// exactly equivalent to the legacy whole-message decoder, for every message
// type in both byte orders; and a retransmitted stored slice must be
// byte-identical to the original transmission except the retransmission
// flag (§5's "identical" rule).
#include <gtest/gtest.h>

#include "ftmp/messages.hpp"
#include "ftmp/rmp.hpp"

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
  out.push_back({header_for(MessageType::kRegular, order),
                 RegularBody{sample_conn(), 88, bytes_of("GIOP-payload-bytes")}});
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
  return out;
}

class ZeroCopyRoundTrip : public ::testing::TestWithParam<ByteOrder> {};

TEST_P(ZeroCopyRoundTrip, SplitDecodeEquivalentToWholeMessageDecode) {
  const auto messages = sample_messages(GetParam());
  ASSERT_EQ(messages.size(), 9u) << "one sample per MessageType";
  for (const Message& m : messages) {
    const SharedBytes wire{encode_message(m)};

    // Ingress half: header-only decode, as Stack::on_datagram performs it.
    const HeaderView hv = try_decode_header(wire);
    ASSERT_TRUE(hv) << hv.error;
    const Frame frame{hv.header, wire};

    // Delivery half: deferred body decode on the frame's zero-copy slice.
    const Message split{frame.header, decode_body(frame.header, frame.body())};

    // The two halves together must equal the legacy one-shot decoder.
    const Message legacy = decode_message(wire);
    EXPECT_EQ(split, legacy)
        << "type " << to_string(m.header.type) << " order "
        << (GetParam() == ByteOrder::kBig ? "BE" : "LE");

    // And the body slice really is a view into the arrival buffer.
    EXPECT_EQ(frame.body().data(), wire.data() + kHeaderSize);
    EXPECT_EQ(frame.body().size(), wire.size() - kHeaderSize);
  }
}

TEST_P(ZeroCopyRoundTrip, MalformedBodySurvivesIngressFailsAtDelivery) {
  // The split decoder accepts a datagram on header validity alone; a
  // truncated body must then surface as CodecError at the deferred decode
  // (the single point of delivery), never earlier.
  for (const Message& m : sample_messages(GetParam())) {
    Bytes wire = encode_message(m);
    if (wire.size() <= kHeaderSize) continue;  // Heartbeat: no body to truncate
    // Regular's GIOP payload is the unmeasured tail of the datagram, so a
    // shorter tail is still well-formed; every other body ends in counted
    // structures that a truncation tears.
    if (m.header.type == MessageType::kRegular) continue;
    wire.resize(wire.size() - 1);
    // Keep the size field honest so the header-level check passes.
    const ByteOrder order = GetParam();
    std::uint32_t new_size = static_cast<std::uint32_t>(wire.size());
    std::uint8_t* p = wire.data() + kSizeFieldOffset;
    if (order == ByteOrder::kBig) {
      p[0] = std::uint8_t(new_size >> 24); p[1] = std::uint8_t(new_size >> 16);
      p[2] = std::uint8_t(new_size >> 8);  p[3] = std::uint8_t(new_size);
    } else {
      p[0] = std::uint8_t(new_size);       p[1] = std::uint8_t(new_size >> 8);
      p[2] = std::uint8_t(new_size >> 16); p[3] = std::uint8_t(new_size >> 24);
    }
    const SharedBytes shared{std::move(wire)};
    const HeaderView hv = try_decode_header(shared);
    ASSERT_TRUE(hv) << to_string(m.header.type) << ": " << hv.error;
    const Frame frame{hv.header, shared};
    EXPECT_THROW((void)decode_body(frame.header, frame.body()), CodecError)
        << "type " << to_string(m.header.type);
  }
}

INSTANTIATE_TEST_SUITE_P(BothOrders, ZeroCopyRoundTrip,
                         ::testing::Values(ByteOrder::kBig, ByteOrder::kLittle),
                         [](const auto& p) {
                           return p.param == ByteOrder::kBig ? "BigEndian"
                                                             : "LittleEndian";
                         });

TEST(RetransmitIdentity, StoredSliceDiffersOnlyInRetransmissionFlag) {
  // §5: "the message is retransmitted ... identical to the original
  // transmission except that the retransmission flag is set". The RMP store
  // retains the arrival slice untouched; the flag is patched only at
  // retransmit time. Drive a real store + NACK cycle and diff the bytes.
  constexpr ProcessorId kSelf{1};
  constexpr ProcessorId kPeer{2};
  for (ByteOrder order : {ByteOrder::kBig, ByteOrder::kLittle}) {
    Config config;
    Rmp rmp(kSelf, config);
    rmp.add_source(kSelf, 0);
    rmp.add_source(kPeer, 0);

    Message m{header_for(MessageType::kRegular, order),
              RegularBody{sample_conn(), 7, bytes_of("retransmit-me")}};
    m.header.source = kPeer;
    m.header.sequence_number = 1;
    const SharedBytes original{encode_message(m)};
    (void)rmp.on_reliable(0, Frame{m.header, original});

    // The stored slice IS the arrival buffer (no copy, no mutation).
    const auto stored = rmp.stored(kPeer, 1);
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(stored->data(), original.data()) << "store must retain, not copy";

    rmp.on_retransmit_request(10 * kMillisecond, RetransmitRequestBody{kPeer, 1, 1});
    const auto out = rmp.take_output();
    ASSERT_EQ(out.size(), 1u);
    const auto* rt = std::get_if<RetransmitOut>(&out[0]);
    ASSERT_NE(rt, nullptr);

    ASSERT_EQ(rt->raw.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
      if (i == kRetransFlagOffset) {
        EXPECT_EQ(rt->raw[i], 1u) << "retransmission flag must be set";
      } else {
        EXPECT_EQ(rt->raw[i], original[i])
            << "byte " << i << " must be identical to the original";
      }
    }
    // The retransmitted copy still decodes, with only the flag flipped.
    const Message redecoded = decode_message(rt->raw);
    EXPECT_TRUE(redecoded.header.retransmission);
    Message expected = decode_message(original);
    expected.header.retransmission = true;
    EXPECT_EQ(redecoded, expected);
  }
}

}  // namespace
}  // namespace ftcorba::ftmp
