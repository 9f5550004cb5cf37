// Unit tests for the batched ("FTMB") datagram framing (docs/WIRE.md) and
// the egress Batcher (docs/BATCHING.md).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ftmp/batch.hpp"
#include "ftmp/wire.hpp"

namespace ftcorba::ftmp {
namespace {

// Encodes a header-only FTMP message (message_size == kHeaderSize).
SharedBytes frame_of(MessageType type, ByteOrder order, SeqNum seq,
                     bool retransmission = false, std::size_t body_bytes = 0) {
  Header h;
  h.byte_order = order;
  h.retransmission = retransmission;
  h.type = type;
  h.source = ProcessorId{42};
  h.destination_group = ProcessorGroupId{7};
  h.sequence_number = seq;
  h.message_timestamp = seq * 10;
  h.ack_timestamp = 5;
  Writer w(order);
  encode_header(w, h);
  for (std::size_t i = 0; i < body_bytes; ++i) w.u8(std::uint8_t(i));
  patch_message_size(w, static_cast<std::uint32_t>(w.size()));
  Bytes b = w.bytes();
  return SharedBytes{std::move(b)};
}

// --- golden bytes ----------------------------------------------------------
// Pins the exact envelope layout: "FTMB", version, big-endian count, then a
// big-endian u32 length prefix before each complete FTMP message. The
// sub-frames here deliberately mix a first-transmission Regular, a
// retransmission, and a heartbeat, in both byte orders — the envelope stays
// big-endian regardless of what the inner messages announce.

TEST(BatchGolden, EnvelopeAndSubFrameBytes) {
  const SharedBytes regular = frame_of(MessageType::kRegular, ByteOrder::kBig, 1);
  const SharedBytes retrans =
      frame_of(MessageType::kRegular, ByteOrder::kLittle, 2, /*retransmission=*/true);
  const SharedBytes heartbeat = frame_of(MessageType::kHeartbeat, ByteOrder::kBig, 3);
  const SharedBytes batch = encode_batch({regular, retrans, heartbeat});

  ASSERT_EQ(batch.size(),
            kBatchHeaderSize + 3 * (kBatchLenPrefixSize + kHeaderSize));
  // Envelope.
  EXPECT_EQ(batch[0], 'F');
  EXPECT_EQ(batch[1], 'T');
  EXPECT_EQ(batch[2], 'M');
  EXPECT_EQ(batch[3], 'B');
  EXPECT_EQ(batch[kBatchVersionOffset], kBatchVersion);
  EXPECT_EQ(batch[kBatchCountOffset], 0x00);      // count hi
  EXPECT_EQ(batch[kBatchCountOffset + 1], 0x03);  // count lo
  EXPECT_TRUE(looks_like_ftmp_batch(batch));
  EXPECT_FALSE(looks_like_ftmp(batch));

  // Each sub-frame: BE u32 length 45, then the message verbatim.
  std::size_t pos = kBatchHeaderSize;
  for (const SharedBytes* f : {&regular, &retrans, &heartbeat}) {
    EXPECT_EQ(batch[pos + 0], 0x00);
    EXPECT_EQ(batch[pos + 1], 0x00);
    EXPECT_EQ(batch[pos + 2], 0x00);
    EXPECT_EQ(batch[pos + 3], 0x2D);  // 45
    pos += kBatchLenPrefixSize;
    for (std::size_t i = 0; i < f->size(); ++i) {
      EXPECT_EQ(batch[pos + i], (*f)[i]) << "sub-frame byte " << i;
    }
    pos += f->size();
  }
  EXPECT_EQ(pos, batch.size());

  // The retransmission sub-frame keeps its flag and little-endian order.
  const std::size_t retrans_at = kBatchHeaderSize +
                                 (kBatchLenPrefixSize + kHeaderSize) +
                                 kBatchLenPrefixSize;
  EXPECT_EQ(batch[retrans_at + kRetransFlagOffset], 1);
  EXPECT_EQ(batch[retrans_at + kByteOrderFlagOffset], 1);
}

// --- parsing ---------------------------------------------------------------

TEST(BatchParser, RoundTripsSubFramesBitIdentically) {
  // Property: batch-then-split yields every input message byte-for-byte,
  // across random types, sizes, byte orders and retransmission flags.
  Rng rng(20260809);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<SharedBytes> frames;
    const std::size_t n = 1 + rng.next_below(20);
    for (std::size_t i = 0; i < n; ++i) {
      const auto type = static_cast<MessageType>(1 + rng.next_below(9));
      const ByteOrder order =
          rng.next_below(2) == 0 ? ByteOrder::kBig : ByteOrder::kLittle;
      frames.push_back(frame_of(type, order, i, rng.next_below(2) == 1,
                                rng.next_below(200)));
    }
    const SharedBytes batch = encode_batch(frames);
    BatchParser parser(batch.view());
    ASSERT_TRUE(parser.ok()) << parser.error();
    EXPECT_EQ(parser.declared_count(), n);
    std::size_t i = 0;
    while (const auto sf = parser.next()) {
      ASSERT_LT(i, frames.size());
      const SharedBytes sub = batch.slice(sf->offset, sf->length);
      EXPECT_EQ(sub, frames[i]) << "sub-frame " << i;
      // Each sub-frame decodes as a standalone datagram.
      const HeaderView hv = try_decode_header(sub);
      EXPECT_TRUE(hv.ok) << hv.error;
      ++i;
    }
    EXPECT_TRUE(parser.ok()) << parser.error();
    EXPECT_EQ(i, frames.size());
  }
}

TEST(BatchParser, RejectsMalformedEnvelopes) {
  const SharedBytes frame = frame_of(MessageType::kRegular, ByteOrder::kBig, 1);
  const SharedBytes good = encode_batch({frame, frame});

  {  // bad magic
    Bytes b = good.to_bytes();
    b[0] = 'X';
    BatchParser p(b);
    EXPECT_FALSE(p.ok());
    EXPECT_FALSE(p.next().has_value());
  }
  {  // unsupported version
    Bytes b = good.to_bytes();
    b[kBatchVersionOffset] = 9;
    BatchParser p(b);
    EXPECT_FALSE(p.ok());
    EXPECT_NE(p.error().find("unsupported batch version"), std::string::npos);
  }
  {  // zero count
    Bytes b = good.to_bytes();
    b[kBatchCountOffset] = 0;
    b[kBatchCountOffset + 1] = 0;
    BatchParser p(b);
    EXPECT_FALSE(p.ok());
    EXPECT_EQ(p.error(), "empty batch");
  }
  {  // truncated mid sub-frame: first frame still yielded, then error
    Bytes b = good.to_bytes();
    b.resize(b.size() - 10);
    BatchParser p(b);
    EXPECT_TRUE(p.next().has_value());
    EXPECT_FALSE(p.next().has_value());
    EXPECT_FALSE(p.ok());
  }
  {  // length prefix smaller than a header
    Bytes b = good.to_bytes();
    b[kBatchHeaderSize + 3] = kHeaderSize - 1;
    BatchParser p(b);
    EXPECT_FALSE(p.next().has_value());
    EXPECT_NE(p.error().find("shorter than an FTMP header"), std::string::npos);
  }
  {  // trailing garbage after the declared sub-frames
    Bytes b = good.to_bytes();
    b.push_back(0xEE);
    BatchParser p(b);
    EXPECT_TRUE(p.next().has_value());
    EXPECT_TRUE(p.next().has_value());
    EXPECT_FALSE(p.next().has_value());
    EXPECT_FALSE(p.ok());
    EXPECT_NE(p.error().find("trailing bytes"), std::string::npos);
  }
}

// --- Batcher ---------------------------------------------------------------

Config batch_config(std::size_t budget, std::uint64_t flush_us = 500) {
  Config cfg;
  cfg.batch_max_datagram_bytes = budget;
  cfg.batch_flush_us = flush_us;
  return cfg;
}

net::Datagram dg(SharedBytes payload, std::uint32_t addr = 200) {
  return net::Datagram{McastAddress{addr}, std::move(payload)};
}

TEST(Batcher, DisabledByDefault) {
  Batcher b{Config{}};
  EXPECT_FALSE(b.enabled());
}

TEST(Batcher, CoalescesWithinBudgetAndFlushesOnTimer) {
  Batcher b{batch_config(4096, 500)};
  ASSERT_TRUE(b.enabled());
  const SharedBytes f = frame_of(MessageType::kRegular, ByteOrder::kBig, 1);
  b.stage(0, dg(f));
  b.stage(0, dg(f));
  b.stage(0, dg(f));

  std::vector<net::Datagram> out;
  b.drain(100 * kMicrosecond, out);  // before the flush timer: held
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(b.pending());

  b.drain(500 * kMicrosecond, out);  // timer expired: one batch of three
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(b.pending());
  EXPECT_TRUE(looks_like_ftmp_batch(out[0].payload));
  EXPECT_EQ(b.stats().batch_datagrams, 1u);
  EXPECT_EQ(b.stats().subframes, 3u);
  EXPECT_EQ(b.stats().closed_timer, 1u);
}

// An address the caller does not hold back closes its batch at the next
// drain, unless the batch holds heartbeats alone: those wait for the timer
// and ride the next data frame. Other addresses keep the timer.
TEST(Batcher, PromptAddressClosesDataBatchesAtTheDrain) {
  Batcher b{batch_config(4096, 500)};
  const auto waits = [](McastAddress a) { return a != McastAddress{200}; };
  const SharedBytes hb = frame_of(MessageType::kHeartbeat, ByteOrder::kBig, 1);
  const SharedBytes reg = frame_of(MessageType::kRegular, ByteOrder::kBig, 2);
  b.stage(0, dg(hb));
  b.stage(0, dg(reg, 300));
  std::vector<net::Datagram> out;
  b.drain(0, out, waits);
  EXPECT_TRUE(out.empty()) << "a heartbeat alone and a waiting address both hold";

  b.stage(100 * kMicrosecond, dg(reg));
  b.drain(100 * kMicrosecond, out, waits);
  ASSERT_EQ(out.size(), 1u) << "data on a prompt address leaves at the drain";
  EXPECT_EQ(out[0].addr, McastAddress{200});
  EXPECT_TRUE(looks_like_ftmp_batch(out[0].payload)) << "with the heartbeat";
  EXPECT_EQ(b.stats().heartbeats_coalesced, 1u);

  out.clear();
  b.drain(500 * kMicrosecond, out, waits);
  ASSERT_EQ(out.size(), 1u) << "the waiting address closes on its timer";
  EXPECT_EQ(out[0].addr, McastAddress{300});
}

// A datagram that carries an OrderInfo and no Regular counts as
// grant-only, batched or alone; one that carries a Regular too does not.
TEST(Batcher, CountsGrantOnlyDatagrams) {
  Batcher b{batch_config(4096, 500)};
  const SharedBytes hb = frame_of(MessageType::kHeartbeat, ByteOrder::kBig, 1);
  const SharedBytes grant = frame_of(MessageType::kOrderInfo, ByteOrder::kBig, 2);
  const SharedBytes reg = frame_of(MessageType::kRegular, ByteOrder::kBig, 3);
  std::vector<net::Datagram> out;
  b.stage(0, dg(grant));
  b.stage(0, dg(hb));
  b.drain(500 * kMicrosecond, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(b.stats().grant_only, 1u) << "a grant with a heartbeat";

  b.stage(kMillisecond, dg(reg));
  b.stage(kMillisecond, dg(grant));
  b.drain(2 * kMillisecond, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(b.stats().grant_only, 1u) << "a grant with a Regular";

  b.stage(3 * kMillisecond, dg(grant));
  b.drain(4 * kMillisecond, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(b.stats().grant_only, 2u) << "a lone grant";

  b.stage(5 * kMillisecond, dg(hb));
  b.drain(6 * kMillisecond, out);
  EXPECT_EQ(b.stats().grant_only, 2u) << "a lone heartbeat";
}

TEST(Batcher, ClosesWhenBudgetWouldOverflow) {
  // Budget fits exactly two header-only frames:
  // 7 + 2*(4+45) = 105 bytes.
  Batcher b{batch_config(105)};
  const SharedBytes f = frame_of(MessageType::kRegular, ByteOrder::kBig, 1);
  for (int i = 0; i < 5; ++i) b.stage(0, dg(f));
  std::vector<net::Datagram> out;
  b.drain(0, out);  // full batches are ready regardless of the timer
  ASSERT_EQ(out.size(), 2u);
  for (const auto& d : out) {
    EXPECT_TRUE(looks_like_ftmp_batch(d.payload));
    EXPECT_EQ(d.payload.size(), 105u);
  }
  EXPECT_EQ(b.stats().closed_full, 2u);
  EXPECT_TRUE(b.pending());  // the fifth frame is still open
  out.clear();
  b.drain(kMillisecond, out);
  ASSERT_EQ(out.size(), 1u);
  // A lone leftover goes out in its original encoding, not as a batch of 1.
  EXPECT_FALSE(looks_like_ftmp_batch(out[0].payload));
  EXPECT_EQ(out[0].payload, f);
  EXPECT_EQ(b.stats().passthrough, 1u);
}

TEST(Batcher, SingleFramePassesThroughUnchanged) {
  Batcher b{batch_config(4096, 0)};  // flush at every drain
  const SharedBytes f = frame_of(MessageType::kHeartbeat, ByteOrder::kBig, 9);
  b.stage(0, dg(f));
  std::vector<net::Datagram> out;
  b.drain(0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, f);
  EXPECT_TRUE(out[0].payload.shares_buffer_with(f));  // zero-copy passthrough
  EXPECT_EQ(b.stats().batch_datagrams, 0u);
  EXPECT_EQ(b.stats().passthrough, 1u);
}

TEST(Batcher, OversizedFramePassesThroughAfterOpenBatch) {
  Batcher b{batch_config(200)};
  const SharedBytes small = frame_of(MessageType::kRegular, ByteOrder::kBig, 1);
  const SharedBytes big =
      frame_of(MessageType::kRegular, ByteOrder::kBig, 2, false, 400);
  b.stage(0, dg(small));
  b.stage(0, dg(small));
  b.stage(0, dg(big));  // closes the open pair first, then passes through
  std::vector<net::Datagram> out;
  b.drain(0, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(looks_like_ftmp_batch(out[0].payload));  // FIFO: pair first
  EXPECT_EQ(out[1].payload, big);
  EXPECT_EQ(b.stats().passthrough, 1u);
}

TEST(Batcher, KeepsAddressesSeparate) {
  Batcher b{batch_config(4096, 0)};
  const SharedBytes f = frame_of(MessageType::kRegular, ByteOrder::kBig, 1);
  b.stage(0, dg(f, 200));
  b.stage(0, dg(f, 200));
  b.stage(0, dg(f, 300));
  std::vector<net::Datagram> out;
  b.drain(0, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].addr.raw(), 200u);
  EXPECT_TRUE(looks_like_ftmp_batch(out[0].payload));
  EXPECT_EQ(out[1].addr.raw(), 300u);
  EXPECT_FALSE(looks_like_ftmp_batch(out[1].payload));
}

TEST(Batcher, CountsHeartbeatsCoalescedWithData) {
  Batcher b{batch_config(4096, 0)};
  const SharedBytes data = frame_of(MessageType::kRegular, ByteOrder::kBig, 1);
  const SharedBytes hb = frame_of(MessageType::kHeartbeat, ByteOrder::kBig, 2);
  b.stage(0, dg(data));
  b.stage(0, dg(hb));
  std::vector<net::Datagram> out;
  b.drain(0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(b.stats().heartbeats_coalesced, 1u);

  // Two heartbeats with no data in the batch: batched, but not "coalesced"
  // (there was no data-bearing datagram to ride).
  b.stage(0, dg(hb));
  b.stage(0, dg(hb));
  out.clear();
  b.drain(0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(b.stats().heartbeats_coalesced, 1u);
}

TEST(Batcher, FillRatioAndSubframesPerBatch) {
  Batcher b{batch_config(105)};  // exactly two header-only frames per batch
  const SharedBytes f = frame_of(MessageType::kRegular, ByteOrder::kBig, 1);
  for (int i = 0; i < 4; ++i) b.stage(0, dg(f));
  std::vector<net::Datagram> out;
  b.drain(kMillisecond, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(b.stats().fill_ratio(105), 1.0);
  EXPECT_DOUBLE_EQ(b.stats().subframes_per_batch(), 2.0);
}

}  // namespace
}  // namespace ftcorba::ftmp
