// Unit tests for the batched ("FTMB") datagram framing (docs/WIRE.md) and
// the egress Batcher (docs/BATCHING.md).
#include <gtest/gtest.h>

#include <map>

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

// A data frame staged on a quiet address (one that carried no data in the
// last batch_flush_us, or never did) opens a batch that leaves at the drain
// staging the next data frame, long before the timer.
TEST(Batcher, QuietBatchLeavesWithItsPartner) {
  Batcher b{batch_config(4096, 500)};
  const SharedBytes f = frame_of(MessageType::kRegular, ByteOrder::kBig, 1);
  std::vector<net::Datagram> out;
  b.stage(0, dg(f));
  b.drain(0, out);
  EXPECT_TRUE(out.empty()) << "a lone data frame waits for a partner or the timer";

  b.stage(100 * kMicrosecond, dg(f));
  b.drain(100 * kMicrosecond, out);
  ASSERT_EQ(out.size(), 1u) << "the partner releases the batch at its drain";
  EXPECT_TRUE(looks_like_ftmp_batch(out[0].payload));
  EXPECT_FALSE(b.pending());
  EXPECT_EQ(b.stats().subframes, 2u);
  EXPECT_EQ(b.stats().closed_partner, 1u);
  EXPECT_EQ(b.stats().closed_timer, 0u);
}

// On a busy address (data staged within the last batch_flush_us) a batch
// waits for the budget or the timer, however many frames join it: a flood
// staging a frame every 50 us fills its batches.
TEST(Batcher, BusyAddressFillsToTheBudget) {
  Batcher b{batch_config(7 + 5 * (4 + 45), 500)};  // five header-only frames
  const SharedBytes f = frame_of(MessageType::kRegular, ByteOrder::kBig, 1);
  std::vector<net::Datagram> out;
  b.stage(0, dg(f));
  b.stage(50 * kMicrosecond, dg(f));
  b.drain(50 * kMicrosecond, out);
  ASSERT_EQ(out.size(), 1u) << "the quiet batch leaves with its partner";
  out.clear();

  for (TimePoint t = 100 * kMicrosecond; t <= 300 * kMicrosecond; t += 50 * kMicrosecond) {
    b.stage(t, dg(f));
    b.drain(t, out);
    EXPECT_TRUE(out.empty()) << "a busy batch left early at " << to_us(t) << " us";
  }
  b.stage(350 * kMicrosecond, dg(f));
  b.drain(350 * kMicrosecond, out);
  ASSERT_EQ(out.size(), 1u) << "the sixth frame overflows the budget";
  EXPECT_EQ(out[0].payload.size(), std::size_t(7 + 5 * (4 + 45)));
  EXPECT_EQ(b.stats().closed_full, 1u);
  EXPECT_EQ(b.stats().closed_partner, 1u);
  EXPECT_TRUE(b.pending()) << "the sixth frame opened a busy batch";
}

// The quiet window runs from the last data frame's staging, not from the
// datagram that carried it: a batch that left on its timer 450 us ago is
// no longer busy once its last frame was staged 550 us ago.
TEST(Batcher, QuietWindowRunsFromTheLastDataStaged) {
  Batcher b{batch_config(4096, 500)};
  const SharedBytes f = frame_of(MessageType::kRegular, ByteOrder::kBig, 1);
  std::vector<net::Datagram> out;
  b.stage(0, dg(f));
  b.stage(100 * kMicrosecond, dg(f));
  b.drain(100 * kMicrosecond, out);  // partnered; the address is now busy
  b.stage(200 * kMicrosecond, dg(f));
  b.stage(600 * kMicrosecond, dg(f));
  b.drain(600 * kMicrosecond, out);
  ASSERT_EQ(out.size(), 1u) << "a busy batch waits for its timer";
  b.drain(700 * kMicrosecond, out);
  ASSERT_EQ(out.size(), 2u) << "the timer closes the busy batch";
  EXPECT_EQ(b.stats().closed_timer, 1u);

  b.stage(1150 * kMicrosecond, dg(f));
  b.drain(1150 * kMicrosecond, out);
  b.stage(1200 * kMicrosecond, dg(f));
  b.drain(1200 * kMicrosecond, out);
  ASSERT_EQ(out.size(), 3u) << "550 us after the last staging the address is quiet";
  EXPECT_EQ(b.stats().closed_partner, 2u);
}

// Heartbeats neither make an address busy nor partner a batch: a data frame
// staged 100 us after a heartbeat still opens a quiet batch, a heartbeat
// joining it releases nothing, and the next data frame does.
TEST(Batcher, HeartbeatsNeitherMakeAnAddressBusyNorPartnerABatch) {
  Batcher b{batch_config(4096, 500)};
  const SharedBytes hb = frame_of(MessageType::kHeartbeat, ByteOrder::kBig, 1);
  const SharedBytes reg = frame_of(MessageType::kRegular, ByteOrder::kBig, 2);
  std::vector<net::Datagram> out;
  b.stage(0, dg(reg));
  b.drain(500 * kMicrosecond, out);
  ASSERT_EQ(out.size(), 1u) << "a lone data frame leaves on its timer";
  out.clear();

  b.stage(600 * kMicrosecond, dg(hb));
  b.drain(600 * kMicrosecond, out);
  b.stage(700 * kMicrosecond, dg(reg));
  b.drain(700 * kMicrosecond, out);
  b.stage(800 * kMicrosecond, dg(hb));
  b.drain(800 * kMicrosecond, out);
  EXPECT_TRUE(out.empty()) << "a heartbeat partnered the batch";
  b.stage(900 * kMicrosecond, dg(reg));
  b.drain(900 * kMicrosecond, out);
  ASSERT_EQ(out.size(), 1u) << "the heartbeat made the address busy";
  EXPECT_EQ(b.stats().subframes, 4u);
  EXPECT_EQ(b.stats().heartbeats_coalesced, 2u);
  EXPECT_EQ(b.stats().closed_partner, 1u);
}

// Frames staged in one drain do not partner each other: the second frame
// must come at a later drain.
TEST(Batcher, FramesOfOneDrainDoNotPartnerEachOther) {
  Batcher b{batch_config(4096, 500)};
  const SharedBytes f = frame_of(MessageType::kRegular, ByteOrder::kBig, 1);
  const SharedBytes grant = frame_of(MessageType::kOrderInfo, ByteOrder::kBig, 2);
  std::vector<net::Datagram> out;
  b.stage(0, dg(f));
  b.stage(0, dg(grant));
  b.drain(0, out);
  b.drain(100 * kMicrosecond, out);
  EXPECT_TRUE(out.empty()) << "frames of one drain released their batch";
  b.stage(200 * kMicrosecond, dg(f));
  b.drain(200 * kMicrosecond, out);
  ASSERT_EQ(out.size(), 1u) << "a frame of a later drain partners them";
  EXPECT_EQ(b.stats().subframes, 3u);
  EXPECT_EQ(b.stats().closed_partner, 1u);
}

// Whatever the traffic (quiet spells, bursts, floods, heartbeats, oversized
// frames, two addresses), every staged frame leaves exactly once, in its
// address's staging order, and no later than batch_flush_us after it was
// staged (drains here run every 10 us, a divisor of the window).
TEST(Batcher, NoFrameWaitsLongerThanTheFlushWindow) {
  constexpr Duration kStep = 10 * kMicrosecond;
  constexpr Duration kWindow = 500 * kMicrosecond;
  constexpr TimePoint kEnd = 400 * kMillisecond;
  // Staging chance per address and step; the traffic cycles every 5 ms
  // through idle, paced, busy and flood rates.
  constexpr double kRates[] = {0.002, 0.02, 0.3, 0.9};
  Batcher b{batch_config(512, 500)};
  Rng rng(40);
  std::map<SeqNum, TimePoint> staged_at;
  std::map<std::uint32_t, SeqNum> last_left;
  SeqNum next = 1;
  std::vector<net::Datagram> out;
  for (TimePoint now = 0; now <= kEnd + kWindow; now += kStep) {
    const double rate = now < kEnd ? kRates[(now / (5 * kMillisecond)) % 4] : 0.0;
    for (const std::uint32_t addr : {200u, 300u}) {
      if (!rng.chance(rate)) continue;
      const auto type = rng.chance(0.2) ? MessageType::kHeartbeat
                        : rng.chance(0.5) ? MessageType::kOrderInfo
                                          : MessageType::kRegular;
      const std::size_t body = rng.chance(0.02) ? 600 : rng.next_below(120);
      staged_at[next] = now;
      b.stage(now, dg(frame_of(type, ByteOrder::kBig, next, false,
                               type == MessageType::kHeartbeat ? 0 : body),
                      addr));
      next += 1;
    }
    b.drain(now, out);
    for (const net::Datagram& d : out) {
      std::vector<BytesView> frames;
      if (looks_like_ftmp_batch(d.payload)) {
        BatchParser parser(d.payload);
        while (auto sf = parser.next()) {
          frames.push_back(d.payload.view().subspan(sf->offset, sf->length));
        }
        ASSERT_TRUE(parser.ok());
      } else {
        frames.push_back(d.payload.view());
      }
      for (BytesView frame : frames) {
        const HeaderView h = try_decode_header(frame);
        ASSERT_TRUE(h.ok) << h.error;
        const SeqNum seq = h.header.sequence_number;
        ASSERT_EQ(staged_at.count(seq), 1u) << "frame " << seq << " left twice";
        EXPECT_LE(now - staged_at[seq], kWindow) << "frame " << seq;
        EXPECT_GT(seq, last_left[d.addr.raw()]) << "frame " << seq << " overtook";
        last_left[d.addr.raw()] = seq;
        staged_at.erase(seq);
      }
    }
    out.clear();
  }
  EXPECT_GT(next, 10'000u);
  EXPECT_TRUE(staged_at.empty()) << staged_at.size() << " frames never left";
  EXPECT_FALSE(b.pending());
  EXPECT_GT(b.stats().closed_partner, 0u);
  EXPECT_GT(b.stats().closed_full, 0u);
  EXPECT_GT(b.stats().closed_timer, 0u);
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
