// Decoder fuzzing (ROADMAP item 7): the FTMP header decoder, every body
// decoder and the FTMB batch parser must decode or reject any input —
// never crash, throw anything but CodecError, or trip a sanitizer. The
// corpus is one encoded message of each of the 13 types plus one batch;
// each entry is then mutated a fixed number of times by a seeded Rng (bit
// flips, truncations, length-field edits, appended bytes). Runs in the
// ASan/UBSan CI job like every ctest; a crash it finds becomes a fix plus
// a corpus case here.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <vector>

#include "common/rng.hpp"
#include "ftmp/messages.hpp"
#include "ftmp/wire.hpp"

namespace ftcorba::ftmp {
namespace {

constexpr int kMutationsPerEntry = 2000;

ConnectionId conn() {
  return ConnectionId{FtDomainId{1}, ObjectGroupId{2}, FtDomainId{3}, ObjectGroupId{4}};
}

MembershipInfo membership() {
  return MembershipInfo{777, {ProcessorId{1}, ProcessorId{2}, ProcessorId{5}}};
}

// One message of each type; the byte order alternates so both halves of
// receiver-makes-right decoding are exercised.
std::vector<Body> bodies() {
  StateChunkBody chunk;
  chunk.joiner = ProcessorId{6};
  chunk.view_ts = 901;
  chunk.chunk_seq = 3;
  chunk.total_chunks = 9;
  chunk.snapshot_digest = 0x1122334455667788ull;
  chunk.cut_digest = 0x99AABBCCDDEEFF00ull;
  chunk.cut_seqs = {{ProcessorId{1}, 41}, {ProcessorId{2}, 7}};
  chunk.payload = bytes_of("snapshot-slice");
  return {
      RegularBody{conn(), 88, bytes_of("GIOP-payload-bytes")},
      RetransmitRequestBody{ProcessorId{4}, 10, 20},
      HeartbeatBody{},
      ConnectRequestBody{conn(), {ProcessorId{10}, ProcessorId{11}}},
      ConnectBody{conn(), ProcessorGroupId{3}, McastAddress{200}, membership()},
      AddProcessorBody{membership(), {{ProcessorId{1}, 5}, {ProcessorId{2}, 7}},
                       ProcessorId{6}},
      RemoveProcessorBody{ProcessorId{2}},
      SuspectBody{membership(), {ProcessorId{5}}},
      MembershipBody{membership(), {{ProcessorId{1}, 5}, {ProcessorId{2}, 7}},
                     {ProcessorId{1}, ProcessorId{2}}},
      StateRequestBody{ProcessorId{6}, 901, 17},
      chunk,
      StateDigestBody{0xDEADBEEFCAFEF00Dull, 0x0123456789ABCDEFull},
      OrderInfoBody{901, {{ProcessorId{1}, 40}}, {{ProcessorId{2}, 41}, {ProcessorId{1}, 41}}},
  };
}

std::vector<Bytes> corpus() {
  std::vector<Bytes> out;
  std::vector<SharedBytes> frames;
  int i = 0;
  for (const Body& body : bodies()) {
    Header h;
    h.byte_order = i++ % 2 == 0 ? ByteOrder::kBig : ByteOrder::kLittle;
    h.source = ProcessorId{9};
    h.destination_group = ProcessorGroupId{3};
    h.sequence_number = 1001;
    h.message_timestamp = 2002;
    h.ack_timestamp = 1500;
    out.push_back(encode_message(Message{h, body}));
    frames.emplace_back(Bytes(out.back()));
  }
  // A batch of a Regular, a Heartbeat and an OrderInfo.
  const SharedBytes batch = encode_batch({frames[0], frames[2], frames[12]});
  out.emplace_back(batch.view().begin(), batch.view().end());
  return out;
}

// How the decoders disposed of the inputs.
struct Outcomes {
  int header_rejected = 0;
  int body_rejected = 0;
  int decoded = 0;
  int batches_rejected = 0;
};

// One datagram through the ingress split (try_decode_header, then
// decode_body at delivery) and through decode_message, which must agree.
// A decoded message re-encodes to one that decodes back to itself.
void check_message(BytesView datagram, Outcomes& out) {
  const HeaderView hv = try_decode_header(datagram);
  bool split_ok = false;
  if (hv) {
    try {
      (void)decode_body(hv.header, datagram.subspan(kHeaderSize));
      split_ok = true;
    } catch (const CodecError&) {
      ++out.body_rejected;
    }
  } else {
    ++out.header_rejected;
  }
  try {
    const Message m = decode_message(datagram);
    ASSERT_TRUE(split_ok) << "decode_message accepted what the split rejected";
    ++out.decoded;
    EXPECT_EQ(decode_message(encode_message(m)), m);
  } catch (const CodecError&) {
    ASSERT_FALSE(split_ok) << "the split accepted what decode_message rejected";
  }
}

void check_input(BytesView input, Outcomes& out) {
  if (!looks_like_ftmp_batch(input)) {
    check_message(input, out);
    return;
  }
  BatchParser parser(input);
  std::size_t walked = 0;
  while (const auto sub = parser.next()) {
    ASSERT_LE(sub->offset + sub->length, input.size());
    check_message(input.subspan(sub->offset, sub->length), out);
    ASSERT_LE(++walked, parser.declared_count());
  }
  if (!parser.ok()) ++out.batches_rejected;
}

void put_u32(Bytes& b, std::size_t at, std::uint32_t v, bool big) {
  for (int k = 0; k < 4; ++k) {
    const int shift = big ? 8 * (3 - k) : 8 * k;
    b[at + std::size_t(k)] = std::uint8_t(v >> shift);
  }
}

// Applies one to three seeded mutations. A length-field edit writes an
// edge value into a u32 at a random offset, or into the header's
// message_size or a batch's count or first length prefix. Afterwards a
// plain message's message_size is often set to the mutated length, so that
// truncated and extended inputs get past the header into the body decoder.
Bytes mutate(const Bytes& seed, Rng& rng) {
  static constexpr std::uint32_t kEdges[] = {0,          1,          2,          3,
                                             4,          12,         0x7F,       0xFF,
                                             0xFFFF,     0x10000,    0x7FFFFFFF, 0x80000000,
                                             0xFFFFFFFE, 0xFFFFFFFF};
  Bytes b = seed;
  const bool batch = looks_like_ftmp_batch(b);
  const int rounds = int(rng.next_in(1, 3));
  for (int round = 0; round < rounds; ++round) {
    switch (rng.next_below(4)) {
      case 0:  // bit flips
        for (int k = int(rng.next_in(1, 4)); k > 0 && !b.empty(); --k) {
          b[rng.next_below(b.size())] ^= std::uint8_t(1u << rng.next_below(8));
        }
        break;
      case 1:  // truncation
        if (!b.empty()) b.resize(rng.next_below(b.size()));
        break;
      case 2: {  // length-field edit
        const std::uint32_t v =
            rng.chance(0.75) ? kEdges[rng.next_below(std::size(kEdges))]
                             : std::uint32_t(rng.next_u64());
        const bool big = b.size() <= kByteOrderFlagOffset || b[kByteOrderFlagOffset] == 0;
        const std::uint64_t pick = rng.next_below(3);
        if (pick == 0 && !batch && b.size() >= kSizeFieldOffset + 4) {
          put_u32(b, kSizeFieldOffset, v, big);
        } else if (pick == 0 && batch && b.size() >= kBatchHeaderSize + 4) {
          if (rng.chance(0.5)) {
            b[kBatchCountOffset] = std::uint8_t(v >> 8);
            b[kBatchCountOffset + 1] = std::uint8_t(v);
          } else {
            put_u32(b, kBatchHeaderSize, v, true);
          }
        } else if (b.size() >= 4) {
          put_u32(b, rng.next_below(b.size() - 3), v, rng.chance(0.5));
        }
        break;
      }
      default:  // appended bytes
        for (int k = int(rng.next_in(1, 16)); k > 0; --k) b.push_back(std::uint8_t(rng.next_u64()));
        break;
    }
  }
  if (!batch && b.size() >= kHeaderSize && b[kByteOrderFlagOffset] <= 1 && rng.chance(0.5)) {
    put_u32(b, kSizeFieldOffset, std::uint32_t(b.size()), b[kByteOrderFlagOffset] == 0);
  }
  return b;
}

TEST(DecoderFuzz, CorpusDecodes) {
  const std::vector<Bytes> entries = corpus();
  ASSERT_EQ(entries.size(), 14u);
  Outcomes out;
  for (const Bytes& entry : entries) check_input(entry, out);
  EXPECT_EQ(out.decoded, 13 + 3);
  EXPECT_EQ(out.header_rejected + out.body_rejected + out.batches_rejected, 0);
}

TEST(DecoderFuzz, SeededMutationsDecodeOrAreRejected) {
  Rng rng(0xF022);
  Outcomes out;
  for (const Bytes& entry : corpus()) {
    for (int i = 0; i < kMutationsPerEntry; ++i) {
      check_input(mutate(entry, rng), out);
      if (HasFatalFailure()) return;
    }
  }
  // The mutations reach every stage: some inputs die at the header, some
  // in a body decoder, some in the batch envelope, and some still decode.
  EXPECT_GT(out.header_rejected, 0);
  EXPECT_GT(out.body_rejected, 0);
  EXPECT_GT(out.batches_rejected, 0);
  EXPECT_GT(out.decoded, 0);
}

}  // namespace
}  // namespace ftcorba::ftmp
