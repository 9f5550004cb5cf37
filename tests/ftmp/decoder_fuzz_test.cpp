// Decoder fuzzing (ROADMAP item 7): the FTMP header decoder, every body
// decoder, the FTMB batch parser, FTMF fragment reassembly, the GIOP
// decoder, the chaos-trace reader and the durable log's scan must decode
// or reject any input — never crash, throw anything but their own error
// type, or trip a sanitizer. Each corpus entry (one encoded message of
// each of the 13 FTMP types plus one batch; fragment sequences of a few
// payload sizes; one GIOP message of each of the eight types in both byte
// orders; a short recorded campaign trace; a log file of four records) is
// mutated a fixed number of times by a seeded Rng (bit flips, truncations,
// length-field edits, appended bytes; line edits for the trace). Runs in
// the ASan/UBSan CI job like every ctest; a crash it finds becomes a fix
// plus a corpus case here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "ft/persistent_log.hpp"
#include "ftmp/chaos.hpp"
#include "ftmp/fragment.hpp"
#include "ftmp/messages.hpp"
#include "ftmp/wire.hpp"
#include "giop/messages.hpp"

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

// The byte formats the mutations know the length fields of.
enum class Format { kFtmp, kBatch, kFragment, kGiop, kLog };

// Offset of a log record's payload length after its magic: kind, the
// connection id's four u32s, request number and timestamp.
constexpr std::size_t kLogLengthOffset = 4 + 1 + 16 + 8 + 8;

// Writes `v` into a length field `format`'s decoder reads: FTMP's
// message_size, a batch's count or first length prefix, a fragment's index
// or total, or GIOP's message_size. False when `b` is too short for one.
bool edit_length_field(Bytes& b, Format format, std::uint32_t v, Rng& rng) {
  switch (format) {
    case Format::kFtmp:
      if (b.size() < kSizeFieldOffset + 4) return false;
      put_u32(b, kSizeFieldOffset, v, b[kByteOrderFlagOffset] == 0);
      return true;
    case Format::kBatch:
      if (b.size() < kBatchHeaderSize + 4) return false;
      if (rng.chance(0.5)) {
        b[kBatchCountOffset] = std::uint8_t(v >> 8);
        b[kBatchCountOffset + 1] = std::uint8_t(v);
      } else {
        put_u32(b, kBatchHeaderSize, v, true);
      }
      return true;
    case Format::kFragment:
      if (b.size() < kFragHeaderSize) return false;
      put_u32(b, rng.chance(0.5) ? 12 : 16, v, true);
      return true;
    case Format::kGiop:
      if (b.size() < giop::kGiopHeaderSize) return false;
      put_u32(b, 8, v, b[6] == 0);
      return true;
    case Format::kLog: {  // the payload length of a record whose magic survives
      std::vector<std::size_t> records;
      for (std::size_t at = 0; at + kLogLengthOffset + 4 <= b.size(); ++at) {
        if (b[at] == 'F' && b[at + 1] == 'T' && b[at + 2] == 'L' && b[at + 3] == 'G') {
          records.push_back(at);
        }
      }
      if (records.empty()) return false;
      put_u32(b, records[rng.next_below(records.size())] + kLogLengthOffset, v, true);
      return true;
    }
  }
  return false;
}

// Applies one to three seeded mutations. A length-field edit writes an
// edge value into a u32 at a random offset, or into a length field the
// format's decoder reads. Afterwards a plain FTMP or GIOP message's size
// field is often set to the mutated length, so that truncated and extended
// inputs get past the size check into the body decoder.
Bytes mutate(const Bytes& seed, Rng& rng, Format format = Format::kFtmp) {
  static constexpr std::uint32_t kEdges[] = {0,          1,          2,          3,
                                             4,          12,         0x7F,       0xFF,
                                             0xFFFF,     0x10000,    0x7FFFFFFF, 0x80000000,
                                             0xFFFFFFFE, 0xFFFFFFFF};
  Bytes b = seed;
  if (format == Format::kFtmp && looks_like_ftmp_batch(seed)) format = Format::kBatch;
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
        if ((rng.next_below(3) != 0 || !edit_length_field(b, format, v, rng)) &&
            b.size() >= 4) {
          put_u32(b, rng.next_below(b.size() - 3), v, rng.chance(0.5));
        }
        break;
      }
      default:  // appended bytes
        for (int k = int(rng.next_in(1, 16)); k > 0; --k) b.push_back(std::uint8_t(rng.next_u64()));
        break;
    }
  }
  if (format == Format::kFtmp && b.size() >= kHeaderSize && b[kByteOrderFlagOffset] <= 1 &&
      rng.chance(0.5)) {
    put_u32(b, kSizeFieldOffset, std::uint32_t(b.size()), b[kByteOrderFlagOffset] == 0);
  }
  if (format == Format::kGiop && b.size() >= giop::kGiopHeaderSize && b[6] <= 1 &&
      rng.chance(0.5)) {
    put_u32(b, 8, std::uint32_t(b.size() - giop::kGiopHeaderSize), b[6] == 0);
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

// ---- FTMF fragments ---------------------------------------------------------

// make_fragments chunk sequences for payloads of one, a few and many chunks.
std::vector<std::vector<Bytes>> fragment_corpus() {
  std::vector<std::vector<Bytes>> out;
  std::uint64_t message_id = 1;
  for (const std::size_t size : {1u, 200u, 1000u, 4000u}) {
    Bytes payload(size);
    for (std::size_t i = 0; i < size; ++i) payload[i] = std::uint8_t(i * 31 + 7);
    out.push_back(make_fragments(payload, 256, message_id++));
  }
  return out;
}

TEST(DecoderFuzz, FragmentCorpusReassembles) {
  for (const std::vector<Bytes>& chunks : fragment_corpus()) {
    Reassembler r;
    std::optional<SharedBytes> whole;
    for (const Bytes& chunk : chunks) whole = r.feed(ProcessorId{1}, chunk);
    ASSERT_TRUE(whole.has_value());
    EXPECT_EQ(r.dropped(), 0u);
    EXPECT_EQ(r.in_flight(), 0u);
  }
}

// One chunk of each sequence is mutated; the sequence must reassemble, stay
// partial or be dropped — Reassembler::feed throws nothing.
TEST(DecoderFuzz, MutatedFragmentsReassembleOrAreDropped) {
  Rng rng(0xF7A6);
  int whole = 0;
  int dropped = 0;
  for (const std::vector<Bytes>& chunks : fragment_corpus()) {
    for (int i = 0; i < kMutationsPerEntry; ++i) {
      Reassembler r;
      const std::size_t hit = rng.next_below(chunks.size());
      std::size_t fed = 0;
      for (std::size_t k = 0; k < chunks.size(); ++k) {
        const Bytes chunk = k == hit ? mutate(chunks[k], rng, Format::kFragment) : chunks[k];
        fed += chunk.size();
        if (const auto done = r.feed(ProcessorId{1}, chunk)) {
          ++whole;
          ASSERT_LE(done->size(), fed);
        }
      }
      dropped += r.dropped() > 0 ? 1 : 0;
    }
  }
  EXPECT_GT(whole, 0);
  EXPECT_GT(dropped, 0);
}

// ---- GIOP -------------------------------------------------------------------

// One GIOP message of each of the eight types, in both byte orders.
std::vector<Bytes> giop_corpus() {
  giop::Request request;
  request.service_context = {{5, bytes_of("ctx")}};
  request.request_id = 42;
  request.object_key = bytes_of("counter");
  request.operation = "add";
  request.requesting_principal = bytes_of("me");
  request.body = bytes_of("arguments");
  giop::Reply reply;
  reply.service_context = {{6, bytes_of("reply-ctx")}};
  reply.request_id = 42;
  reply.body = bytes_of("result");
  const std::vector<giop::GiopBody> bodies = {
      request,
      reply,
      giop::CancelRequest{42},
      giop::LocateRequest{7, bytes_of("key")},
      giop::LocateReply{7, giop::LocateStatus::kObjectForward, bytes_of("ior")},
      giop::CloseConnection{},
      giop::MessageError{},
      giop::Fragment{bytes_of("tail-bytes")},
  };
  std::vector<Bytes> out;
  for (const ByteOrder order : {ByteOrder::kBig, ByteOrder::kLittle}) {
    for (const giop::GiopBody& body : bodies) {
      giop::GiopHeader h;
      h.byte_order = order;
      out.push_back(giop::encode({h, body}));
    }
  }
  return out;
}

// Decodes one input or rejects it with CdrError; a decoded message
// re-encodes to one that decodes back to itself.
void check_giop(BytesView input, int& decoded, int& rejected) {
  try {
    const giop::GiopMessage m = giop::decode(input);
    ++decoded;
    const giop::GiopMessage again = giop::decode(giop::encode(m));
    giop::GiopMessage expected = m;
    expected.header.message_size = again.header.message_size;
    EXPECT_EQ(again, expected);
  } catch (const giop::CdrError&) {
    ++rejected;
  }
}

TEST(DecoderFuzz, GiopCorpusDecodes) {
  int decoded = 0;
  int rejected = 0;
  for (const Bytes& entry : giop_corpus()) check_giop(entry, decoded, rejected);
  EXPECT_EQ(decoded, 16);
  EXPECT_EQ(rejected, 0);
}

TEST(DecoderFuzz, MutatedGiopDecodesOrIsRejected) {
  Rng rng(0x610F);
  int decoded = 0;
  int rejected = 0;
  for (const Bytes& entry : giop_corpus()) {
    for (int i = 0; i < kMutationsPerEntry; ++i) {
      check_giop(mutate(entry, rng, Format::kGiop), decoded, rejected);
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

// ---- chaos-trace reader -----------------------------------------------------

// A short recorded campaign trace: 3 processors for 1.5 s, whose schedule
// (seed 4) crashes and restarts P1, so it holds every record kind (D, V,
// S, X, F, R). Only the deliveries of every 16th message of each source
// are kept (every member's copy), so each replay stays cheap and the
// abridged trace still replays clean.
std::vector<std::string> trace_corpus() {
  chaos::CampaignConfig cfg;
  cfg.seed = 4;
  cfg.params.processors = 3;
  cfg.params.duration = 1500 * kMillisecond;
  cfg.params.faults = 3;
  // One file per test: ctest runs the tests of this binary in parallel.
  cfg.trace_path = testing::TempDir() + "decoder_fuzz_" +
                   testing::UnitTest::GetInstance()->current_test_info()->name() + ".trace";
  (void)chaos::run_campaign(cfg);
  std::ifstream in(cfg.trace_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    std::istringstream fields(line);
    std::string kind;
    std::uint64_t at = 0, proc = 0, group = 0, source = 0, seq = 0;
    fields >> kind >> at >> proc >> group >> source >> seq;
    if (kind != "D" || seq % 16 == 0) lines.push_back(line);
  }
  std::remove(cfg.trace_path.c_str());
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& l : lines) text += l + "\n";
  return text;
}

// Applies one to three seeded line or byte edits to the trace's text.
std::string mutate_trace(std::vector<std::string> lines, Rng& rng) {
  static const char* const kTokens[] = {
      "",  "-1", "0",    "4294967295",        "4294967296", "18446744073709551615",
      "x", ",",  "1,,2", "ffffffffffffffffff", "seed=",      "18446744073709551616"};
  static constexpr char kBytes[] = {'\n', ' ', ',', '-', '=', '0', '9', 'D', 'V', '\0', '\xff'};
  const int rounds = int(rng.next_in(1, 3));
  for (int round = 0; round < rounds; ++round) {
    std::string& line = lines[rng.next_below(lines.size())];
    switch (rng.next_below(6)) {
      case 0:  // delete or duplicate a line
        if (rng.chance(0.5) && lines.size() > 1) {
          lines.erase(lines.begin() + std::ptrdiff_t(rng.next_below(lines.size())));
        } else {
          const std::string copy = line;
          lines.insert(lines.begin() + std::ptrdiff_t(rng.next_below(lines.size())), copy);
        }
        break;
      case 1:  // swap two lines
        std::swap(line, lines[rng.next_below(lines.size())]);
        break;
      case 2:  // truncate a line
        line.resize(rng.next_below(line.size() + 1));
        break;
      case 3: {  // replace a field with an edge token
        std::istringstream in(line);
        std::vector<std::string> fields{std::istream_iterator<std::string>(in), {}};
        if (fields.empty()) break;
        fields[rng.next_below(fields.size())] = kTokens[rng.next_below(std::size(kTokens))];
        line.clear();
        for (const std::string& f : fields) line += (line.empty() ? "" : " ") + f;
        break;
      }
      case 4:  // retype a record
        if (!line.empty()) line[0] = "DVRSXF#Q"[rng.next_below(8)];
        break;
      default: {  // byte edits: flip a bit, insert a byte, or cut the text
        std::string text = join_lines(lines);
        const std::size_t at = rng.next_below(text.size());
        switch (rng.next_below(3)) {
          case 0:
            text[at] = char(text[at] ^ (1 << rng.next_below(8)));
            break;
          case 1:
            text.insert(at, 1, kBytes[rng.next_below(std::size(kBytes))]);
            break;
          default:
            text.resize(at);
            break;
        }
        std::istringstream split(text);
        lines.clear();
        for (std::string l; std::getline(split, l);) lines.push_back(l);
        if (lines.empty()) lines.emplace_back();
        break;
      }
    }
  }
  return join_lines(lines);
}

TEST(DecoderFuzz, TraceCorpusReplays) {
  const std::vector<std::string> lines = trace_corpus();
  std::istringstream in(join_lines(lines));
  const chaos::TraceReplay r = chaos::replay_trace(in);
  EXPECT_TRUE(r.parsed) << r.parse_error;
  EXPECT_TRUE(r.shape_recorded);
  EXPECT_EQ(r.records, lines.size() - 3) << "every line but the header, X and F";
  EXPECT_TRUE(r.violations.empty());
}

// Each mutated trace must replay (with or without violations) or return a
// parse_error; the reader throws nothing.
TEST(DecoderFuzz, MutatedTracesReplayOrAreRejected) {
  const std::vector<std::string> lines = trace_corpus();
  ASSERT_GT(lines.size(), 100u);
  Rng rng(0x7ACE);
  int replayed = 0;
  int rejected = 0;
  for (int i = 0; i < kMutationsPerEntry; ++i) {
    std::istringstream in(mutate_trace(lines, rng));
    const chaos::TraceReplay r = chaos::replay_trace(in);
    if (r.parsed) {
      ++replayed;
    } else {
      ++rejected;
      ASSERT_FALSE(r.parse_error.empty());
    }
  }
  EXPECT_GT(replayed, 0);
  EXPECT_GT(rejected, 0);
}

// ---- durable log ------------------------------------------------------------

std::string temp_log_path(const char* what) {
  // One file per test: ctest runs the tests of this binary in parallel.
  return testing::TempDir() + "decoder_fuzz_" +
         testing::UnitTest::GetInstance()->current_test_info()->name() + "_" + what + ".log";
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()), std::streamsize(bytes.size()));
}

// The entries PersistentLog::append writes to the corpus log: both kinds,
// an empty payload and a 70 KiB one.
std::vector<ft::LogEntry> log_entries() {
  Bytes big(70 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = std::uint8_t(i * 131 + 17);
  return {
      {ft::MessageKind::kRequest, conn(), 1, 100, bytes_of("request-one")},
      {ft::MessageKind::kReply, conn(), 1, 101, bytes_of("reply-one")},
      {ft::MessageKind::kRequest, conn(), 2, 102, Bytes{}},
      {ft::MessageKind::kReply, conn(), 2, 103, std::move(big)},
  };
}

// The bytes `append` writes for `entries`, through a fresh log at `path`.
Bytes appended(const std::string& path, const std::vector<ft::LogEntry>& entries) {
  std::remove(path.c_str());
  {
    ft::PersistentLog log(path);
    for (const ft::LogEntry& e : entries) log.append(e);
  }
  Bytes bytes = read_file(path);
  std::remove(path.c_str());
  return bytes;
}

TEST(DecoderFuzz, LogCorpusScansClean) {
  const std::vector<ft::LogEntry> entries = log_entries();
  const std::string path = temp_log_path("corpus");
  write_file(path, appended(path, entries));
  const ft::LogScan scan = ft::PersistentLog::scan(path);
  EXPECT_TRUE(scan.clean());
  EXPECT_EQ(scan.good_bytes, std::filesystem::file_size(path));
  EXPECT_EQ(scan.entries, entries);
  std::remove(path.c_str());
}

// Every mutated log scans to an intact prefix: scan throws nothing, the
// prefix and the discarded tail cover the file, the prefix is exactly what
// appending the scanned entries writes, load() agrees with scan(), and
// opening the file for appending truncates it to the prefix.
TEST(DecoderFuzz, MutatedLogsScanToTheirIntactPrefix) {
  const std::string path = temp_log_path("mutated");
  const std::string fresh = temp_log_path("fresh");
  const Bytes seed = appended(fresh, log_entries());
  const LogLevel saved_level = Log::level();
  Log::set_level(LogLevel::kError);  // each torn reopen warns
  Rng rng(0x106F);
  int intact = 0;
  int torn = 0;
  for (int i = 0; i < kMutationsPerEntry; ++i) {
    const Bytes input = mutate(seed, rng, Format::kLog);
    write_file(path, input);
    ft::LogScan scan;
    ASSERT_NO_THROW(scan = ft::PersistentLog::scan(path)) << "mutation " << i;
    ASSERT_EQ(scan.good_bytes + scan.discarded_bytes, input.size()) << "mutation " << i;
    ASSERT_EQ(appended(fresh, scan.entries),
              Bytes(input.begin(), input.begin() + std::ptrdiff_t(scan.good_bytes)))
        << "mutation " << i;
    ASSERT_EQ(ft::PersistentLog::load(path), scan.entries) << "mutation " << i;
    { ft::PersistentLog reopened(path); }
    ASSERT_EQ(std::filesystem::file_size(path), scan.good_bytes) << "mutation " << i;
    (scan.clean() ? intact : torn) += 1;
  }
  Log::set_level(saved_level);
  std::remove(path.c_str());
  EXPECT_GT(intact, 0);
  EXPECT_GT(torn, 0);
}

}  // namespace
}  // namespace ftcorba::ftmp
