// Unit tests for the durable write-ahead log: round-trips, reopen/append,
// torn-write recovery, corruption detection, CRC32 vectors and the
// table-driven CRC32 against its bitwise reference.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/rng.hpp"
#include "ft/persistent_log.hpp"

namespace ftcorba::ft {
namespace {

ConnectionId conn() {
  return ConnectionId{FtDomainId{1}, ObjectGroupId{2}, FtDomainId{3}, ObjectGroupId{4}};
}

LogEntry entry(RequestNum num, std::string_view payload,
               MessageKind kind = MessageKind::kRequest) {
  LogEntry e;
  e.kind = kind;
  e.connection = conn();
  e.request_num = num;
  e.timestamp = num * 100;
  e.giop_message = bytes_of(payload);
  return e;
}

struct TempFile {
  std::string path;
  TempFile() {
    path = (std::filesystem::temp_directory_path() /
            ("ftlog_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter()++)))
               .string();
  }
  ~TempFile() { std::remove(path.c_str()); }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

TEST(Crc32, KnownVectors) {
  // Standard check value for "123456789".
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0x00000000u);
  EXPECT_EQ(crc32(bytes_of("a")), 0xE8B7BE43u);
}

// The bit-at-a-time CRC-32 the table is derived from: eight shift/xor steps
// per byte.
std::uint32_t bitwise_crc32(BytesView data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

TEST(PersistentLog, Crc32MatchesBitwiseReference) {
  for (int b = 0; b < 256; ++b) {
    const Bytes one{static_cast<std::uint8_t>(b)};
    EXPECT_EQ(crc32(one), bitwise_crc32(one)) << "byte " << b;
  }
  Rng rng(0xc4c32);
  for (std::size_t len = 0; len <= 4096; ++len) {
    Bytes buf(len);
    for (std::uint8_t& byte : buf) byte = static_cast<std::uint8_t>(rng.next_u64());
    ASSERT_EQ(crc32(buf), bitwise_crc32(buf)) << "length " << len;
  }
}

TEST(PersistentLog, RoundTrip) {
  TempFile tmp;
  {
    PersistentLog log(tmp.path);
    log.append(entry(1, "first"));
    log.append(entry(1, "first-reply", MessageKind::kReply));
    log.append(entry(2, "second"));
    log.flush();
    EXPECT_GT(log.bytes_written(), 0u);
  }
  const auto loaded = PersistentLog::load(tmp.path);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[0], entry(1, "first"));
  EXPECT_EQ(loaded[1], entry(1, "first-reply", MessageKind::kReply));
  EXPECT_EQ(loaded[2], entry(2, "second"));
}

TEST(PersistentLog, ReopenAppends) {
  TempFile tmp;
  {
    PersistentLog log(tmp.path);
    log.append(entry(1, "before-restart"));
  }
  {
    PersistentLog log(tmp.path);
    log.append(entry(2, "after-restart"));
  }
  const auto loaded = PersistentLog::load(tmp.path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].giop_message, bytes_of("before-restart"));
  EXPECT_EQ(loaded[1].giop_message, bytes_of("after-restart"));
}

TEST(PersistentLog, TornTailDiscarded) {
  TempFile tmp;
  {
    PersistentLog log(tmp.path);
    log.append(entry(1, "intact"));
    log.append(entry(2, "will-be-torn"));
  }
  // Simulate a torn write: chop the last few bytes.
  const auto size = std::filesystem::file_size(tmp.path);
  std::filesystem::resize_file(tmp.path, size - 5);
  const auto loaded = PersistentLog::load(tmp.path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].giop_message, bytes_of("intact"));
}

TEST(PersistentLog, CorruptRecordStopsLoad) {
  TempFile tmp;
  {
    PersistentLog log(tmp.path);
    log.append(entry(1, "good"));
    log.append(entry(2, "to-be-corrupted"));
    log.append(entry(3, "after-corruption"));
  }
  // Flip a payload byte in the middle record.
  std::FILE* f = std::fopen(tmp.path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -30, SEEK_END);
  std::fputc('X', f);
  std::fclose(f);
  const auto loaded = PersistentLog::load(tmp.path);
  EXPECT_LT(loaded.size(), 3u) << "corruption must not be read through";
  ASSERT_GE(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].giop_message, bytes_of("good"));
}

TEST(PersistentLog, TornTailTruncatedOnReopenThenAppendsLoad) {
  TempFile tmp;
  {
    PersistentLog log(tmp.path);
    log.append(entry(1, "intact"));
    log.append(entry(2, "torn"));
  }
  const auto size = std::filesystem::file_size(tmp.path);
  std::filesystem::resize_file(tmp.path, size - 3);

  const auto scan = PersistentLog::scan(tmp.path);
  EXPECT_FALSE(scan.clean());
  ASSERT_EQ(scan.entries.size(), 1u);
  EXPECT_GT(scan.discarded_bytes, 0u);

  // Reopen must cut the tear away; without that, this append would sit
  // behind the torn bytes and load() could never reach it.
  {
    PersistentLog log(tmp.path);
    EXPECT_EQ(log.recovered_bytes_discarded(), scan.discarded_bytes);
    log.append(entry(3, "after-recovery"));
  }
  const auto loaded = PersistentLog::load(tmp.path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].giop_message, bytes_of("intact"));
  EXPECT_EQ(loaded[1].giop_message, bytes_of("after-recovery"));
  EXPECT_TRUE(PersistentLog::scan(tmp.path).clean());
}

TEST(PersistentLog, CorruptTailTruncatedOnReopen) {
  TempFile tmp;
  {
    PersistentLog log(tmp.path);
    log.append(entry(1, "keep"));
    log.append(entry(2, "rot"));
  }
  // Flip a byte inside the LAST record (stay clear of the first): reopen
  // treats a corrupt tail exactly like a torn one.
  std::FILE* f = std::fopen(tmp.path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -2, SEEK_END);
  std::fputc('X', f);
  std::fclose(f);

  {
    PersistentLog log(tmp.path);
    EXPECT_GT(log.recovered_bytes_discarded(), 0u);
    log.append(entry(3, "fresh"));
  }
  const auto loaded = PersistentLog::load(tmp.path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].giop_message, bytes_of("keep"));
  EXPECT_EQ(loaded[1].giop_message, bytes_of("fresh"));
}

TEST(PersistentLog, MissingFileLoadsEmpty) {
  EXPECT_TRUE(PersistentLog::load("/nonexistent/ftmp/log").empty());
}

TEST(PersistentLog, LoadIntoMemoryIsReplayReady) {
  TempFile tmp;
  {
    PersistentLog log(tmp.path);
    log.append(entry(1, "a"));
    log.append(entry(2, "b"));
    log.append(entry(2, "b-reply", MessageKind::kReply));
  }
  MessageLog mem = PersistentLog::load_into_memory(tmp.path);
  EXPECT_EQ(mem.size(), 3u);
  EXPECT_EQ(mem.replay_since(conn(), 1).size(), 2u);
  ASSERT_NE(mem.find_reply(conn(), 2), nullptr);
}

TEST(PersistentLog, LargePayloads) {
  TempFile tmp;
  Bytes big(200'000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = std::uint8_t(i * 31);
  {
    PersistentLog log(tmp.path);
    LogEntry e = entry(1, "");
    e.giop_message = Bytes(big);
    log.append(e);
  }
  const auto loaded = PersistentLog::load(tmp.path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].giop_message, big);
}

}  // namespace
}  // namespace ftcorba::ft
