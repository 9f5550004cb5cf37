#include "ft/persistent_log.hpp"

#include <array>
#include <filesystem>
#include <stdexcept>

#include "common/codec.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"

namespace ftcorba::ft {

namespace {
constexpr std::uint8_t kMagic[4] = {'F', 'T', 'L', 'G'};

// CRC-32 (reflected, polynomial 0xEDB88320) of each byte value, so crc32
// folds a byte in one lookup instead of eight shift/xor steps.
constexpr std::array<std::uint32_t, 256> kCrcTable = [] {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    table[i] = crc;
  }
  return table;
}();

[[nodiscard]] Bytes encode_record_body(const LogEntry& entry) {
  Writer w(ByteOrder::kBig);
  for (std::uint8_t b : kMagic) w.u8(b);
  w.u8(static_cast<std::uint8_t>(entry.kind));
  w.u32(entry.connection.client_domain.raw());
  w.u32(entry.connection.client_group.raw());
  w.u32(entry.connection.server_domain.raw());
  w.u32(entry.connection.server_group.raw());
  w.u64(entry.request_num);
  w.u64(entry.timestamp);
  w.blob(entry.giop_message);
  return std::move(w).take();
}
}  // namespace

std::uint32_t crc32(BytesView data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t byte : data) crc = (crc >> 8) ^ kCrcTable[(crc ^ byte) & 0xFFu];
  return ~crc;
}

PersistentLog::PersistentLog(std::string path) : path_(std::move(path)) {
  // Recover-to-last-good-record before appending: a crash mid-fwrite leaves
  // a torn tail, and appends behind a tear would be invisible to load()'s
  // stop-at-first-bad-record replay — truncate the tear away first.
  const LogScan existing = scan(path_);
  if (!existing.clean()) {
    std::error_code ec;
    std::filesystem::resize_file(path_, existing.good_bytes, ec);
    if (ec) {
      throw std::runtime_error("cannot truncate torn log tail: " + path_ +
                               ": " + ec.message());
    }
    recovered_bytes_discarded_ = existing.discarded_bytes;
    FTC_LOG(kWarn) << "persistent log " << path_ << ": discarded "
                   << existing.discarded_bytes
                   << " torn tail bytes; recovered to last good record at "
                   << existing.good_bytes;
    static metrics::CounterHandle truncations = metrics::counter(
        "ftmp_ft_log_tail_truncations_total",
        "Log files whose torn/corrupt tail was truncated back to the last "
        "intact record on open",
        "files", "ft");
    static metrics::CounterHandle truncated_bytes = metrics::counter(
        "ftmp_ft_log_tail_truncated_bytes_total",
        "Torn/corrupt tail bytes discarded by open-time recovery", "bytes",
        "ft");
    truncations.add();
    truncated_bytes.add(existing.discarded_bytes);
  }
  file_ = std::fopen(path_.c_str(), "ab");
  if (!file_) throw std::runtime_error("cannot open log file: " + path_);
}

PersistentLog::~PersistentLog() {
  if (file_) std::fclose(file_);
}

void PersistentLog::append(const LogEntry& entry) {
  const Bytes body = encode_record_body(entry);
  Writer tail(ByteOrder::kBig);
  tail.u32(crc32(body));
  const Bytes crc_bytes = std::move(tail).take();
  if (std::fwrite(body.data(), 1, body.size(), file_) != body.size() ||
      std::fwrite(crc_bytes.data(), 1, crc_bytes.size(), file_) != crc_bytes.size()) {
    throw std::runtime_error("log append failed: " + path_);
  }
  bytes_written_ += body.size() + crc_bytes.size();
}

void PersistentLog::flush() {
  if (file_) std::fflush(file_);
}

LogScan PersistentLog::scan(const std::string& path) {
  LogScan out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return out;
  Bytes content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.insert(content.end(), buf, buf + n);
  }
  std::fclose(f);

  const auto stop = [&] {
    out.discarded_bytes = content.size() - out.good_bytes;
    return out;
  };
  Reader r(content, ByteOrder::kBig);
  while (r.remaining() > 0) {
    const std::size_t record_start = r.position();
    try {
      for (std::uint8_t expected : kMagic) {
        if (r.u8() != expected) return stop();  // torn/garbage: stop
      }
      LogEntry entry;
      const std::uint8_t kind = r.u8();
      if (kind > 1) return stop();
      entry.kind = static_cast<MessageKind>(kind);
      entry.connection.client_domain = FtDomainId{r.u32()};
      entry.connection.client_group = ObjectGroupId{r.u32()};
      entry.connection.server_domain = FtDomainId{r.u32()};
      entry.connection.server_group = ObjectGroupId{r.u32()};
      entry.request_num = r.u64();
      entry.timestamp = r.u64();
      entry.giop_message = r.blob();
      const std::size_t record_end = r.position();
      const std::uint32_t stored_crc = r.u32();
      const BytesView body{content.data() + record_start, record_end - record_start};
      if (crc32(body) != stored_crc) return stop();  // corrupt: stop
      out.entries.push_back(std::move(entry));
      out.good_bytes = r.position();
    } catch (const CodecError&) {
      return stop();  // truncated tail: stop
    }
  }
  return out;
}

std::vector<LogEntry> PersistentLog::load(const std::string& path) {
  return scan(path).entries;
}

MessageLog PersistentLog::load_into_memory(const std::string& path) {
  MessageLog log;
  for (LogEntry& entry : load(path)) {
    log.record(std::move(entry));
  }
  return log;
}

}  // namespace ftcorba::ft
