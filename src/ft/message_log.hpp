// message_log.hpp — the message log the paper's §4 alludes to ("when
// replaying messages from a log"): records delivered requests/replies per
// logical connection, keyed by the unique ⟨connection id, request number⟩
// pair so a recovering replica can match replies to requests during replay.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "ft/dedup.hpp"

namespace ftcorba::ft {

/// One logged message.
struct LogEntry {
  MessageKind kind{};
  ConnectionId connection{};
  RequestNum request_num = 0;
  Timestamp timestamp = 0;  ///< FTMP delivery timestamp (total order position)
  /// Shares (pins) the delivered buffer — recording a message costs a
  /// refcount bump, not a payload copy.
  SharedBytes giop_message;

  friend bool operator==(const LogEntry&, const LogEntry&) = default;
};

/// In-memory, per-connection ordered log of delivered GIOP messages.
class MessageLog {
 public:
  /// Appends one delivered message.
  void record(LogEntry entry) {
    bytes_ += entry.giop_message.size();
    log_[entry.connection].push_back(std::move(entry));
  }

  /// Everything delivered on `connection` with request number > `after`,
  /// in delivery order. This is the §4 replay: the request number pairs a
  /// logged reply with its request.
  [[nodiscard]] std::vector<LogEntry> replay_since(const ConnectionId& connection,
                                                   RequestNum after) const {
    std::vector<LogEntry> out;
    auto it = log_.find(connection);
    if (it == log_.end()) return out;
    for (const LogEntry& e : it->second) {
      if (e.request_num > after) out.push_back(e);
    }
    return out;
  }

  /// The reply logged for ⟨connection, request_num⟩, if any.
  [[nodiscard]] const LogEntry* find_reply(const ConnectionId& connection,
                                           RequestNum request_num) const {
    auto it = log_.find(connection);
    if (it == log_.end()) return nullptr;
    for (const LogEntry& e : it->second) {
      if (e.request_num == request_num && e.kind == MessageKind::kReply) return &e;
    }
    return nullptr;
  }

  /// Discards entries on `connection` with request number <= `watermark`
  /// (their effects are covered by a snapshot).
  void trim(const ConnectionId& connection, RequestNum watermark) {
    auto it = log_.find(connection);
    if (it == log_.end()) return;
    auto& entries = it->second;
    std::size_t kept = 0;
    for (LogEntry& e : entries) {
      if (e.request_num > watermark) {
        entries[kept++] = std::move(e);
      } else {
        bytes_ -= e.giop_message.size();
      }
    }
    entries.resize(kept);
  }

  /// Total entries retained.
  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const auto& [conn, entries] : log_) n += entries.size();
    return n;
  }

  /// Total payload bytes retained.
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

 private:
  std::map<ConnectionId, std::vector<LogEntry>> log_;
  std::size_t bytes_ = 0;
};

}  // namespace ftcorba::ft
