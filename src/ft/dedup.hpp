// dedup.hpp — duplicate detection and suppression (§4): with object
// replication, every replica of a client group multicasts the same request
// (same connection id, same request number), and every replica of the
// server group multicasts the same reply. Receivers must process exactly
// one copy. The ⟨connection id, request number⟩ pair is unique per
// invocation, and requests/replies are distinguished by direction.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>

#include "common/ids.hpp"
#include "common/metrics.hpp"

namespace ftcorba::ft {

/// Which half of an invocation a message carries.
enum class MessageKind : std::uint8_t { kRequest = 0, kReply = 1 };

/// This suppressor's counters for tests; each also adds to the
/// process-global ft_dedup_* counter of its name.
struct DedupStats {
  metrics::Counter accepted{"ft_dedup_accepted_total",
                            "First copies accepted by duplicate suppression",
                            "messages", "giop"};
  metrics::Counter suppressed{"ft_dedup_suppressed_total",
                              "Replica copies discarded by duplicate suppression",
                              "messages", "giop"};
};

/// Tracks ⟨connection, request number, kind⟩ triples and accepts only the
/// first occurrence of each. Request numbers count up from 1 per connection
/// (§4), so per (connection, kind) only the largest N with 1..N all accepted
/// is kept, plus the accepted numbers above N: memory stays bounded by the
/// reordering window, not by the number of invocations.
class DuplicateSuppressor {
 public:
  /// Returns true exactly once per ⟨connection, request_num, kind⟩.
  bool accept(const ConnectionId& connection, RequestNum request_num, MessageKind kind) {
    Seen& seen = seen_[{connection, kind}];
    if (seen.covers(request_num) || !seen.above.insert(request_num).second) {
      stats_.suppressed.add();
      return false;
    }
    auto it = seen.above.begin();
    while (it != seen.above.end() && *it == seen.prefix + 1) {
      seen.prefix = *it;
      it = seen.above.erase(it);
    }
    stats_.accepted.add();
    return true;
  }

  /// True if the triple has been seen (without recording anything).
  [[nodiscard]] bool seen(const ConnectionId& connection, RequestNum request_num,
                          MessageKind kind) const {
    auto it = seen_.find({connection, kind});
    return it != seen_.end() && (it->second.covers(request_num) ||
                                 it->second.above.contains(request_num));
  }

  /// Numbers retained above the accepted prefixes (memory introspection).
  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const auto& [key, seen] : seen_) n += seen.above.size();
    return n;
  }

  [[nodiscard]] const DedupStats& stats() const { return stats_; }

 private:
  // Every number in 1..prefix has been accepted; `above` holds the accepted
  // numbers past a gap (and 0, which no prefix covers).
  struct Seen {
    RequestNum prefix = 0;
    std::set<RequestNum> above;
    [[nodiscard]] bool covers(RequestNum n) const { return n >= 1 && n <= prefix; }
  };

  std::map<std::pair<ConnectionId, MessageKind>, Seen> seen_;
  DedupStats stats_;
};

}  // namespace ftcorba::ft
