// joins.hpp — the end of a driver step, written once. SimHarness (over
// SimNetwork) and runtime::ShardedUdpDriver (over UdpMulticastTransport)
// both end every step with Joins::transmit: join what the node's stack now
// lists, leave what it no longer lists, and only then send the step's
// egress. Joining first matters: a member orders its own messages through
// their looped-back copies (under llft, all but the Regulars and OrderInfo
// it takes in at send), and a datagram multicast on an address the sender
// has not joined never comes back (docs/ORDERING.md §2, rule 3).
#pragma once

#include <algorithm>
#include <vector>

#include "common/ids.hpp"
#include "net/packet.hpp"

namespace ftcorba::ftmp {

/// The multicast addresses a driver has joined for one node.
class Joins {
 public:
  /// Joins each address of `want` not joined yet (in `want`'s order), leaves
  /// each joined address `want` no longer lists, then sends `egress`. `Port`
  /// has join(McastAddress), leave(McastAddress) and
  /// send_many(const std::vector<net::Datagram>&).
  template <class Port>
  void transmit(const std::vector<McastAddress>& want,
                const std::vector<net::Datagram>& egress, Port& port) {
    for (McastAddress addr : want) {
      if (std::find(joined_.begin(), joined_.end(), addr) != joined_.end()) continue;
      port.join(addr);
      joined_.push_back(addr);
    }
    std::erase_if(joined_, [&](McastAddress addr) {
      if (std::find(want.begin(), want.end(), addr) != want.end()) return false;
      port.leave(addr);
      return true;
    });
    if (!egress.empty()) port.send_many(egress);
  }

 private:
  std::vector<McastAddress> joined_;
};

}  // namespace ftcorba::ftmp
