// Unit tests for Joins::transmit, the end of every driver step: the joins
// come before the send, an address the stack stops listing is left once,
// and nothing is joined twice.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ftmp/joins.hpp"

namespace ftcorba::ftmp {
namespace {

constexpr McastAddress kDomainAddr{1};
constexpr McastAddress kOldAddr{7};
constexpr McastAddress kNewAddr{8};

// Records each call in order: "join 7", "leave 7", "send 2" (datagrams).
struct RecordingPort {
  std::vector<std::string> calls;
  void join(McastAddress addr) {
    calls.push_back(std::string("join ").append(std::to_string(addr.raw())));
  }
  void leave(McastAddress addr) {
    calls.push_back(std::string("leave ").append(std::to_string(addr.raw())));
  }
  void send_many(const std::vector<net::Datagram>& egress) {
    calls.push_back(std::string("send ").append(std::to_string(egress.size())));
  }
};

using Calls = std::vector<std::string>;

TEST(Joins, JoinsBeforeItSends) {
  Joins joins;
  RecordingPort port;
  const std::vector<net::Datagram> egress{net::Datagram{kOldAddr, bytes_of("x")}};
  joins.transmit({kDomainAddr, kOldAddr}, egress, port);
  EXPECT_EQ(port.calls, (Calls{"join 1", "join 7", "send 1"}));
}

TEST(Joins, LeavesADroppedAddressOnceAndNeverJoinsTwice) {
  Joins joins;
  RecordingPort port;
  joins.transmit({kDomainAddr, kOldAddr}, {}, port);
  joins.transmit({kDomainAddr, kOldAddr}, {}, port);  // nothing to do
  joins.transmit({kDomainAddr}, {}, port);            // 7 dropped: left
  joins.transmit({kDomainAddr}, {}, port);            // already left
  joins.transmit({kDomainAddr, kOldAddr}, {}, port);  // listed again: joined
  EXPECT_EQ(port.calls, (Calls{"join 1", "join 7", "leave 7", "join 7"}));
}

// A rebind's step: the new address is joined and the retired one left
// before the step's datagrams go out.
TEST(Joins, MovesToANewAddressBeforeSending) {
  Joins joins;
  RecordingPort port;
  joins.transmit({kDomainAddr, kOldAddr}, {}, port);
  port.calls.clear();
  const std::vector<net::Datagram> egress{net::Datagram{kNewAddr, bytes_of("a")},
                                          net::Datagram{kNewAddr, bytes_of("b")}};
  joins.transmit({kDomainAddr, kNewAddr}, egress, port);
  EXPECT_EQ(port.calls, (Calls{"join 8", "leave 7", "send 2"}));
}

}  // namespace
}  // namespace ftcorba::ftmp
