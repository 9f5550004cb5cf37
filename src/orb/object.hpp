// object.hpp — object addressing for the mini-ORB: object keys and
// group object references (the IOR-equivalent for a replicated object
// reachable through an FTMP logical connection).
#pragma once

#include <string>

#include "common/bytes.hpp"
#include "common/ids.hpp"

namespace ftcorba::orb {

/// Opaque object key, as carried in GIOP Request/LocateRequest headers.
struct ObjectKey {
  Bytes key;

  ObjectKey() = default;
  explicit ObjectKey(Bytes k) : key(std::move(k)) {}
  explicit ObjectKey(std::string_view s) : key(s.begin(), s.end()) {}

  [[nodiscard]] std::string str() const { return std::string(key.begin(), key.end()); }

  friend bool operator==(const ObjectKey&, const ObjectKey&) = default;
};

/// A reference to a replicated object: which fault-tolerance domain and
/// object group implement it, the object key within the group's servants,
/// and the multicast address of the server domain (what a client needs to
/// open the logical connection).
struct GroupObjectRef {
  FtDomainId domain{};
  ObjectGroupId object_group{};
  McastAddress domain_address{};
  ObjectKey key;

  friend bool operator==(const GroupObjectRef&, const GroupObjectRef&) = default;
};

/// Builds the ConnectionId for an invocation from a client object group to
/// a server object reference (§4: client domain/group + server
/// domain/group).
[[nodiscard]] inline ConnectionId make_connection(FtDomainId client_domain,
                                                  ObjectGroupId client_group,
                                                  const GroupObjectRef& server) {
  return ConnectionId{client_domain, client_group, server.domain, server.object_group};
}

}  // namespace ftcorba::orb

namespace std {
template <>
struct hash<ftcorba::orb::ObjectKey> {
  size_t operator()(const ftcorba::orb::ObjectKey& k) const noexcept {
    size_t h = 1469598103934665603ull;
    for (unsigned char c : k.key) h = (h ^ c) * 1099511628211ull;
    return h;
  }
};
}  // namespace std
