// ids.hpp — strongly-typed identifiers used throughout the FTMP stack.
//
// The paper's header fields (source processor id, destination processor
// group id, sequence number, message timestamp, ack timestamp) and the
// fault-tolerance identifiers (fault tolerance domain id, object group id,
// connection id, request number) are all given distinct C++ types so that
// they cannot be accidentally interchanged.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace ftcorba {

/// CRTP base for a strongly-typed integral identifier.
///
/// Provides comparison, hashing support and explicit raw-value access while
/// preventing implicit conversions between different id kinds.
template <typename Tag, typename Rep>
struct StrongId {
  Rep value{0};

  constexpr StrongId() = default;
  constexpr explicit StrongId(Rep v) : value(v) {}

  /// Raw integral value (for encoding on the wire).
  [[nodiscard]] constexpr Rep raw() const { return value; }

  friend constexpr auto operator<=>(const StrongId&, const StrongId&) = default;
};

/// Identifies one processor (one FTMP endpoint / host in a fault-tolerance
/// domain). Carried in every FTMP header as `source processor id`.
struct ProcessorId : StrongId<ProcessorId, std::uint32_t> {
  using StrongId::StrongId;
};

/// Identifies a processor group — the set of peer processors a message is
/// multicast to. Carried in every FTMP header as
/// `destination processor group id`.
struct ProcessorGroupId : StrongId<ProcessorGroupId, std::uint32_t> {
  using StrongId::StrongId;
};

/// Identifies a fault-tolerance domain (a scope of object-group identifiers
/// that shares an IP multicast address range).
struct FtDomainId : StrongId<FtDomainId, std::uint32_t> {
  using StrongId::StrongId;
};

/// Identifies an object group (the replicas of one CORBA object) within a
/// fault-tolerance domain.
struct ObjectGroupId : StrongId<ObjectGroupId, std::uint32_t> {
  using StrongId::StrongId;
};

/// A (simulated or real) IP multicast address. One per fault-tolerance
/// domain / processor group, per the paper's connection-sharing scheme.
struct McastAddress : StrongId<McastAddress, std::uint32_t> {
  using StrongId::StrongId;
};

/// Per-source message sequence number (RMP reliable delivery).
using SeqNum = std::uint64_t;

/// Lamport (or synchronized-clock) message timestamp (ROMP ordering).
using Timestamp = std::uint64_t;

/// Request number scoped to a logical connection; monotonically increasing
/// over all connections between two object groups (§4).
using RequestNum = std::uint64_t;

/// Identifier of a logical connection between a client object group and a
/// server object group (§4): the FT domain id and object group id of each
/// side.
struct ConnectionId {
  FtDomainId client_domain{};
  ObjectGroupId client_group{};
  FtDomainId server_domain{};
  ObjectGroupId server_group{};

  friend constexpr auto operator<=>(const ConnectionId&, const ConnectionId&) = default;
};

/// Human-readable rendering, e.g. for logs: "P3", "G7". Built by appending
/// to a one-letter string rather than as `"P" + std::to_string(...)`, which
/// gcc 12 at -O3 inlines into a false -Wrestrict warning.
[[nodiscard]] inline std::string to_string(ProcessorId p) {
  std::string s(1, 'P');
  s += std::to_string(p.raw());
  return s;
}
[[nodiscard]] inline std::string to_string(ProcessorGroupId g) {
  std::string s(1, 'G');
  s += std::to_string(g.raw());
  return s;
}
[[nodiscard]] inline std::string to_string(const ConnectionId& c) {
  return "conn(" + std::to_string(c.client_domain.raw()) + ":" + std::to_string(c.client_group.raw()) +
         "->" + std::to_string(c.server_domain.raw()) + ":" + std::to_string(c.server_group.raw()) + ")";
}

}  // namespace ftcorba

namespace std {
template <>
struct hash<ftcorba::ProcessorId> {
  size_t operator()(const ftcorba::ProcessorId& id) const noexcept { return hash<uint32_t>{}(id.raw()); }
};
template <>
struct hash<ftcorba::ProcessorGroupId> {
  size_t operator()(const ftcorba::ProcessorGroupId& id) const noexcept { return hash<uint32_t>{}(id.raw()); }
};
template <>
struct hash<ftcorba::FtDomainId> {
  size_t operator()(const ftcorba::FtDomainId& id) const noexcept { return hash<uint32_t>{}(id.raw()); }
};
template <>
struct hash<ftcorba::ObjectGroupId> {
  size_t operator()(const ftcorba::ObjectGroupId& id) const noexcept { return hash<uint32_t>{}(id.raw()); }
};
template <>
struct hash<ftcorba::McastAddress> {
  size_t operator()(const ftcorba::McastAddress& id) const noexcept { return hash<uint32_t>{}(id.raw()); }
};
template <>
struct hash<ftcorba::ConnectionId> {
  size_t operator()(const ftcorba::ConnectionId& c) const noexcept {
    // 64-bit mix of the four 32-bit components.
    uint64_t a = (uint64_t(c.client_domain.raw()) << 32) | c.client_group.raw();
    uint64_t b = (uint64_t(c.server_domain.raw()) << 32) | c.server_group.raw();
    a ^= b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2);
    return hash<uint64_t>{}(a);
  }
};
}  // namespace std
