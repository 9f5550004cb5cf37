// Tests for the related-work total-order baselines (§8 comparators):
// agreement, total order and reliability under loss for both the
// fixed-sequencer and the token-ring protocols.
#include <gtest/gtest.h>

#include <memory>

#include "baseline/harness.hpp"
#include "baseline/sequencer.hpp"
#include "baseline/tokenring.hpp"

namespace ftcorba::baseline {
namespace {

constexpr McastAddress kAddr{50};

enum class Kind { kSequencer, kTokenRing };

std::unique_ptr<TotalOrderNode> make_node(Kind kind, ProcessorId self,
                                          const std::vector<ProcessorId>& members) {
  if (kind == Kind::kSequencer) {
    return std::make_unique<SequencerNode>(self, members, kAddr);
  }
  return std::make_unique<TokenRingNode>(self, members, kAddr);
}

struct Fleet {
  BaselineHarness h;
  std::vector<ProcessorId> members;

  Fleet(Kind kind, int n, net::LinkModel link = {}, std::uint64_t seed = 3)
      : h(link, seed) {
    for (int i = 1; i <= n; ++i) members.push_back(ProcessorId{std::uint32_t(i)});
    for (ProcessorId p : members) {
      h.add_node(p, kAddr, make_node(kind, p, members));
    }
  }

  void check_agreement(std::size_t expected_total) {
    const auto& reference = h.delivered(members[0]);
    ASSERT_EQ(reference.size(), expected_total) << "reference node short";
    for (ProcessorId p : members) {
      const auto& got = h.delivered(p);
      ASSERT_EQ(got.size(), reference.size()) << "at " << to_string(p);
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].delivery.payload, reference[i].delivery.payload)
            << "order divergence at " << i << " on " << to_string(p);
        EXPECT_EQ(got[i].delivery.global_seq, i + 1);
      }
    }
  }
};

class BaselineAgreement : public ::testing::TestWithParam<Kind> {};

TEST_P(BaselineAgreement, ConcurrentSendersTotallyOrdered) {
  Fleet f(GetParam(), 4);
  for (int round = 0; round < 5; ++round) {
    for (ProcessorId p : f.members) {
      f.h.broadcast(p, bytes_of(to_string(p) + "r" + std::to_string(round)));
    }
    f.h.run_for(5 * kMillisecond);
  }
  f.h.run_for(500 * kMillisecond);
  f.check_agreement(20);
}

TEST_P(BaselineAgreement, ReliableUnderLoss) {
  net::LinkModel lossy;
  lossy.loss = 0.15;
  Fleet f(GetParam(), 3, lossy, /*seed=*/17);
  for (int round = 0; round < 10; ++round) {
    for (ProcessorId p : f.members) {
      f.h.broadcast(p, bytes_of(to_string(p) + "#" + std::to_string(round)));
    }
    f.h.run_for(3 * kMillisecond);
  }
  f.h.run_for(3 * kSecond);
  f.check_agreement(30);
}

TEST_P(BaselineAgreement, SingleSenderFifo) {
  Fleet f(GetParam(), 3);
  for (int i = 0; i < 10; ++i) {
    f.h.broadcast(f.members[1], bytes_of(std::string("m").append(std::to_string(i))));
    f.h.run_for(2 * kMillisecond);
  }
  f.h.run_for(500 * kMillisecond);
  const auto& got = f.h.delivered(f.members[0]);
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(got[i].delivery.payload, bytes_of(std::string("m").append(std::to_string(i))));
    EXPECT_EQ(got[i].delivery.source, f.members[1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, BaselineAgreement,
                         ::testing::Values(Kind::kSequencer, Kind::kTokenRing),
                         [](const auto& p) {
                           return p.param == Kind::kSequencer ? "Sequencer"
                                                              : "TokenRing";
                         });

TEST(Sequencer, SequencerRoleIsSmallestId) {
  std::vector<ProcessorId> members{ProcessorId{3}, ProcessorId{1}, ProcessorId{2}};
  SequencerNode n1(ProcessorId{1}, members, kAddr);
  SequencerNode n3(ProcessorId{3}, members, kAddr);
  EXPECT_TRUE(n1.is_sequencer());
  EXPECT_FALSE(n3.is_sequencer());
}

TEST(TokenRing, TokenRegeneratesAfterLoss) {
  // Heavy one-way loss can swallow the token; the ring must recover.
  net::LinkModel lossy;
  lossy.loss = 0.4;
  Fleet f(Kind::kTokenRing, 3, lossy, /*seed=*/23);
  f.h.broadcast(f.members[2], bytes_of("through-the-storm"));
  f.h.run_for(5 * kSecond);
  for (ProcessorId p : f.members) {
    ASSERT_EQ(f.h.delivered(p).size(), 1u) << "at " << to_string(p);
  }
}

}  // namespace
}  // namespace ftcorba::baseline
