// Unit tests for SharedBytes and the datagram buffer pool — the substrate
// of the zero-copy receive path (docs/BUFFERS.md).
#include <gtest/gtest.h>

#include "common/bytes.hpp"

namespace ftcorba {
namespace {

TEST(SharedBytes, AdoptedBufferIsViewedInPlace) {
  Bytes owned = bytes_of("hello shared world");
  const std::uint8_t* storage = owned.data();
  const SharedBytes s{std::move(owned)};
  EXPECT_EQ(s.data(), storage) << "adoption must move, not copy";
  EXPECT_EQ(s.size(), 18u);
  EXPECT_EQ(s, bytes_of("hello shared world"));
}

TEST(SharedBytes, SliceSharesTheControlBlock) {
  const SharedBytes whole{bytes_of("header|body-bytes")};
  const SharedBytes body = whole.slice(7);
  EXPECT_TRUE(body.shares_buffer_with(whole));
  EXPECT_EQ(body.data(), whole.data() + 7) << "slice points into the buffer";
  EXPECT_EQ(body, bytes_of("body-bytes"));
  const SharedBytes mid = whole.slice(7, 4);
  EXPECT_EQ(mid, bytes_of("body"));
}

TEST(SharedBytes, SliceOutlivesTheOriginalHandle) {
  SharedBytes tail;
  {
    const SharedBytes whole{bytes_of("pinned-by-the-slice")};
    tail = whole.slice(10);
  }  // `whole` gone; the slice must keep the buffer alive
  EXPECT_EQ(tail, bytes_of("the-slice"));
}

TEST(SharedBytes, SliceBoundsAreClamped) {
  const SharedBytes s{bytes_of("abc")};
  EXPECT_EQ(s.slice(99).size(), 0u);
  EXPECT_EQ(s.slice(1, 99), bytes_of("bc"));
  EXPECT_TRUE(s.slice(3).empty());
}

TEST(SharedBytes, ConvertsToBytesViewForCodecs) {
  const SharedBytes s{bytes_of("xyz")};
  const BytesView v = s;
  EXPECT_EQ(v.data(), s.data());
  EXPECT_EQ(v.size(), 3u);
}

TEST(SharedBytes, ContentEqualityNotIdentity) {
  const SharedBytes a{bytes_of("same")};
  const SharedBytes b{bytes_of("same")};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.shares_buffer_with(b));
  EXPECT_EQ(a, bytes_of("same"));
  EXPECT_FALSE(a == SharedBytes{bytes_of("diff")});
}

TEST(SharedBytes, CopyOfIsIndependentAndCounted) {
  alloc_stats_reset();
  const Bytes src = bytes_of("copy-me-please");
  const SharedBytes copy = SharedBytes::copy_of(src);
  EXPECT_EQ(copy, src);
  EXPECT_NE(copy.data(), src.data());
  const AllocStats stats = alloc_stats();
  EXPECT_EQ(stats.copied_bytes, src.size());
  EXPECT_EQ(stats.fresh_buffers + stats.pool_hits, 1u);
}

TEST(BufferPool, ReleaseRecyclesCapacityWithinThread) {
  alloc_stats_reset();
  {
    Bytes buf = pool_acquire(512);
    ASSERT_EQ(buf.size(), 512u);
    const SharedBytes pooled = SharedBytes::share_pooled(std::move(buf));
    EXPECT_EQ(pooled.size(), 512u);
  }  // last reference dropped: capacity returns to this thread's freelist
  Bytes again = pool_acquire(256);
  EXPECT_EQ(again.size(), 256u);
  const AllocStats stats = alloc_stats();
  EXPECT_EQ(stats.pool_hits, 1u) << "second acquire must reuse the capacity";
  EXPECT_EQ(stats.fresh_buffers, 1u);
}

// copy_of fills a recycled vector directly but accounts it exactly like
// pool_acquire: a hit when the recycled capacity holds the copy, a fresh
// buffer when it must grow.
TEST(BufferPool, CopyOfAccountsRecycledCapacityLikeAcquire) {
  { const SharedBytes parked = SharedBytes::share_pooled(pool_acquire(4096)); }
  alloc_stats_reset();
  const Bytes small(100, 0x5A);
  { EXPECT_EQ(SharedBytes::copy_of(small), small); }
  AllocStats stats = alloc_stats();
  EXPECT_EQ(stats.pool_hits, 1u);
  EXPECT_EQ(stats.fresh_buffers, 0u);
  EXPECT_EQ(stats.copied_bytes, 100u);

  const Bytes big(8192, 0xA5);
  EXPECT_EQ(SharedBytes::copy_of(big), big);
  stats = alloc_stats();
  EXPECT_EQ(stats.pool_hits, 1u);
  EXPECT_EQ(stats.fresh_buffers, 1u) << "the 4 KiB vector had to grow";
  EXPECT_EQ(stats.copied_bytes, 100u + 8192u);
}

TEST(BufferPool, PooledBuffersAreZeroFilled) {
  Bytes buf = pool_acquire(64);
  for (std::uint8_t b : buf) ASSERT_EQ(b, 0u);
  std::fill(buf.begin(), buf.end(), 0xAB);
  { const SharedBytes s = SharedBytes::share_pooled(std::move(buf)); }
  const Bytes recycled = pool_acquire(64);
  for (std::uint8_t b : recycled) EXPECT_EQ(b, 0u) << "recycled buffer must be cleared";
}

TEST(BufferPool, StatsAccumulateAcrossAdoptions) {
  alloc_stats_reset();
  { const SharedBytes a{bytes_of("one")}; }
  { const SharedBytes b{bytes_of("two")}; }
  EXPECT_EQ(alloc_stats().fresh_buffers, 2u)
      << "each adopted buffer counts as a fresh allocation";
}

}  // namespace
}  // namespace ftcorba
