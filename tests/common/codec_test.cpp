// Unit tests for the bounds-checked binary Writer/Reader.
#include <gtest/gtest.h>

#include "common/codec.hpp"

namespace ftcorba {
namespace {

TEST(Codec, RoundTripBigEndian) {
  Writer w(ByteOrder::kBig);
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0102030405060708ULL);
  w.i64(-42);
  w.str("hello");
  w.blob(bytes_of("xyz"));
  const Bytes buf = std::move(w).take();

  Reader r(buf, ByteOrder::kBig);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0102030405060708ULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.blob(), bytes_of("xyz"));
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, RoundTripLittleEndian) {
  Writer w(ByteOrder::kLittle);
  w.u32(0x11223344);
  w.u64(~0ULL - 7);
  const Bytes buf = w.bytes();
  Reader r(buf, ByteOrder::kLittle);
  EXPECT_EQ(r.u32(), 0x11223344u);
  EXPECT_EQ(r.u64(), ~0ULL - 7);
}

TEST(Codec, BigEndianLayoutIsNetworkOrder) {
  Writer w(ByteOrder::kBig);
  w.u32(0x01020304);
  EXPECT_EQ(to_hex(w.bytes()), "01020304");
}

TEST(Codec, LittleEndianLayoutIsReversed) {
  Writer w(ByteOrder::kLittle);
  w.u32(0x01020304);
  EXPECT_EQ(to_hex(w.bytes()), "04030201");
}

TEST(Codec, MixedOrderDecodeFails) {
  Writer w(ByteOrder::kBig);
  w.u32(1);
  Reader r(w.bytes(), ByteOrder::kLittle);
  EXPECT_EQ(r.u32(), 0x01000000u);  // same bytes, different interpretation
}

TEST(Codec, ReadPastEndThrows) {
  const Bytes buf = {1, 2, 3};
  Reader r(buf);
  EXPECT_EQ(r.u16(), 0x0102);
  // GCC's -Warray-bounds cannot see that Reader::require throws before the
  // out-of-range subscript this test deliberately provokes.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
  EXPECT_THROW((void)r.u16(), CodecError);
#pragma GCC diagnostic pop
}

TEST(Codec, TruncatedStringThrows) {
  const Bytes buf = {0, 0, 0, 100, 's', 'h', 'o', 'r', 't'};  // claims 100 bytes follow
  Reader r(buf);
  EXPECT_THROW((void)r.str(), CodecError);
}

TEST(Codec, BlobLengthOverflowGuard) {
  const Bytes buf = {0xFF, 0xFF, 0xFF, 0xFF};  // claims 4 GiB follow
  Reader r(buf);
  EXPECT_THROW((void)r.blob(), CodecError);
}

TEST(Codec, PatchU32) {
  Writer w;
  w.u32(0);  // placeholder
  w.u8(7);
  w.patch_u32(0, 0xCAFEBABE);
  Reader r(w.bytes());
  EXPECT_EQ(r.u32(), 0xCAFEBABEu);
  EXPECT_EQ(r.u8(), 7);
}

TEST(Codec, PatchOutOfRangeThrows) {
  Writer w;
  w.u8(1);
  EXPECT_THROW(w.patch_u32(0, 5), CodecError);
}

TEST(Codec, SkipAndRest) {
  const Bytes buf = {0, 0, 0, 1, 'p', 'a', 'y', 'l', 'o', 'a', 'd'};
  Reader r(buf);
  r.skip(4);
  EXPECT_EQ(r.remaining(), 7u);
  const auto rest = r.rest();
  EXPECT_EQ(Bytes(rest.begin(), rest.end()), bytes_of("payload"));
}

TEST(Codec, EmptyBlobAndString) {
  Writer w;
  w.str("");
  w.blob({});
  Reader r(w.bytes());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.blob(), Bytes{});
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, NativeByteOrderDetectable) {
  // Just verifies the probe runs and returns a definite answer.
  const ByteOrder order = native_byte_order();
  EXPECT_TRUE(order == ByteOrder::kBig || order == ByteOrder::kLittle);
}

}  // namespace
}  // namespace ftcorba
