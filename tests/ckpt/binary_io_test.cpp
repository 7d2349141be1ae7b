#include "util/binary_io.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace stormtrack {
namespace {

TEST(BinaryIo, ScalarRoundTrip) {
  BinaryWriter w;
  w.put_u8(0xAB);
  w.put_bool(true);
  w.put_bool(false);
  w.put_u32(0xDEADBEEFu);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i32(-42);
  w.put_i64(-1234567890123LL);
  w.put_f64(3.14159);
  w.put_string("hello");
  w.put_count(7);

  BinaryReader r(w.bytes());
  EXPECT_EQ(r.get_u8("a"), 0xAB);
  EXPECT_TRUE(r.get_bool("b"));
  EXPECT_FALSE(r.get_bool("c"));
  EXPECT_EQ(r.get_u32("d"), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64("e"), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i32("f"), -42);
  EXPECT_EQ(r.get_i64("g"), -1234567890123LL);
  EXPECT_EQ(r.get_f64("h"), 3.14159);
  EXPECT_EQ(r.get_string("i"), "hello");
  EXPECT_EQ(r.get_count("j"), 7u);
  EXPECT_TRUE(r.exhausted());
}

TEST(BinaryIo, EncodingIsLittleEndian) {
  BinaryWriter w;
  w.put_u32(0x04030201u);
  const auto& b = w.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(static_cast<int>(b[0]), 1);
  EXPECT_EQ(static_cast<int>(b[1]), 2);
  EXPECT_EQ(static_cast<int>(b[2]), 3);
  EXPECT_EQ(static_cast<int>(b[3]), 4);
}

TEST(BinaryIo, DoublesAreBitExact) {
  BinaryWriter w;
  w.put_f64(-0.0);
  w.put_f64(std::numeric_limits<double>::quiet_NaN());
  w.put_f64(std::numeric_limits<double>::infinity());
  w.put_f64(std::numeric_limits<double>::denorm_min());

  BinaryReader r(w.bytes());
  const double neg_zero = r.get_f64("neg zero");
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_TRUE(std::isnan(r.get_f64("nan")));
  EXPECT_TRUE(std::isinf(r.get_f64("inf")));
  EXPECT_EQ(r.get_f64("denorm"), std::numeric_limits<double>::denorm_min());
}

TEST(BinaryIo, TruncatedReadNamesTheField) {
  BinaryWriter w;
  w.put_u32(123);
  BinaryReader r(w.bytes());
  (void)r.get_u32("first");
  try {
    (void)r.get_u64("missing tail");
    FAIL() << "read past end must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("missing tail"), std::string::npos);
  }
}

TEST(BinaryIo, TruncatedStringThrows) {
  BinaryWriter w;
  w.put_u32(100);  // claims 100 bytes, provides none
  BinaryReader r(w.bytes());
  EXPECT_THROW((void)r.get_string("name"), CheckError);
}

TEST(BinaryIo, BadBoolByteThrows) {
  BinaryWriter w;
  w.put_u8(2);
  BinaryReader r(w.bytes());
  EXPECT_THROW((void)r.get_bool("flag"), CheckError);
}

TEST(BinaryIo, InsaneCountThrows) {
  BinaryWriter w;
  w.put_u64(std::numeric_limits<std::uint64_t>::max());
  BinaryReader r(w.bytes());
  EXPECT_THROW((void)r.get_count("elements"), CheckError);
}

/// Doubles that must survive by bit pattern: signed zero, NaN payloads,
/// infinities and denormals.
std::vector<double> awkward_doubles() {
  return {-0.0,
          0.0,
          std::bit_cast<double>(0x7FF8000000000001ull),  // quiet NaN, payload 1
          std::bit_cast<double>(0xFFF4000000000ABCull),  // signalling, negative
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min() * 12345.0,
          std::numeric_limits<double>::max(),
          1.0 / 3.0};
}

std::vector<std::uint64_t> bit_patterns(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

TEST(BinaryIo, F64ArrayRoundTripsBitExactly) {
  const std::vector<double> values = awkward_doubles();
  BinaryWriter w;
  w.put_f64_array(values);
  w.put_u8(0x5A);  // a trailing field stays aligned behind the array
  ASSERT_EQ(w.size(), values.size() * 8 + 1);

  BinaryReader r(w.bytes());
  std::vector<double> back(values.size());
  r.get_f64_array(back, "cells");
  EXPECT_EQ(bit_patterns(back), bit_patterns(values));
  EXPECT_EQ(r.get_u8("tail"), 0x5A);
  EXPECT_TRUE(r.exhausted());
}

TEST(BinaryIo, F64ArrayHasTheBytesOfScalarPuts) {
  const std::vector<double> values = awkward_doubles();
  BinaryWriter bulk;
  bulk.put_f64_array(values);
  BinaryWriter scalar;
  for (const double v : values) scalar.put_f64(v);
  EXPECT_EQ(bulk.bytes(), scalar.bytes());

  // And each direction reads the other's bytes.
  BinaryReader r(scalar.bytes());
  std::vector<double> back(values.size());
  r.get_f64_array(back, "cells");
  EXPECT_EQ(bit_patterns(back), bit_patterns(values));
  BinaryReader s(bulk.bytes());
  for (const double v : values)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s.get_f64("cell")),
              std::bit_cast<std::uint64_t>(v));
}

TEST(BinaryIo, EmptyF64ArrayWritesNothing) {
  BinaryWriter w;
  w.put_f64_array({});
  EXPECT_EQ(w.size(), 0u);
  BinaryReader r(w.bytes());
  std::vector<double> none;
  r.get_f64_array(none, "no cells");
  EXPECT_TRUE(r.exhausted());
}

TEST(BinaryIo, TruncatedF64ArrayNamesFieldAndOffset) {
  BinaryWriter w;
  w.put_u32(7);
  w.put_f64_array(std::vector<double>{1.0, 2.0, 3.0});
  const std::span<const std::byte> cut(w.bytes().data(), w.size() - 1);
  BinaryReader r(cut);
  (void)r.get_u32("header");
  std::vector<double> back(3);
  try {
    r.get_f64_array(back, "nest field cells");
    FAIL() << "a truncated bulk read must throw";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("nest field cells"), std::string::npos) << msg;
    EXPECT_NE(msg.find("offset 4"), std::string::npos) << msg;
  }
  EXPECT_EQ(r.offset(), 4u);  // nothing consumed
}

TEST(BinaryIo, PatchU64OverwritesInPlace) {
  BinaryWriter w;
  w.put_u32(1);
  w.put_u64(0);
  w.put_u32(2);
  w.patch_u64(4, 0x0102030405060708ull);
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.get_u32("a"), 1u);
  EXPECT_EQ(r.get_u64("patched"), 0x0102030405060708ull);
  EXPECT_EQ(r.get_u32("b"), 2u);
  EXPECT_THROW(w.patch_u64(9, 0), CheckError);
}

TEST(BinaryIo, EmptyStringRoundTrips) {
  BinaryWriter w;
  w.put_string("");
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.get_string("empty"), "");
  EXPECT_TRUE(r.exhausted());
}

}  // namespace
}  // namespace stormtrack
