#include "ckpt/crc32.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace stormtrack {
namespace {

/// Bit-at-a-time CRC-32, no tables: the definition the sliced
/// implementation must reproduce.
std::uint32_t crc32_bitwise(std::span<const std::byte> bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::byte b : bytes) {
    c ^= static_cast<std::uint32_t>(b);
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::byte> out(n);
  for (std::byte& b : out) b = static_cast<std::byte>(rng() & 0xFFu);
  return out;
}

TEST(Crc32, CheckValueAndEmptyInput) {
  constexpr std::string_view kCheck = "123456789";
  const auto* p = reinterpret_cast<const std::byte*>(kCheck.data());
  EXPECT_EQ(crc32({p, kCheck.size()}), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
  EXPECT_EQ(crc32_update(0, {}), 0u);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  const std::vector<std::byte> buf = random_bytes(64 + 8, 7);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::span<const std::byte> s(buf.data() + offset, len);
      ASSERT_EQ(crc32(s), crc32_bitwise(s))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, IncrementalEqualsOneShotAtEverySplit) {
  const std::vector<std::byte> buf = random_bytes(1024, 19);
  const std::span<const std::byte> all(buf);
  const std::uint32_t whole = crc32(all);
  EXPECT_EQ(whole, crc32_bitwise(all));
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    const std::uint32_t head = crc32_update(0, all.first(split));
    ASSERT_EQ(crc32_update(head, all.subspan(split)), whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace stormtrack
