#include "src/support/crc32.h"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "src/support/rng.h"
#include "src/support/units.h"

namespace o1mem {
namespace {

// The bitwise definition, one byte at a time: what the sliced kernel must
// reproduce for every length and alignment.
uint32_t ReferenceCrc32(std::span<const uint8_t> data, uint32_t seed = 0) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (uint8_t byte : data) {
    c ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return bytes;
}

std::span<const uint8_t> Bytes(std::string_view s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32(Bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32({}), 0u);
  EXPECT_EQ(Crc32({}, 0xDEADBEEFu), 0xDEADBEEFu);
}

TEST(Crc32Test, MatchesBytewiseAtEveryShortLengthAndAlignment) {
  const std::vector<uint8_t> buf = RandomBytes(64 + 8, 1);
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 64; ++len) {
      const auto data = std::span<const uint8_t>(buf).subspan(align, len);
      ASSERT_EQ(Crc32(data), ReferenceCrc32(data)) << "align " << align << " len " << len;
      ASSERT_EQ(Crc32(data, 0x12345678u), ReferenceCrc32(data, 0x12345678u))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32Test, MatchesBytewiseOnOneMebibyte) {
  const std::vector<uint8_t> buf = RandomBytes(kMiB, 2);
  EXPECT_EQ(Crc32(buf), ReferenceCrc32(buf));
}

TEST(Crc32Test, SeedChainsLikeConcatenation) {
  const std::vector<uint8_t> buf = RandomBytes(1000, 3);
  const auto whole = std::span<const uint8_t>(buf);
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{333}, size_t{1000}}) {
    EXPECT_EQ(Crc32(whole.subspan(split), Crc32(whole.first(split))), Crc32(whole))
        << "split " << split;
  }
}

}  // namespace
}  // namespace o1mem
