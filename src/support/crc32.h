// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), header-only.
//
// Used to checksum persistent metadata: the PMFS superblock and journal
// records, and FOM's pre-created table sets stored in NVM. Recovery code
// never trusts NVM bytes without validating one of these first (torn writes
// and media decay are table stakes for persistent-memory file systems).
//
// Slicing-by-8: eight table lookups fold one 64-bit word into the CRC, so a
// multi-MiB sidecar checks at memory speed instead of one lookup per byte.
// The result is bit-identical to the bytewise definition, which still
// handles the tail.
#ifndef O1MEM_SRC_SUPPORT_CRC32_H_
#define O1MEM_SRC_SUPPORT_CRC32_H_

#include <array>
#include <cstdint>
#include <span>

#include "src/support/le_bytes.h"

namespace o1mem {

namespace internal {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

// tables[0][b] is the CRC step for byte b; tables[k][b] is that step
// followed by k zero bytes, so byte j of a word looks up tables[7 - j].
inline constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFF] ^ (prev >> 8);
    }
  }
  return tables;
}

inline constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

}  // namespace internal

// One-shot CRC over `data`; `seed` allows incremental composition
// (pass a previous Crc32 result to continue it).
inline uint32_t Crc32(std::span<const uint8_t> data, uint32_t seed = 0) {
  const internal::Crc32Tables& t = internal::kCrc32Tables;
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint64_t w = LoadLe<uint64_t>(p) ^ c;
    c = t[7][w & 0xFF] ^ t[6][(w >> 8) & 0xFF] ^ t[5][(w >> 16) & 0xFF] ^
        t[4][(w >> 24) & 0xFF] ^ t[3][(w >> 32) & 0xFF] ^ t[2][(w >> 40) & 0xFF] ^
        t[1][(w >> 48) & 0xFF] ^ t[0][w >> 56];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace o1mem

#endif  // O1MEM_SRC_SUPPORT_CRC32_H_
