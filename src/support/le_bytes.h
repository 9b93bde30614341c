// Little-endian fixed-width integers for the on-media formats: the PMFS
// superblock and journal records, and FOM's page-table sidecars. The byte
// order is spelled out so an NVM image reads the same on any host.
#ifndef O1MEM_SRC_SUPPORT_LE_BYTES_H_
#define O1MEM_SRC_SUPPORT_LE_BYTES_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace o1mem {

template <class T>
inline T LoadLe(const uint8_t* p) {
  static_assert(std::is_unsigned_v<T>);
  T x = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&x, p, sizeof(T));  // one load: compilers do not always fuse the loop
  } else {
    for (size_t i = sizeof(T); i-- > 0;) {
      x = static_cast<T>((x << 8) | p[i]);
    }
  }
  return x;
}

template <class T>
inline void StoreLe(uint8_t* p, T x) {
  static_assert(std::is_unsigned_v<T>);
  for (size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<uint8_t>(x >> (8 * i));
  }
}

template <class T>
inline void AppendLe(std::vector<uint8_t>& v, T x) {
  v.resize(v.size() + sizeof(T));
  StoreLe(v.data() + v.size() - sizeof(T), x);
}

}  // namespace o1mem

#endif  // O1MEM_SRC_SUPPORT_LE_BYTES_H_
