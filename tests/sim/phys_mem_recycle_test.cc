// PhysicalMemory's host slabs are recycled across instances: a node that dies
// zeroes the frames it wrote and hands its slab to the next instance that
// uses the same node index. These tests pin that a recycled slab leaks no
// byte of a dead instance into a live one (on every read path, in both
// tiers, across the DRAM/NVM boundary and a crash), that recycling really
// spares the host page faults it exists for, and that AddressSanitizer still
// sees reads through a dead instance's frames.
#include <sys/resource.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/os/system.h"
#include "src/sim/context.h"
#include "src/sim/phys_mem.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace o1mem {
namespace {

// 5 MiB of DRAM puts the tier boundary in the middle of the third 2 MiB
// directory node, so node 2 holds both DRAM and NVM frames.
constexpr uint64_t kDram = 5 * kMiB;
constexpr uint64_t kNvm = 7 * kMiB;

constexpr Paddr kDramAddr = 1 * kMiB + 123;           // node 0: all DRAM
constexpr Paddr kStraddleDram = 4 * kMiB + 8 * kKiB;  // node 2, below the boundary
constexpr Paddr kStraddleNvm = 5 * kMiB + 12 * kKiB;  // node 2, above it
constexpr Paddr kNvmAddr = 8 * kMiB + 100;            // node 4: all NVM
constexpr Paddr kZeroedPage = 9 * kMiB;               // written, then partly zeroed
constexpr Paddr kUntouchedPage = 10 * kMiB;           // only ever partly zeroed
constexpr Paddr kDirtyLine = 11 * kMiB + 64;          // explicit-flush line never flushed

uint64_t MinorFaults() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_minflt);
}

std::vector<uint8_t> Pattern(size_t n, uint8_t seed) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>((seed + i * 7) | 1);  // never zero
  }
  return v;
}

// Writes a pattern everywhere a dead instance can leave bytes behind.
void Scribble(PhysicalMemory& mem) {
  for (const Paddr at : {kDramAddr, kStraddleDram, kStraddleNvm, kNvmAddr}) {
    ASSERT_TRUE(mem.Write(at, Pattern(3 * kPageSize, static_cast<uint8_t>(at >> 12))).ok());
  }
  ASSERT_TRUE(mem.Write(kZeroedPage, Pattern(kPageSize, 9)).ok());
  ASSERT_TRUE(mem.Zero(kZeroedPage + 100, 200).ok());
  const uint64_t before = mem.materialized_pages();
  ASSERT_TRUE(mem.Zero(kUntouchedPage + 50, 100).ok());
  EXPECT_EQ(mem.materialized_pages(), before)
      << "a partial zero of a never-written page must not materialize it";
  ASSERT_TRUE(mem.Write(kDirtyLine, Pattern(64, 11)).ok());
  EXPECT_GT(mem.pending_nvm_lines(), 0u);
}

void ExpectAllZero(std::span<const uint8_t> bytes, const char* path) {
  for (size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] != 0) {
      ADD_FAILURE() << path << ": byte " << i << " reads " << int{bytes[i]};
      return;
    }
  }
}

TEST(PhysMemRecycleTest, NewInstanceReadsZeroOnEveryPath) {
  {
    SimContext ctx;
    PhysicalMemory first(&ctx, kDram, kNvm, PersistenceModel::kExplicitFlush);
    Scribble(first);
  }
  SimContext ctx;
  PhysicalMemory second(&ctx, kDram, kNvm, PersistenceModel::kExplicitFlush);
  EXPECT_EQ(second.materialized_pages(), 0u);
  EXPECT_EQ(second.pending_nvm_lines(), 0u);

  std::vector<uint8_t> all(second.total_bytes(), 0xff);
  ASSERT_TRUE(second.Read(0, all).ok());
  ExpectAllZero(all, "Read");
  std::fill(all.begin(), all.end(), 0xff);
  ASSERT_TRUE(second.ReadUncharged(0, all).ok());
  ExpectAllZero(all, "ReadUncharged");
  EXPECT_EQ(second.materialized_pages(), 0u);

  for (const Paddr at : {kDramAddr, kStraddleDram, kStraddleNvm, kNvmAddr, kZeroedPage,
                         kUntouchedPage, kDirtyLine}) {
    const Paddr page = AlignDown(at, kPageSize);
    // Nothing is live yet, so the fast path must decline...
    EXPECT_EQ(second.FastSpan(page, kPageSize, AccessType::kRead), nullptr);
    // ...and once one byte makes the page live, it exposes a zeroed slab.
    second.PokeByte(page, 0x5a);
    const uint8_t* span = second.FastSpan(page, kPageSize, AccessType::kRead);
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(span[0], 0x5a);
    ExpectAllZero(std::span<const uint8_t>(span + 1, kPageSize - 1), "FastSpan");
  }
}

TEST(PhysMemRecycleTest, CrashOnARecycledSlabDropsDramKeepsNvm) {
  {
    SimContext ctx;
    PhysicalMemory first(&ctx, kDram, kNvm, PersistenceModel::kExplicitFlush);
    Scribble(first);
  }
  SimContext ctx;
  PhysicalMemory mem(&ctx, kDram, kNvm);
  const std::vector<uint8_t> dram = Pattern(2 * kPageSize, 21);
  const std::vector<uint8_t> nvm = Pattern(2 * kPageSize, 22);
  for (const Paddr at : {kDramAddr, kStraddleDram}) {
    ASSERT_TRUE(mem.Write(at, dram).ok());
  }
  for (const Paddr at : {kStraddleNvm, kNvmAddr}) {
    ASSERT_TRUE(mem.Write(at, nvm).ok());
  }
  mem.DropVolatile();

  std::vector<uint8_t> out(dram.size());
  for (const Paddr at : {kDramAddr, kStraddleDram}) {
    ASSERT_TRUE(mem.Read(at, out).ok());
    ExpectAllZero(out, "DRAM after crash");
  }
  for (const Paddr at : {kStraddleNvm, kNvmAddr}) {
    ASSERT_TRUE(mem.Read(at, out).ok());
    EXPECT_EQ(out, nvm);
  }
  // The crash released the whole-DRAM node's slab; writing there again
  // takes it back, and only the new byte may read nonzero.
  mem.PokeByte(kDramAddr, 0x77);
  std::vector<uint8_t> page(kPageSize);
  ASSERT_TRUE(mem.Read(AlignDown(kDramAddr, kPageSize), page).ok());
  page[kDramAddr % kPageSize] = 0;
  ExpectAllZero(page, "DRAM page rewritten after crash");
}

TEST(PhysMemRecycleTest, SystemReadsZeroThroughAMappingAfterAnEarlierSystem) {
  SystemConfig config;
  config.machine.dram_bytes = 64 * kMiB;
  config.machine.nvm_bytes = 64 * kMiB;
  const uint64_t bytes = 1 * kMiB;
  auto run = [&](bool write) {
    System sys(config);
    auto seg = sys.fom().CreateSegment("/data/seg", bytes);
    ASSERT_TRUE(seg.ok());
    auto proc = sys.Launch(Backend::kFom);
    ASSERT_TRUE(proc.ok());
    auto va = sys.fom().Map((*proc)->fom(), *seg, Prot::kReadWrite);
    ASSERT_TRUE(va.ok());
    std::vector<uint8_t> got(bytes, 0xff);
    ASSERT_TRUE(sys.UserRead(**proc, *va, got).ok());
    ExpectAllZero(got, "UserRead of a fresh segment");
    if (write) {
      ASSERT_TRUE(sys.UserWrite(**proc, *va, Pattern(bytes, 31)).ok());
    }
  };
  run(/*write=*/true);
  run(/*write=*/false);
}

TEST(PhysMemRecycleTest, SecondInstanceTakesAFractionOfTheFaults) {
  // A corner of a large NVM that no other test writes, so the first
  // instance starts from freshly mapped slabs.
  constexpr uint64_t kSpan = 64 * kMiB;
  constexpr uint64_t kChunk = 1 * kMiB;
  const std::vector<uint8_t> chunk = Pattern(kChunk, 41);
  auto faults_to_fill = [&] {
    SimContext ctx;
    PhysicalMemory mem(&ctx, 64 * kMiB, 8 * kGiB);
    const Paddr base = mem.nvm_base() + 7 * kGiB;
    const uint64_t before = MinorFaults();
    for (uint64_t off = 0; off < kSpan; off += kChunk) {
      EXPECT_TRUE(mem.Write(base + off, chunk).ok());
    }
    return MinorFaults() - before;
  };
  const uint64_t first = faults_to_fill();
  const uint64_t second = faults_to_fill();
  ASSERT_GT(first, 0u) << "the first fill should map fresh slabs";
  EXPECT_LT(second * 10, first) << "first " << first << " faults, second " << second;
}

#if defined(__SANITIZE_ADDRESS__)
TEST(PhysMemRecycleTest, DeadInstanceFramesStayPoisonedUnderAsan) {
  const uint8_t* stale = nullptr;
  {
    SimContext ctx;
    PhysicalMemory mem(&ctx, kDram, kNvm);
    mem.PokeByte(kNvmAddr, 1);
    stale = mem.FastSpan(kNvmAddr, 1, AccessType::kRead);
    ASSERT_NE(stale, nullptr);
    EXPECT_FALSE(__asan_address_is_poisoned(stale));
  }
  EXPECT_TRUE(__asan_address_is_poisoned(stale));
  EXPECT_DEATH({ [[maybe_unused]] volatile uint8_t v = *stale; }, "use-after-poison");
}
#endif

}  // namespace
}  // namespace o1mem
