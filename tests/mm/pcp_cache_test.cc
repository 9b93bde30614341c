// Per-CPU frame caches and the pre-zeroed pool (SmpConfig::percpu_frame_cache
// / prezero_pool). Correctness obligations: a zero=true alloc must ALWAYS
// hand back an all-zero frame whatever path served it (buddy, pcp recycle,
// or background pool); free_bytes must count frames wherever they sit; and
// the whole apparatus must be deterministic and invisible when disabled.
#include "src/mm/phys_manager.h"

#include <gtest/gtest.h>

#include <vector>

namespace o1mem {
namespace {

MachineConfig SmpMachineConfig(int cpus, bool pcp, bool prezero) {
  MachineConfig config{.dram_bytes = 32 * kMiB, .nvm_bytes = 32 * kMiB};
  config.smp.num_cpus = cpus;
  config.smp.percpu_frame_cache = pcp;
  config.smp.prezero_pool = prezero;
  config.smp.prezero_target_frames = 256;
  return config;
}

bool FrameIsZero(Machine& m, Paddr frame) {
  std::vector<uint8_t> buf(kPageSize);
  if (!m.phys().ReadUncharged(frame, buf).ok()) {
    return false;
  }
  for (uint8_t b : buf) {
    if (b != 0) {
      return false;
    }
  }
  return true;
}

TEST(PcpCacheTest, DisabledCacheUsesBuddyDirectly) {
  Machine m(SmpMachineConfig(1, /*pcp=*/false, /*prezero=*/false));
  PhysManager mgr(&m);
  ASSERT_TRUE(mgr.AllocFrame(/*zero=*/false).ok());
  EXPECT_EQ(m.ctx().counters().frames_from_buddy, 1u);
  EXPECT_EQ(m.ctx().counters().frames_from_pcp, 0u);
  EXPECT_EQ(mgr.cpu_cache_frames(0), 0u);
  EXPECT_EQ(mgr.prezero_pool_frames(), 0u);
}

TEST(PcpCacheTest, CacheServesAtLeastNinetyPercentOfAllocs) {
  Machine m(SmpMachineConfig(2, /*pcp=*/true, /*prezero=*/false));
  PhysManager mgr(&m);
  constexpr int kAllocs = 64;
  for (int i = 0; i < kAllocs; ++i) {
    ASSERT_TRUE(mgr.AllocFrame(/*zero=*/false).ok());
  }
  const EventCounters& c = m.ctx().counters();
  EXPECT_EQ(c.frames_from_pcp + c.frames_from_buddy, static_cast<uint64_t>(kAllocs));
  // One buddy batch-refill per kPcpBatch allocs: 60/64 served by the cache.
  EXPECT_GE(static_cast<double>(c.frames_from_pcp) / kAllocs, 0.90);
}

TEST(PcpCacheTest, RecycledDirtyFrameIsZeroedOnZeroAlloc) {
  Machine m(SmpMachineConfig(2, /*pcp=*/true, /*prezero=*/false));
  PhysManager mgr(&m);
  auto frame = mgr.AllocFrame(/*zero=*/false);
  ASSERT_TRUE(frame.ok());
  const std::vector<uint8_t> garbage(kPageSize, 0xab);
  ASSERT_TRUE(m.phys().WriteUncharged(*frame, garbage).ok());
  ASSERT_TRUE(mgr.FreeFrame(*frame).ok());
  // The pcp free list is LIFO, so the very next alloc recycles this frame.
  auto again = mgr.AllocFrame(/*zero=*/true);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *frame);
  EXPECT_TRUE(FrameIsZero(m, *again));
}

TEST(PcpCacheTest, PrezeroPoolServesZeroedFramesOffCriticalPath) {
  Machine m(SmpMachineConfig(2, /*pcp=*/true, /*prezero=*/true));
  PhysManager mgr(&m);
  auto frame = mgr.AllocFrame(/*zero=*/true);
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE(FrameIsZero(m, *frame));
  const EventCounters& c = m.ctx().counters();
  EXPECT_EQ(c.prezero_hits, 1u);
  EXPECT_EQ(c.prezero_misses, 0u);
  // Pool replenish (buddy ops + memset) booked off the simulated clock.
  EXPECT_GT(mgr.background_zero_cycles(), 0u);
  EXPECT_GT(mgr.prezero_pool_frames(), 0u);
}

TEST(PcpCacheTest, DirtyFreeNeverLeaksIntoZeroAllocWithPoolOn) {
  Machine m(SmpMachineConfig(2, /*pcp=*/true, /*prezero=*/true));
  PhysManager mgr(&m);
  // Dirty a few frames and free them into the pcp; every subsequent zeroed
  // alloc must still come back all-zero (from the pool or inline-zeroed).
  std::vector<Paddr> dirty;
  for (int i = 0; i < 8; ++i) {
    auto f = mgr.AllocFrame(/*zero=*/false);
    ASSERT_TRUE(f.ok());
    const std::vector<uint8_t> garbage(kPageSize, 0xcd);
    ASSERT_TRUE(m.phys().WriteUncharged(*f, garbage).ok());
    dirty.push_back(*f);
  }
  for (Paddr f : dirty) {
    ASSERT_TRUE(mgr.FreeFrame(f).ok());
  }
  for (int i = 0; i < 16; ++i) {
    auto f = mgr.AllocFrame(/*zero=*/true);
    ASSERT_TRUE(f.ok());
    EXPECT_TRUE(FrameIsZero(m, *f)) << "alloc " << i;
  }
}

TEST(PcpCacheTest, FreeBytesCountsCachesAndPool) {
  Machine m(SmpMachineConfig(2, /*pcp=*/true, /*prezero=*/true));
  PhysManager mgr(&m);
  const uint64_t initial = mgr.free_bytes();
  EXPECT_EQ(initial, 32 * kMiB);
  std::vector<Paddr> held;
  for (int i = 0; i < 40; ++i) {
    auto f = mgr.AllocFrame(/*zero=*/(i % 2) == 0);
    ASSERT_TRUE(f.ok());
    held.push_back(*f);
  }
  // Allocated frames are the only ones missing; pcp stock and the pre-zero
  // pool still count as free.
  EXPECT_EQ(mgr.free_bytes(), initial - held.size() * kPageSize);
  for (Paddr f : held) {
    ASSERT_TRUE(mgr.FreeFrame(f).ok());
  }
  EXPECT_EQ(mgr.free_bytes(), initial);
}

TEST(PcpCacheTest, HighWatermarkDrainsBackToBuddy) {
  Machine m(SmpMachineConfig(2, /*pcp=*/true, /*prezero=*/false));
  PhysManager mgr(&m);
  const int over = PhysManager::kPcpHighWatermark + 8;
  std::vector<Paddr> held;
  for (int i = 0; i < over; ++i) {
    auto f = mgr.AllocFrame(/*zero=*/false);
    ASSERT_TRUE(f.ok());
    held.push_back(*f);
  }
  for (Paddr f : held) {
    ASSERT_TRUE(mgr.FreeFrame(f).ok());
  }
  EXPECT_LE(mgr.cpu_cache_frames(0),
            static_cast<size_t>(PhysManager::kPcpHighWatermark));
}

TEST(PcpCacheTest, ReplenishLeavesBuddyReserve) {
  MachineConfig config = SmpMachineConfig(2, /*pcp=*/true, /*prezero=*/true);
  config.dram_bytes = 8 * kMiB;  // 2048 frames; target 256 fits, reserve 512
  config.smp.prezero_target_frames = 4096;  // asks for more than DRAM holds
  Machine m(config);
  PhysManager mgr(&m);
  mgr.ReplenishPrezeroPool();
  EXPECT_GT(mgr.prezero_pool_frames(), 0u);
  // The guard is checked per batch, so the floor is reserve minus one batch.
  const uint64_t reserve = mgr.buddy().total_bytes() / 4;
  const uint64_t batch_bytes =
      static_cast<uint64_t>(PhysManager::kPcpBatch) * kPageSize;
  EXPECT_GE(mgr.buddy().free_bytes() + batch_bytes, reserve);
}

TEST(PcpCacheTest, PerCpuCachesAreIndependent) {
  Machine m(SmpMachineConfig(2, /*pcp=*/true, /*prezero=*/false));
  PhysManager mgr(&m);
  auto f = mgr.AllocFrame(/*zero=*/false);  // refills CPU 0's cache
  ASSERT_TRUE(f.ok());
  EXPECT_GT(mgr.cpu_cache_frames(0), 0u);
  EXPECT_EQ(mgr.cpu_cache_frames(1), 0u);
  m.ctx().SetCurrentCpu(1);
  ASSERT_TRUE(mgr.FreeFrame(*f).ok());  // lands in CPU 1's cache
  EXPECT_EQ(mgr.cpu_cache_frames(1), 1u);
}

TEST(PcpCacheTest, AllocSequenceIsDeterministic) {
  auto run = [] {
    Machine m(SmpMachineConfig(4, /*pcp=*/true, /*prezero=*/true));
    PhysManager mgr(&m);
    for (int i = 0; i < 128; ++i) {
      m.ctx().SetCurrentCpu(i % 4);
      auto f = mgr.AllocFrame(/*zero=*/(i % 3) == 0);
      O1_CHECK(f.ok());
      if (i % 5 == 0) {
        O1_CHECK(mgr.FreeFrame(*f).ok());
      }
    }
    std::vector<uint64_t> cycles;
    for (int cpu = 0; cpu < 4; ++cpu) {
      cycles.push_back(m.ctx().cpu_cycles(cpu));
    }
    cycles.push_back(m.ctx().now());
    cycles.push_back(mgr.background_zero_cycles());
    return cycles;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace o1mem
