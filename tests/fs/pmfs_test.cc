#include "src/fs/pmfs.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/support/crc32.h"

namespace o1mem {
namespace {

class PmfsTest : public ::testing::Test {
 protected:
  PmfsTest()
      : machine_(MachineConfig{.dram_bytes = 16 * kMiB, .nvm_bytes = 64 * kMiB}),
        fs_(&machine_, machine_.phys().nvm_base(), 64 * kMiB) {}

  Machine machine_;
  Pmfs fs_;
};

TEST_F(PmfsTest, CreateResizeAllocatesExtentsEagerly) {
  auto id = fs_.Create("/data", FileFlags{.persistent = true});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_.Resize(*id, 4 * kMiB).ok());
  auto st = fs_.Stat(*id);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 4 * kMiB);
  EXPECT_EQ(st->allocated_bytes, 4 * kMiB);
  // Fresh fs: one contiguous extent.
  EXPECT_EQ(st->extent_count, 1u);
}

TEST_F(PmfsTest, WriteReadRoundTripInNvm) {
  auto id = fs_.Create("/rt", FileFlags{.persistent = true});
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> data(3 * kPageSize + 17);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>((i * 31) % 255);
  }
  ASSERT_TRUE(fs_.WriteAt(*id, 1000, data).ok());
  std::vector<uint8_t> out(data.size());
  auto read = fs_.ReadAt(*id, 1000, out);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(out, data);
  // Backing is in the NVM tier.
  auto extents = fs_.Extents(*id);
  ASSERT_TRUE(extents.ok());
  ASSERT_FALSE(extents->empty());
  EXPECT_EQ(machine_.phys().TierOf(extents->front().paddr), MemTier::kNvm);
}

TEST_F(PmfsTest, EagerZeroClearsRecycledBlocks) {
  auto a = fs_.Create("/a", FileFlags{});
  ASSERT_TRUE(a.ok());
  std::vector<uint8_t> junk(kMiB, 0xAB);
  ASSERT_TRUE(fs_.WriteAt(*a, 0, junk).ok());
  ASSERT_TRUE(fs_.Unlink("/a").ok());
  // New file reuses the same blocks; must read zero.
  auto b = fs_.Create("/b", FileFlags{});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(fs_.Resize(*b, kMiB).ok());
  std::vector<uint8_t> out(4096, 0xff);
  ASSERT_TRUE(fs_.ReadAt(*b, 0, out).ok());
  for (uint8_t byte : out) {
    EXPECT_EQ(byte, 0);
  }
}

TEST_F(PmfsTest, TruncateShrinksAndFreesBlocks) {
  auto id = fs_.Create("/t", FileFlags{});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_.Resize(*id, 2 * kMiB).ok());
  const uint64_t free_before = fs_.free_bytes();
  ASSERT_TRUE(fs_.Resize(*id, kMiB).ok());
  EXPECT_EQ(fs_.free_bytes(), free_before + kMiB);
  EXPECT_EQ(fs_.Stat(*id)->size, kMiB);
}

TEST_F(PmfsTest, FragmentedFsBuildsMultiExtentFiles) {
  // Carve holes: alloc a, b, c, free b, then grow d beyond hole size.
  auto a = fs_.Create("/a", FileFlags{});
  auto b = fs_.Create("/b", FileFlags{});
  auto c = fs_.Create("/c", FileFlags{});
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(fs_.Resize(*a, 15 * kMiB).ok());
  ASSERT_TRUE(fs_.Resize(*b, 15 * kMiB).ok());
  // c is sized so the free tail after it (~17.9 MiB of the ~63.9 MiB
  // quota) cannot hold d contiguously; d must span the hole and the tail.
  ASSERT_TRUE(fs_.Resize(*c, 16 * kMiB).ok());
  ASSERT_TRUE(fs_.Unlink("/b").ok());
  auto d = fs_.Create("/d", FileFlags{});
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(fs_.Resize(*d, 18 * kMiB).ok());  // 15 MiB hole + 3 MiB tail
  auto st = fs_.Stat(*d);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->allocated_bytes, 18 * kMiB);
  EXPECT_GE(st->extent_count, 2u);
  // Data still round-trips across the extent seam.
  std::vector<uint8_t> data(kMiB, 0x5c);
  ASSERT_TRUE(fs_.WriteAt(*d, 15 * kMiB - kMiB / 2, data).ok());
  std::vector<uint8_t> out(kMiB);
  ASSERT_TRUE(fs_.ReadAt(*d, 15 * kMiB - kMiB / 2, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(PmfsTest, OutOfSpaceReported) {
  auto id = fs_.Create("/huge", FileFlags{});
  ASSERT_TRUE(id.ok());
  auto s = fs_.Resize(*id, 100 * kMiB);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfMemory);
}

TEST_F(PmfsTest, PersistentFileSurvivesCrash) {
  auto id = fs_.Create("/keep", FileFlags{.persistent = true});
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> data(2 * kPageSize);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i % 100);
  }
  ASSERT_TRUE(fs_.WriteAt(*id, 0, data).ok());
  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  auto found = fs_.LookupPath("/keep");
  ASSERT_TRUE(found.ok());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(fs_.ReadAt(*found, 0, out).ok());
  EXPECT_EQ(out, data);  // NVM contents survived the crash
}

TEST_F(PmfsTest, VolatileFileDroppedAtRecovery) {
  auto keep = fs_.Create("/keep", FileFlags{.persistent = true});
  auto temp = fs_.Create("/temp", FileFlags{.persistent = false});
  ASSERT_TRUE(keep.ok() && temp.ok());
  ASSERT_TRUE(fs_.Resize(*temp, 8 * kMiB).ok());
  const uint64_t free_before_crash = fs_.free_bytes();
  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  EXPECT_TRUE(fs_.LookupPath("/keep").ok());
  EXPECT_FALSE(fs_.LookupPath("/temp").ok());
  EXPECT_EQ(fs_.free_bytes(), free_before_crash + 8 * kMiB);
}

TEST_F(PmfsTest, SetPersistentFlipsSurvival) {
  auto id = fs_.Create("/flip", FileFlags{.persistent = false});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_.WriteAt(*id, 0, std::vector<uint8_t>(10, 3)).ok());
  ASSERT_TRUE(fs_.SetPersistent(*id, true).ok());
  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  EXPECT_TRUE(fs_.LookupPath("/flip").ok());
}

TEST_F(PmfsTest, OpenAndMapRefsClearedByCrash) {
  auto id = fs_.Create("/refs", FileFlags{.persistent = true});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_.AddOpenRef(*id).ok());
  ASSERT_TRUE(fs_.AddMapRef(*id).ok());
  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  auto st = fs_.Stat(*fs_.LookupPath("/refs"));
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->open_count, 0u);
  EXPECT_EQ(st->map_count, 0u);
}

TEST_F(PmfsTest, TornAllocationReclaimedAtRecovery) {
  const uint64_t free_before = fs_.free_bytes();
  ASSERT_TRUE(fs_.LeakBlocksForTest(100).ok());
  EXPECT_EQ(fs_.free_bytes(), free_before - 100 * kPageSize);
  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  EXPECT_EQ(fs_.free_bytes(), free_before);
  EXPECT_TRUE(fs_.VerifyIntegrity().ok());
}

TEST_F(PmfsTest, JournalGrowsWithMetadataOpsAndResetsAtRecovery) {
  const uint64_t before = fs_.journal_records();
  auto id = fs_.Create("/j", FileFlags{.persistent = true});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_.Resize(*id, kMiB).ok());
  EXPECT_GT(fs_.journal_records(), before);
  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  EXPECT_EQ(fs_.journal_records(), 0u);
}

TEST_F(PmfsTest, IntegrityVerificationPasses) {
  auto a = fs_.Create("/a", FileFlags{});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(fs_.Resize(*a, 3 * kMiB).ok());
  EXPECT_TRUE(fs_.VerifyIntegrity().ok());
}

TEST_F(PmfsTest, DaxBackingPageInsideExtent) {
  auto id = fs_.Create("/dax", FileFlags{});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_.Resize(*id, kMiB).ok());
  auto p0 = fs_.GetBackingPage(*id, 0, false);
  auto p1 = fs_.GetBackingPage(*id, 5 * kPageSize, false);
  ASSERT_TRUE(p0.ok() && p1.ok());
  EXPECT_EQ(p1.value() - p0.value(), 5 * kPageSize);  // contiguous extent
  EXPECT_FALSE(fs_.GetBackingPage(*id, 2 * kMiB, false).ok());
}

// What a crash must preserve about the persistent files: per path, the
// inode's Stat fields and its extent list.
std::map<std::string, std::string> PersistentFiles(Pmfs& fs) {
  std::map<std::string, std::string> out;
  for (const std::string& path : fs.ListPaths()) {
    auto id = fs.LookupPath(path);
    EXPECT_TRUE(id.ok()) << path;
    auto st = fs.Stat(*id);
    auto extents = fs.Extents(*id);
    EXPECT_TRUE(st.ok() && extents.ok()) << path;
    if (!st->persistent) {
      continue;
    }
    std::string s = "id=" + std::to_string(st->id) + " size=" + std::to_string(st->size) +
                    " alloc=" + std::to_string(st->allocated_bytes) +
                    " discardable=" + std::to_string(st->discardable) +
                    " links=" + std::to_string(st->link_count) +
                    " quarantined=" + std::to_string(st->quarantined) + " extents:";
    for (const FileExtentView& e : *extents) {
      s += " [" + std::to_string(e.file_offset) + "," + std::to_string(e.paddr) + "," +
           std::to_string(e.bytes) + "]";
    }
    out[path] = s;
  }
  return out;
}

uint32_t SlotCrc(Machine& machine, Paddr slot_base, uint64_t bytes) {
  std::vector<uint8_t> buf(bytes);
  EXPECT_TRUE(machine.phys().ReadUncharged(slot_base, buf).ok());
  return Crc32(buf);
}

// Every journal record kind goes through a crash twice: the first recovery
// replays the live journal (slot 0), the second the checkpoint snapshot the
// first one compacted into slot 1. Both must rebuild the same persistent
// files, hard links and multi-extent layouts included.
TEST_F(PmfsTest, ReplayReproducesEveryRecordKind) {
  ASSERT_TRUE(fs_.Mkdir("/dir").ok());
  ASSERT_TRUE(fs_.Mkdir("/gone").ok());
  ASSERT_TRUE(fs_.Rmdir("/gone").ok());
  // Fragment free space so /frag must span a hole and the tail.
  auto a = fs_.Create("/a", FileFlags{.persistent = true});
  auto b = fs_.Create("/b", FileFlags{.persistent = true});
  auto c = fs_.Create("/dir/c", FileFlags{.persistent = true});
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(fs_.Resize(*a, 15 * kMiB).ok());
  ASSERT_TRUE(fs_.Resize(*b, 15 * kMiB).ok());
  ASSERT_TRUE(fs_.Resize(*c, 16 * kMiB).ok());
  ASSERT_TRUE(fs_.Unlink("/b").ok());
  auto frag = fs_.Create("/frag", FileFlags{.persistent = true});
  ASSERT_TRUE(frag.ok());
  ASSERT_TRUE(fs_.Resize(*frag, 18 * kMiB).ok());
  ASSERT_GE(fs_.Stat(*frag)->extent_count, 2u);
  ASSERT_TRUE(fs_.Resize(*a, 3 * kMiB + 100).ok());  // shrink to a mid-page size
  auto single = fs_.Create("/single", FileFlags{.persistent = true});
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(fs_.ResizeSingleExtent(*single, kMiB).ok());
  auto disc = fs_.Create("/disc", FileFlags{.persistent = true, .discardable = true});
  ASSERT_TRUE(disc.ok());
  ASSERT_TRUE(fs_.Resize(*disc, 64 * kKiB).ok());
  ASSERT_TRUE(fs_.Link("/disc", "/dir/disc2").ok());
  ASSERT_TRUE(fs_.Unlink("/disc").ok());  // the second name keeps the inode
  auto temp = fs_.Create("/temp", FileFlags{});
  ASSERT_TRUE(temp.ok());
  ASSERT_TRUE(fs_.Resize(*temp, kMiB).ok());
  ASSERT_TRUE(fs_.Link("/temp", "/temp-link").ok());  // torn down by both names
  auto flip = fs_.Create("/flip", FileFlags{});
  ASSERT_TRUE(flip.ok());
  ASSERT_TRUE(fs_.SetPersistent(*flip, true).ok());
  auto unflip = fs_.Create("/unflip", FileFlags{.persistent = true});
  ASSERT_TRUE(unflip.ok());
  ASSERT_TRUE(fs_.SetPersistent(*unflip, false).ok());
  ASSERT_TRUE(fs_.Rename("/dir/c", "/dir/c2").ok());
  ASSERT_TRUE(fs_.Link("/frag", "/dir/frag-link").ok());

  const auto expected = PersistentFiles(fs_);
  ASSERT_EQ(expected.size(), 7u);
  EXPECT_EQ(fs_.checkpoint_count(), 0u);

  // These values pin the on-NVM journal format: any change to a record's
  // layout, header or padding changes the bytes of both slots.
  const Paddr slot0 = machine_.phys().nvm_base() + kPageSize;
  const Paddr slot1 = slot0 + fs_.journal_slot_bytes();
  EXPECT_EQ(fs_.journal_tail_bytes(), 1584u);
  EXPECT_EQ(SlotCrc(machine_, slot0, fs_.journal_tail_bytes()), 3239211997u);

  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  EXPECT_EQ(PersistentFiles(fs_), expected);
  EXPECT_EQ(fs_.ListPaths().size(), expected.size());
  EXPECT_TRUE(fs_.List("/dir").ok());
  EXPECT_FALSE(fs_.List("/gone").ok());
  EXPECT_TRUE(fs_.VerifyIntegrity().ok());
  EXPECT_EQ(fs_.journal_tail_bytes(), 928u);
  EXPECT_EQ(SlotCrc(machine_, slot1, fs_.journal_tail_bytes()), 3032971128u);

  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  EXPECT_EQ(PersistentFiles(fs_), expected);
  EXPECT_EQ(fs_.ListPaths().size(), expected.size());
  EXPECT_TRUE(fs_.List("/dir").ok());
  EXPECT_FALSE(fs_.List("/gone").ok());
  EXPECT_TRUE(fs_.VerifyIntegrity().ok());
}

class PmfsZeroEpochTest : public ::testing::Test {
 protected:
  PmfsZeroEpochTest()
      : machine_(MachineConfig{.dram_bytes = 16 * kMiB, .nvm_bytes = 64 * kMiB}),
        fs_(&machine_, machine_.phys().nvm_base(), 64 * kMiB, ZeroPolicy::kZeroEpoch) {}

  Machine machine_;
  Pmfs fs_;
};

TEST_F(PmfsZeroEpochTest, RecycledBlocksStillReadZero) {
  auto a = fs_.Create("/a", FileFlags{});
  ASSERT_TRUE(a.ok());
  std::vector<uint8_t> junk(kMiB, 0xAB);
  ASSERT_TRUE(fs_.WriteAt(*a, 0, junk).ok());
  ASSERT_TRUE(fs_.Unlink("/a").ok());
  auto b = fs_.Create("/b", FileFlags{});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(fs_.Resize(*b, kMiB).ok());
  std::vector<uint8_t> out(kPageSize, 0xff);
  ASSERT_TRUE(fs_.ReadAt(*b, kPageSize * 3, out).ok());
  for (uint8_t byte : out) {
    EXPECT_EQ(byte, 0);
  }
}

TEST_F(PmfsZeroEpochTest, AllocationIsMuchCheaperThanEagerZero) {
  Machine eager_machine(MachineConfig{.dram_bytes = 16 * kMiB, .nvm_bytes = 64 * kMiB});
  Pmfs eager(&eager_machine, eager_machine.phys().nvm_base(), 64 * kMiB,
             ZeroPolicy::kEagerZero);
  auto e = eager.Create("/e", FileFlags{});
  ASSERT_TRUE(e.ok());
  const uint64_t t0 = eager_machine.ctx().now();
  ASSERT_TRUE(eager.Resize(*e, 32 * kMiB).ok());
  const uint64_t eager_cost = eager_machine.ctx().now() - t0;

  auto z = fs_.Create("/z", FileFlags{});
  ASSERT_TRUE(z.ok());
  const uint64_t t1 = machine_.ctx().now();
  ASSERT_TRUE(fs_.Resize(*z, 32 * kMiB).ok());
  const uint64_t epoch_cost = machine_.ctx().now() - t1;
  EXPECT_GT(eager_cost, 50 * epoch_cost);
}

// --- Volatile (O_TMPFILE-style) inodes -----------------------------------

TEST_F(PmfsTest, VolatileInodeLivesByRefsAndDiesWithLast) {
  const uint64_t free_before = fs_.free_bytes();
  auto id = fs_.CreateVolatile(FileFlags{});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_.AddMapRef(*id).ok());
  ASSERT_TRUE(fs_.Resize(*id, 2 * kMiB).ok());
  EXPECT_LT(fs_.free_bytes(), free_before);
  std::vector<uint8_t> data(4096, 0xAB);
  ASSERT_TRUE(fs_.WriteAt(*id, 0, data).ok());
  ASSERT_TRUE(fs_.DropMapRef(*id).ok());
  // Last reference gone: blocks return to the bitmap.
  EXPECT_EQ(fs_.free_bytes(), free_before);
  EXPECT_FALSE(fs_.Stat(*id).ok());
}

TEST_F(PmfsTest, VolatileInodeCannotBecomePersistent) {
  auto id = fs_.CreateVolatile(FileFlags{});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_.AddMapRef(*id).ok());
  EXPECT_EQ(fs_.SetPersistent(*id, true).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(fs_.DropMapRef(*id).ok());
}

TEST_F(PmfsTest, VolatileInodeVanishesOnCrashAndFreesBlocks) {
  const uint64_t free_before = fs_.free_bytes();
  auto id = fs_.CreateVolatile(FileFlags{});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_.AddMapRef(*id).ok());
  ASSERT_TRUE(fs_.Resize(*id, 4 * kMiB).ok());
  // A persistent neighbor proves the bitmap rebuild keeps owned blocks.
  auto keeper = fs_.Create("/keeper", FileFlags{.persistent = true});
  ASSERT_TRUE(keeper.ok());
  ASSERT_TRUE(fs_.Resize(*keeper, kMiB).ok());
  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  // The volatile inode is gone; its blocks are free again; the persistent
  // file survived with its allocation intact.
  EXPECT_FALSE(fs_.Stat(*id).ok());
  auto kept = fs_.LookupPath("/keeper");
  ASSERT_TRUE(kept.ok());
  auto st = fs_.Stat(*kept);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->allocated_bytes, kMiB);
  EXPECT_EQ(fs_.free_bytes(), free_before - kMiB);
}

TEST_F(PmfsZeroEpochTest, WritesLandAfterLazyZero) {
  auto id = fs_.Create("/w", FileFlags{});
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> data(100, 0x11);
  ASSERT_TRUE(fs_.WriteAt(*id, 50, data).ok());
  std::vector<uint8_t> out(200);
  ASSERT_TRUE(fs_.ReadAt(*id, 0, out).ok());
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(out[i], 0) << i;  // lazily zeroed prefix
  }
  for (size_t i = 50; i < 150; ++i) {
    EXPECT_EQ(out[i], 0x11) << i;
  }
}

}  // namespace
}  // namespace o1mem
