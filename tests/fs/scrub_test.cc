// Scrub() and degraded-mount behaviour under injected media faults: healing
// transient poison, retiring worn-out lines, quarantining damaged files,
// and degrading (then repairing) the mount when the journal area itself is
// hit. The overarching invariant: media errors surface as kMediaError
// statuses, never as aborts.
#include <gtest/gtest.h>

#include <array>
#include <span>
#include <vector>

#include "src/fs/pmfs.h"
#include "src/support/crc32.h"
#include "src/support/le_bytes.h"

namespace o1mem {
namespace {

class ScrubTest : public ::testing::Test {
 protected:
  ScrubTest()
      : machine_(MachineConfig{.dram_bytes = 16 * kMiB, .nvm_bytes = 64 * kMiB}),
        fs_(&machine_, machine_.phys().nvm_base(), 64 * kMiB) {}

  FaultInjector& fi() { return machine_.fault_injector(); }
  Paddr region_base() { return machine_.phys().nvm_base(); }

  // First data-area paddr (past superblock + both journal slots).
  Paddr DataBase() {
    const uint64_t meta_bytes = 64 * kMiB - fs_.quota_bytes();
    return region_base() + meta_bytes;
  }

  // Paddr of the file's first data byte.
  Paddr FirstExtent(InodeId id) {
    auto extents = fs_.Extents(id);
    O1_CHECK(extents.ok() && !extents->empty());
    return extents->front().paddr;
  }

  Machine machine_;
  Pmfs fs_;
};

TEST_F(ScrubTest, CleanFilesystemScrubsClean) {
  auto id = fs_.Create("/a", FileFlags{.persistent = true});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_.WriteAt(*id, 0, std::vector<uint8_t>(kPageSize, 1)).ok());
  auto report = fs_.Scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->degraded);
  EXPECT_EQ(report->files_quarantined, 0u);
  EXPECT_EQ(report->media_errors_found, 0u);
  EXPECT_EQ(report->bad_blocks_retired, 0u);
  EXPECT_GT(report->journal_records_checked, 0u);
  EXPECT_TRUE(fs_.VerifyIntegrity().ok());
  EXPECT_EQ(fs_.mount_mode(), MountMode::kReadWrite);
}

TEST_F(ScrubTest, MediaErrorReadsReturnStatusNotAbort) {
  auto id = fs_.Create("/f", FileFlags{.persistent = true});
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> data(2 * kPageSize, 0xCD);
  ASSERT_TRUE(fs_.WriteAt(*id, 0, data).ok());

  fi().MarkUnreadable(FirstExtent(*id) + 128, /*sticky=*/false);
  std::vector<uint8_t> out(2 * kPageSize);
  auto read = fs_.ReadAt(*id, 0, out);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kMediaError);
  // A read that misses the poisoned page still succeeds.
  EXPECT_TRUE(fs_.ReadAt(*id, kPageSize, std::span(out).subspan(0, kPageSize)).ok());
}

TEST_F(ScrubTest, TransientPoisonInFreeSpaceIsHealed) {
  fi().MarkUnreadable(DataBase() + 4 * kPageSize + 64, /*sticky=*/false);
  const uint64_t free_before = fs_.free_bytes();
  auto report = fs_.Scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->media_errors_found, 1u);
  EXPECT_EQ(report->blocks_repaired, 1u);
  EXPECT_EQ(report->bad_blocks_retired, 0u);
  EXPECT_FALSE(report->degraded);
  EXPECT_FALSE(fi().has_poison());           // the rewrite healed the line
  EXPECT_EQ(fs_.free_bytes(), free_before);  // no capacity lost
}

TEST_F(ScrubTest, StickyPoisonInFreeSpaceIsRetired) {
  fi().MarkUnreadable(DataBase() + 4 * kPageSize, /*sticky=*/true);
  const uint64_t free_before = fs_.free_bytes();
  auto report = fs_.Scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->media_errors_found, 1u);
  EXPECT_EQ(report->bad_blocks_retired, 1u);
  EXPECT_FALSE(report->degraded);
  // The worn-out block is fenced off: capacity shrinks by one block and the
  // bitmap never hands it out again.
  EXPECT_EQ(fs_.free_bytes(), free_before - kPageSize);
  EXPECT_TRUE(fs_.VerifyIntegrity().ok());

  // Retirement is remembered by later scrubs and recoveries.
  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  EXPECT_EQ(fs_.free_bytes(), free_before - kPageSize);
}

TEST_F(ScrubTest, StickyPoisonInFileDataQuarantinesTheFile) {
  auto bad = fs_.Create("/bad", FileFlags{.persistent = true});
  auto good = fs_.Create("/good", FileFlags{.persistent = true});
  ASSERT_TRUE(bad.ok() && good.ok());
  ASSERT_TRUE(fs_.WriteAt(*bad, 0, std::vector<uint8_t>(kPageSize, 0xAA)).ok());
  std::vector<uint8_t> good_data(kPageSize, 0xBB);
  ASSERT_TRUE(fs_.WriteAt(*good, 0, good_data).ok());

  fi().MarkUnreadable(FirstExtent(*bad) + 512, /*sticky=*/true);
  auto report = fs_.Scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->files_quarantined, 1u);
  EXPECT_FALSE(report->degraded);

  // The damaged file is isolated: stat says so, reads and writes fail with
  // kMediaError, and nothing aborts.
  auto st = fs_.Stat(*bad);
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->quarantined);
  std::vector<uint8_t> out(64);
  EXPECT_EQ(fs_.ReadAt(*bad, 0, out).status().code(), StatusCode::kMediaError);
  EXPECT_FALSE(fs_.WriteAt(*bad, 0, out).ok());

  // The healthy neighbour is untouched and the fs stays writable.
  std::vector<uint8_t> good_out(kPageSize);
  ASSERT_TRUE(fs_.ReadAt(*good, 0, good_out).ok());
  EXPECT_EQ(good_out, good_data);
  EXPECT_TRUE(fs_.VerifyIntegrity().ok());
  EXPECT_EQ(fs_.mount_mode(), MountMode::kReadWrite);

  // Quarantine survives a crash (it is journaled with the file).
  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  auto found = fs_.LookupPath("/bad");
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(fs_.Stat(*found)->quarantined);
  EXPECT_TRUE(fs_.LookupPath("/good").ok());
}

// Two files claim one block: recovery keeps it with the lower inode id and
// quarantines the other file whole; a later patrol that finds the block
// poisoned must blame the file the bitmap keeps it for.
TEST_F(ScrubTest, ContestedBlockGoesToLowestIdAndPatrolBlamesThatOwner) {
  auto a = fs_.Create("/a", FileFlags{.persistent = true});
  auto b = fs_.Create("/b", FileFlags{.persistent = true});
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_LT(*a, *b);
  ASSERT_TRUE(fs_.Resize(*a, kPageSize).ok());
  ASSERT_TRUE(fs_.Resize(*b, kPageSize).ok());
  ASSERT_EQ(fs_.checkpoint_count(), 0u);  // slot 0 is still the active one
  const Paddr a_block = FirstExtent(*a);

  // Forge a CRC-valid kAllocExtent record that maps /a's block into /b at
  // file offset one page (past /b's own page). Layout: len u32, crc u32,
  // generation u64, op u8, padded to 24 B; then inode, file_offset, block,
  // blocks as u64. The CRC covers the record with its crc field zeroed.
  const Paddr slot0 = region_base() + kPageSize;
  std::array<uint8_t, 8> generation{};  // the slot's, from its first record
  ASSERT_TRUE(machine_.phys().ReadUncharged(slot0 + 8, generation).ok());
  std::vector<uint8_t> rec(56, 0);
  StoreLe<uint32_t>(rec.data(), static_cast<uint32_t>(rec.size()));
  std::copy(generation.begin(), generation.end(), rec.begin() + 8);
  rec[16] = 5;  // kAllocExtent
  StoreLe<uint64_t>(rec.data() + 24, *b);
  StoreLe<uint64_t>(rec.data() + 32, kPageSize);
  StoreLe<uint64_t>(rec.data() + 40, (a_block - region_base()) >> kPageShift);
  StoreLe<uint64_t>(rec.data() + 48, 1);
  StoreLe<uint32_t>(rec.data() + 4, Crc32(rec));
  const Paddr tail = slot0 + fs_.journal_tail_bytes();
  ASSERT_TRUE(machine_.phys().Write(tail, rec).ok());
  ASSERT_TRUE(machine_.phys().FlushLines(tail, rec.size()).ok());

  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  EXPECT_EQ(fs_.Stat(*b)->extent_count, 2u);  // the forged record replayed
  EXPECT_FALSE(fs_.Stat(*a)->quarantined);
  EXPECT_TRUE(fs_.Stat(*b)->quarantined);
  EXPECT_TRUE(fs_.VerifyIntegrity().ok());

  fi().MarkUnreadable(a_block + 64, /*sticky=*/true);
  auto report = fs_.Scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->files_quarantined, 1u);
  EXPECT_TRUE(fs_.Stat(*a)->quarantined);
  EXPECT_EQ(report->bad_blocks_retired, 0u);  // the block still has an owner
  EXPECT_TRUE(fs_.VerifyIntegrity().ok());
}

TEST_F(ScrubTest, StickyJournalFaultDegradesThenRepairs) {
  auto id = fs_.Create("/keep", FileFlags{.persistent = true});
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> data(kPageSize, 0x5A);
  ASSERT_TRUE(fs_.WriteAt(*id, 0, data).ok());

  // Wear out a line in the journal area: metadata can no longer be
  // committed reliably, so the scrub must fail the mount down to read-only
  // -- not CHECK-fail.
  const Paddr journal_line = region_base() + kPageSize + 64;
  fi().MarkUnreadable(journal_line, /*sticky=*/true);
  auto report = fs_.Scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->degraded);
  EXPECT_EQ(fs_.mount_mode(), MountMode::kDegraded);
  EXPECT_FALSE(fs_.degrade_reason().empty());

  // Reads still work; every mutation is refused with kReadOnly.
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(fs_.ReadAt(*id, 0, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(fs_.Create("/nope", FileFlags{}).status().code(), StatusCode::kReadOnly);
  EXPECT_EQ(fs_.WriteAt(*id, 0, data).status().code(), StatusCode::kReadOnly);
  EXPECT_EQ(fs_.Unlink("/keep").code(), StatusCode::kReadOnly);
  EXPECT_EQ(fs_.Resize(*id, 2 * kPageSize).code(), StatusCode::kReadOnly);

  // "Replace the DIMM" and scrub again: the mount comes back read-write.
  fi().ClearUnreadable(journal_line);
  auto repaired = fs_.Scrub();
  ASSERT_TRUE(repaired.ok());
  EXPECT_FALSE(repaired->degraded);
  EXPECT_EQ(fs_.mount_mode(), MountMode::kReadWrite);
  ASSERT_TRUE(fs_.WriteAt(*id, 0, data).ok());
}

// A degraded mount defers the free of a file whose last reference goes;
// the scrub that lifts the mount back to read-write must run that free.
TEST_F(ScrubTest, RepairingScrubRunsDeferredFrees) {
  const uint64_t free_before = fs_.free_bytes();
  auto id = fs_.Create("/doomed", FileFlags{});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_.Resize(*id, 16 * kPageSize).ok());
  ASSERT_TRUE(fs_.AddOpenRef(*id).ok());
  ASSERT_TRUE(fs_.Unlink("/doomed").ok());

  const Paddr journal_line = region_base() + kPageSize + 64;
  fi().MarkUnreadable(journal_line, /*sticky=*/true);
  ASSERT_TRUE(fs_.Scrub().ok());
  ASSERT_EQ(fs_.mount_mode(), MountMode::kDegraded);
  ASSERT_TRUE(fs_.DropOpenRef(*id).ok());
  EXPECT_TRUE(fs_.Stat(*id).ok());  // deferred: the blocks are still held
  EXPECT_EQ(fs_.free_bytes(), free_before - 16 * kPageSize);

  fi().ClearUnreadable(journal_line);
  auto repaired = fs_.Scrub();
  ASSERT_TRUE(repaired.ok());
  EXPECT_FALSE(repaired->degraded);
  EXPECT_EQ(fs_.Stat(*id).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(fs_.free_bytes(), free_before);
  EXPECT_TRUE(fs_.VerifyIntegrity().ok());
}

TEST_F(ScrubTest, TransientJournalPoisonIsHealedInPlace) {
  auto id = fs_.Create("/keep", FileFlags{.persistent = true});
  ASSERT_TRUE(id.ok());
  // Transient poison past the journal tail: scrub rewrites the line and the
  // mount stays healthy.
  fi().MarkUnreadable(region_base() + kPageSize + fs_.journal_slot_bytes() - 64,
                      /*sticky=*/false);
  auto report = fs_.Scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->degraded);
  EXPECT_GE(report->media_errors_found, 1u);
  EXPECT_FALSE(fi().has_poison());
  EXPECT_EQ(fs_.mount_mode(), MountMode::kReadWrite);
  ASSERT_TRUE(fs_.Create("/more", FileFlags{}).ok());
}

TEST_F(ScrubTest, SuperblockBitFlipRecoveredOnCrash) {
  auto id = fs_.Create("/keep", FileFlags{.persistent = true});
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> data(1000, 0x7E);
  ASSERT_TRUE(fs_.WriteAt(*id, 0, data).ok());

  // Corrupt the superblock's generation field. The CRC catches it at the
  // next recovery, which falls back to probing both journal slots, then
  // rewrites a fresh superblock.
  fi().FlipBit(region_base() + 16, /*bit=*/3);
  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  EXPECT_EQ(fs_.mount_mode(), MountMode::kReadWrite);
  auto found = fs_.LookupPath("/keep");
  ASSERT_TRUE(found.ok());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(fs_.ReadAt(*found, 0, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_TRUE(fs_.VerifyIntegrity().ok());
}

TEST_F(ScrubTest, JournalBitFlipTruncatesTornTailOnCrash) {
  // Two persistent files; corrupt the journal record bytes of the second.
  auto a = fs_.Create("/a", FileFlags{.persistent = true});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(fs_.WriteAt(*a, 0, std::vector<uint8_t>(100, 1)).ok());
  const uint64_t tail_before = fs_.journal_tail_bytes();
  auto b = fs_.Create("/b", FileFlags{.persistent = true});
  ASSERT_TRUE(b.ok());

  // Flip a bit inside /b's create record: its CRC now fails, so recovery
  // must treat the journal as ending before it.
  fi().FlipBit(region_base() + kPageSize + tail_before + 20, /*bit=*/0);
  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  EXPECT_TRUE(fs_.LookupPath("/a").ok());   // before the torn tail: intact
  EXPECT_FALSE(fs_.LookupPath("/b").ok());  // inside it: dropped cleanly
  EXPECT_TRUE(fs_.VerifyIntegrity().ok());
  EXPECT_EQ(fs_.mount_mode(), MountMode::kReadWrite);

  // The fs keeps working after the truncated recovery.
  auto c = fs_.Create("/c", FileFlags{.persistent = true});
  ASSERT_TRUE(c.ok());
  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  EXPECT_TRUE(fs_.LookupPath("/c").ok());
}

TEST_F(ScrubTest, StickyJournalFaultAtRecoveryMovesToOtherSlot) {
  // A sticky fault in the ACTIVE slot's tail at crash time: replay stops at
  // the fault, and the closing checkpoint compacts into the other slot, so
  // the mount comes back read-write with the durable prefix applied.
  auto a = fs_.Create("/a", FileFlags{.persistent = true});
  ASSERT_TRUE(a.ok());
  const uint64_t tail = fs_.journal_tail_bytes();
  auto b = fs_.Create("/b", FileFlags{.persistent = true});
  ASSERT_TRUE(b.ok());

  // Poison granularity is a 64 B line; the line holding `tail` may also
  // hold the end of /a's last record, so target the first line boundary at
  // or after tail -- still inside /b's record, clear of /a's.
  const uint64_t fault_off = AlignUp(tail, 64);
  ASSERT_LT(fault_off, fs_.journal_tail_bytes());  // within /b's record
  fi().MarkUnreadable(region_base() + kPageSize + fault_off, /*sticky=*/true);
  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());  // never aborts
  EXPECT_TRUE(fs_.LookupPath("/a").ok());
  EXPECT_FALSE(fs_.LookupPath("/b").ok());  // beyond the unreadable line
  EXPECT_TRUE(fs_.VerifyIntegrity().ok());
  EXPECT_EQ(fs_.mount_mode(), MountMode::kReadWrite);
  ASSERT_TRUE(fs_.Create("/after", FileFlags{.persistent = true}).ok());
}

TEST_F(ScrubTest, DegradedMountStillRecoversAcrossCrash) {
  auto id = fs_.Create("/keep", FileFlags{.persistent = true});
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> data(256, 0x99);
  ASSERT_TRUE(fs_.WriteAt(*id, 0, data).ok());

  // Wear out the INACTIVE slot: the active journal is still intact, but a
  // checkpoint can no longer land anywhere durable, so the mount degrades.
  const Paddr journal_line = region_base() + kPageSize + fs_.journal_slot_bytes();
  fi().MarkUnreadable(journal_line, /*sticky=*/true);
  ASSERT_TRUE(fs_.Scrub().ok());
  ASSERT_EQ(fs_.mount_mode(), MountMode::kDegraded);

  // Crash while degraded: replay of the healthy active slot recovers the
  // data; the recovery checkpoint lands on the worn slot and fails its
  // readback, so the mount comes back up degraded -- but readable, and
  // without aborting.
  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  auto found = fs_.LookupPath("/keep");
  ASSERT_TRUE(found.ok());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(fs_.ReadAt(*found, 0, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(fs_.mount_mode(), MountMode::kDegraded);
}

}  // namespace
}  // namespace o1mem
