#include "src/fs/tmpfs.h"

#include <gtest/gtest.h>

namespace o1mem {
namespace {

class TmpfsTest : public ::testing::Test {
 protected:
  TmpfsTest()
      : machine_(MachineConfig{.dram_bytes = 64 * kMiB, .nvm_bytes = 0}),
        phys_mgr_(&machine_),
        fs_(&machine_, &phys_mgr_, /*quota_bytes=*/16 * kMiB) {}

  Machine machine_;
  PhysManager phys_mgr_;
  Tmpfs fs_;
};

TEST_F(TmpfsTest, CreateLookupUnlink) {
  auto id = fs_.Create("/tmp/a", FileFlags{});
  ASSERT_TRUE(id.ok());
  auto found = fs_.LookupPath("/tmp/a");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), id.value());
  ASSERT_TRUE(fs_.Unlink("/tmp/a").ok());
  EXPECT_FALSE(fs_.LookupPath("/tmp/a").ok());
  EXPECT_FALSE(fs_.Unlink("/tmp/a").ok());
}

TEST_F(TmpfsTest, RejectsDuplicatesAndPersistentFiles) {
  ASSERT_TRUE(fs_.Create("/x", FileFlags{}).ok());
  EXPECT_FALSE(fs_.Create("/x", FileFlags{}).ok());
  EXPECT_FALSE(fs_.Create("/p", FileFlags{.persistent = true}).ok());
  EXPECT_FALSE(fs_.Create("", FileFlags{}).ok());
}

TEST_F(TmpfsTest, WriteReadRoundTrip) {
  auto id = fs_.Create("/data", FileFlags{});
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> data(10000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i % 255);
  }
  auto wrote = fs_.WriteAt(*id, 100, data);
  ASSERT_TRUE(wrote.ok());
  EXPECT_EQ(wrote.value(), data.size());
  std::vector<uint8_t> out(data.size());
  auto read = fs_.ReadAt(*id, 100, out);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), data.size());
  EXPECT_EQ(out, data);
  EXPECT_EQ(fs_.Stat(*id)->size, 100 + data.size());
}

TEST_F(TmpfsTest, ReadPastEofTruncated) {
  auto id = fs_.Create("/f", FileFlags{});
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> data(100, 7);
  ASSERT_TRUE(fs_.WriteAt(*id, 0, data).ok());
  std::vector<uint8_t> out(200, 0xff);
  auto read = fs_.ReadAt(*id, 50, out);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), 50u);
  auto nothing = fs_.ReadAt(*id, 100, out);
  ASSERT_TRUE(nothing.ok());
  EXPECT_EQ(nothing.value(), 0u);
}

TEST_F(TmpfsTest, HolesReadAsZero) {
  auto id = fs_.Create("/sparse", FileFlags{});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_.Resize(*id, kMiB).ok());
  // Nothing allocated yet (lazy).
  EXPECT_EQ(fs_.Stat(*id)->allocated_bytes, 0u);
  std::vector<uint8_t> out(64, 0xff);
  ASSERT_TRUE(fs_.ReadAt(*id, kMiB / 2, out).ok());
  for (uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
}

TEST_F(TmpfsTest, BackingAllocatedPerPageOnDemand) {
  auto id = fs_.Create("/lazy", FileFlags{});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_.Resize(*id, 8 * kPageSize).ok());
  auto p0 = fs_.GetBackingPage(*id, 0, /*for_write=*/false);
  auto p1 = fs_.GetBackingPage(*id, kPageSize, /*for_write=*/false);
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(fs_.Stat(*id)->allocated_bytes, 2 * kPageSize);
  // Idempotent: same page returned.
  EXPECT_EQ(fs_.GetBackingPage(*id, 0, /*for_write=*/false).value(), p0.value());
  EXPECT_FALSE(fs_.GetBackingPage(*id, 8 * kPageSize, /*for_write=*/false).ok());
}

TEST_F(TmpfsTest, TruncateFreesPages) {
  auto id = fs_.Create("/t", FileFlags{});
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> data(8 * kPageSize, 1);
  ASSERT_TRUE(fs_.WriteAt(*id, 0, data).ok());
  const uint64_t free_before = phys_mgr_.free_bytes();
  ASSERT_TRUE(fs_.Resize(*id, 2 * kPageSize).ok());
  EXPECT_EQ(phys_mgr_.free_bytes(), free_before + 6 * kPageSize);
  EXPECT_EQ(fs_.Stat(*id)->allocated_bytes, 2 * kPageSize);
}

TEST_F(TmpfsTest, QuotaEnforced) {
  auto id = fs_.Create("/big", FileFlags{});
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> chunk(kMiB, 1);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(fs_.WriteAt(*id, static_cast<uint64_t>(i) * kMiB, chunk).ok()) << i;
  }
  auto over = fs_.WriteAt(*id, 16 * kMiB, chunk);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kQuotaExceeded);
  EXPECT_EQ(fs_.free_bytes(), 0u);
}

TEST_F(TmpfsTest, UnlinkedButOpenFileSurvivesUntilClose) {
  auto id = fs_.Create("/held", FileFlags{});
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> data(100, 9);
  ASSERT_TRUE(fs_.WriteAt(*id, 0, data).ok());
  ASSERT_TRUE(fs_.AddOpenRef(*id).ok());
  ASSERT_TRUE(fs_.Unlink("/held").ok());
  // Still readable through the open ref (classic POSIX behaviour; also the
  // paper's whole-file reference counting).
  std::vector<uint8_t> out(100);
  ASSERT_TRUE(fs_.ReadAt(*id, 0, out).ok());
  EXPECT_EQ(out, data);
  ASSERT_TRUE(fs_.DropOpenRef(*id).ok());
  EXPECT_FALSE(fs_.ReadAt(*id, 0, out).ok());
}

TEST_F(TmpfsTest, MapRefKeepsFileAlive) {
  auto id = fs_.Create("/mapped", FileFlags{});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_.AddMapRef(*id).ok());
  ASSERT_TRUE(fs_.Unlink("/mapped").ok());
  EXPECT_TRUE(fs_.Stat(*id).ok());
  ASSERT_TRUE(fs_.DropMapRef(*id).ok());
  EXPECT_FALSE(fs_.Stat(*id).ok());
}

TEST_F(TmpfsTest, RefcountUnderflowRejected) {
  auto id = fs_.Create("/r", FileFlags{});
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(fs_.DropOpenRef(*id).ok());
  EXPECT_FALSE(fs_.DropMapRef(*id).ok());
}

TEST_F(TmpfsTest, ReclaimDiscardableFreesOldestFirst) {
  auto old_file = fs_.Create("/cache/old", FileFlags{.discardable = true});
  ASSERT_TRUE(old_file.ok());
  std::vector<uint8_t> mb(kMiB, 1);
  ASSERT_TRUE(fs_.WriteAt(*old_file, 0, mb).ok());
  machine_.ctx().Charge(1000000);  // time passes
  auto new_file = fs_.Create("/cache/new", FileFlags{.discardable = true});
  ASSERT_TRUE(new_file.ok());
  ASSERT_TRUE(fs_.WriteAt(*new_file, 0, mb).ok());
  auto pinned = fs_.Create("/cache/pinned", FileFlags{.discardable = true});
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(fs_.WriteAt(*pinned, 0, mb).ok());
  ASSERT_TRUE(fs_.AddMapRef(*pinned).ok());  // mapped: not reclaimable

  auto released = fs_.ReclaimDiscardable(kMiB / 2);
  ASSERT_TRUE(released.ok());
  EXPECT_EQ(released.value(), kMiB);
  EXPECT_FALSE(fs_.LookupPath("/cache/old").ok());   // oldest went first
  EXPECT_TRUE(fs_.LookupPath("/cache/new").ok());
  EXPECT_TRUE(fs_.LookupPath("/cache/pinned").ok());
  EXPECT_EQ(machine_.ctx().counters().files_reclaimed, 1u);
}

TEST_F(TmpfsTest, ExtentsViewCoalescesAdjacentFrames) {
  auto id = fs_.Create("/e", FileFlags{});
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> data(4 * kPageSize, 1);
  ASSERT_TRUE(fs_.WriteAt(*id, 0, data).ok());
  auto extents = fs_.Extents(*id);
  ASSERT_TRUE(extents.ok());
  uint64_t total = 0;
  for (const auto& e : extents.value()) {
    total += e.bytes;
  }
  EXPECT_EQ(total, 4 * kPageSize);
}

TEST_F(TmpfsTest, CrashDropsEverything) {
  auto id = fs_.Create("/gone", FileFlags{});
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> data(100, 1);
  ASSERT_TRUE(fs_.WriteAt(*id, 0, data).ok());
  machine_.Crash();
  ASSERT_TRUE(fs_.OnCrash().ok());
  EXPECT_FALSE(fs_.LookupPath("/gone").ok());
  EXPECT_TRUE(fs_.ListPaths().empty());
}

}  // namespace
}  // namespace o1mem
