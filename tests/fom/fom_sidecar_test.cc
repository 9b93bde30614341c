// NVM table sidecars: a persistent FOM segment's pre-created page tables
// are stored as their extent list in a CRC-protected PMFS file and loaded
// on the segment's first use after a crash without per-PTE work. These
// tests attack the sidecar -- bit flips, truncation, media poison,
// deletion -- and require the manager to fall back to a transparent
// rebuild, never to abort or serve a stale mapping.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/os/system.h"

namespace o1mem {
namespace {

class FomSidecarTest : public ::testing::Test {
 protected:
  FomSidecarTest() {
    SystemConfig config;
    config.machine.dram_bytes = 32 * kMiB;
    config.machine.nvm_bytes = 64 * kMiB;
    sys_ = std::make_unique<System>(config);
  }

  // Creates a persistent segment, fills it through a DAX mapping, and
  // returns its inode. Pre-created tables (and the sidecar) are built at
  // creation time.
  InodeId MakeSegment(const std::string& path, uint64_t bytes) {
    auto seg = sys_->fom().CreateSegment(
        path, bytes, SegmentOptions{.flags = {.persistent = true}});
    O1_CHECK(seg.ok());
    auto launched = sys_->Launch(Backend::kFom);
    O1_CHECK(launched.ok());
    Process* proc = *launched;
    auto va = sys_->fom().Map(proc->fom(), *seg, Prot::kReadWrite);
    O1_CHECK(va.ok());
    data_.resize(bytes);
    for (uint64_t i = 0; i < bytes; ++i) {
      data_[i] = static_cast<uint8_t>(i * 131 + 7);
    }
    O1_CHECK(sys_->UserWrite(*proc, *va, data_).ok());
    O1_CHECK(sys_->UserFlush(*proc, *va, bytes).ok());
    O1_CHECK(sys_->Exit(proc).ok());
    return *seg;
  }

  InodeId SidecarInode(InodeId segment) {
    auto id = sys_->pmfs().LookupPath("/.fom/tables/" + std::to_string(segment));
    O1_CHECK(id.ok());
    return *id;
  }

  // Crash, then remap the segment with kPtSplice and check its contents.
  void CrashAndVerify(const std::string& path) {
    ASSERT_TRUE(sys_->Crash().ok());
    auto seg = sys_->fom().OpenSegment(path);
    ASSERT_TRUE(seg.ok()) << path << " lost";
    auto launched = sys_->Launch(Backend::kFom);
    ASSERT_TRUE(launched.ok());
    Process* proc = *launched;
    auto va = sys_->fom().Map(proc->fom(), *seg, Prot::kRead,
                              MapOptions{.mechanism = MapMechanism::kPtSplice});
    ASSERT_TRUE(va.ok());
    std::vector<uint8_t> out(data_.size());
    ASSERT_TRUE(sys_->UserRead(*proc, *va, out).ok());
    ASSERT_EQ(out, data_) << path << " corrupted";
    ASSERT_TRUE(sys_->fom().Unmap(proc->fom(), *va).ok());
    ASSERT_TRUE(sys_->Exit(proc).ok());
  }

  std::unique_ptr<System> sys_;
  std::vector<uint8_t> data_;
};

TEST_F(FomSidecarTest, SidecarExistsAndRehydratesWithoutTableBuilds) {
  const InodeId seg = MakeSegment("/seg", 8 * kPageSize);
  ASSERT_TRUE(sys_->pmfs().LookupPath("/.fom/tables/" + std::to_string(seg)).ok());
  ASSERT_TRUE(sys_->Crash().ok());

  auto launched = sys_->Launch(Backend::kFom);
  ASSERT_TRUE(launched.ok());
  Process* proc = *launched;
  auto reopened = sys_->fom().OpenSegment("/seg");
  ASSERT_TRUE(reopened.ok());
  // Rehydration from the sidecar must not rebuild tables: the first map
  // after reboot allocates at most the process's own spine down to the
  // splice point, never the segment's leaf nodes or PTEs. (Launch above
  // rebuilt its own volatile segments' tables, so measure from here.)
  const uint64_t nodes_before = sys_->ctx().counters().pt_nodes_allocated;
  auto va = sys_->fom().Map(proc->fom(), *reopened, Prot::kRead,
                            MapOptions{.mechanism = MapMechanism::kPtSplice});
  ASSERT_TRUE(va.ok());
  EXPECT_LE(sys_->ctx().counters().pt_nodes_allocated, nodes_before + 3);
  std::vector<uint8_t> out(data_.size());
  ASSERT_TRUE(sys_->UserRead(*proc, *va, out).ok());
  EXPECT_EQ(out, data_);
}

TEST_F(FomSidecarTest, CorruptSidecarIsRebuiltTransparently) {
  const InodeId seg = MakeSegment("/seg", 8 * kPageSize);
  // Flip bytes in the sidecar's paddr payload through the file API: the CRC
  // must catch it at recovery and trigger a rebuild, not a bad mapping.
  std::vector<uint8_t> junk(16, 0xFF);
  ASSERT_TRUE(sys_->pmfs().WriteAt(SidecarInode(seg), 48, junk).ok());
  CrashAndVerify("/seg");
}

TEST_F(FomSidecarTest, CorruptHeaderIsRebuiltTransparently) {
  const InodeId seg = MakeSegment("/seg", 4 * kPageSize);
  std::vector<uint8_t> junk(8, 0x00);
  ASSERT_TRUE(sys_->pmfs().WriteAt(SidecarInode(seg), 0, junk).ok());  // magic
  CrashAndVerify("/seg");
}

TEST_F(FomSidecarTest, TruncatedSidecarIsRebuiltTransparently) {
  const InodeId seg = MakeSegment("/seg", 8 * kPageSize);
  ASSERT_TRUE(sys_->pmfs().Resize(SidecarInode(seg), 24).ok());
  CrashAndVerify("/seg");
}

TEST_F(FomSidecarTest, PoisonedSidecarIsRebuiltTransparently) {
  const InodeId seg = MakeSegment("/seg", 8 * kPageSize);
  auto extents = sys_->pmfs().Extents(SidecarInode(seg));
  ASSERT_TRUE(extents.ok());
  ASSERT_FALSE(extents->empty());
  // Media poison on the sidecar's first line: the recovery read fails with
  // kMediaError, which must fall back to a rebuild -- never an abort.
  sys_->machine().fault_injector().MarkUnreadable(extents->front().paddr,
                                                  /*sticky=*/false);
  CrashAndVerify("/seg");
}

TEST_F(FomSidecarTest, BitFlipInSidecarIsRebuiltTransparently) {
  const InodeId seg = MakeSegment("/seg", 8 * kPageSize);
  auto extents = sys_->pmfs().Extents(SidecarInode(seg));
  ASSERT_TRUE(extents.ok());
  // Silent corruption (no media error): only the CRC can catch this one.
  sys_->machine().fault_injector().FlipBit(extents->front().paddr + 45, 2);
  CrashAndVerify("/seg");
}

TEST_F(FomSidecarTest, MissingSidecarIsRebuiltTransparently) {
  const InodeId seg = MakeSegment("/seg", 8 * kPageSize);
  ASSERT_TRUE(sys_->pmfs().Unlink("/.fom/tables/" + std::to_string(seg)).ok());
  CrashAndVerify("/seg");
}

TEST_F(FomSidecarTest, OrphanSidecarIsCleanedUpAtRecovery) {
  // A sidecar whose segment no longer exists (crash between segment unlink
  // and sidecar unlink) must be garbage-collected at recovery.
  MakeSegment("/seg", 4 * kPageSize);
  auto orphan = sys_->pmfs().Create("/.fom/tables/9999",
                                    FileFlags{.persistent = true});
  ASSERT_TRUE(orphan.ok());
  ASSERT_TRUE(sys_->Crash().ok());
  EXPECT_FALSE(sys_->pmfs().LookupPath("/.fom/tables/9999").ok());
  EXPECT_TRUE(sys_->pmfs().LookupPath("/seg").ok());
}

TEST_F(FomSidecarTest, DeleteSegmentRemovesItsSidecar) {
  const InodeId seg = MakeSegment("/seg", 4 * kPageSize);
  const std::string sidecar = "/.fom/tables/" + std::to_string(seg);
  ASSERT_TRUE(sys_->pmfs().LookupPath(sidecar).ok());
  ASSERT_TRUE(sys_->fom().DeleteSegment("/seg").ok());
  EXPECT_FALSE(sys_->pmfs().LookupPath(sidecar).ok());
}

TEST_F(FomSidecarTest, StaleSidecarAfterReallocationIsRejected) {
  // Regrow the segment after the sidecar was written: the stored paddrs no
  // longer match the extent tree, so rehydration must reject the sidecar
  // and rebuild rather than map freed frames.
  const InodeId seg = MakeSegment("/seg", 4 * kPageSize);
  ASSERT_TRUE(sys_->pmfs().Resize(seg, 8 * kPageSize).ok());
  ASSERT_TRUE(sys_->Crash().ok());
  auto reopened = sys_->fom().OpenSegment("/seg");
  ASSERT_TRUE(reopened.ok());
  auto launched = sys_->Launch(Backend::kFom);
  ASSERT_TRUE(launched.ok());
  Process* proc = *launched;
  auto va = sys_->fom().Map(proc->fom(), *reopened, Prot::kRead,
                            MapOptions{.mechanism = MapMechanism::kPtSplice});
  ASSERT_TRUE(va.ok());
  std::vector<uint8_t> out(data_.size());
  ASSERT_TRUE(sys_->UserRead(*proc, *va, out).ok());
  EXPECT_EQ(out, data_);  // original prefix intact through the new tables
}

// A persistent segment over 1 GiB in two extents keeps a valid sidecar
// through a crash: the first kPtSplice map after reboot splices its L2 group
// and L1 tail from nodes built on first use, reads come back through both
// sides of the extent seam, and Protect swaps the mapping to the RO set. A
// corrupted sidecar still takes the rebuild-and-rewrite path.
TEST_F(FomSidecarTest, GibibyteMultiExtentSegmentSplicesAfterCrash) {
  SystemConfig config;
  config.machine.dram_bytes = 32 * kMiB;
  config.machine.nvm_bytes = 2 * kGiB;
  sys_ = std::make_unique<System>(config);
  Pmfs& pmfs = sys_->pmfs();
  // Two 640 MiB holes and a shorter tail: no free run fits the segment, so
  // it is built from the tail plus the first hole.
  for (const char* path : {"/a", "/pin1", "/b", "/pin2"}) {
    auto id = pmfs.Create(path, FileFlags{.persistent = true});
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(pmfs.Resize(*id, path[1] == 'p' ? kPageSize : 640 * kMiB).ok());
  }
  ASSERT_TRUE(pmfs.Unlink("/a").ok());
  ASSERT_TRUE(pmfs.Unlink("/b").ok());
  const uint64_t bytes = kGiB + 6 * kMiB;
  auto seg =
      sys_->fom().CreateSegment("/big", bytes, SegmentOptions{.flags = {.persistent = true}});
  ASSERT_TRUE(seg.ok());
  auto extents = pmfs.Extents(*seg);
  ASSERT_TRUE(extents.ok());
  ASSERT_EQ(extents->size(), 2u);
  const uint64_t seam = (*extents)[1].file_offset;
  ASSERT_LT(seam, kGiB);  // the seam falls inside the L2 group
  // 515 windows + 1 L2 group per variant.
  const uint64_t nodes = 2 * (515 + 1);

  const std::vector<uint64_t> offsets = {5, seam - 2, seam + 100, kGiB - 2, kGiB + 5 * kMiB};
  auto marker = [](uint64_t off) {
    return std::vector<uint8_t>{static_cast<uint8_t>(off), static_cast<uint8_t>(off >> 8),
                                static_cast<uint8_t>(off >> 16), 0x5A};
  };
  {
    auto launched = sys_->Launch(Backend::kFom);
    ASSERT_TRUE(launched.ok());
    Process* proc = *launched;
    auto va = sys_->fom().Map(proc->fom(), *seg, Prot::kReadWrite);
    ASSERT_TRUE(va.ok());
    for (uint64_t off : offsets) {
      ASSERT_TRUE(sys_->UserWrite(*proc, *va + off, marker(off)).ok()) << off;
      ASSERT_TRUE(sys_->UserFlush(*proc, *va + off, 4).ok()) << off;
    }
    ASSERT_TRUE(sys_->Exit(proc).ok());
  }

  // The sidecar is the header plus the extent list: 24 bytes per extent,
  // whatever the segment's size.
  auto sidecar_stat = pmfs.Stat(SidecarInode(*seg));
  ASSERT_TRUE(sidecar_stat.ok());
  EXPECT_EQ(sidecar_stat->size, 40u + 2u * 24u);

  // Crash, then splice-map the segment, read every marker, and protect it
  // read-only. The crash reads no sidecar and builds no tables; the first
  // kPtSplice map validates the sidecar and, when `rebuilt`, charges the
  // table rebuild and rewrites the sidecar.
  auto crash_and_splice = [&](bool rebuilt) {
    const uint64_t crash_nodes_before = sys_->ctx().counters().pt_nodes_allocated;
    ASSERT_TRUE(sys_->Crash().ok());
    EXPECT_EQ(sys_->ctx().counters().pt_nodes_allocated, crash_nodes_before);
    auto reopened = sys_->fom().OpenSegment("/big");
    ASSERT_TRUE(reopened.ok());
    auto launched = sys_->Launch(Backend::kFom);
    ASSERT_TRUE(launched.ok());
    Process* proc = *launched;
    const uint64_t splices_before = sys_->ctx().counters().subtree_splices;
    const uint64_t map_nodes_before = sys_->ctx().counters().pt_nodes_allocated;
    auto va = sys_->fom().Map(proc->fom(), *reopened, Prot::kReadWrite,
                              MapOptions{.mechanism = MapMechanism::kPtSplice});
    ASSERT_TRUE(va.ok());
    ASSERT_TRUE(IsAligned(*va, kGiB));
    EXPECT_EQ(sys_->ctx().counters().subtree_splices - splices_before, 1u + 3u);
    // The process's own spine (a PDPT and a PD node), plus the tables when
    // the sidecar did not match.
    EXPECT_EQ(sys_->ctx().counters().pt_nodes_allocated - map_nodes_before,
              2 + (rebuilt ? nodes : 0));
    for (uint64_t off : offsets) {
      std::vector<uint8_t> out(4);
      ASSERT_TRUE(sys_->UserRead(*proc, *va + off, out).ok()) << off;
      EXPECT_EQ(out, marker(off)) << off;
    }
    ASSERT_TRUE(sys_->fom().Protect(proc->fom(), *va, Prot::kRead).ok());
    for (uint64_t off : offsets) {
      EXPECT_FALSE(sys_->UserWrite(*proc, *va + off, marker(off)).ok()) << off;
      std::vector<uint8_t> out(4);
      ASSERT_TRUE(sys_->UserRead(*proc, *va + off, out).ok()) << off;
      EXPECT_EQ(out, marker(off)) << off;
    }
    ASSERT_TRUE(sys_->Exit(proc).ok());
  };
  crash_and_splice(/*rebuilt=*/false);
  // Silent corruption of the stored extent list (the second extent's file
  // offset): the first splice map rebuilds the tables and rewrites the
  // sidecar, so the map after the next crash loads it again.
  auto sidecar = pmfs.Extents(SidecarInode(*seg));
  ASSERT_TRUE(sidecar.ok());
  sys_->machine().fault_injector().FlipBit(sidecar->front().paddr + 40 + 24, 3);
  crash_and_splice(/*rebuilt=*/true);
  crash_and_splice(/*rebuilt=*/false);
}

// Pressure reclaim deletes a discardable persistent segment and, with no
// crash in between, its sidecar; a kept segment's sidecar stays.
TEST_F(FomSidecarTest, PressureReclaimRemovesTheSidecar) {
  const InodeId kept = MakeSegment("/kept", 4 * kPageSize);
  auto cache = sys_->fom().CreateSegment(
      "/cache", 4 * kPageSize,
      SegmentOptions{.flags = {.persistent = true, .discardable = true}});
  ASSERT_TRUE(cache.ok());
  const std::string sidecar = "/.fom/tables/" + std::to_string(*cache);
  ASSERT_TRUE(sys_->pmfs().LookupPath(sidecar).ok());
  auto released = sys_->ReclaimFom(4 * kPageSize);
  ASSERT_TRUE(released.ok());
  EXPECT_GT(*released, 0u);
  EXPECT_FALSE(sys_->pmfs().LookupPath("/cache").ok());
  EXPECT_FALSE(sys_->pmfs().LookupPath(sidecar).ok());
  EXPECT_TRUE(sys_->pmfs().LookupPath("/.fom/tables/" + std::to_string(kept)).ok());
}

// The same after a reboot, before the segment's first use: no tables are
// cached for it, yet reclaim still removes its sidecar.
TEST_F(FomSidecarTest, PressureReclaimAfterRebootRemovesTheSidecar) {
  auto cache = sys_->fom().CreateSegment(
      "/cache", 4 * kPageSize,
      SegmentOptions{.flags = {.persistent = true, .discardable = true}});
  ASSERT_TRUE(cache.ok());
  const std::string sidecar = "/.fom/tables/" + std::to_string(*cache);
  ASSERT_TRUE(sys_->Crash().ok());
  ASSERT_TRUE(sys_->pmfs().LookupPath(sidecar).ok());
  EXPECT_EQ(sys_->fom().precreated_node_count(), 0u);
  auto released = sys_->ReclaimFom(4 * kPageSize);
  ASSERT_TRUE(released.ok());
  EXPECT_GT(*released, 0u);
  EXPECT_FALSE(sys_->pmfs().LookupPath("/cache").ok());
  EXPECT_FALSE(sys_->pmfs().LookupPath(sidecar).ok());
}

// FomManager::OnCrash reads no sidecar: with one single-extent persistent
// segment it charges the same simulated cycles at 64 MiB, 256 MiB and
// 1 GiB.
TEST_F(FomSidecarTest, FomRecoveryCostIsFlatInSegmentSize) {
  std::vector<uint64_t> cycles;
  for (const uint64_t bytes : {64 * kMiB, 256 * kMiB, kGiB}) {
    SystemConfig config;
    config.machine.dram_bytes = 32 * kMiB;
    config.machine.nvm_bytes = 2 * kGiB;
    sys_ = std::make_unique<System>(config);
    auto seg =
        sys_->fom().CreateSegment("/seg", bytes, SegmentOptions{.flags = {.persistent = true}});
    ASSERT_TRUE(seg.ok());
    auto extents = sys_->pmfs().Extents(*seg);
    ASSERT_TRUE(extents.ok());
    ASSERT_EQ(extents->size(), 1u);
    SidecarInode(*seg);  // the sidecar exists
    sys_->machine().Crash();
    ASSERT_TRUE(sys_->pmfs().OnCrash().ok());
    const uint64_t before = sys_->ctx().now();
    ASSERT_TRUE(sys_->fom().OnCrash().ok());
    cycles.push_back(sys_->ctx().now() - before);
  }
  EXPECT_EQ(cycles[1], cycles[0]);
  EXPECT_EQ(cycles[2], cycles[0]);
}

}  // namespace
}  // namespace o1mem
