#include "src/fom/fom_manager.h"

#include <gtest/gtest.h>

namespace o1mem {
namespace {

class FomTest : public ::testing::Test {
 protected:
  FomTest()
      : machine_(MachineConfig{.dram_bytes = 16 * kMiB, .nvm_bytes = 512 * kMiB}),
        pmfs_(&machine_, machine_.phys().nvm_base(), 512 * kMiB),
        fom_(&machine_, &pmfs_),
        proc_(fom_.CreateProcess()) {}

  // Convenience: segment + map, returning the vaddr.
  Result<Vaddr> MakeMapped(std::string_view path, uint64_t bytes, MapMechanism mech,
                           Prot prot = Prot::kReadWrite) {
    auto inode = fom_.CreateSegment(path, bytes);
    if (!inode.ok()) {
      return inode.status();
    }
    return fom_.Map(*proc_, *inode, prot, MapOptions{.mechanism = mech});
  }

  Machine machine_;
  Pmfs pmfs_;
  FomManager fom_;
  std::unique_ptr<FomProcess> proc_;
};

TEST_F(FomTest, CreateSegmentAllocatesBackingAsFile) {
  auto inode = fom_.CreateSegment("/seg/heap", 8 * kMiB);
  ASSERT_TRUE(inode.ok());
  auto st = pmfs_.Stat(*inode);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 8 * kMiB);
  EXPECT_EQ(st->allocated_bytes, 8 * kMiB);
  // Pre-created tables were built (RO + RW, one node per 2 MiB window).
  EXPECT_EQ(fom_.precreated_node_count(), 2 * 4u);
}

TEST_F(FomTest, MapRangeMechanismInstallsOneEntryPerExtent) {
  auto vaddr = MakeMapped("/seg/a", 64 * kMiB, MapMechanism::kRangeTable);
  ASSERT_TRUE(vaddr.ok());
  EXPECT_EQ(proc_->address_space().range_table().size(), 1u);  // one extent
  // The data is accessible without any fault.
  EXPECT_TRUE(
      machine_.mmu().Touch(proc_->address_space(), *vaddr + 63 * kMiB, 1, AccessType::kWrite)
          .ok());
  EXPECT_EQ(machine_.ctx().counters().minor_faults, 0u);
}

TEST_F(FomTest, MapCostIndependentOfSizeWithRanges) {
  auto small = fom_.CreateSegment("/seg/small", kMiB);
  auto large = fom_.CreateSegment("/seg/large", 256 * kMiB);
  ASSERT_TRUE(small.ok() && large.ok());
  const uint64_t t0 = machine_.ctx().now();
  ASSERT_TRUE(fom_.Map(*proc_, *small, Prot::kReadWrite,
                       MapOptions{.mechanism = MapMechanism::kRangeTable})
                  .ok());
  const uint64_t small_cost = machine_.ctx().now() - t0;
  const uint64_t t1 = machine_.ctx().now();
  ASSERT_TRUE(fom_.Map(*proc_, *large, Prot::kReadWrite,
                       MapOptions{.mechanism = MapMechanism::kRangeTable})
                  .ok());
  const uint64_t large_cost = machine_.ctx().now() - t1;
  // 256x the size, within 2x the cost (both files are single-extent).
  EXPECT_LT(large_cost, 2 * small_cost);
}

TEST_F(FomTest, SpliceMapWritesNoLeafPtes) {
  auto inode = fom_.CreateSegment("/seg/s", 16 * kMiB);
  ASSERT_TRUE(inode.ok());
  const uint64_t ptes_before = machine_.ctx().counters().ptes_written;
  auto vaddr = fom_.Map(*proc_, *inode, Prot::kReadWrite,
                        MapOptions{.mechanism = MapMechanism::kPtSplice});
  ASSERT_TRUE(vaddr.ok());
  EXPECT_EQ(machine_.ctx().counters().ptes_written, ptes_before);
  EXPECT_EQ(machine_.ctx().counters().subtree_splices, 8u);  // 16 MiB / 2 MiB
  // Data reachable through the spliced tables.
  std::vector<uint8_t> data{1, 2, 3};
  ASSERT_TRUE(machine_.mmu().WriteVirt(proc_->address_space(), *vaddr + 5 * kMiB, data).ok());
  std::vector<uint8_t> out(3);
  ASSERT_TRUE(machine_.mmu().ReadVirt(proc_->address_space(), *vaddr + 5 * kMiB, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(FomTest, DataWrittenThroughMappingVisibleThroughFileApi) {
  auto inode = fom_.CreateSegment("/seg/shared-view", kMiB);
  ASSERT_TRUE(inode.ok());
  auto vaddr = fom_.Map(*proc_, *inode, Prot::kReadWrite,
                        MapOptions{.mechanism = MapMechanism::kRangeTable});
  ASSERT_TRUE(vaddr.ok());
  std::vector<uint8_t> data(100, 0x42);
  ASSERT_TRUE(machine_.mmu().WriteVirt(proc_->address_space(), *vaddr + 1234, data).ok());
  std::vector<uint8_t> out(100);
  ASSERT_TRUE(pmfs_.ReadAt(*inode, 1234, out).ok());
  EXPECT_EQ(out, data);  // DAX: no page cache, one copy of the data
}

TEST_F(FomTest, UnmapIsOneShootdownAndDropsRef) {
  auto inode = fom_.CreateSegment("/seg/u", 32 * kMiB);
  ASSERT_TRUE(inode.ok());
  auto vaddr = fom_.Map(*proc_, *inode, Prot::kRead,
                        MapOptions{.mechanism = MapMechanism::kRangeTable});
  ASSERT_TRUE(vaddr.ok());
  const uint64_t shootdowns_before = machine_.ctx().counters().tlb_shootdowns;
  ASSERT_TRUE(fom_.Unmap(*proc_, *vaddr).ok());
  EXPECT_EQ(machine_.ctx().counters().tlb_shootdowns, shootdowns_before + 1);
  EXPECT_FALSE(
      machine_.mmu().Touch(proc_->address_space(), *vaddr, 1, AccessType::kRead).ok());
  EXPECT_EQ(pmfs_.Stat(*inode)->map_count, 0u);
}

TEST_F(FomTest, UnmapOfUnlinkedFileFreesStorage) {
  auto inode = fom_.CreateSegment("/seg/tmp", 4 * kMiB);
  ASSERT_TRUE(inode.ok());
  auto vaddr = fom_.Map(*proc_, *inode, Prot::kReadWrite);
  ASSERT_TRUE(vaddr.ok());
  ASSERT_TRUE(fom_.DeleteSegment("/seg/tmp").ok());
  // Mapped: storage still held (whole-file refcount).
  EXPECT_TRUE(pmfs_.Stat(*inode).ok());
  const uint64_t free_before = pmfs_.free_bytes();
  ASSERT_TRUE(fom_.Unmap(*proc_, *vaddr).ok());
  EXPECT_EQ(pmfs_.free_bytes(), free_before + 4 * kMiB);
  EXPECT_FALSE(pmfs_.Stat(*inode).ok());
}

TEST_F(FomTest, ProtectWholeFileRange) {
  auto vaddr = MakeMapped("/seg/p", 8 * kMiB, MapMechanism::kRangeTable, Prot::kReadWrite);
  ASSERT_TRUE(vaddr.ok());
  ASSERT_TRUE(
      machine_.mmu().Touch(proc_->address_space(), *vaddr, 1, AccessType::kWrite).ok());
  ASSERT_TRUE(fom_.Protect(*proc_, *vaddr, Prot::kRead).ok());
  EXPECT_FALSE(
      machine_.mmu().Touch(proc_->address_space(), *vaddr, 1, AccessType::kWrite).ok());
  EXPECT_TRUE(
      machine_.mmu().Touch(proc_->address_space(), *vaddr, 1, AccessType::kRead).ok());
}

TEST_F(FomTest, ProtectUnderSpliceSwapsTableSets) {
  auto vaddr = MakeMapped("/seg/ps", 4 * kMiB, MapMechanism::kPtSplice, Prot::kReadWrite);
  ASSERT_TRUE(vaddr.ok());
  const uint64_t ptes_before = machine_.ctx().counters().ptes_written;
  ASSERT_TRUE(fom_.Protect(*proc_, *vaddr, Prot::kRead).ok());
  // No PTE rewrites: the RO table set was spliced in instead.
  EXPECT_EQ(machine_.ctx().counters().ptes_written, ptes_before);
  EXPECT_FALSE(
      machine_.mmu().Touch(proc_->address_space(), *vaddr, 1, AccessType::kWrite).ok());
  EXPECT_TRUE(
      machine_.mmu().Touch(proc_->address_space(), *vaddr + kMiB, 1, AccessType::kRead).ok());
}

TEST_F(FomTest, GuardPagesAndCowRejected) {
  auto inode = fom_.CreateSegment("/seg/g", kMiB);
  ASSERT_TRUE(inode.ok());
  auto guard = fom_.Map(*proc_, *inode, Prot::kRead, MapOptions{.guard_page = true});
  EXPECT_EQ(guard.status().code(), StatusCode::kUnsupported);
  auto cow = fom_.Map(*proc_, *inode, Prot::kRead, MapOptions{.copy_on_write = true});
  EXPECT_EQ(cow.status().code(), StatusCode::kUnsupported);
}

TEST_F(FomTest, SharedSpliceMappingsUseTheSamePhysicalNodes) {
  auto inode = fom_.CreateSegment("/seg/shared", 8 * kMiB);
  ASSERT_TRUE(inode.ok());
  auto proc2 = fom_.CreateProcess();
  auto v1 = fom_.Map(*proc_, *inode, Prot::kReadWrite,
                     MapOptions{.mechanism = MapMechanism::kPtSplice});
  auto v2 = fom_.Map(*proc2, *inode, Prot::kReadWrite,
                     MapOptions{.mechanism = MapMechanism::kPtSplice});
  ASSERT_TRUE(v1.ok() && v2.ok());
  // Figure 3: both page tables point at the same interior nodes.
  EXPECT_EQ(proc_->address_space().page_table().GetSubtree(*v1, 1).get(),
            proc2->address_space().page_table().GetSubtree(*v2, 1).get());
  // Writes by one process are visible to the other.
  std::vector<uint8_t> data{9, 9, 9};
  ASSERT_TRUE(machine_.mmu().WriteVirt(proc_->address_space(), *v1 + 100, data).ok());
  std::vector<uint8_t> out(3);
  ASSERT_TRUE(machine_.mmu().ReadVirt(proc2->address_space(), *v2 + 100, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(FomTest, SecondSpliceMapIsCheapTablesAlreadyBuilt) {
  auto inode = fom_.CreateSegment("/seg/warm", 64 * kMiB);
  ASSERT_TRUE(inode.ok());
  auto proc2 = fom_.CreateProcess();
  auto v1 = fom_.Map(*proc_, *inode, Prot::kReadWrite,
                     MapOptions{.mechanism = MapMechanism::kPtSplice});
  ASSERT_TRUE(v1.ok());
  const uint64_t nodes_before = machine_.ctx().counters().pt_nodes_allocated;
  const uint64_t t0 = machine_.ctx().now();
  auto v2 = fom_.Map(*proc2, *inode, Prot::kReadWrite,
                     MapOptions{.mechanism = MapMechanism::kPtSplice});
  ASSERT_TRUE(v2.ok());
  // No new table nodes (beyond the spliced parents) and far less than a
  // per-page map would cost.
  EXPECT_LE(machine_.ctx().counters().pt_nodes_allocated, nodes_before + 3);
  EXPECT_LT(machine_.ctx().now() - t0, 50000u);
}

TEST_F(FomTest, PbmGivesSameVaddrInEveryProcess) {
  auto inode = fom_.CreateSegment("/seg/pbm", 4 * kMiB,
                                  SegmentOptions{.require_single_extent = true});
  ASSERT_TRUE(inode.ok());
  auto proc2 = fom_.CreateProcess();
  auto v1 = fom_.Map(*proc_, *inode, Prot::kReadWrite,
                     MapOptions{.mechanism = MapMechanism::kPbm});
  auto v2 = fom_.Map(*proc2, *inode, Prot::kReadWrite,
                     MapOptions{.mechanism = MapMechanism::kPbm});
  ASSERT_TRUE(v1.ok() && v2.ok());
  EXPECT_EQ(*v1, *v2);  // Sec. 4.2: guaranteed common address
  // And it equals kPbmBase + physical address.
  auto extents = pmfs_.Extents(*inode);
  ASSERT_TRUE(extents.ok());
  EXPECT_EQ(*v1, FomManager::kPbmBase + extents->front().paddr);
}

TEST_F(FomTest, PbmMappingsOfDistinctFilesNeverCollide) {
  auto a = fom_.CreateSegment("/seg/pbm-a", kMiB, SegmentOptions{.require_single_extent = true});
  auto b = fom_.CreateSegment("/seg/pbm-b", kMiB, SegmentOptions{.require_single_extent = true});
  ASSERT_TRUE(a.ok() && b.ok());
  auto va = fom_.Map(*proc_, *a, Prot::kRead, MapOptions{.mechanism = MapMechanism::kPbm});
  auto vb = fom_.Map(*proc_, *b, Prot::kRead, MapOptions{.mechanism = MapMechanism::kPbm});
  ASSERT_TRUE(va.ok() && vb.ok());
  EXPECT_TRUE(*va + kMiB <= *vb || *vb + kMiB <= *va);
}

TEST_F(FomTest, PbmRequiresSingleExtent) {
  // Fragment the fs so a large file needs two extents.
  auto filler1 = fom_.CreateSegment("/f1", 200 * kMiB);
  auto filler2 = fom_.CreateSegment("/f2", 200 * kMiB);
  ASSERT_TRUE(filler1.ok() && filler2.ok());
  ASSERT_TRUE(fom_.DeleteSegment("/f1").ok());
  auto frag = fom_.CreateSegment("/frag", 250 * kMiB);  // 200 MiB hole + tail
  ASSERT_TRUE(frag.ok());
  ASSERT_GE(pmfs_.Stat(*frag)->extent_count, 2u);
  auto v = fom_.Map(*proc_, *frag, Prot::kRead, MapOptions{.mechanism = MapMechanism::kPbm});
  EXPECT_EQ(v.status().code(), StatusCode::kUnsupported);
}

TEST_F(FomTest, ExitProcessReleasesEverything) {
  auto a = MakeMapped("/seg/e1", kMiB, MapMechanism::kRangeTable);
  auto b = MakeMapped("/seg/e2", kMiB, MapMechanism::kPtSplice);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(fom_.ExitProcess(*proc_).ok());
  EXPECT_TRUE(proc_->mappings().empty());
  EXPECT_EQ(pmfs_.Stat(*pmfs_.LookupPath("/seg/e1"))->map_count, 0u);
}

TEST_F(FomTest, HandlePressureDeletesDiscardableFilesOnly) {
  auto cache = fom_.CreateSegment(
      "/cache/1", 16 * kMiB, SegmentOptions{.flags = FileFlags{.discardable = true}});
  auto vital = fom_.CreateSegment("/data/vital", 16 * kMiB);
  ASSERT_TRUE(cache.ok() && vital.ok());
  const uint64_t scans_before = machine_.ctx().counters().pages_scanned;
  auto released = fom_.HandlePressure(8 * kMiB);
  ASSERT_TRUE(released.ok());
  EXPECT_GE(released.value(), 8 * kMiB);
  // No page was scanned: reclamation happened at file granularity.
  EXPECT_EQ(machine_.ctx().counters().pages_scanned, scans_before);
  EXPECT_FALSE(pmfs_.LookupPath("/cache/1").ok());
  EXPECT_TRUE(pmfs_.LookupPath("/data/vital").ok());
}

TEST_F(FomTest, PinnedExtentsWithoutPerPageWork) {
  auto vaddr = MakeMapped("/seg/dma", 32 * kMiB, MapMechanism::kRangeTable);
  ASSERT_TRUE(vaddr.ok());
  const uint64_t meta_updates_before = machine_.ctx().counters().frames_allocated;
  auto extents = fom_.PinnedExtents(*proc_, *vaddr);
  ASSERT_TRUE(extents.ok());
  EXPECT_EQ(extents->size(), 1u);
  EXPECT_EQ(extents->front().bytes, 32 * kMiB);
  EXPECT_EQ(machine_.ctx().counters().frames_allocated, meta_updates_before);
}

TEST_F(FomTest, PersistentSegmentRemappableAfterCrashInO1) {
  auto inode = fom_.CreateSegment(
      "/persist/db", 32 * kMiB,
      SegmentOptions{.flags = FileFlags{.persistent = true}});
  ASSERT_TRUE(inode.ok());
  auto vaddr = fom_.Map(*proc_, *inode, Prot::kReadWrite,
                        MapOptions{.mechanism = MapMechanism::kPtSplice});
  ASSERT_TRUE(vaddr.ok());
  std::vector<uint8_t> data(64, 0x77);
  ASSERT_TRUE(machine_.mmu().WriteVirt(proc_->address_space(), *vaddr + kMiB, data).ok());

  machine_.Crash();
  ASSERT_TRUE(pmfs_.OnCrash().ok());
  ASSERT_TRUE(fom_.OnCrash().ok());

  // New process after reboot maps the same file; tables were persistent, so
  // no node building happens (O(1) first map after reboot).
  auto proc2 = fom_.CreateProcess();
  auto found = fom_.OpenSegment("/persist/db");
  ASSERT_TRUE(found.ok());
  const uint64_t nodes_before = machine_.ctx().counters().pt_nodes_allocated;
  auto v2 = fom_.Map(*proc2, *found, Prot::kReadWrite,
                     MapOptions{.mechanism = MapMechanism::kPtSplice});
  ASSERT_TRUE(v2.ok());
  EXPECT_LE(machine_.ctx().counters().pt_nodes_allocated, nodes_before + 3);
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(machine_.mmu().ReadVirt(proc2->address_space(), *v2 + kMiB, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(FomTest, VolatileSegmentGoneAfterCrash) {
  auto inode = fom_.CreateSegment("/tmp/scratch", kMiB);
  ASSERT_TRUE(inode.ok());
  machine_.Crash();
  ASSERT_TRUE(pmfs_.OnCrash().ok());
  ASSERT_TRUE(fom_.OnCrash().ok());
  EXPECT_FALSE(fom_.OpenSegment("/tmp/scratch").ok());
  EXPECT_EQ(fom_.precreated_node_count(), 0u);
}

TEST_F(FomTest, FixedVaddrMappingAndOverlapRejection) {
  auto a = fom_.CreateSegment("/seg/f1", kMiB);
  auto b = fom_.CreateSegment("/seg/f2", kMiB);
  ASSERT_TRUE(a.ok() && b.ok());
  const Vaddr fixed = FomManager::kMapRegionBase + 16 * kMiB;
  auto v1 = fom_.Map(*proc_, *a, Prot::kRead,
                     MapOptions{.mechanism = MapMechanism::kRangeTable, .fixed_vaddr = fixed});
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, fixed);
  auto v2 = fom_.Map(*proc_, *b, Prot::kRead,
                     MapOptions{.mechanism = MapMechanism::kRangeTable, .fixed_vaddr = fixed});
  EXPECT_EQ(v2.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(FomTest, MapEmptyOrMissingFileRejected) {
  auto inode = pmfs_.Create("/seg/empty", FileFlags{});
  ASSERT_TRUE(inode.ok());
  EXPECT_FALSE(fom_.Map(*proc_, *inode, Prot::kRead).ok());
  EXPECT_FALSE(fom_.Map(*proc_, 9999, Prot::kRead).ok());
  EXPECT_FALSE(fom_.Unmap(*proc_, 0xdead000).ok());
}

}  // namespace
}  // namespace o1mem
