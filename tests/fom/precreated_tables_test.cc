#include "src/fom/precreated_tables.h"

#include <gtest/gtest.h>

namespace o1mem {
namespace {

std::vector<uint64_t> AllCounters(const SimContext& ctx) {
  std::vector<uint64_t> values;
  ctx.counters().ForEachField([&](const char*, uint64_t v) { values.push_back(v); });
  return values;
}

// What one BuildPrecreatedTables call charged.
struct BuildCost {
  bool ok = false;
  uint64_t cycles = 0;
  uint64_t nodes = 0;  // pt_nodes_allocated
  uint64_t ptes = 0;   // ptes_written
  bool operator==(const BuildCost&) const = default;
};

std::ostream& operator<<(std::ostream& os, const BuildCost& c) {
  return os << "{ok " << c.ok << ", cycles " << c.cycles << ", nodes " << c.nodes << ", ptes "
            << c.ptes << "}";
}

class PrecreatedTest : public ::testing::Test {
 protected:
  BuildCost Build(std::span<const FileExtentView> extents, uint64_t file_bytes, bool persist) {
    const uint64_t t0 = ctx_.now();
    const EventCounters before = ctx_.counters();
    auto tables = BuildPrecreatedTables(&ctx_, &phys_, extents, file_bytes, persist);
    const EventCounters d = ctx_.counters().Delta(before);
    return {tables.ok(), ctx_.now() - t0, d.pt_nodes_allocated, d.ptes_written};
  }

  SimContext ctx_;
  PhysicalMemory phys_{&ctx_, 16 * kMiB, 64 * kMiB};
};

TEST_F(PrecreatedTest, SingleExtentFileBuildsCorrectLeaves) {
  const std::vector<FileExtentView> extents = {
      {.file_offset = 0, .paddr = 32 * kMiB, .bytes = 4 * kMiB}};
  auto tables = BuildPrecreatedTables(&ctx_, &phys_, extents, 4 * kMiB, false);
  ASSERT_TRUE(tables.ok());
  EXPECT_EQ(tables->window_count(), 2u);  // 4 MiB / 2 MiB
  EXPECT_EQ(tables->node_count(), 4u);    // RO + RW
  // Spot check: offset 3 MiB lives in window 1 at node offset 1 MiB.
  auto t = PageTable::LookupInSubtree(tables->ForProt(Prot::kReadWrite)[1], 1, kMiB + 123);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->paddr, 32 * kMiB + 3 * kMiB + 123);
  EXPECT_TRUE(HasProt(t->prot, Prot::kWrite));
  // RO set has the same translation but read-only.
  auto ro = PageTable::LookupInSubtree(tables->ForProt(Prot::kRead)[1], 1, kMiB + 123);
  ASSERT_TRUE(ro.has_value());
  EXPECT_EQ(ro->paddr, t->paddr);
  EXPECT_FALSE(HasProt(ro->prot, Prot::kWrite));
}

TEST_F(PrecreatedTest, MultiExtentFileResolvesAcrossSeams) {
  // 2 MiB file from two discontiguous 1 MiB extents.
  const std::vector<FileExtentView> extents = {
      {.file_offset = 0, .paddr = 20 * kMiB, .bytes = kMiB},
      {.file_offset = kMiB, .paddr = 48 * kMiB, .bytes = kMiB}};
  auto tables = BuildPrecreatedTables(&ctx_, &phys_, extents, 2 * kMiB, false);
  ASSERT_TRUE(tables.ok());
  EXPECT_EQ(tables->window_count(), 1u);
  const NodeRef& window = tables->ForProt(Prot::kReadWrite)[0];
  auto before = PageTable::LookupInSubtree(window, 1, kMiB - kPageSize);
  auto after = PageTable::LookupInSubtree(window, 1, kMiB);
  ASSERT_TRUE(before.has_value() && after.has_value());
  EXPECT_EQ(before->paddr, 20 * kMiB + kMiB - kPageSize);
  EXPECT_EQ(after->paddr, 48 * kMiB);
}

TEST_F(PrecreatedTest, PartialLastWindowLeavesTailUnmapped) {
  const std::vector<FileExtentView> extents = {
      {.file_offset = 0, .paddr = 20 * kMiB, .bytes = 3 * kMiB}};
  auto tables = BuildPrecreatedTables(&ctx_, &phys_, extents, 3 * kMiB, false);
  ASSERT_TRUE(tables.ok());
  EXPECT_EQ(tables->window_count(), 2u);
  const NodeRef& tail = tables->ForProt(Prot::kReadWrite)[1];
  EXPECT_TRUE(PageTable::LookupInSubtree(tail, 1, kMiB - 1).has_value());
  EXPECT_FALSE(PageTable::LookupInSubtree(tail, 1, kMiB).has_value());
}

TEST_F(PrecreatedTest, HolesAreCorruption) {
  const std::vector<FileExtentView> extents = {
      {.file_offset = kPageSize, .paddr = 20 * kMiB, .bytes = kMiB}};
  auto tables = BuildPrecreatedTables(&ctx_, &phys_, extents, kMiB, false);
  ASSERT_FALSE(tables.ok());
  EXPECT_EQ(tables.status().code(), StatusCode::kCorruption);
  // A failed build charges what a node-by-node build spends before it meets
  // the hole: the hole's window and every PTE before it.
  EXPECT_EQ(Build(extents, kMiB, false), (BuildCost{false, 350, 1, 0}));
  const std::vector<FileExtentView> hole_at_3m = {
      {.file_offset = 0, .paddr = 20 * kMiB, .bytes = 3 * kMiB},
      {.file_offset = 3 * kMiB + 2 * kPageSize, .paddr = 40 * kMiB, .bytes = kMiB}};
  EXPECT_EQ(Build(hole_at_3m, 5 * kMiB, true), (BuildCost{false, 69820, 2, 768}));
}

// Exact charges of a successful build: the simulated cost must not depend
// on when the host builds its nodes.
TEST_F(PrecreatedTest, BuildChargesArePinned) {
  const std::vector<FileExtentView> partial = {
      {.file_offset = 0, .paddr = 20 * kMiB, .bytes = 3 * kMiB}};
  EXPECT_EQ(Build(partial, 3 * kMiB, false), (BuildCost{true, 139640, 4, 1536}));
  EXPECT_EQ(Build(partial, 3 * kMiB, true), (BuildCost{true, 145784, 4, 1536}));
  const std::vector<FileExtentView> seam = {
      {.file_offset = 0, .paddr = 20 * kMiB, .bytes = kMiB},
      {.file_offset = kMiB, .paddr = 48 * kMiB, .bytes = kMiB}};
  EXPECT_EQ(Build(seam, 2 * kMiB, false), (BuildCost{true, 92860, 2, 1024}));
  // 2 GiB + 4 MiB over two extents: 1026 windows and 2 L2 groups per variant.
  const std::vector<FileExtentView> gib = {
      {.file_offset = 0, .paddr = 4 * kGiB, .bytes = 700 * kMiB},
      {.file_offset = 700 * kMiB, .paddr = kGiB, .bytes = 2 * kGiB + 4 * kMiB - 700 * kMiB}};
  EXPECT_EQ(Build(gib, 2 * kGiB + 4 * kMiB, true), (BuildCost{true, 98618096, 2056, 1050624}));
}

// The host nodes are built on first use: no cycle, no counter, and every
// leaf agrees with a per-page walk of the extents.
TEST_F(PrecreatedTest, LazyNodesChargeNothingAndMatchPerPageReference) {
  const uint64_t file_bytes = kGiB + 6 * kMiB + 3 * kPageSize;
  const std::vector<FileExtentView> extents = {
      {.file_offset = 0, .paddr = 8 * kGiB, .bytes = 300 * kMiB + 5 * kPageSize},
      {.file_offset = 300 * kMiB + 5 * kPageSize, .paddr = 2 * kGiB, .bytes = 724 * kMiB},
      {.file_offset = kGiB + 5 * kPageSize, .paddr = 5 * kGiB,
       .bytes = file_bytes - kGiB - 5 * kPageSize}};
  auto tables = BuildPrecreatedTables(&ctx_, &phys_, extents, file_bytes, true);
  ASSERT_TRUE(tables.ok());
  ASSERT_EQ(tables->window_count(), 516u);
  ASSERT_EQ(tables->l2_group_count(), 1u);
  EXPECT_EQ(tables->node_count(), 2u * (516 + 1));

  const uint64_t t0 = ctx_.now();
  const std::vector<uint64_t> counters = AllCounters(ctx_);
  for (Prot prot : {Prot::kRead, Prot::kReadWrite}) {
    const std::vector<NodeRef>& l1 = tables->ForProt(prot);
    const std::vector<NodeRef>& l2 = tables->ForProtL2(prot);
    ASSERT_EQ(l1.size(), 516u);
    ASSERT_EQ(l2.size(), 1u);
    EXPECT_EQ(&l1, &tables->ForProt(prot));  // built once, then shared
    for (int i = 0; i < kPtEntriesPerNode; ++i) {
      ASSERT_EQ(l2[0]->at(i).kind, PtEntry::Kind::kTable);
      ASSERT_EQ(l2[0]->at(i).child, l1[static_cast<size_t>(i)]);
    }
    for (uint64_t off = 0; off < AlignUp(BytesPerNode(1) * l1.size(), kPageSize);
         off += kPageSize) {
      const PtEntry& leaf = l1[off / BytesPerNode(1)]->at(
          static_cast<int>((off % BytesPerNode(1)) >> kPageShift));
      if (off >= file_bytes) {
        ASSERT_TRUE(leaf.empty()) << off;
        continue;
      }
      const FileExtentView* e = &extents[0];
      while (off >= e->file_offset + e->bytes) {
        ++e;
      }
      ASSERT_EQ(leaf.kind, PtEntry::Kind::kLeaf) << off;
      ASSERT_EQ(leaf.paddr, e->paddr + (off - e->file_offset)) << off;
      ASSERT_EQ(leaf.prot, HasProt(prot, Prot::kWrite) ? Prot::kReadWrite : Prot::kRead);
    }
    EXPECT_EQ(l1.back()->live_entries, 3);  // the 12 KiB tail window
  }
  EXPECT_NE(tables->ForProt(Prot::kRead)[0], tables->ForProt(Prot::kReadWrite)[0]);
  EXPECT_EQ(ctx_.now(), t0);
  EXPECT_EQ(AllCounters(ctx_), counters);
}

TEST_F(PrecreatedTest, EmptyFileRejected) {
  EXPECT_FALSE(BuildPrecreatedTables(&ctx_, &phys_, {}, 0, false).ok());
}

TEST_F(PrecreatedTest, PersistentBuildChargesNvmWrites) {
  const std::vector<FileExtentView> extents = {
      {.file_offset = 0, .paddr = 32 * kMiB, .bytes = 2 * kMiB}};
  const uint64_t t0 = ctx_.now();
  ASSERT_TRUE(BuildPrecreatedTables(&ctx_, &phys_, extents, 2 * kMiB, false).ok());
  const uint64_t volatile_cost = ctx_.now() - t0;
  const uint64_t t1 = ctx_.now();
  ASSERT_TRUE(BuildPrecreatedTables(&ctx_, &phys_, extents, 2 * kMiB, true).ok());
  const uint64_t persistent_cost = ctx_.now() - t1;
  EXPECT_GT(persistent_cost, volatile_cost);
}

TEST_F(PrecreatedTest, BuildIsLinearButMapIsNot) {
  // Documents the design: building is O(pages) once...
  const std::vector<FileExtentView> small = {
      {.file_offset = 0, .paddr = 20 * kMiB, .bytes = 2 * kMiB}};
  const std::vector<FileExtentView> large = {
      {.file_offset = 0, .paddr = 20 * kMiB, .bytes = 32 * kMiB}};
  const uint64_t t0 = ctx_.now();
  ASSERT_TRUE(BuildPrecreatedTables(&ctx_, &phys_, small, 2 * kMiB, false).ok());
  const uint64_t small_cost = ctx_.now() - t0;
  const uint64_t t1 = ctx_.now();
  auto big = BuildPrecreatedTables(&ctx_, &phys_, large, 32 * kMiB, false);
  ASSERT_TRUE(big.ok());
  const uint64_t large_cost = ctx_.now() - t1;
  EXPECT_GT(large_cost, 8 * small_cost);  // roughly 16x the pages
  // ...while consuming the tables (splicing) is per-window, tested in
  // fom_manager_test.cc.
  EXPECT_EQ(big->window_count(), 16u);
}

}  // namespace
}  // namespace o1mem
