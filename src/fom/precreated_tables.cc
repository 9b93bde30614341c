#include "src/fom/precreated_tables.h"

#include <algorithm>

namespace o1mem {

namespace {

// The first page offset below `file_bytes` that `extents`, walked in order,
// leave uncovered; `file_bytes` when there is none.
uint64_t FirstHole(std::span<const FileExtentView> extents, uint64_t file_bytes) {
  uint64_t off = 0;  // the next page to cover
  for (const FileExtentView& e : extents) {
    if (off >= file_bytes || e.file_offset > off) {
      break;
    }
    off = std::max(off, AlignUp(e.file_offset + e.bytes, kPageSize));
  }
  return std::min(off, file_bytes);
}

}  // namespace

const PrecreatedTables::Nodes& PrecreatedTables::Variant(Prot prot) const {
  const bool rw = HasProt(prot, Prot::kWrite);
  std::optional<Nodes>& slot = rw ? read_write_ : read_only_;
  if (slot.has_value()) {
    return *slot;
  }
  Nodes& nodes = slot.emplace();
  const Prot leaf_prot = rw ? Prot::kReadWrite : Prot::kRead;
  size_t cursor = 0;  // index into extents_, advanced monotonically
  for (uint64_t window = 0; window < file_bytes_; window += BytesPerNode(1)) {
    auto node = std::make_shared<PageTableNode>();
    const uint64_t window_end = std::min(window + BytesPerNode(1), file_bytes_);
    for (uint64_t off = window; off < window_end; off += kPageSize) {
      while (cursor < extents_.size() &&
             extents_[cursor].file_offset + extents_[cursor].bytes <= off) {
        ++cursor;
      }
      O1_CHECK(cursor < extents_.size() && extents_[cursor].file_offset <= off);
      const FileExtentView& e = extents_[cursor];
      PtEntry& entry = node->at(static_cast<int>((off - window) >> kPageShift));
      entry.kind = PtEntry::Kind::kLeaf;
      entry.paddr = e.paddr + (off - e.file_offset);
      entry.prot = leaf_prot;
      node->live_entries++;
    }
    nodes.l1.push_back(std::move(node));
  }
  for (size_t g = 0; g < l2_group_count(); ++g) {
    auto l2 = std::make_shared<PageTableNode>();
    for (int i = 0; i < kPtEntriesPerNode; ++i) {
      l2->at(i) = PtEntry{.kind = PtEntry::Kind::kTable,
                          .child = nodes.l1[g * kPtEntriesPerNode + static_cast<size_t>(i)]};
    }
    l2->live_entries = kPtEntriesPerNode;
    nodes.l2.push_back(std::move(l2));
  }
  return nodes;
}

Result<PrecreatedTables> BuildPrecreatedTables(SimContext* ctx, PhysicalMemory* phys,
                                               std::span<const FileExtentView> extents,
                                               uint64_t file_bytes, bool persist_in_nvm) {
  O1_CHECK(ctx != nullptr && phys != nullptr);
  if (file_bytes == 0) {
    return InvalidArgument("cannot pre-create tables for an empty file");
  }
  const CostModel& c = ctx->cost();
  EventCounters& counters = ctx->counters();
  if (const uint64_t hole = FirstHole(extents, file_bytes); hole < file_bytes) {
    // The read-only pass allocates the hole's window and writes every PTE
    // before it, then fails.
    const uint64_t nodes = hole / BytesPerNode(1) + 1;
    const uint64_t ptes = hole >> kPageShift;
    ctx->Charge(nodes * c.pt_node_alloc_cycles + ptes * c.pte_write_cycles);
    counters.pt_nodes_allocated += nodes;
    counters.ptes_written += ptes;
    return Corruption("file extents do not cover its size");
  }
  PrecreatedTables tables(extents, file_bytes);
  // Per variant: a node per window with a leaf PTE per page, then a node
  // per L2 group with 512 table entries (not counted as ptes_written).
  const uint64_t windows = tables.window_count();
  const uint64_t groups = tables.l2_group_count();
  const uint64_t pages = PagesFor(file_bytes);
  ctx->Charge(2 * ((windows + groups) * c.pt_node_alloc_cycles +
                   (pages + groups * kPtEntriesPerNode) * c.pte_write_cycles));
  counters.pt_nodes_allocated += tables.node_count();
  counters.ptes_written += 2 * pages;
  if (persist_in_nvm) {
    // Each node is one 4 KiB page written to NVM alongside the file.
    ctx->Charge(tables.node_count() * c.NvmWriteBulkCycles(kPageSize));
  }
  return tables;
}

}  // namespace o1mem
