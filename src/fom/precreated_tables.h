// Pre-created page tables (Sec. 3.1): "as files are stored in memory, it is
// possible to pre-create page tables, so that mapping becomes changing a
// single pointer in a page table ... pre-created page tables can be stored
// persistently, so that even when mapping a file the first time, an existing
// page table can be re-used for O(1) operations."
//
// A file's pre-created tables are one level-1 (PT) node per 2 MiB window of
// the file, with 4 KiB leaf PTEs resolving through the file's extents.
// Two variants are kept -- read-only and read-write -- so whole-file
// permission changes are a splice swap, not a PTE rewrite (the "two sets of
// page tables to allow different permissions" of Sec. 4.2).
//
// Building is O(pages) and happens once (at file creation/resize); every
// subsequent map is O(windows) splices. When the file is persistent the
// nodes are charged as NVM writes and survive crashes.
//
// Simulated cost and host work are kept apart. BuildPrecreatedTables charges
// the whole build at its program point; the host PageTableNodes of a
// variant are built on the first ForProt/ForProtL2 call that asks for it,
// charge nothing, and are then shared by every splice. A segment nobody
// splices never costs the host its O(pages) of nodes.
#ifndef O1MEM_SRC_FOM_PRECREATED_TABLES_H_
#define O1MEM_SRC_FOM_PRECREATED_TABLES_H_

#include <optional>
#include <span>
#include <vector>

#include "src/fs/file_system.h"
#include "src/sim/page_table.h"
#include "src/sim/phys_mem.h"

namespace o1mem {

class PrecreatedTables {
 public:
  // `extents` must cover [0, file_bytes) in file-offset order:
  // BuildPrecreatedTables checks that, and a persistent segment's sidecar
  // holds only extents a build has checked.
  PrecreatedTables(std::span<const FileExtentView> extents, uint64_t file_bytes)
      : extents_(extents.begin(), extents.end()), file_bytes_(file_bytes) {}

  uint64_t file_bytes() const { return file_bytes_; }
  // One level-1 node per 2 MiB window, per variant.
  size_t window_count() const { return (file_bytes_ + BytesPerNode(1) - 1) / BytesPerNode(1); }
  // Level-2 wrappers: one PD node per full GROUP of 512 level-1 nodes, so a
  // 1 GiB-aligned span of the file splices with ONE store ("2MB, 1GB" --
  // both natural granularities of Sec. 3.1). Files under 1 GiB have none.
  size_t l2_group_count() const { return window_count() / kPtEntriesPerNode; }
  uint64_t node_count() const { return 2 * (window_count() + l2_group_count()); }

  // The level-1 / level-2 nodes of the variant serving `prot`; built on
  // first use (host only, uncharged).
  const std::vector<NodeRef>& ForProt(Prot prot) const { return Variant(prot).l1; }
  const std::vector<NodeRef>& ForProtL2(Prot prot) const { return Variant(prot).l2; }

 private:
  struct Nodes {
    std::vector<NodeRef> l1;
    std::vector<NodeRef> l2;  // l2[g] points at l1[512 g .. 512 g + 511]
  };
  const Nodes& Variant(Prot prot) const;

  std::vector<FileExtentView> extents_;
  uint64_t file_bytes_;
  mutable std::optional<Nodes> read_only_;
  mutable std::optional<Nodes> read_write_;
};

// Charges the build of both table sets for a file backed by `extents`
// (sorted by file_offset, covering [0, file_bytes) with no holes): a node
// allocation per window and per L2 group, a PTE write per page and per L2
// entry, for each variant. When `persist_in_nvm` is set, each node is
// additionally charged as a 4 KiB NVM write (the table is stored next to
// the file's data). A hole is corruption, charged up to where the
// read-only pass would have found it.
Result<PrecreatedTables> BuildPrecreatedTables(SimContext* ctx, PhysicalMemory* phys,
                                               std::span<const FileExtentView> extents,
                                               uint64_t file_bytes, bool persist_in_nvm);

}  // namespace o1mem

#endif  // O1MEM_SRC_FOM_PRECREATED_TABLES_H_
