// Tmpfs: an in-memory file system with page-granular backing, modeled on
// Linux tmpfs. This is the baseline substrate of Figures 1a/1b: every page
// of a file is a separate page-cache entry allocated through the buddy
// allocator, so populating or faulting a mapping does per-page work.
//
// Namespace, reference counts and discardable reclaim come from InodeFs;
// tmpfs adds the page-cache backing, its quota, and borrowed second-class
// pages that a map promotes first.
//
// All tmpfs contents are volatile: a machine crash empties the file system.
#ifndef O1MEM_SRC_FS_TMPFS_H_
#define O1MEM_SRC_FS_TMPFS_H_

#include <map>

#include "src/fs/inode_fs.h"
#include "src/mm/phys_manager.h"

namespace o1mem {

struct TmpfsInode : InodeRefs {
  std::map<uint64_t, Paddr> pages;  // page index -> frame
  // Borrowed second-class extent backing this file's pages (0 = none).
  // Only discardable, unmapped files borrow; mapping one promotes its
  // pages to first-class frames first (UnborrowInode) so a later revoke
  // can never yank memory out from under live PTEs.
  Paddr borrow_base = 0;
  uint64_t borrow_bytes = 0;
};

class Tmpfs : public InodeFs<Tmpfs, TmpfsInode> {
 public:
  // Backing frames come from `phys_mgr` (DRAM); at most `quota_bytes` of
  // backing may be allocated ("one current use of tmpfs is to provide
  // file-system controls over memory allocation, such as quotas").
  Tmpfs(Machine* machine, PhysManager* phys_mgr, uint64_t quota_bytes);
  ~Tmpfs() override;

  Tmpfs(const Tmpfs&) = delete;
  Tmpfs& operator=(const Tmpfs&) = delete;

  std::string_view name() const override { return "tmpfs"; }

  Result<InodeId> Create(std::string_view path, const FileFlags& flags) override;
  Status Unlink(std::string_view path) override;
  Status Mkdir(std::string_view path) override;
  Status Rmdir(std::string_view path) override;
  Status Rename(std::string_view from, std::string_view to) override;
  Status Link(std::string_view existing, std::string_view new_path) override;

  // Mapping a file that lives on borrowed second-class memory promotes its
  // pages to first-class frames first: a revoke must never have to rip
  // backing out from under installed PTEs.
  Status AddMapRef(InodeId id) override;

  Status Resize(InodeId id, uint64_t size) override;
  Result<uint64_t> ReadAt(InodeId id, uint64_t offset, std::span<uint8_t> out) override;
  Result<uint64_t> WriteAt(InodeId id, uint64_t offset,
                           std::span<const uint8_t> data) override;

  Result<std::vector<FileExtentView>> Extents(InodeId id) override;

  uint64_t free_bytes() const override;
  uint64_t quota_bytes() const override { return quota_bytes_; }

  Status OnCrash() override;

  // Page-cache page for (inode, page-aligned offset), allocating (zeroed)
  // on any first touch, read or write. The demand pager and the copy paths
  // both land here.
  Result<Paddr> GetBackingPage(InodeId id, uint64_t offset, bool for_write);

  // --- Second-class backing from the contiguous area (src/contig) --------
  // Revoke callback wired by System: the ContigAllocator took back the
  // whole extent [base, base+bytes) this inode had borrowed. The borrowed
  // pages are dropped on the spot -- the file is discardable by contract,
  // so the content simply becomes holes (reads return zeros). Never frees
  // to the buddy and never calls Return (the allocator already reclaimed
  // the extent).
  Status RevokeBorrowed(InodeId id, Paddr base, uint64_t bytes);

  // Resident bytes backed by borrowed area extents (not counted against the
  // tmpfs quota: second-class memory is a bonus, not a budget).
  uint64_t borrowed_used_bytes() const { return borrowed_used_bytes_; }

 private:
  friend class InodeFs<Tmpfs, TmpfsInode>;

  // Frees all backing of `id` and erases it. The inode must be
  // unreferenced.
  Status Destroy(InodeId id);
  uint64_t BytesHeld(const Inode& inode) const { return inode.pages.size() * kPageSize; }
  void StatBacking(const Inode& inode, FileStat& st) const {
    st.extent_count = inode.pages.size();
  }
  Status FreePagesFrom(Inode& inode, uint64_t first_page_index);

  static bool InBorrow(const Inode& inode, Paddr frame) {
    return inode.borrow_bytes > 0 && frame >= inode.borrow_base &&
           frame - inode.borrow_base < inode.borrow_bytes;
  }

  // Promotes every borrowed page to a first-class buddy frame (copy) and
  // returns the extent. Charged against the quota; called before the first
  // map reference lands.
  Status UnborrowInode(Inode& inode);

  PhysManager* phys_mgr_;
  uint64_t quota_bytes_;
  uint64_t used_bytes_ = 0;
  uint64_t borrowed_used_bytes_ = 0;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_FS_TMPFS_H_
