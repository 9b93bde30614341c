#include "src/fs/tmpfs.h"

#include <algorithm>

namespace o1mem {

Tmpfs::Tmpfs(Machine* machine, PhysManager* phys_mgr, uint64_t quota_bytes)
    : InodeFs(machine), phys_mgr_(phys_mgr), quota_bytes_(quota_bytes) {
  O1_CHECK(phys_mgr != nullptr);
}

Tmpfs::~Tmpfs() = default;

Result<InodeId> Tmpfs::Create(std::string_view path, const FileFlags& flags) {
  if (flags.persistent) {
    return Unsupported("tmpfs cannot hold persistent files");
  }
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  Inode inode;
  inode.id = next_inode_++;
  inode.flags = flags;
  TouchAtime(inode);
  const InodeId id = inode.id;
  O1_RETURN_IF_ERROR(AddInode(std::move(inode), path));
  return id;
}

Status Tmpfs::Unlink(std::string_view path) {
  machine_->ctx().Charge(machine_->ctx().cost().file_delete_cycles);
  O1_ASSIGN_OR_RETURN(const InodeId id, ns_.RemoveFile(path));
  return DropLink(id);
}

Status Tmpfs::Mkdir(std::string_view path) {
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  return ns_.Mkdir(path);
}

Status Tmpfs::Rmdir(std::string_view path) {
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  return ns_.Rmdir(path);
}

Status Tmpfs::Rename(std::string_view from, std::string_view to) {
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  return ns_.Rename(from, to);
}

Status Tmpfs::Link(std::string_view existing, std::string_view new_path) {
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  O1_ASSIGN_OR_RETURN(const InodeId id, ns_.LookupFile(existing));
  return AddLink(new_path, id);
}

Status Tmpfs::AddMapRef(InodeId id) {
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  if (inode->borrow_bytes > 0) {
    O1_RETURN_IF_ERROR(UnborrowInode(*inode));
  }
  return InodeFs::AddMapRef(id);
}

Status Tmpfs::FreePagesFrom(Inode& inode, uint64_t first_page_index) {
  auto it = inode.pages.lower_bound(first_page_index);
  while (it != inode.pages.end()) {
    if (InBorrow(inode, it->second)) {
      // Borrowed frames belong to the contiguous area, not the buddy: just
      // drop the page-cache entry (the extent is returned in one piece by
      // Destroy, or was already reclaimed by a revoke).
      phys_mgr_->meta().Of(it->second) = PageMeta{};
      borrowed_used_bytes_ -= kPageSize;
    } else {
      O1_RETURN_IF_ERROR(phys_mgr_->FreeFrame(it->second));
      used_bytes_ -= kPageSize;
    }
    it = inode.pages.erase(it);
  }
  return OkStatus();
}

Status Tmpfs::Resize(InodeId id, uint64_t size) {
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  if (size < inode->size) {
    O1_RETURN_IF_ERROR(FreePagesFrom(*inode, PagesFor(size)));
    // Zero the kept tail of a partially covered last page (truncate(2)
    // semantics: re-extension reads zeros).
    if (!IsAligned(size, kPageSize)) {
      auto it = inode->pages.find(size >> kPageShift);
      if (it != inode->pages.end()) {
        O1_RETURN_IF_ERROR(machine_->phys().Zero(it->second + (size & (kPageSize - 1)),
                                                 kPageSize - (size & (kPageSize - 1))));
      }
    }
  }
  // Growth is lazy: tmpfs allocates page-cache pages on first touch.
  inode->size = size;
  TouchAtime(*inode);
  return OkStatus();
}

Result<Paddr> Tmpfs::GetBackingPage(InodeId id, uint64_t offset, bool for_write) {
  (void)for_write;  // tmpfs allocates on any first touch
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  if (offset >= AlignUp(std::max<uint64_t>(inode->size, 1), kPageSize)) {
    return InvalidArgument("page beyond end of tmpfs file");
  }
  const uint64_t index = offset >> kPageShift;
  machine_->ctx().Charge(machine_->ctx().cost().page_cache_lookup_cycles);
  auto it = inode->pages.find(index);
  if (it != inode->pages.end()) {
    return it->second;
  }
  // Discardable, unmapped files prefer second-class backing borrowed from
  // the contiguous area: one whole-file extent, not counted against the
  // quota, revocable whole at any time. Falls through to ordinary frames
  // when the area has nothing to lend (or the page is past the borrow).
  ContigAllocator* contig = phys_mgr_->contig();
  if (contig != nullptr && inode->flags.discardable && inode->maps == 0) {
    if (inode->borrow_bytes == 0 && inode->pages.empty()) {
      const uint64_t want = AlignUp(std::max<uint64_t>(inode->size, kPageSize), kPageSize);
      auto lent = contig->Borrow(want, LenderClass::kDiscardableFile, inode->id);
      if (lent.ok()) {
        inode->borrow_base = lent.value();
        inode->borrow_bytes = want;
      }
    }
    if ((index << kPageShift) < inode->borrow_bytes) {
      const Paddr frame = inode->borrow_base + (index << kPageShift);
      O1_RETURN_IF_ERROR(machine_->phys().Zero(frame, kPageSize));
      machine_->ctx().Charge(machine_->ctx().cost().page_cache_insert_cycles);
      PageMeta& m = phys_mgr_->meta().Of(frame);
      m = PageMeta{};
      m.refcount = 1;
      m.Set(PageFlag::kUptodate);
      m.Set(PageFlag::kSwapBacked);
      m.owner_inode = id;
      m.file_offset = index << kPageShift;
      inode->pages.emplace(index, frame);
      borrowed_used_bytes_ += kPageSize;
      return frame;
    }
  }
  if (used_bytes_ + kPageSize > quota_bytes_) {
    return QuotaExceeded("tmpfs quota exhausted");
  }
  auto frame = phys_mgr_->AllocFrame(/*zero=*/true);
  if (!frame.ok()) {
    return frame.status();
  }
  machine_->ctx().Charge(machine_->ctx().cost().page_cache_insert_cycles);
  PageMeta& m = phys_mgr_->meta().Of(frame.value());
  m.Set(PageFlag::kUptodate);
  m.Set(PageFlag::kSwapBacked);
  m.owner_inode = id;
  m.file_offset = index << kPageShift;
  inode->pages.emplace(index, frame.value());
  used_bytes_ += kPageSize;
  return frame.value();
}

Result<uint64_t> Tmpfs::ReadAt(InodeId id, uint64_t offset, std::span<uint8_t> out) {
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  TouchAtime(*inode);
  if (offset >= inode->size) {
    return uint64_t{0};
  }
  const uint64_t len = std::min<uint64_t>(out.size(), inode->size - offset);
  uint64_t done = 0;
  while (done < len) {
    const uint64_t cur = offset + done;
    const uint64_t in_page = std::min<uint64_t>(kPageSize - (cur & (kPageSize - 1)), len - done);
    machine_->ctx().Charge(machine_->ctx().cost().page_cache_lookup_cycles);
    auto it = inode->pages.find(cur >> kPageShift);
    if (it == inode->pages.end()) {
      // Hole: zero fill (charged as a DRAM-rate fill).
      std::fill_n(out.begin() + static_cast<std::ptrdiff_t>(done), in_page, uint8_t{0});
      machine_->ctx().Charge(machine_->ctx().cost().DramBulkCycles(in_page));
    } else {
      O1_RETURN_IF_ERROR(machine_->phys().Read(it->second + (cur & (kPageSize - 1)),
                                               out.subspan(done, in_page)));
    }
    done += in_page;
  }
  return len;
}

Result<uint64_t> Tmpfs::WriteAt(InodeId id, uint64_t offset, std::span<const uint8_t> data) {
  {
    O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
    if (offset + data.size() > inode->size) {
      O1_RETURN_IF_ERROR(Resize(id, offset + data.size()));
    }
    TouchAtime(*inode);
  }
  uint64_t done = 0;
  while (done < data.size()) {
    const uint64_t cur = offset + done;
    const uint64_t in_page =
        std::min<uint64_t>(kPageSize - (cur & (kPageSize - 1)), data.size() - done);
    auto frame = GetBackingPage(id, AlignDown(cur, kPageSize), /*for_write=*/true);
    if (!frame.ok()) {
      return frame.status();
    }
    O1_RETURN_IF_ERROR(machine_->phys().Write(frame.value() + (cur & (kPageSize - 1)),
                                              data.subspan(done, in_page)));
    done += in_page;
  }
  return static_cast<uint64_t>(data.size());
}

Result<std::vector<FileExtentView>> Tmpfs::Extents(InodeId id) {
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  // Page-granular backing: adjacent pages are rarely physically contiguous,
  // so this usually returns one extent per page -- which is exactly why the
  // baseline cannot map tmpfs files in O(1).
  std::vector<FileExtentView> out;
  for (const auto& [index, paddr] : inode->pages) {
    machine_->ctx().Charge(machine_->ctx().cost().page_cache_lookup_cycles);
    if (!out.empty() && out.back().paddr + out.back().bytes == paddr &&
        out.back().file_offset + out.back().bytes == index << kPageShift) {
      out.back().bytes += kPageSize;
    } else {
      out.push_back(FileExtentView{.file_offset = index << kPageShift,
                                   .paddr = paddr,
                                   .bytes = kPageSize});
    }
  }
  return out;
}

uint64_t Tmpfs::free_bytes() const { return quota_bytes_ - used_bytes_; }

Status Tmpfs::Destroy(InodeId id) {
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  O1_RETURN_IF_ERROR(FreePagesFrom(*inode, 0));
  if (inode->borrow_bytes > 0) {
    O1_RETURN_IF_ERROR(phys_mgr_->contig()->Return(inode->borrow_base));
    inode->borrow_base = 0;
    inode->borrow_bytes = 0;
  }
  inodes_.erase(id);
  return OkStatus();
}

Status Tmpfs::UnborrowInode(Inode& inode) {
  for (auto& [index, frame] : inode.pages) {
    if (!InBorrow(inode, frame)) {
      continue;
    }
    // First-class promotion is charged against the quota: the file stops
    // being a freeloader the moment it is mapped.
    if (used_bytes_ + kPageSize > quota_bytes_) {
      return QuotaExceeded("tmpfs quota exhausted promoting borrowed pages");
    }
    O1_ASSIGN_OR_RETURN(const Paddr fresh, phys_mgr_->AllocFrame(/*zero=*/false));
    O1_RETURN_IF_ERROR(machine_->phys().Move(fresh, frame, kPageSize));
    PageMeta& m = phys_mgr_->meta().Of(fresh);
    m.Set(PageFlag::kUptodate);
    m.Set(PageFlag::kSwapBacked);
    m.owner_inode = inode.id;
    m.file_offset = index << kPageShift;
    phys_mgr_->meta().Of(frame) = PageMeta{};
    frame = fresh;
    used_bytes_ += kPageSize;
    borrowed_used_bytes_ -= kPageSize;
  }
  O1_RETURN_IF_ERROR(phys_mgr_->contig()->Return(inode.borrow_base));
  inode.borrow_base = 0;
  inode.borrow_bytes = 0;
  return OkStatus();
}

Status Tmpfs::RevokeBorrowed(InodeId id, Paddr base, uint64_t bytes) {
  auto got = Get(id);
  if (!got.ok()) {
    return OkStatus();  // inode already destroyed; nothing borrowed remains
  }
  Inode* inode = got.value();
  O1_CHECK(inode->borrow_base == base && inode->borrow_bytes == bytes);
  // Content-level discard: the borrowed pages become holes. The file itself
  // survives (reads return zeros), which is what "discardable" licenses --
  // the O(1) point is that this is one extent drop, not a page walk with
  // per-page migration.
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles +
                         machine_->ctx().cost().extent_free_cycles);
  uint64_t dropped = 0;
  for (auto it = inode->pages.begin(); it != inode->pages.end();) {
    if (InBorrow(*inode, it->second)) {
      phys_mgr_->meta().Of(it->second) = PageMeta{};
      dropped += kPageSize;
      it = inode->pages.erase(it);
    } else {
      ++it;
    }
  }
  borrowed_used_bytes_ -= dropped;
  machine_->ctx().counters().discard_bytes += dropped;
  inode->borrow_base = 0;
  inode->borrow_bytes = 0;
  return OkStatus();
}

Status Tmpfs::OnCrash() {
  // Everything in tmpfs is volatile. The frames themselves were dropped with
  // DRAM; release the bookkeeping without charging (the machine is dead).
  inodes_.clear();
  ns_.Clear();
  used_bytes_ = 0;
  borrowed_used_bytes_ = 0;
  return OkStatus();
}

}  // namespace o1mem
