// InodeFs: the namespace, inode table and whole-file lifetime shared by
// Tmpfs and Pmfs.
//
// The paper's FOM design reclaims only at file granularity: an inode's
// storage goes when its link, open and map counts all reach zero, and under
// pressure whole discardable files are deleted, oldest coarse access time
// first. This layer is the one place those rules live. A file system
// derives as `class Fs : public InodeFs<Fs, FsInode>` (FsInode derives from
// InodeRefs) and supplies only what differs between backings:
//
//   Result<Paddr> GetBackingPage(InodeId, uint64_t offset, bool for_write);
//   Status Destroy(InodeId);                  // free an unreferenced inode
//   uint64_t BytesHeld(const Inode&) const;   // storage the inode holds
//   void StatBacking(const Inode&, FileStat&) const;  // extent_count & co.
//
// and may shadow `Evictable(const Inode&)` to keep files out of reclaim.
// Guards that only one file system has (a read-only mount, borrowed pages
// to promote before a map) are wrappers in that file system.
#ifndef O1MEM_SRC_FS_INODE_FS_H_
#define O1MEM_SRC_FS_INODE_FS_H_

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/fs/file_system.h"
#include "src/sim/machine.h"

namespace o1mem {

// The inode header every file system keeps.
struct InodeRefs {
  InodeId id = kInvalidInode;
  uint64_t size = 0;
  FileFlags flags;
  uint32_t links = 0;
  uint32_t opens = 0;
  uint32_t maps = 0;
  uint64_t atime = 0;  // coarse, whole-file (Sec. 4.1 access tracking)
  std::unique_ptr<BackingProvider> provider;
};

template <class Fs, class InodeT>
class InodeFs : public FileSystem {
 public:
  Result<InodeId> LookupPath(std::string_view path) override {
    machine_->ctx().Charge(machine_->ctx().cost().file_lookup_cycles);
    return ns_.LookupFile(path);
  }

  std::vector<std::string> ListPaths() const override {
    std::vector<std::string> out;
    for (const auto& [path, id] : ns_.AllFiles()) {
      out.push_back(path);
    }
    return out;
  }

  Result<std::vector<DirEntry>> List(std::string_view path) override {
    machine_->ctx().Charge(machine_->ctx().cost().file_lookup_cycles);
    return ns_.List(path);
  }

  // --- Reference counting (whole-file granularity, Sec. 3.1) -------------
  Status AddOpenRef(InodeId id) override {
    O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
    machine_->ctx().Charge(machine_->ctx().cost().refcount_op_cycles);
    inode->opens++;
    TouchAtime(*inode);
    return OkStatus();
  }

  Status DropOpenRef(InodeId id) override {
    O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
    if (inode->opens == 0) {
      return InvalidArgument("open refcount underflow");
    }
    machine_->ctx().Charge(machine_->ctx().cost().refcount_op_cycles);
    inode->opens--;
    return MaybeFree(id);
  }

  Status AddMapRef(InodeId id) override {
    O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
    machine_->ctx().Charge(machine_->ctx().cost().refcount_op_cycles);
    inode->maps++;
    TouchAtime(*inode);
    return OkStatus();
  }

  Status DropMapRef(InodeId id) override {
    O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
    if (inode->maps == 0) {
      return InvalidArgument("map refcount underflow");
    }
    machine_->ctx().Charge(machine_->ctx().cost().refcount_op_cycles);
    inode->maps--;
    return MaybeFree(id);
  }

  Result<BackingProvider*> Provider(InodeId id) override {
    O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
    return inode->provider.get();
  }

  Result<FileStat> Stat(InodeId id) override {
    O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
    FileStat st{.id = inode->id,
                .size = inode->size,
                .allocated_bytes = self().BytesHeld(*inode),
                .persistent = inode->flags.persistent,
                .discardable = inode->flags.discardable,
                .link_count = inode->links,
                .open_count = inode->opens,
                .map_count = inode->maps};
    self().StatBacking(*inode, st);
    return st;
  }

  // Unlinks discardable files nobody holds open or mapped, oldest atime
  // first (path breaks ties), until `bytes_needed` are released.
  Result<uint64_t> ReclaimDiscardable(uint64_t bytes_needed,
                                      std::vector<InodeId>* freed_persistent = nullptr) override {
    std::vector<std::tuple<uint64_t, std::string, InodeId>> candidates;  // (atime, path, id)
    for (const auto& [path, id] : ns_.AllFiles()) {
      const Inode& inode = inodes_.at(id);
      if (inode.flags.discardable && inode.maps == 0 && inode.opens == 0 &&
          self().Evictable(inode)) {
        candidates.emplace_back(inode.atime, path, id);
      }
    }
    std::sort(candidates.begin(), candidates.end());
    uint64_t released = 0;
    for (const auto& [atime, path, id] : candidates) {
      if (released >= bytes_needed) {
        break;
      }
      // Hard links: only the unlink that drops the last name releases the
      // storage.
      const bool frees_storage = inodes_.at(id).links == 1;
      const bool persistent = inodes_.at(id).flags.persistent;
      const uint64_t bytes = self().BytesHeld(inodes_.at(id));
      O1_RETURN_IF_ERROR(Unlink(path));
      if (frees_storage) {
        released += bytes;
        machine_->ctx().counters().files_reclaimed++;
        if (persistent && freed_persistent != nullptr) {
          freed_persistent->push_back(id);
        }
      }
    }
    return released;
  }

 protected:
  using Inode = InodeT;

  explicit InodeFs(Machine* machine) : machine_(machine) { O1_CHECK(machine != nullptr); }

  Result<Inode*> Get(InodeId id) {
    auto it = inodes_.find(id);
    if (it == inodes_.end()) {
      return NotFound("no such " + std::string(name()) + " inode");
    }
    return &it->second;
  }

  void TouchAtime(Inode& inode) { inode.atime = machine_->ctx().now(); }

  // Enters `inode` (id and flags set) in the table with its backing
  // provider, born unlinked: only open/map references keep it alive.
  Inode& AddInode(Inode inode) {
    const InodeId id = inode.id;
    inode.provider = std::make_unique<InodeBacking>(&self(), id);
    next_inode_ = std::max(next_inode_, id + 1);
    return inodes_.emplace(id, std::move(inode)).first->second;
  }

  // The same, with `path` as its one link. Fails, with the table untouched,
  // when `path` is taken.
  Status AddInode(Inode inode, std::string_view path) {
    O1_RETURN_IF_ERROR(ns_.AddFile(path, inode.id));
    AddInode(std::move(inode)).links = 1;
    return OkStatus();
  }

  // Names `id` at `path` too: one more link.
  Status AddLink(std::string_view path, InodeId id) {
    O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
    O1_RETURN_IF_ERROR(ns_.AddFile(path, id));
    inode->links++;
    return OkStatus();
  }

  // Drops one link of `id` (its name is already out of the namespace).
  Status DropLink(InodeId id) {
    auto inode = Get(id);
    O1_CHECK(inode.ok());
    inode.value()->links--;
    return MaybeFree(id);
  }

  // Destroys the inode once links, opens and maps are all zero.
  Status MaybeFree(InodeId id) {
    O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
    if (inode->links > 0 || inode->opens > 0 || inode->maps > 0) {
      return OkStatus();
    }
    return self().Destroy(id);
  }

  // Every inode is reclaimable unless the file system shadows this.
  static bool Evictable(const Inode&) { return true; }

  Machine* machine_;
  InodeId next_inode_ = 1;
  Namespace ns_;
  std::unordered_map<InodeId, Inode> inodes_;

 private:
  // The per-inode page source the demand pager maps through.
  class InodeBacking final : public BackingProvider {
   public:
    InodeBacking(Fs* fs, InodeId id) : fs_(fs), id_(id) {}
    Result<Paddr> GetBackingPage(uint64_t file_offset, bool for_write) override {
      return fs_->GetBackingPage(id_, file_offset, for_write);
    }
    uint64_t backing_id() const override { return id_; }

   private:
    Fs* fs_;
    InodeId id_;
  };

  Fs& self() { return static_cast<Fs&>(*this); }
  const Fs& self() const { return static_cast<const Fs&>(*this); }
};

}  // namespace o1mem

#endif  // O1MEM_SRC_FS_INODE_FS_H_
