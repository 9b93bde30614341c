// FileSystem: the abstract interface both memory file systems implement.
//
//   * Tmpfs -- page-granular backing over DRAM, the baseline Figure 1
//     measures against (real tmpfs allocates one page-cache page at a time).
//   * Pmfs  -- extent-granular, DAX-style backing over persistent NVM with a
//     metadata journal and crash recovery (after Dulloor et al.'s PMFS).
//
// Files are identified by hierarchical-looking string paths in a flat
// namespace (one directory table per file system -- directories are not the
// paper's subject). Inode lifetime follows the paper's whole-file reference
// counting: an inode's storage is released when its link count, open count
// and map count all reach zero. Both file systems take the namespace, those
// counts and discardable reclaim from one layer, InodeFs (inode_fs.h), and
// keep only their backing.
#ifndef O1MEM_SRC_FS_FILE_SYSTEM_H_
#define O1MEM_SRC_FS_FILE_SYSTEM_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/fs/namespace.h"
#include "src/fs/types.h"
#include "src/mm/vma.h"
#include "src/support/status.h"

namespace o1mem {

// A file extent as exposed to mappers: logical offset + physical run.
struct FileExtentView {
  uint64_t file_offset = 0;
  Paddr paddr = 0;
  uint64_t bytes = 0;
};

class FileSystem {
 public:
  virtual ~FileSystem() = default;

  virtual std::string_view name() const = 0;

  // --- Namespace ---------------------------------------------------------
  // Create auto-creates missing parent directories (the segments-as-files
  // convention relies on paths like /proc/<pid>/heap just working).
  virtual Result<InodeId> Create(std::string_view path, const FileFlags& flags) = 0;
  virtual Result<InodeId> LookupPath(std::string_view path) = 0;
  // Drops the path's link; storage is released once unreferenced.
  virtual Status Unlink(std::string_view path) = 0;
  virtual std::vector<std::string> ListPaths() const = 0;

  // Directory operations.
  virtual Status Mkdir(std::string_view path) = 0;
  virtual Status Rmdir(std::string_view path) = 0;
  virtual Result<std::vector<DirEntry>> List(std::string_view path) = 0;
  // Renames a file or directory subtree; whole-file/whole-tree metadata op.
  virtual Status Rename(std::string_view from, std::string_view to) = 0;
  // Hard link: `new_path` becomes another name for `existing`'s inode.
  virtual Status Link(std::string_view existing, std::string_view new_path) = 0;

  // --- Reference counting (whole-file granularity, Sec. 3.1) -------------
  virtual Status AddOpenRef(InodeId id) = 0;
  virtual Status DropOpenRef(InodeId id) = 0;
  virtual Status AddMapRef(InodeId id) = 0;
  virtual Status DropMapRef(InodeId id) = 0;

  // --- Data ---------------------------------------------------------------
  // Ensures the file is at least `size` bytes (allocating backing according
  // to the file system's policy) or truncates it down to `size`.
  virtual Status Resize(InodeId id, uint64_t size) = 0;
  virtual Result<uint64_t> ReadAt(InodeId id, uint64_t offset, std::span<uint8_t> out) = 0;
  virtual Result<uint64_t> WriteAt(InodeId id, uint64_t offset,
                                   std::span<const uint8_t> data) = 0;

  // --- Mapping support ----------------------------------------------------
  // Per-page backing provider for the baseline demand pager.
  virtual Result<BackingProvider*> Provider(InodeId id) = 0;
  // Physical extents currently backing the file (DAX / range mapping).
  virtual Result<std::vector<FileExtentView>> Extents(InodeId id) = 0;

  // --- Introspection ------------------------------------------------------
  virtual Result<FileStat> Stat(InodeId id) = 0;
  virtual uint64_t free_bytes() const = 0;
  virtual uint64_t quota_bytes() const = 0;

  // --- Pressure / persistence ---------------------------------------------
  // Deletes discardable files (oldest coarse access time first) until at
  // least `bytes_needed` have been released or none remain. Returns bytes
  // actually released. This is the paper's file-granularity reclamation.
  // When `freed_persistent` is set, the id of each persistent file whose
  // storage was released is appended to it, so a caller that keeps per-file
  // state on the device (FOM table sidecars) can drop exactly that state.
  virtual Result<uint64_t> ReclaimDiscardable(uint64_t bytes_needed,
                                              std::vector<InodeId>* freed_persistent = nullptr) = 0;

  // Crash notification: volatile state must be dropped; persistent file
  // systems recover their metadata and keep persistent files.
  virtual Status OnCrash() = 0;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_FS_FILE_SYSTEM_H_
