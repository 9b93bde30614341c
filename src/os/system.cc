#include "src/os/system.h"

#include <algorithm>
#include <sstream>
#include <type_traits>

#include "src/obs/exporters.h"
#include "src/obs/span.h"

namespace o1mem {

namespace {
// Fixed bases for launch-time segments (baseline backend).
constexpr Vaddr kCodeBase = 4 * kMiB;
constexpr Vaddr kHeapBase = 256 * kMiB;
constexpr Vaddr kStackTop = 16 * kGiB;
constexpr Vaddr kMmapHint = 1 * kGiB;
constexpr Vaddr kVaLimit = 30 * kTiB;
}  // namespace

VmaTree& Process::vmas() {
  O1_CHECK_MSG(backend_ == Backend::kBaseline, "vmas() on a FOM process");
  return *vmas_;
}

DemandPager& Process::pager() {
  O1_CHECK_MSG(backend_ == Backend::kBaseline, "pager() on a FOM process");
  return *pager_;
}

FomProcess& Process::fom() {
  O1_CHECK_MSG(backend_ == Backend::kFom, "fom() on a baseline process");
  return *fom_;
}

System::System(const SystemConfig& config) : config_(config) {
  machine_ = std::make_unique<Machine>(config.machine);
  pmfs_ = std::make_unique<Pmfs>(machine_.get(), machine_->phys().nvm_base(),
                                 config.machine.nvm_bytes, config.pmfs_zero_policy);
  fom_ = std::make_unique<FomManager>(machine_.get(), pmfs_.get(), config.fom);
  BootDram();
}

System::~System() = default;

void System::BootDram() {
  // Note the struct-page array initialization is linear in DRAM size -- one
  // of the linear costs Sec. 2 calls out -- and a reboot pays it again.
  phys_mgr_ = std::make_unique<PhysManager>(machine_.get());
  swap_ = std::make_unique<SwapDevice>(&machine_->ctx(), &machine_->phys(), config_.swap_pages);
  const uint64_t tmpfs_quota = config_.tmpfs_quota_bytes != 0 ? config_.tmpfs_quota_bytes
                                                              : config_.machine.dram_bytes / 2;
  tmpfs_ = std::make_unique<Tmpfs>(machine_.get(), phys_mgr_.get(), tmpfs_quota);
  if (config_.machine.tier.enabled) {
    tier_ = std::make_unique<TierEngine>(machine_.get(), phys_mgr_.get(), pmfs_.get(),
                                         fom_.get());
    fom_->SetMapObserver(tier_.get());
  }
  ContigAllocator* contig = phys_mgr_->contig();
  if (contig == nullptr) {
    return;
  }
  contig->SetRevoker(LenderClass::kDiscardableFile,
                     [this](Paddr base, uint64_t bytes, uint64_t cookie) {
                       return tmpfs_->RevokeBorrowed(static_cast<InodeId>(cookie), base, bytes);
                     });
  if (tier_ != nullptr) {
    contig->SetRevoker(LenderClass::kTierCleanCopy,
                       [this](Paddr base, uint64_t bytes, uint64_t cookie) {
                         return tier_->RevokeBorrowed(static_cast<InodeId>(cookie), base, bytes);
                       });
  }
}

void System::ChargeSyscall() {
  ctx().Charge(ctx().cost().syscall_cycles);
  ctx().counters().syscalls++;
}

Result<Process*> System::Launch(Backend backend, const ProcessImage& image) {
  ObsSpan span(ctx(), TraceKind::kLaunch,
               image.code_bytes + image.stack_bytes + image.heap_bytes);
  ChargeSyscall();
  auto proc = std::unique_ptr<Process>(new Process(next_pid_++, backend));
  if (backend == Backend::kBaseline) {
    proc->as_ = machine_->CreateAddressSpace();
    proc->vmas_ = std::make_unique<VmaTree>(&ctx());
    proc->pager_ = std::make_unique<DemandPager>(machine_.get(), phys_mgr_.get(), swap_.get(),
                                                 proc->as_.get(), proc->vmas_.get());
    // Code is populated up front (the loader touches it all); heap and stack
    // fault in on demand. Each segment is a separate per-page mapping.
    const Vma code{.start = kCodeBase, .end = kCodeBase + AlignUp(image.code_bytes, kPageSize),
                   .prot = Prot::kReadExec, .populate = true};
    const Vma heap{.start = kHeapBase, .end = kHeapBase + AlignUp(image.heap_bytes, kPageSize),
                   .prot = Prot::kReadWrite};
    const Vma stack{.start = kStackTop - AlignUp(image.stack_bytes, kPageSize),
                    .end = kStackTop, .prot = Prot::kReadWrite};
    O1_RETURN_IF_ERROR(proc->vmas_->Insert(code));
    O1_RETURN_IF_ERROR(proc->vmas_->Insert(heap));
    O1_RETURN_IF_ERROR(proc->vmas_->Insert(stack));
    O1_RETURN_IF_ERROR(proc->pager_->Populate(code));
    proc->code_base_ = code.start;
    proc->heap_base_ = heap.start;
    proc->stack_base_ = stack.start;
  } else {
    proc->fom_ = fom_->CreateProcess();
    // Sec. 3.1: code, heap and stack are separate files; a thread stack is
    // "a file with a single extent". All are whole-file mapped in O(1).
    const std::string prefix = "/proc/" + std::to_string(proc->pid_);
    auto code = fom_->CreateSegment(prefix + "/code", image.code_bytes);
    auto heap = fom_->CreateSegment(prefix + "/heap", image.heap_bytes);
    auto stack = fom_->CreateSegment(prefix + "/stack", image.stack_bytes,
                                     SegmentOptions{.require_single_extent = true});
    if (!code.ok() || !heap.ok() || !stack.ok()) {
      return OutOfMemory("cannot allocate FOM segments");
    }
    auto code_map = fom_->Map(*proc->fom_, *code, Prot::kReadExec);
    auto heap_map = fom_->Map(*proc->fom_, *heap, Prot::kReadWrite);
    auto stack_map = fom_->Map(*proc->fom_, *stack, Prot::kReadWrite);
    if (!code_map.ok()) {
      return code_map.status();
    }
    if (!heap_map.ok()) {
      return heap_map.status();
    }
    if (!stack_map.ok()) {
      return stack_map.status();
    }
    proc->code_base_ = *code_map;
    proc->heap_base_ = *heap_map;
    proc->stack_base_ = *stack_map;
    // Segments die with their last unmap.
    O1_RETURN_IF_ERROR(pmfs_->Unlink(prefix + "/code"));
    O1_RETURN_IF_ERROR(pmfs_->Unlink(prefix + "/heap"));
    O1_RETURN_IF_ERROR(pmfs_->Unlink(prefix + "/stack"));
  }
  Process* raw = proc.get();
  processes_.push_back(std::move(proc));
  return raw;
}

Result<Process*> System::Fork(Process& parent) {
  ObsSpan span(ctx(), TraceKind::kFork);
  ChargeSyscall();
  auto child = std::unique_ptr<Process>(new Process(next_pid_++, parent.backend_));
  child->code_base_ = parent.code_base_;
  child->heap_base_ = parent.heap_base_;
  child->stack_base_ = parent.stack_base_;
  if (parent.backend_ == Backend::kBaseline) {
    child->as_ = machine_->CreateAddressSpace();
    child->vmas_ = std::make_unique<VmaTree>(&ctx());
    child->pager_ = std::make_unique<DemandPager>(machine_.get(), phys_mgr_.get(), swap_.get(),
                                                  child->as_.get(), child->vmas_.get());
    for (const Vma& vma : parent.vmas_->Regions()) {
      O1_RETURN_IF_ERROR(child->vmas_->Insert(vma));
      if (vma.backing_fs != nullptr) {
        O1_RETURN_IF_ERROR(vma.backing_fs->AddMapRef(vma.backing->backing_id()));
      }
    }
    O1_RETURN_IF_ERROR(parent.pager_->ForkInto(*child->pager_));
    // One IPI round covers every write-protect shootdown fork queued.
    machine_->mmu().FlushPending();
  } else {
    child->fom_ = fom_->CreateProcess();
    for (const auto& [vaddr, mapping] : parent.fom_->mappings()) {
      auto mapped = fom_->Map(*child->fom_, mapping.inode, mapping.prot,
                              MapOptions{.mechanism = mapping.mech, .fixed_vaddr = vaddr});
      if (!mapped.ok()) {
        return mapped.status();
      }
      O1_CHECK(*mapped == vaddr);
    }
  }
  // Descriptors are inherited.
  for (const auto& [fd, open_file] : parent.fds_) {
    O1_RETURN_IF_ERROR(open_file.fs->AddOpenRef(open_file.inode));
    child->fds_.emplace(fd, open_file);
  }
  child->next_fd_ = parent.next_fd_;
  Process* raw = child.get();
  processes_.push_back(std::move(child));
  return raw;
}

Status System::Exit(Process* proc) {
  O1_CHECK(proc != nullptr);
  ObsSpan span(ctx(), TraceKind::kExit);
  ChargeSyscall();
  if (proc->backend_ == Backend::kFom) {
    O1_RETURN_IF_ERROR(fom_->ExitProcess(*proc->fom_));
  } else {
    auto regions = proc->vmas_->Regions();
    for (const Vma& vma : regions) {
      O1_RETURN_IF_ERROR(proc->pager_->UnmapRange(vma));
      if (vma.backing_fs != nullptr) {
        (void)vma.backing_fs->DropMapRef(vma.backing->backing_id());
      }
    }
    // Exit tears down many VMAs; batched mode pays one IPI round for all.
    machine_->mmu().FlushPending();
  }
  // Close descriptors.
  for (auto& [fd, open_file] : proc->fds_) {
    (void)open_file.fs->DropOpenRef(open_file.inode);
  }
  std::erase_if(processes_, [proc](const std::unique_ptr<Process>& p) { return p.get() == proc; });
  return OkStatus();
}

Result<Process::OpenFile*> System::GetOpenFile(Process& proc, int fd) {
  auto it = proc.fds_.find(fd);
  if (it == proc.fds_.end()) {
    return InvalidArgument("bad file descriptor");
  }
  return &it->second;
}

Result<Vaddr> System::MmapBaseline(Process& proc, const MmapArgs& args) {
  SimContext& c = ctx();
  c.Charge(c.cost().mmap_base_cycles);
  BackingProvider* backing = nullptr;
  FileSystem* fs = nullptr;
  if (args.fd >= 0) {
    O1_ASSIGN_OR_RETURN(Process::OpenFile * open_file, GetOpenFile(proc, args.fd));
    fs = open_file->fs;
    auto provider = fs->Provider(open_file->inode);
    if (!provider.ok()) {
      return provider.status();
    }
    backing = *provider;
    if (fs == pmfs_.get()) {
      // DAX file systems pay extra mmap setup (measured ~15 us vs ~8 us on
      // tmpfs in the paper's corroborating report).
      c.Charge(c.cost().dax_mapping_extra_cycles);
    }
  }
  if (args.large_pages && (backing != nullptr || !IsAligned(args.length, kLargePageSize))) {
    return InvalidArgument("large pages: anonymous, 2 MiB multiple lengths only");
  }
  const uint64_t align = args.large_pages ? kLargePageSize : kPageSize;
  auto vaddr =
      proc.vmas_->FindFreeRegion(kMmapHint, AlignUp(args.length, kPageSize), align, kVaLimit);
  if (!vaddr.ok()) {
    return vaddr;
  }
  Vma vma{.start = *vaddr,
          .end = *vaddr + AlignUp(args.length, kPageSize),
          .prot = args.prot,
          .populate = args.populate,
          .large_pages = args.large_pages,
          .backing = backing,
          .backing_fs = fs,
          .file_offset = args.file_offset};
  O1_RETURN_IF_ERROR(proc.vmas_->Insert(vma));
  if (fs != nullptr) {
    O1_RETURN_IF_ERROR(fs->AddMapRef(backing->backing_id()));
  }
  if (args.populate) {
    Status populated = proc.pager_->Populate(vma);
    if (!populated.ok()) {
      auto removed = proc.vmas_->RemoveRange(vma.start, vma.bytes());
      if (removed.ok()) {
        for (const Vma& piece : removed.value()) {
          (void)proc.pager_->UnmapRange(piece);
        }
      }
      if (fs != nullptr) {
        (void)fs->DropMapRef(backing->backing_id());
      }
      return populated;
    }
  }
  return *vaddr;
}

Result<Vaddr> System::MmapFom(Process& proc, const MmapArgs& args) {
  MapOptions options;
  options.mechanism = args.mechanism;
  if (args.fd >= 0) {
    O1_ASSIGN_OR_RETURN(Process::OpenFile * open_file, GetOpenFile(proc, args.fd));
    if (open_file->fs != pmfs_.get()) {
      return Unsupported("FOM maps PMFS files only");
    }
    return fom_->Map(*proc.fom_, open_file->inode, args.prot, options);
  }
  // Anonymous memory under FOM is a volatile temporary file (Sec. 3.1: "For
  // volatile data, this may be a temporary file"). O_TMPFILE-style: born
  // unlinked and unjournaled, so the whole mmap is one extent allocation
  // plus one O(1) map install -- no namespace insert, no journal commits,
  // no separate unlink. It lives exactly as long as its mapping.
  auto inode = fom_->CreateVolatileSegment(args.length);
  if (!inode.ok()) {
    return inode.status();
  }
  auto vaddr = fom_->Map(*proc.fom_, *inode, args.prot, options);
  if (!vaddr.ok()) {
    (void)fom_->ReleaseVolatileSegment(*inode);
    return vaddr;
  }
  return vaddr;
}

Result<Vaddr> System::Mmap(Process& proc, const MmapArgs& args) {
  if (args.length == 0) {
    return InvalidArgument("zero-length mmap");
  }
  ObsSpan span(ctx(), TraceKind::kMmap, args.length);
  ChargeSyscall();
  if (proc.backend_ == Backend::kFom) {
    return MmapFom(proc, args);
  }
  return MmapBaseline(proc, args);
}

Status System::Munmap(Process& proc, Vaddr vaddr, uint64_t length) {
  ObsSpan span(ctx(), TraceKind::kMunmap, length);
  ChargeSyscall();
  if (proc.backend_ == Backend::kFom) {
    // FOM reclaims in units of whole files (Sec. 3.1); partial unmaps would
    // reintroduce page-level bookkeeping.
    auto it = proc.fom_->mappings().find(vaddr);
    if (it == proc.fom_->mappings().end()) {
      return NotFound("no mapping at vaddr");
    }
    if (length != 0 && AlignUp(length, kPageSize) != it->second.bytes) {
      return Unsupported("FOM unmaps whole files only");
    }
    return fom_->Unmap(*proc.fom_, vaddr);
  }
  // File-backed regions must be unmapped whole (the map refcount is per
  // mapping), and so must large-page regions (partial unmaps would need a
  // huge-page split).
  if (auto vma = proc.vmas_->Find(vaddr);
      vma.has_value() && (vma->backing != nullptr || vma->large_pages) &&
      (vma->start != vaddr || vma->bytes() != AlignUp(length, kPageSize))) {
    return Unsupported("partial unmap of a file-backed or large-page mapping");
  }
  auto removed = proc.vmas_->RemoveRange(vaddr, AlignUp(length, kPageSize));
  if (!removed.ok()) {
    return removed.status();
  }
  for (const Vma& piece : removed.value()) {
    O1_RETURN_IF_ERROR(proc.pager_->UnmapRange(piece));
    if (piece.backing_fs != nullptr) {
      O1_RETURN_IF_ERROR(piece.backing_fs->DropMapRef(piece.backing->backing_id()));
    }
  }
  // Batched shootdowns: all pieces' invalidations flush in one IPI round.
  machine_->mmu().FlushPending();
  return OkStatus();
}

Status System::Mprotect(Process& proc, Vaddr vaddr, uint64_t length, Prot prot) {
  ObsSpan span(ctx(), TraceKind::kMprotect, length);
  ChargeSyscall();
  if (proc.backend_ == Backend::kFom) {
    return fom_->Protect(*proc.fom_, vaddr, prot);
  }
  O1_RETURN_IF_ERROR(proc.vmas_->Protect(vaddr, AlignUp(length, kPageSize), prot));
  O1_RETURN_IF_ERROR(
      proc.as_->page_table().ProtectRange(vaddr, AlignUp(length, kPageSize), prot));
  machine_->mmu().ShootdownRange(proc.as_->asid(), vaddr, AlignUp(length, kPageSize));
  machine_->mmu().FlushPending();
  return OkStatus();
}

Status System::Mlock(Process& proc, Vaddr vaddr, uint64_t length) {
  ObsSpan span(ctx(), TraceKind::kMlock, length);
  ChargeSyscall();
  if (proc.backend_ == Backend::kFom) {
    // Implicitly pinned: frames never move while the file is mapped. Only
    // validate that the range is mapped.
    auto it = proc.fom_->mappings().find(vaddr);
    if (it == proc.fom_->mappings().end() || length > it->second.bytes) {
      return NotFound("mlock range is not a FOM mapping");
    }
    return OkStatus();
  }
  return proc.pager_->PinRange(vaddr, length);
}

Status System::Munlock(Process& proc, Vaddr vaddr, uint64_t length) {
  ObsSpan span(ctx(), TraceKind::kMunlock, length);
  ChargeSyscall();
  if (proc.backend_ == Backend::kFom) {
    auto it = proc.fom_->mappings().find(vaddr);
    if (it == proc.fom_->mappings().end() || length > it->second.bytes) {
      return NotFound("munlock range is not a FOM mapping");
    }
    return OkStatus();
  }
  return proc.pager_->UnpinRange(vaddr, length);
}

Status System::RegisterUserFault(Process& proc, Vaddr vaddr, uint64_t length,
                                 UserFaultHandler* handler) {
  ObsSpan span(ctx(), TraceKind::kOtherSyscall, length);
  ChargeSyscall();
  if (handler == nullptr) {
    return InvalidArgument("null userfault handler");
  }
  if (proc.backend_ != Backend::kBaseline) {
    // FOM mappings never fault within the file; userfault applies to the
    // demand-paged baseline (and is how FOM apps would roll their own
    // swapping if they mixed backends).
    return Unsupported("userfault requires a demand-paged (baseline) process");
  }
  Process* proc_ptr = &proc;
  return proc.pager_->RegisterUserFaultRange(
      vaddr, length, [this, proc_ptr, handler](Vaddr page_base, AccessType type) {
        return handler->OnUserFault(*proc_ptr, page_base, type);
      });
}

Result<int> System::Open(Process& proc, std::string_view path) {
  ObsSpan span(ctx(), TraceKind::kOpen);
  ChargeSyscall();
  FileSystem* fs = nullptr;
  InodeId inode = kInvalidInode;
  if (auto in_pmfs = pmfs_->LookupPath(path); in_pmfs.ok()) {
    fs = pmfs_.get();
    inode = *in_pmfs;
  } else if (auto in_tmpfs = tmpfs_->LookupPath(path); in_tmpfs.ok()) {
    fs = tmpfs_.get();
    inode = *in_tmpfs;
  } else {
    return NotFound("no such file in pmfs or tmpfs");
  }
  O1_RETURN_IF_ERROR(fs->AddOpenRef(inode));
  const int fd = proc.next_fd_++;
  proc.fds_.emplace(fd, Process::OpenFile{.fs = fs, .inode = inode});
  return fd;
}

Result<int> System::Creat(Process& proc, FileSystem& fs, std::string_view path,
                          const FileFlags& flags) {
  ObsSpan span(ctx(), TraceKind::kCreat);
  ChargeSyscall();
  auto inode = fs.Create(path, flags);
  if (!inode.ok()) {
    return inode.status();
  }
  O1_RETURN_IF_ERROR(fs.AddOpenRef(*inode));
  const int fd = proc.next_fd_++;
  proc.fds_.emplace(fd, Process::OpenFile{.fs = &fs, .inode = *inode});
  return fd;
}

Status System::Close(Process& proc, int fd) {
  ObsSpan span(ctx(), TraceKind::kClose);
  ChargeSyscall();
  O1_ASSIGN_OR_RETURN(Process::OpenFile * open_file, GetOpenFile(proc, fd));
  O1_RETURN_IF_ERROR(open_file->fs->DropOpenRef(open_file->inode));
  proc.fds_.erase(fd);
  return OkStatus();
}

template <class Byte>
Result<uint64_t> System::FileIo(Process& proc, int fd, std::optional<uint64_t> at,
                                std::span<Byte> buf) {
  constexpr bool kWrite = std::is_const_v<Byte>;
  ObsSpan span(ctx(), kWrite ? TraceKind::kWrite : TraceKind::kRead, buf.size());
  ChargeSyscall();
  O1_ASSIGN_OR_RETURN(Process::OpenFile * open_file, GetOpenFile(proc, fd));
  const uint64_t offset = at.value_or(open_file->offset);
  if (tier_ != nullptr && open_file->fs == pmfs_.get()) {
    O1_RETURN_IF_ERROR(tier_->OnFileAccess(open_file->inode, offset, buf.size(), kWrite));
  }
  auto n = [&] {
    if constexpr (kWrite) {
      return open_file->fs->WriteAt(open_file->inode, offset, buf);
    } else {
      return open_file->fs->ReadAt(open_file->inode, offset, buf);
    }
  }();
  if (n.ok() && !at.has_value()) {
    open_file->offset += *n;
  }
  return n;
}

Result<uint64_t> System::Read(Process& proc, int fd, std::span<uint8_t> out) {
  return FileIo(proc, fd, std::nullopt, out);
}

Result<uint64_t> System::Write(Process& proc, int fd, std::span<const uint8_t> data) {
  return FileIo(proc, fd, std::nullopt, data);
}

Result<uint64_t> System::Pread(Process& proc, int fd, uint64_t offset, std::span<uint8_t> out) {
  return FileIo(proc, fd, offset, out);
}

Result<uint64_t> System::Pwrite(Process& proc, int fd, uint64_t offset,
                                std::span<const uint8_t> data) {
  return FileIo(proc, fd, offset, data);
}

Status System::Ftruncate(Process& proc, int fd, uint64_t size) {
  ObsSpan span(ctx(), TraceKind::kFtruncate, size);
  ChargeSyscall();
  O1_ASSIGN_OR_RETURN(Process::OpenFile * open_file, GetOpenFile(proc, fd));
  return open_file->fs->Resize(open_file->inode, size);
}

Status System::Unlink(std::string_view path) {
  ObsSpan span(ctx(), TraceKind::kUnlink);
  ChargeSyscall();
  if (pmfs_->LookupPath(path).ok()) {
    return pmfs_->Unlink(path);
  }
  return tmpfs_->Unlink(path);
}

Status System::Mkdir(FileSystem& fs, std::string_view path) {
  ObsSpan span(ctx(), TraceKind::kOtherSyscall);
  ChargeSyscall();
  return fs.Mkdir(path);
}

Status System::Rmdir(FileSystem& fs, std::string_view path) {
  ObsSpan span(ctx(), TraceKind::kOtherSyscall);
  ChargeSyscall();
  return fs.Rmdir(path);
}

Result<std::vector<DirEntry>> System::List(FileSystem& fs, std::string_view path) {
  ObsSpan span(ctx(), TraceKind::kOtherSyscall);
  ChargeSyscall();
  return fs.List(path);
}

Status System::Link(FileSystem& fs, std::string_view existing, std::string_view new_path) {
  ObsSpan span(ctx(), TraceKind::kOtherSyscall);
  ChargeSyscall();
  return fs.Link(existing, new_path);
}

Status System::Rename(std::string_view from, std::string_view to) {
  ObsSpan span(ctx(), TraceKind::kOtherSyscall);
  ChargeSyscall();
  if (pmfs_->LookupPath(from).ok() || pmfs_->List(from).ok()) {
    return pmfs_->Rename(from, to);
  }
  return tmpfs_->Rename(from, to);
}

Status System::UserFlush(Process& proc, Vaddr vaddr, uint64_t len) {
  // Dirty promoted spans live in the DRAM cache; push them to their durable
  // home through the journaled writeback first so the msync contract holds.
  if (tier_ != nullptr && proc.backend() == Backend::kFom) {
    O1_RETURN_IF_ERROR(tier_->FlushRange(proc.fom(), vaddr, len));
  }
  // Flush line by mapped page: translate (cheap -- TLB-hot after the writes
  // being persisted) and clwb the backing lines.
  uint64_t done = 0;
  while (done < len) {
    const Vaddr cur = vaddr + done;
    const uint64_t in_page = std::min<uint64_t>(kPageSize - (cur & (kPageSize - 1)), len - done);
    auto t = machine_->mmu().Translate(proc.address_space(), cur, AccessType::kRead);
    if (!t.ok()) {
      return t.status();
    }
    O1_RETURN_IF_ERROR(machine_->phys().FlushLines(t->paddr, in_page));
    done += in_page;
  }
  return OkStatus();
}

Status System::Msync(Process& proc, Vaddr vaddr, uint64_t len) {
  ObsSpan span(ctx(), TraceKind::kMsync, len);
  ChargeSyscall();
  return UserFlush(proc, vaddr, len);
}

TierOccupancy System::Occupancy() const {
  TierOccupancy o;
  o.dram_total_bytes = machine_->config().dram_bytes;
  o.dram_cache_bytes = phys_mgr_->dram_cache_bytes();
  o.dram_cache_free_bytes = phys_mgr_->dram_cache_free();
  o.dram_cache_used_bytes = phys_mgr_->dram_cache_used();
  // Allocatable DRAM lives in the buddy (+ per-CPU caches and pool) and the
  // unfilled part of the cache carve; everything else is in use.
  o.dram_free_bytes = phys_mgr_->free_bytes() + o.dram_cache_free_bytes;
  o.dram_used_bytes = o.dram_total_bytes - o.dram_free_bytes;
  o.nvm_total_bytes = machine_->config().nvm_bytes;
  o.nvm_free_bytes = pmfs_->free_bytes();
  o.nvm_used_bytes = o.nvm_total_bytes - o.nvm_free_bytes;
  if (const ContigAllocator* contig = phys_mgr_->contig()) {
    o.contig_area_bytes = contig->area_bytes();
    o.contig_claimed_bytes = contig->claimed_bytes();
    o.contig_lent_file_bytes = contig->lent_bytes(LenderClass::kDiscardableFile);
    o.contig_lent_tier_bytes = contig->lent_bytes(LenderClass::kTierCleanCopy);
    o.contig_free_bytes = contig->free_bytes();
  }
  return o;
}

Status System::TierTick() {
  if (tier_ == nullptr) {
    return Unsupported("tiering is disabled (MachineConfig::tier)");
  }
  ObsSpan span(ctx(), TraceKind::kTierTick);
  return tier_->Tick();
}

Status System::MadviseTier(Process& proc, Vaddr vaddr, uint64_t len, TierHint hint) {
  ObsSpan span(ctx(), TraceKind::kMadviseTier, len);
  ChargeSyscall();
  if (tier_ == nullptr) {
    return Unsupported("tiering is disabled (MachineConfig::tier)");
  }
  if (proc.backend() != Backend::kFom) {
    return Unsupported("tier hints apply to FOM mappings");
  }
  return tier_->Advise(proc.fom(), vaddr, len, hint);
}

Result<ReclaimStats> System::ReclaimBaseline(Process& proc, uint64_t pages,
                                             ReclaimPolicy policy) {
  if (proc.backend_ != Backend::kBaseline) {
    return InvalidArgument("baseline reclaim on a FOM process");
  }
  ObsSpan span(ctx(), TraceKind::kReclaim, pages * kPageSize);
  Result<ReclaimStats> stats = [&] {
    if (policy == ReclaimPolicy::kClock) {
      ClockReclaimer reclaimer(proc.pager_.get());
      return reclaimer.Reclaim(pages);
    }
    TwoQueueReclaimer reclaimer(proc.pager_.get());
    return reclaimer.Reclaim(pages);
  }();
  // One IPI round retires every swap-out shootdown this pass queued.
  machine_->mmu().FlushPending();
  return stats;
}

Result<uint64_t> System::ReclaimFom(uint64_t bytes_needed) {
  ObsSpan span(ctx(), TraceKind::kFomReclaim, bytes_needed);
  return fom_->HandlePressure(bytes_needed);
}

std::string System::DumpProcSnapshot() {
  std::ostringstream out;
  const TierOccupancy o = Occupancy();
  auto kb = [](uint64_t bytes) { return bytes / 1024; };

  out << "== meminfo ==\n";
  out << "DramTotal:      " << kb(o.dram_total_bytes) << " kB\n";
  out << "DramUsed:       " << kb(o.dram_used_bytes) << " kB\n";
  out << "DramFree:       " << kb(o.dram_free_bytes) << " kB\n";
  out << "NvmTotal:       " << kb(o.nvm_total_bytes) << " kB\n";
  out << "NvmUsed:        " << kb(o.nvm_used_bytes) << " kB\n";
  out << "NvmFree:        " << kb(o.nvm_free_bytes) << " kB\n";
  out << "DramCache:      " << kb(o.dram_cache_bytes) << " kB\n";
  out << "DramCacheUsed:  " << kb(o.dram_cache_used_bytes) << " kB\n";
  out << "DramCacheFree:  " << kb(o.dram_cache_free_bytes) << " kB\n";

  out << "\n== vmstat ==\n";
  ctx().counters().ForEachField(
      [&](const char* name, uint64_t value) { out << name << " " << value << "\n"; });

  out << "\n== tierstat ==\n";
  out << "enabled " << (tier_ != nullptr ? 1 : 0) << "\n";
  if (tier_ != nullptr) {
    out << "promoted_bytes " << tier_->promoted_bytes() << "\n";
    out << "quarantined_bytes " << tier_->quarantined_bytes() << "\n";
  }

  out << "\n== contigstat ==\n";
  const ContigAllocator* contig = phys_mgr_->contig();
  out << "enabled " << (contig != nullptr ? 1 : 0) << "\n";
  if (contig != nullptr) {
    out << "mode " << (contig->cma_baseline() ? "cma" : "gcma") << "\n";
    out << "area_bytes " << o.contig_area_bytes << "\n";
    out << "claimed_bytes " << o.contig_claimed_bytes << "\n";
    out << "lent_file_bytes " << o.contig_lent_file_bytes << "\n";
    out << "lent_tier_bytes " << o.contig_lent_tier_bytes << "\n";
    out << "free_bytes " << o.contig_free_bytes << "\n";
    out << "lent_regions " << contig->lent_regions() << "\n";
    out << "guarantee_bytes " << contig->guarantee_bytes() << "\n";
  }

  out << "\n== pmfs ==\n";
  out << "mount_mode " << (pmfs_->mount_mode() == MountMode::kReadWrite ? "rw" : "degraded")
      << "\n";
  out << "journal_records " << pmfs_->journal_records() << "\n";
  out << "journal_tail_bytes " << pmfs_->journal_tail_bytes() << "\n";
  out << "journal_slot_bytes " << pmfs_->journal_slot_bytes() << "\n";

  const Observer& obs = machine_->observer();
  out << "\n== trace ==\n";
  out << "enabled " << (obs.trace_enabled() ? 1 : 0) << "\n";
  if (obs.trace_enabled()) {
    out << "capacity " << obs.ring()->capacity() << "\n";
    out << "held " << obs.ring()->size() << "\n";
    out << "total " << obs.ring()->total_pushed() << "\n";
    out << "dropped " << obs.ring()->dropped() << "\n";
  }

  out << "\n== latency ==\n";
  if (obs.hist_enabled()) {
    out << HistogramSummaryText(*obs.hist());
  } else {
    out << "(histograms off)\n";
  }

  // Tail attribution published by the serving layer (ShardedKvService
  // computes it from service-side accounting; empty when no service ran).
  out << "\n== tailstat ==\n";
  const TailSnapshot& tail = obs.tail();
  out << "valid " << (tail.valid ? 1 : 0) << "\n";
  if (tail.valid) {
    char line[160];
    std::snprintf(line, sizeof(line), "p999_us %.3f\n", tail.p999_us);
    out << line;
    std::snprintf(line, sizeof(line), "blame_coverage %.4f\n", tail.blame_coverage);
    out << line;
    std::snprintf(line, sizeof(line), "top_component %s %.4f\n", tail.top_component.c_str(),
                  tail.top_share);
    out << line;
    for (const TailShardStat& st : tail.shards) {
      std::snprintf(line, sizeof(line),
                    "shard%u requests %llu p999_us %.3f top %s %.4f\n", st.shard,
                    static_cast<unsigned long long>(st.requests), st.p999_us,
                    st.top_component.empty() ? "-" : st.top_component.c_str(), st.top_share);
      out << line;
    }
  }
  return out.str();
}

Status System::WriteTrace(const std::string& path) {
  Observer& obs = machine_->observer();
  if (!obs.trace_enabled()) {
    return Unsupported("tracing is disabled (MachineConfig::obs.trace)");
  }
  std::vector<TraceGroup> groups(1);
  groups[0].label = "o1mem";
  groups[0].dropped = obs.ring()->dropped();
  groups[0].events = obs.ring()->Snapshot();
  if (obs.exemplars() != nullptr) {
    obs.exemplars()->ForEach(
        [&groups](const Exemplar& x) { groups[0].exemplars.push_back(x); });
  }
  if (obs.metrics() != nullptr) {
    groups[0].metrics = obs.metrics()->Snapshot();
  }
  if (!WriteChromeTraceFile(path, groups, ctx().cost().cpu_ghz)) {
    return InvalidArgument("cannot write trace file: " + path);
  }
  return OkStatus();
}

Status System::Crash() {
  // Power failure: processes die, DRAM and translation state evaporate. The
  // tiering engine's state (regions, promoted extents, the cache carve) is
  // all DRAM-side, so it simply ceases to exist; only the writeback staging
  // files in PMFS survive, replayed below.
  if (tier_ != nullptr) {
    fom_->SetMapObserver(nullptr);
    tier_.reset();
  }
  processes_.clear();
  machine_->Crash();
  O1_RETURN_IF_ERROR(tmpfs_->OnCrash());
  O1_RETURN_IF_ERROR(pmfs_->OnCrash());
  O1_RETURN_IF_ERROR(fom_->OnCrash());
  // Kernel reboot: the DRAM-side structures are rebuilt from scratch.
  BootDram();
  if (tier_ != nullptr) {
    // Finish committed writebacks that the crash interrupted; discard
    // uncommitted staging files.
    O1_RETURN_IF_ERROR(tier_->Recover());
  }
  return OkStatus();
}

}  // namespace o1mem
