// System: the whole simulated operating system -- machine, DRAM manager,
// tmpfs, PMFS, file-only memory manager, swap, and the process table --
// behind a syscall-shaped public API. This is the entry point examples and
// benchmarks use.
//
// Two memory backends coexist on the same machine so baseline and FOM paths
// can be compared in one run:
//   * kBaseline processes get VMAs + a demand pager over DRAM/tmpfs;
//   * kFom processes get whole-file mappings over PMFS.
//
// Crash() models a power failure end to end: machine state drops, all
// processes die, the baseline kernel structures are rebuilt from scratch,
// tmpfs empties, PMFS recovers from its journal, and FOM revalidates its
// persistent pre-created tables.
#ifndef O1MEM_SRC_OS_SYSTEM_H_
#define O1MEM_SRC_OS_SYSTEM_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/fom/fom_manager.h"
#include "src/fs/pmfs.h"
#include "src/fs/tmpfs.h"
#include "src/mm/reclaim.h"
#include "src/os/process.h"
#include "src/tier/tier_engine.h"

namespace o1mem {

struct SystemConfig {
  MachineConfig machine;
  uint64_t tmpfs_quota_bytes = 0;  // 0 = half of DRAM
  ZeroPolicy pmfs_zero_policy = ZeroPolicy::kEagerZero;
  FomConfig fom;
  uint64_t swap_pages = 1 << 20;
};

// Arguments for System::Mmap, mirroring the mmap(2) knobs the paper uses.
struct MmapArgs {
  uint64_t length = 0;
  Prot prot = Prot::kReadWrite;
  bool populate = false;              // MAP_POPULATE
  bool large_pages = false;           // MAP_HUGETLB-like (baseline anon only)
  int fd = -1;                        // -1 = MAP_ANONYMOUS
  uint64_t file_offset = 0;
  // FOM only: which O(1) mechanism to use (default from FomConfig).
  std::optional<MapMechanism> mechanism;
};

// Point-in-time per-tier occupancy: how full each physical tier is and how
// much of the DRAM file-cache carve is in use. Surfaced next to the event
// counters in every bench's --json output (bench/common.h) so tier pressure
// is visible in BENCH_*.json artifacts.
struct TierOccupancy {
  uint64_t dram_total_bytes = 0;
  uint64_t dram_used_bytes = 0;
  uint64_t dram_free_bytes = 0;
  uint64_t nvm_total_bytes = 0;
  uint64_t nvm_used_bytes = 0;
  uint64_t nvm_free_bytes = 0;
  uint64_t dram_cache_bytes = 0;
  uint64_t dram_cache_used_bytes = 0;
  uint64_t dram_cache_free_bytes = 0;
  // Guaranteed-contiguous area (src/contig; all zero when disabled): total
  // size, first-class claims, second-class lender bytes by class, and what
  // is left entirely idle.
  uint64_t contig_area_bytes = 0;
  uint64_t contig_claimed_bytes = 0;
  uint64_t contig_lent_file_bytes = 0;
  uint64_t contig_lent_tier_bytes = 0;
  uint64_t contig_free_bytes = 0;
};

struct ProcessImage {
  uint64_t code_bytes = 256 * kKiB;
  uint64_t stack_bytes = 8 * kMiB;
  uint64_t heap_bytes = 1 * kMiB;
};

class System {
 public:
  explicit System(const SystemConfig& config = SystemConfig());
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  Machine& machine() { return *machine_; }
  Tmpfs& tmpfs() { return *tmpfs_; }
  Pmfs& pmfs() { return *pmfs_; }
  FomManager& fom() { return *fom_; }
  PhysManager& phys_manager() { return *phys_mgr_; }
  SimContext& ctx() { return machine_->ctx(); }
  // Non-null only when MachineConfig::tier.enabled.
  TierEngine* tier() { return tier_.get(); }
  // Non-null only when MachineConfig::contig.enabled (src/contig).
  ContigAllocator* contig() { return phys_mgr_->contig(); }
  // Per-tier occupancy snapshot (DRAM buddy + cache carve, NVM via PMFS).
  TierOccupancy Occupancy() const;

  // --- Process lifecycle ---------------------------------------------------
  // Launches a process: code, stack and heap segments are created and mapped
  // according to the backend (Sec. 3.1: "code segments, heap segments, and
  // stack segments can all be represented as separate files").
  Result<Process*> Launch(Backend backend, const ProcessImage& image = ProcessImage());
  Status Exit(Process* proc);
  size_t process_count() const { return processes_.size(); }

  // fork(2). Baseline: VMA-tree copy + copy-on-write sharing of every
  // resident anonymous page (per-page PTE writes and write-protect
  // shootdowns -- linear in the resident set). FOM: the child maps the same
  // segment FILES at the same addresses, O(mappings); memory is shared, not
  // copied, because the paper's model gives up COW (Sec. 3.1) -- fork
  // becomes closer to vfork/clone(CLONE_VM) semantics.
  Result<Process*> Fork(Process& parent);

  // --- Memory syscalls -------------------------------------------------------
  Result<Vaddr> Mmap(Process& proc, const MmapArgs& args);
  Status Munmap(Process& proc, Vaddr vaddr, uint64_t length);
  Status Mprotect(Process& proc, Vaddr vaddr, uint64_t length, Prot prot);

  // mlock(2)-like pinning for device access. Baseline: per-page fault-in and
  // mark-unevictable loop. FOM: a no-op beyond validation -- mapped file
  // data is implicitly pinned (Sec. 3.1 "memory locking").
  Status Mlock(Process& proc, Vaddr vaddr, uint64_t length);
  Status Munlock(Process& proc, Vaddr vaddr, uint64_t length);

  // userfaultfd-like delegation (Sec. 3.1 cites userfaultd as how FOM
  // applications can implement their own swapping): faults in
  // [vaddr, vaddr+length) of a baseline process are bounced to `handler`,
  // which resolves them with ordinary syscalls (e.g. Mmap with fixed
  // placement is not supported, so handlers typically copy data in after the
  // kernel installs a fresh page).
  class UserFaultHandler {
   public:
    virtual ~UserFaultHandler() = default;
    // Called with the faulting page base; after it returns OK the kernel
    // retries (installing a zeroed page if the handler did not).
    virtual Status OnUserFault(Process& proc, Vaddr page_base, AccessType type) = 0;
  };
  Status RegisterUserFault(Process& proc, Vaddr vaddr, uint64_t length,
                           UserFaultHandler* handler);

  // --- File syscalls ---------------------------------------------------------
  // `path` resolves in PMFS when it exists there, else tmpfs; O_CREAT-like
  // creation goes to the fs named by `fs`.
  Result<int> Open(Process& proc, std::string_view path);
  Result<int> Creat(Process& proc, FileSystem& fs, std::string_view path,
                    const FileFlags& flags);
  Status Close(Process& proc, int fd);
  Result<uint64_t> Read(Process& proc, int fd, std::span<uint8_t> out);
  Result<uint64_t> Write(Process& proc, int fd, std::span<const uint8_t> data);
  Result<uint64_t> Pread(Process& proc, int fd, uint64_t offset, std::span<uint8_t> out);
  Result<uint64_t> Pwrite(Process& proc, int fd, uint64_t offset,
                          std::span<const uint8_t> data);
  Status Ftruncate(Process& proc, int fd, uint64_t size);
  Status Unlink(std::string_view path);

  // Namespace syscalls. Mkdir/Rmdir/List/Link name the file system
  // explicitly (there is no mount table); Rename resolves like Unlink
  // (PMFS first, then tmpfs).
  Status Mkdir(FileSystem& fs, std::string_view path);
  Status Rmdir(FileSystem& fs, std::string_view path);
  Result<std::vector<DirEntry>> List(FileSystem& fs, std::string_view path);
  Status Link(FileSystem& fs, std::string_view existing, std::string_view new_path);
  Status Rename(std::string_view from, std::string_view to);

  // --- User-level access (no syscall: plain loads/stores) -------------------
  // Inline: these are the simulator's hottest entry points, and keeping the
  // bodies here lets the Mmu's small-access fast path flatten all the way
  // into bench/application loops.
  Status UserTouch(Process& proc, Vaddr vaddr, uint64_t len, AccessType type) {
    O1_RETURN_IF_ERROR(machine_->mmu().Touch(proc.address_space(), vaddr, len, type));
    if (tier_ != nullptr && proc.backend() == Backend::kFom) {
      tier_->NoteAccess(proc.fom(), vaddr, len, type);
    }
    return OkStatus();
  }
  Status UserRead(Process& proc, Vaddr vaddr, std::span<uint8_t> out) {
    O1_RETURN_IF_ERROR(machine_->mmu().ReadVirt(proc.address_space(), vaddr, out));
    if (tier_ != nullptr && proc.backend() == Backend::kFom) {
      tier_->NoteAccess(proc.fom(), vaddr, out.size(), AccessType::kRead);
    }
    return OkStatus();
  }
  Status UserWrite(Process& proc, Vaddr vaddr, std::span<const uint8_t> data) {
    O1_RETURN_IF_ERROR(machine_->mmu().WriteVirt(proc.address_space(), vaddr, data));
    if (tier_ != nullptr && proc.backend() == Backend::kFom) {
      tier_->NoteAccess(proc.fom(), vaddr, data.size(), AccessType::kWrite);
    }
    return OkStatus();
  }

  // User-space persistence barrier (clwb + fence over the mapped range; no
  // syscall). Under PersistenceModel::kExplicitFlush, DAX stores are durable
  // only after this; under kAutoDurable it degenerates to a fence.
  Status UserFlush(Process& proc, Vaddr vaddr, uint64_t len);

  // msync(2)-flavored alias: same work plus the syscall round trip.
  Status Msync(Process& proc, Vaddr vaddr, uint64_t len);

  // --- Tiering ---------------------------------------------------------------
  // One monitoring interval of the tiering engine (the periodic kernel
  // thread a real DAMON deployment would run): O(regions) sampling, plus
  // policy + migrations on aggregation boundaries. kUnsupported when tiering
  // is disabled.
  Status TierTick();

  // madvise(MADV_HOT/MADV_COLD)-style placement hint over a mapped span of a
  // FOM process.
  Status MadviseTier(Process& proc, Vaddr vaddr, uint64_t len, TierHint hint);

  // --- Observability ---------------------------------------------------------
  // procfs-style text snapshot: vmstat (every event counter via the X-macro
  // visitor), meminfo (per-tier occupancy), tierstat, the PMFS journal
  // gauges, trace-ring fill, and latency-histogram summaries. Purely
  // observational -- reads state, charges no cycles.
  std::string DumpProcSnapshot();

  // Writes the machine's trace ring as Chrome trace_event JSON (loadable in
  // Perfetto / about:tracing). kUnsupported when MachineConfig::obs.trace is
  // off; a host I/O failure surfaces as kInvalidArgument naming the path.
  Status WriteTrace(const std::string& path);

  // --- Pressure and persistence ---------------------------------------------
  // Baseline pressure response: scan-and-swap via the given reclaimer type.
  enum class ReclaimPolicy { kClock, kTwoQueue };
  Result<ReclaimStats> ReclaimBaseline(Process& proc, uint64_t pages, ReclaimPolicy policy);
  // FOM pressure response: delete discardable files.
  Result<uint64_t> ReclaimFom(uint64_t bytes_needed);

  // Power failure + reboot. All Process* become invalid.
  Status Crash();

 private:
  Result<Process::OpenFile*> GetOpenFile(Process& proc, int fd);
  // The one body of Read/Write/Pread/Pwrite (a const `Byte` writes): span,
  // syscall charge, fd lookup, tier coherence hook, file-system call. With
  // no explicit offset `at`, the fd's cursor is used and advanced.
  template <class Byte>
  Result<uint64_t> FileIo(Process& proc, int fd, std::optional<uint64_t> at,
                          std::span<Byte> buf);
  Result<Vaddr> MmapBaseline(Process& proc, const MmapArgs& args);
  Result<Vaddr> MmapFom(Process& proc, const MmapArgs& args);
  void ChargeSyscall();
  // Registers the per-lender-class revoke callbacks on the ContigAllocator
  // (no-op when contig is disabled). Runs at boot and again after Crash(),
  // once the lender subsystems have been rebuilt.
  void WireContigLenders();

  SystemConfig config_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<PhysManager> phys_mgr_;
  std::unique_ptr<SwapDevice> swap_;
  std::unique_ptr<Tmpfs> tmpfs_;
  std::unique_ptr<Pmfs> pmfs_;
  std::unique_ptr<FomManager> fom_;
  std::unique_ptr<TierEngine> tier_;
  std::vector<std::unique_ptr<Process>> processes_;
  Process::Pid next_pid_ = 1;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_OS_SYSTEM_H_
