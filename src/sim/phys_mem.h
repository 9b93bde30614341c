// PhysicalMemory: the machine's physical address space.
//
// The address space is split into two tiers:
//   [0, dram_bytes)                        -- volatile DRAM
//   [dram_bytes, dram_bytes + nvm_bytes)   -- persistent NVM (3D XPoint-class)
//
// Contents are stored sparsely (a 4 KiB host page is materialized on first
// write), so a simulated machine can expose terabytes while benches only pay
// for what they touch. Reads of never-written frames return zeros, matching
// hardware that hands out zeroed lines after an erase. Host memory follows
// simulated frames across instances: a later PhysicalMemory that writes the
// same frames reuses the host pages an earlier one wrote (see below).
//
// Bulk operations (Zero/Copy/Read/Write) charge the cost model's per-line
// bulk costs for the tier they touch; single-access costs on the load/store
// path are charged by the Mmu instead, so the two never double-charge.
#ifndef O1MEM_SRC_SIM_PHYS_MEM_H_
#define O1MEM_SRC_SIM_PHYS_MEM_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/sim/context.h"
#include "src/sim/fault_injector.h"
#include "src/sim/prot.h"
#include "src/support/status.h"
#include "src/support/units.h"

namespace o1mem {

class FaultInjector;

enum class MemTier : uint8_t {
  kDram,
  kNvm,
};

// How NVM stores become durable.
enum class PersistenceModel {
  // Every NVM write is durable the moment it lands (an idealized ADR-style
  // platform); Crash keeps all NVM contents. The default, and what the
  // paper implicitly assumes.
  kAutoDurable,
  // Writes sit in the (volatile) cache hierarchy until explicitly flushed
  // with FlushLines (clwb + fence, charged). Crash REVERTS unflushed NVM
  // lines to their last durable contents -- real persistent-memory
  // semantics, which the crash-consistency tests exercise.
  kExplicitFlush,
};

class PhysicalMemory {
 public:
  PhysicalMemory(SimContext* ctx, uint64_t dram_bytes, uint64_t nvm_bytes,
                 PersistenceModel persistence = PersistenceModel::kAutoDurable);

  ~PhysicalMemory();

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  uint64_t dram_bytes() const { return dram_bytes_; }
  uint64_t nvm_bytes() const { return nvm_bytes_; }
  uint64_t total_bytes() const { return dram_bytes_ + nvm_bytes_; }
  Paddr nvm_base() const { return dram_bytes_; }

  bool Contains(Paddr paddr, uint64_t len) const {
    return paddr + len <= total_bytes() && paddr + len >= paddr;
  }
  MemTier TierOf(Paddr paddr) const { return paddr < dram_bytes_ ? MemTier::kDram : MemTier::kNvm; }

  // Bulk data movement; charges bulk cycles for the tier(s) touched.
  Status Read(Paddr paddr, std::span<uint8_t> out);
  Status Write(Paddr paddr, std::span<const uint8_t> data);
  Status Zero(Paddr paddr, uint64_t len);
  Status Copy(Paddr dst, Paddr src, uint64_t len);

  // Tier migration transfer: Copy semantics (the source range is left
  // intact; the caller frees or repurposes it) with the read charge split at
  // the tier boundary of `src` and the write charge at the boundary of
  // `dst`, plus migration accounting (counters().tier_migrated_bytes).
  // Zero-length moves are valid no-ops.
  Status Move(Paddr dst, Paddr src, uint64_t len);

  // Uncharged data movement: used by the Mmu, which charges translation and
  // data-touch costs itself, so the two layers never double-charge.
  Status ReadUncharged(Paddr paddr, std::span<uint8_t> out);
  Status WriteUncharged(Paddr paddr, std::span<const uint8_t> data);

  // Direct host pointer for the Mmu's small-access fast path, or nullptr
  // when the general Read/WriteUncharged machinery must run instead. A
  // non-null return proves the bypass is state-identical: the injector is
  // idle for this access kind (no poison to check or heal, no armed crash
  // point -- though the NVM line-write count campaigns calibrate against is
  // still maintained), there is nothing to shadow (auto-durable mount, or
  // the span never leaves DRAM), and the span sits inside one
  // already-materialized frame (so the MaterializeFrames bookkeeping the
  // bypass skips would be a no-op). Header-inline: this runs once per
  // simulated data access in hot loops.
  uint8_t* FastSpan(Paddr paddr, uint64_t len, AccessType type) {
    const bool write = type == AccessType::kWrite;
    if (injector_ != nullptr &&
        (write ? !injector_->WriteBatchSafe() : injector_->has_poison())) {
      return nullptr;
    }
    // A write that needs the durable-shadow capture (explicit-flush NVM)
    // must take the general path. The span never straddles the tier
    // boundary (single frame, page-aligned boundary), so one end test
    // decides.
    const bool nvm = paddr + len > dram_bytes_;
    if (write && nvm && persistence_ != PersistenceModel::kAutoDurable) {
      return nullptr;
    }
    const uint64_t frame = paddr >> kPageShift;
    const uint64_t node_idx = frame >> kDirShift;
    if ((paddr & (kPageSize - 1)) + len > kPageSize || node_idx >= dir_.size()) {
      return nullptr;
    }
    DirNode* node = dir_[node_idx].get();
    if (node == nullptr) {
      return nullptr;
    }
    const uint64_t in_node = frame & (kDirFanout - 1);
    if ((node->live[in_node >> 6] & (uint64_t{1} << (in_node & 63))) == 0) {
      return nullptr;
    }
    return node->data + (paddr & (kNodeBytes - 1));
  }

  // Books the NVM line-write events for a write through a FastSpan pointer.
  // Callers that move data through a successful FastSpan(kWrite) MUST call
  // this (charge-only touches must NOT); FastSpan has already proven the
  // injector is WriteBatchSafe, so the count is all NoteNvmLineWrites would
  // do.
  void AccountFastNvmLineWrites(Paddr paddr, uint64_t len) {
    if (injector_ != nullptr) {
      injector_->AccountBatchSafeLineWrites(
          (AlignDown(paddr + len - 1, 64) - AlignDown(paddr, 64)) / 64 + 1);
    }
  }

  // Zero with no clock charge: models work done off the critical path
  // (background zeroing); the caller accounts the deferred cycles itself.
  Status ZeroUncharged(Paddr paddr, uint64_t len);

  // Uncharged byte access for checksumming / test inspection.
  uint8_t PeekByte(Paddr paddr) const;
  void PokeByte(Paddr paddr, uint8_t value);  // uncharged; tests only

  // Persistence barrier: makes [paddr, paddr+len) durable. Charges one clwb
  // per dirty line plus one fence. A no-op charge-wise for clean lines; in
  // kAutoDurable mode only the fence is charged (everything is already
  // durable).
  Status FlushLines(Paddr paddr, uint64_t len);

  // Uncharged flush for work accounted off the critical path (background
  // zeroing). Returns the number of lines made durable.
  uint64_t FlushLinesUncharged(Paddr paddr, uint64_t len);

  // Crash semantics: DRAM contents vanish, NVM survives -- except, under
  // kExplicitFlush, NVM lines written but never flushed, which revert to
  // their last durable contents.
  void DropVolatile();

  PersistenceModel persistence() const { return persistence_; }
  size_t pending_nvm_lines() const { return line_shadow_.size(); }

  // Number of 4 KiB host pages currently materialized (footprint metric).
  uint64_t materialized_pages() const { return materialized_; }

  // Fault-injection wiring (set by Machine; nullptr on raw instances). With
  // an injector attached, NVM writes/flushes are counted as crash-sweep
  // events, post-crash-point writes stay volatile, and reads of poisoned
  // lines return kMediaError. An idle injector changes nothing.
  void AttachFaultInjector(FaultInjector* injector);
  FaultInjector* fault_injector() const { return injector_; }

  // Media-fault backdoor used by FaultInjector::FlipBit: flips one stored
  // bit in the current contents AND in the durable shadow if the line is
  // dirty, so the corruption survives both paths.
  void CorruptBit(Paddr paddr, int bit);

  // Lowest unreadable (poisoned) line overlapping the range, if any.
  // Uncharged: scrub charges its own patrol-read cycles.
  std::optional<Paddr> FindUnreadableLineUncharged(Paddr paddr, uint64_t len) const;

 private:
  // Backing store layout: a two-level directory indexed by frame number.
  // Level 1 is a flat vector of node pointers sized at construction (a few
  // KiB even for terabyte machines); each node is one contiguous 2 MiB slab
  // covering kDirFanout frames plus a per-frame materialization bitmap.
  // Direct indexing replaces the previous per-page hash map: page lookup is
  // two dereferences with no hashing and no rehash stalls on the simulator's
  // hottest path, and bulk copies run across page boundaries in one memcpy
  // per node.
  //
  // Slabs come from a process-wide recycler keyed by node index. A node that
  // dies (the instance is destroyed, or DropVolatile drops a whole DRAM
  // node) zeroes exactly its live frames and hands its slab back; the next
  // instance that needs that node index takes it, so simulated frames that a
  // previous instance wrote cost no host page faults and no new resident
  // memory. A node index with no recycled slab gets a fresh anonymous
  // mapping, which the host kernel demand-zeroes, so untouched frames cost
  // no resident host memory. The recycler keeps at most one slab per index.
  // Under AddressSanitizer a recycled slab stays poisoned until it is taken
  // again, so reads through a dead instance's frames are still reported.
  //
  // Invariants: a frame whose `live` bit is clear reads as all-zero bytes in
  // the slab (zero at birth; DropVolatile re-zeroes or drops what it drops),
  // and every frame the host ever wrote is live (nothing materializes a
  // frame without writing it), so zeroing the live frames on release touches
  // no page the host has not already faulted in. Bulk reads exploit the
  // first invariant by copying straight through unwritten holes.
  static constexpr uint64_t kDirShift = 9;  // 512 frames (2 MiB) per node
  static constexpr uint64_t kDirFanout = 1ull << kDirShift;
  static constexpr uint64_t kNodeBytes = kDirFanout << kPageShift;
  struct DirNode {
    uint8_t* data = nullptr;                       // kNodeBytes, zero where not live
    std::array<uint64_t, kDirFanout / 64> live{};  // frame materialization bits
  };

  DirNode& EnsureNode(uint64_t node_idx);
  // Zeroes the node's live frames, returns its slab to the recycler and
  // drops the node.
  void ReleaseNode(uint64_t node_idx);
  // Marks `count` frames starting at node-relative frame `first` live.
  void MaterializeFrames(DirNode& node, uint64_t first, uint64_t count);

  // Returns the 4 KiB slab slot for the page containing `paddr`, or nullptr
  // if the page was never written (reads treat it as all-zero).
  const uint8_t* FindPage(Paddr paddr) const;
  uint8_t* FindPageMut(Paddr paddr);
  uint8_t* EnsurePage(Paddr paddr);

  void ChargeBulk(Paddr paddr, uint64_t len, bool is_write);

  // kExplicitFlush bookkeeping: before the first write dirties a durable NVM
  // line, its durable contents are shadowed so Crash can revert. With
  // `post_trigger` set (write after an armed crash point), lines are
  // shadowed even under kAutoDurable and flagged so the crash reverts them.
  void ShadowBeforeWrite(Paddr paddr, uint64_t len, bool post_trigger = false);

  // Reports an NVM store to the injector (event counting + transient-poison
  // healing); returns true if the store lands after the armed crash point.
  bool NoteNvmWrite(Paddr paddr, uint64_t len);

  SimContext* ctx_;
  FaultInjector* injector_ = nullptr;
  uint64_t dram_bytes_;
  uint64_t nvm_bytes_;
  PersistenceModel persistence_;
  std::vector<std::unique_ptr<DirNode>> dir_;  // indexed by frame >> kDirShift
  uint64_t materialized_ = 0;
  // Dirty NVM line -> last durable 64 bytes (kExplicitFlush only).
  std::unordered_map<Paddr, std::array<uint8_t, 64>> line_shadow_;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_SIM_PHYS_MEM_H_
