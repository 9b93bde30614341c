#include "src/tier/migration_engine.h"

#include "src/obs/span.h"

#include <cstdlib>
#include <span>
#include <string>
#include <vector>

namespace o1mem {

namespace {

// Host staging for writeback copies: the first `bytes` of one buffer per
// thread, grown to fit and never shrunk (so at most the largest extent ever
// written back, itself bounded by the DRAM cache). It outlives each engine,
// so a later System's writebacks fault in no host pages. Holds no simulated
// state.
std::span<uint8_t> WritebackBuffer(uint64_t bytes) {
  thread_local std::vector<uint8_t> buf;
  if (buf.size() < bytes) {
    buf.resize(bytes);
  }
  return std::span<uint8_t>(buf.data(), bytes);
}

}  // namespace

MigrationEngine::MigrationEngine(Machine* machine, PhysManager* phys_mgr, Pmfs* pmfs,
                                 FomManager* fom)
    : machine_(machine), phys_mgr_(phys_mgr), pmfs_(pmfs), fom_(fom) {
  O1_CHECK(machine != nullptr && phys_mgr != nullptr && pmfs != nullptr && fom != nullptr);
}

Result<PromotedExtent> MigrationEngine::Promote(InodeId inode, uint64_t off, uint64_t bytes,
                                                Paddr home,
                                                std::vector<TierMappingRef>& maps) {
  ObsSpan span(ctx(), TraceKind::kTierPromote, bytes);
  auto cache = phys_mgr_->AllocCache(bytes);
  Paddr cache_pa = 0;
  bool borrowed = false;
  if (cache.ok()) {
    cache_pa = cache.value();
  } else {
    // Tier carve full: borrow second-class backing from the contiguous
    // area. The copy is clean-by-construction (an NVM home always exists),
    // so a later Claim() can revoke it with at most one writeback.
    ContigAllocator* contig = phys_mgr_->contig();
    if (contig == nullptr || contig->cma_baseline()) {
      return cache.status();
    }
    auto lent = contig->Borrow(bytes, LenderClass::kTierCleanCopy, inode);
    if (!lent.ok()) {
      return cache.status();  // report the carve exhaustion, not the area's
    }
    cache_pa = lent.value();
    borrowed = true;
  }
  // Data first, translations second: until the last Repoint lands, every
  // access still resolves to the intact NVM home, and a crash anywhere in
  // between merely discards the (volatile) cache copy.
  PromotedExtent e;
  e.off = off;
  e.bytes = bytes;
  e.cache = cache_pa;
  e.home = home;
  e.borrowed = borrowed;
  Status copied = machine_->phys().Move(e.cache, home, bytes);
  if (!copied.ok()) {
    (void)ReleaseCacheExtent(e);
    return copied;
  }
  for (const TierMappingRef& ref : maps) {
    O1_RETURN_IF_ERROR(Repoint(inode, ref, e, /*to_cache=*/true));
  }
  return e;
}

Status MigrationEngine::Demote(InodeId inode, PromotedExtent& e, bool persistent,
                               std::vector<TierMappingRef>& maps) {
  ObsSpan span(ctx(), TraceKind::kTierDemote, e.bytes);
  if (e.dirty) {
    if (persistent) {
      O1_RETURN_IF_ERROR(WriteBack(inode, e));
    } else {
      // Volatile file: the home copy need not survive a crash, so a plain
      // bulk copy (no journal, no flush) restores it.
      O1_RETURN_IF_ERROR(machine_->phys().Move(e.home, e.cache, e.bytes));
      e.dirty = false;
    }
  }
  for (const TierMappingRef& ref : maps) {
    O1_RETURN_IF_ERROR(Repoint(inode, ref, e, /*to_cache=*/false));
  }
  return ReleaseCacheExtent(e);
}

Status MigrationEngine::Abandon(InodeId inode, PromotedExtent& e,
                                std::vector<TierMappingRef>& maps) {
  ObsSpan span(ctx(), TraceKind::kTierQuarantine, e.bytes);
  for (const TierMappingRef& ref : maps) {
    O1_RETURN_IF_ERROR(Repoint(inode, ref, e, /*to_cache=*/false));
  }
  return ReleaseCacheExtent(e);
}

Status MigrationEngine::ReleaseCacheExtent(PromotedExtent& e) {
  if (e.borrowed) {
    return phys_mgr_->contig()->Return(e.cache);
  }
  return phys_mgr_->FreeCache(e.cache, e.bytes);
}

Status MigrationEngine::Surrender(InodeId inode, PromotedExtent& e, bool persistent,
                                  std::vector<TierMappingRef>& maps) {
  ObsSpan span(ctx(), TraceKind::kContigRevoke, e.bytes);
  // Durability invariant first: a dirty copy writes back before the area
  // memory is reused. The claim's window contents are untouched until the
  // revocation pass completes, so reading e.cache here is still sound.
  Status wb = OkStatus();
  if (e.dirty) {
    if (persistent) {
      wb = WriteBack(inode, e);
    } else {
      wb = machine_->phys().Move(e.home, e.cache, e.bytes);
      if (wb.ok()) {
        e.dirty = false;
      }
    }
  }
  // Repoint home regardless: even when the writeback failed (unreadable
  // cache copy), the mappings must stop resolving into the revoked extent.
  for (const TierMappingRef& ref : maps) {
    O1_RETURN_IF_ERROR(Repoint(inode, ref, e, /*to_cache=*/false));
  }
  // No free: the ContigAllocator already reclaimed the extent.
  return wb;
}

Status MigrationEngine::Repoint(InodeId inode, const TierMappingRef& ref, PromotedExtent& e,
                                bool to_cache) {
  auto it = ref.proc->mappings().find(ref.base);
  if (it == ref.proc->mappings().end()) {
    return NotFound("tiered mapping vanished");
  }
  const FomProcess::Mapping& m = it->second;
  AddressSpace& as = ref.proc->address_space();
  const Vaddr va = ref.base + e.off;
  switch (m.mech) {
    case MapMechanism::kRangeTable:
      O1_RETURN_IF_ERROR(RepointRange(as, va, e, to_cache ? e.cache : e.home));
      break;
    case MapMechanism::kPtSplice:
      O1_RETURN_IF_ERROR(RepointSplice(as, va, inode, m.prot, e, to_cache));
      break;
    default:
      return Unsupported("tiering requires range or splice mappings");
  }
  machine_->mmu().ShootdownRange(as.asid(), va, e.bytes);
  return OkStatus();
}

Status MigrationEngine::RepointRange(AddressSpace& as, Vaddr va, PromotedExtent& e, Paddr to) {
  SimContext& c = ctx();
  RangeTable& rt = as.range_table();
  auto entry = rt.Lookup(va);
  if (!entry.has_value() || entry->vbase > va || entry->vlimit() < va + e.bytes) {
    return NotFound("no range entry covers the tiered extent");
  }
  auto install = [&](Vaddr vbase, uint64_t bytes, Paddr pbase) -> Status {
    O1_RETURN_IF_ERROR(
        rt.Insert({.vbase = vbase, .bytes = bytes, .pbase = pbase, .prot = entry->prot}));
    c.Charge(c.cost().range_entry_install_cycles);
    c.counters().range_entries_installed++;
    return OkStatus();
  };
  if (to == e.cache) {
    // Promote: split the containing entry into [left][cache][right]. The
    // cost is a fixed <=3 entry stores -- independent of the extent length.
    O1_RETURN_IF_ERROR(rt.Remove(entry->vbase));
    if (va > entry->vbase) {
      O1_RETURN_IF_ERROR(install(entry->vbase, va - entry->vbase, entry->pbase));
    }
    O1_RETURN_IF_ERROR(install(va, e.bytes, e.cache));
    if (va + e.bytes < entry->vlimit()) {
      O1_RETURN_IF_ERROR(install(va + e.bytes, entry->vlimit() - (va + e.bytes),
                                 entry->pbase + (va + e.bytes - entry->vbase)));
    }
    return OkStatus();
  }
  // Demote: the promoted span is exactly one cache-backed entry; swap it for
  // the home translation and re-coalesce with physically contiguous
  // neighbours so repeated promote/demote cycles cannot grow the table.
  if (entry->vbase != va || entry->bytes != e.bytes || entry->pbase != e.cache) {
    return NotFound("promoted range entry is not canonical");
  }
  O1_RETURN_IF_ERROR(rt.Remove(va));
  Vaddr vbase = va;
  uint64_t bytes = e.bytes;
  Paddr pbase = e.home;
  if (auto prev = rt.Lookup(va - 1);
      prev.has_value() && prev->vlimit() == vbase && prev->prot == entry->prot &&
      prev->pbase + prev->bytes == pbase) {
    O1_RETURN_IF_ERROR(rt.Remove(prev->vbase));
    vbase = prev->vbase;
    pbase = prev->pbase;
    bytes += prev->bytes;
  }
  if (auto next = rt.Lookup(va + e.bytes);
      next.has_value() && next->vbase == va + e.bytes && next->prot == entry->prot &&
      next->pbase == e.home + e.bytes) {
    O1_RETURN_IF_ERROR(rt.Remove(next->vbase));
    bytes += next->bytes;
  }
  return install(vbase, bytes, pbase);
}

Status MigrationEngine::RepointSplice(AddressSpace& as, Vaddr va, InodeId inode, Prot prot,
                                      PromotedExtent& e, bool to_cache) {
  if (!IsAligned(va, kLargePageSize) || e.bytes > kLargePageSize) {
    return InvalidArgument("splice tiering is 2 MiB-window granular");
  }
  PageTable& pt = as.page_table();
  NodeRef node;
  if (to_cache) {
    // Lazily build the level-1 node over the cache copy, one variant per
    // permission set (mirroring the file's canonical RO/RW table pair).
    const bool rw = HasProt(prot, Prot::kWrite);
    NodeRef& slot = rw ? e.cache_rw : e.cache_ro;
    if (slot == nullptr) {
      slot = PageTable::BuildExtentSubtree(&ctx(), /*level=*/1, e.cache, e.bytes,
                                           rw ? Prot::kReadWrite : Prot::kRead);
    }
    node = slot;
  } else {
    auto tables = fom_->Tables(inode);
    if (!tables.ok()) {
      return tables.status();
    }
    const std::vector<NodeRef>& windows = (*tables)->ForProt(prot);
    const size_t idx = e.off / kLargePageSize;
    if (idx >= windows.size()) {
      return NotFound("no canonical table window for demotion");
    }
    node = windows[idx];
  }
  O1_RETURN_IF_ERROR(pt.UnspliceSubtree(va, /*level=*/1));
  return pt.SpliceSubtree(va, /*level=*/1, node);
}

std::string MigrationEngine::StagePath(bool committed, InodeId inode, uint64_t off,
                                       uint64_t bytes) {
  return std::string("/.tier/wb/") + (committed ? "c_" : "s_") + std::to_string(inode) + "_" +
         std::to_string(off) + "_" + std::to_string(bytes);
}

Status MigrationEngine::DirectWriteBack(PromotedExtent& e, std::span<const uint8_t> buf) {
  O1_RETURN_IF_ERROR(machine_->phys().Write(e.home, buf));
  O1_RETURN_IF_ERROR(machine_->phys().FlushLines(e.home, e.bytes));
  ctx().counters().tier_writeback_bytes += e.bytes;
  e.dirty = false;
  return OkStatus();
}

Status MigrationEngine::WriteBack(InodeId inode, PromotedExtent& e) {
  ObsSpan span(ctx(), TraceKind::kTierWriteback, e.bytes);
  const std::span<uint8_t> buf = WritebackBuffer(e.bytes);
  O1_RETURN_IF_ERROR(machine_->phys().Read(e.cache, buf));
  if (pmfs_->mount_mode() == MountMode::kDegraded) {
    // No journal to publish through; fall back to the in-place copy (not
    // crash-atomic -- the degraded mount already forfeited that guarantee).
    return DirectWriteBack(e, buf);
  }
  const std::string staged = StagePath(false, inode, e.off, e.bytes);
  const std::string committed = StagePath(true, inode, e.off, e.bytes);
  (void)pmfs_->Mkdir("/.tier");
  (void)pmfs_->Mkdir("/.tier/wb");
  (void)pmfs_->Unlink(staged);  // drop any stale leftover
  auto stage = [&]() -> Status {
    auto sid = pmfs_->Create(staged, FileFlags{.persistent = true});
    if (!sid.ok()) {
      return sid.status();
    }
    O1_RETURN_IF_ERROR(pmfs_->Resize(*sid, e.bytes));
    auto wrote = pmfs_->WriteAt(*sid, 0, buf);  // durable on return
    if (!wrote.ok()) {
      return wrote.status();
    }
    // Journaled rename is the atomic commit: before it the staging file is
    // garbage to recovery; after it recovery must redo the home copy.
    return pmfs_->Rename(staged, committed);
  };
  if (Status s = stage(); !s.ok()) {
    (void)pmfs_->Unlink(staged);
    return DirectWriteBack(e, buf);  // e.g. staging quota exhausted
  }
  // Redo phase: idempotent, so a crash mid-copy (or mid-flush under
  // kExplicitFlush) is healed by Recover() repeating it from the staging
  // file.
  O1_RETURN_IF_ERROR(machine_->phys().Write(e.home, buf));
  O1_RETURN_IF_ERROR(machine_->phys().FlushLines(e.home, e.bytes));
  (void)pmfs_->Unlink(committed);
  ctx().counters().tier_writeback_bytes += e.bytes;
  e.dirty = false;
  return OkStatus();
}

Status MigrationEngine::Recover() {
  if (pmfs_->mount_mode() == MountMode::kDegraded) {
    return OkStatus();  // read-only: leave the staging area for a repaired boot
  }
  auto listing = pmfs_->List("/.tier/wb");
  if (!listing.ok()) {
    return OkStatus();  // no staging directory: nothing was in flight
  }
  for (const DirEntry& ent : *listing) {
    if (ent.is_dir || ent.name.size() < 2 || (ent.name[0] != 's' && ent.name[0] != 'c') ||
        ent.name[1] != '_') {
      continue;
    }
    const std::string path = "/.tier/wb/" + ent.name;
    if (ent.name[0] == 's') {
      (void)pmfs_->Unlink(path);  // never committed: discard
      continue;
    }
    // c_<inode>_<off>_<bytes>: committed -- redo the home copy.
    char* cursor = nullptr;
    const char* fields = ent.name.c_str() + 2;
    const InodeId inode = std::strtoull(fields, &cursor, 10);
    if (cursor == nullptr || *cursor != '_') {
      continue;
    }
    const uint64_t off = std::strtoull(cursor + 1, &cursor, 10);
    if (cursor == nullptr || *cursor != '_') {
      continue;
    }
    const uint64_t bytes = std::strtoull(cursor + 1, nullptr, 10);
    auto home = pmfs_->Stat(inode);
    auto staged = pmfs_->LookupPath(path);
    if (bytes > 0 && staged.ok() && home.ok() && !home->quarantined &&
        home->size >= off + bytes) {
      std::vector<uint8_t> buf(bytes);
      auto got = pmfs_->ReadAt(*staged, 0, buf);
      if (got.ok() && *got == bytes) {
        auto put = pmfs_->WriteAt(inode, off, buf);
        if (!put.ok()) {
          continue;  // keep the record; a later scrub/boot can retry
        }
      }
    }
    (void)pmfs_->Unlink(path);
  }
  return OkStatus();
}

}  // namespace o1mem
