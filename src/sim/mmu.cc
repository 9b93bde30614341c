#include "src/sim/mmu.h"

#include <algorithm>
#include <cstdlib>

#include "src/obs/span.h"
#include "src/sim/fault_injector.h"

namespace o1mem {

namespace {
uint64_t PageSpan(Vaddr vaddr, uint64_t len) {
  const Vaddr first = AlignDown(vaddr, kPageSize);
  const Vaddr last = AlignUp(vaddr + std::max<uint64_t>(len, 1), kPageSize);
  return (last - first) >> kPageShift;
}
}  // namespace

Mmu::Mmu(SimContext* ctx, PhysicalMemory* phys, const MmuConfig& config)
    : ctx_(ctx),
      phys_(phys),
      batched_(ctx != nullptr && ctx->smp().batched_shootdowns),
      fastpath_(std::getenv("O1MEM_NO_HOST_FASTPATH") == nullptr),
      pwc_entries_(config.pwc_entries) {
  O1_CHECK(ctx != nullptr && phys != nullptr);
  cpus_.reserve(static_cast<size_t>(ctx->num_cpus()));
  for (int i = 0; i < ctx->num_cpus(); ++i) {
    cpus_.emplace_back(config);
  }
}

bool Mmu::PwcLookupOrInsert(Asid asid, Vaddr vaddr) {
  CpuState& c = cpu();
  const uint64_t key = (static_cast<uint64_t>(asid) << 43) | (vaddr >> kLargePageShift);
  ++c.pwc_tick;
  auto it = c.pwc.find(key);
  if (it != c.pwc.end()) {
    c.pwc_by_tick.erase(it->second);
    c.pwc_by_tick.emplace(c.pwc_tick, key);
    it->second = c.pwc_tick;
    return true;
  }
  if (c.pwc.size() >= static_cast<size_t>(pwc_entries_)) {
    // Evict the least recently used tag. Ticks are unique and monotonic, so
    // the smallest tick in the ordered index IS the linear-scan minimum the
    // previous implementation found -- same victim, O(log n) instead of a
    // full scan per insert.
    auto victim = c.pwc_by_tick.begin();
    c.pwc.erase(victim->second);
    c.pwc_by_tick.erase(victim);
  }
  c.pwc.emplace(key, c.pwc_tick);
  c.pwc_by_tick.emplace(c.pwc_tick, key);
  return false;
}

void Mmu::ChargeWalk(AddressSpace& as, Vaddr vaddr, int levels) {
  const CostModel& c = ctx_->cost();
  const int upper_levels = std::max(levels - 1, 0);
  if (PwcLookupOrInsert(as.asid(), vaddr)) {
    // PWC covers the upper levels; the leaf PTE fetch remains (and under
    // virtualization the leaf's own guest-physical translation with it).
    const uint64_t leaf_refs =
        c.virtualized_walks ? static_cast<uint64_t>(levels) + 1 : uint64_t{1};
    ctx_->counters().pwc_hits++;
    ctx_->Charge(static_cast<uint64_t>(upper_levels) * c.pwc_hit_cycles +
                 leaf_refs * c.pte_fetch_cycles);
  } else {
    // Full walk: d references native, d^2+2d nested (24 for 4-level, 35 for
    // 5-level -- Sec. 2's numbers).
    ctx_->Charge(c.WalkRefs(levels) * c.pte_fetch_cold_cycles);
  }
  ctx_->counters().page_walks++;
}

void Mmu::ChargeShootdown(uint64_t cycles) {
  ctx_->Charge(cycles);
  ctx_->counters().shootdown_cycles += cycles;
}

void Mmu::InvalidateOn(CpuState& state, const PendingInval& inval) {
  state.fast.valid = false;  // conservative: any invalidation clears the fast path
  if (inval.whole_asid) {
    state.l1_tlb.InvalidateAsid(inval.asid);
    state.l2_tlb.InvalidateAsid(inval.asid);
    state.range_tlb.InvalidateAsid(inval.asid);
  } else {
    state.l1_tlb.InvalidateRange(inval.asid, inval.vaddr, inval.len);
    state.l2_tlb.InvalidateRange(inval.asid, inval.vaddr, inval.len);
    state.range_tlb.InvalidateRange(inval.asid, inval.vaddr, inval.len);
  }
}

void Mmu::ApplyPending(CpuState& state) {
  for (const PendingInval& inval : state.pending) {
    InvalidateOn(state, inval);
  }
  state.pending.clear();
}

void Mmu::DrainForTranslate(Asid asid) {
  CpuState& c = cpu();
  if (c.pending.empty()) {
    return;
  }
  const bool affected =
      std::any_of(c.pending.begin(), c.pending.end(),
                  [asid](const PendingInval& p) { return p.asid == asid; });
  if (!affected) {
    return;
  }
  ChargeShootdown(c.pending.size() * ctx_->cost().shootdown_drain_cycles);
  ctx_->counters().shootdown_translate_drains++;
  ApplyPending(c);
}

std::optional<TranslationInfo> Mmu::TryTranslate(AddressSpace& as, Vaddr vaddr) {
  using Source = TranslationInfo::Source;
  const CostModel& c = ctx_->cost();
  const Asid asid = as.asid();
  DrainForTranslate(asid);
  CpuState& hw = cpu();
  FastEntry& fast = hw.fast;
  // An L1 TLB or range-TLB hit is exactly the event a fast-entry hit
  // replays, so both are booked by ReplayFastHit.
  if (auto e = hw.l1_tlb.Lookup(asid, vaddr)) {
    fast = FastEntry{true, true, asid, e->vbase, e->page_bytes, e->pbase, e->prot};
    return ReplayFastHit(fast, vaddr);
  }
  if (auto e = hw.l2_tlb.Lookup(asid, vaddr)) {
    ctx_->counters().tlb_l2_hits++;
    ctx_->Charge(c.tlb_l2_hit_cycles + c.tlb_insert_cycles);
    hw.l1_tlb.Insert(asid, e->vbase, e->pbase, e->page_bytes, e->prot);
    fast = FastEntry{true, true, asid, e->vbase, e->page_bytes, e->pbase, e->prot};
    return fast.At(vaddr, Source::kL2Tlb);
  }
  if (auto e = hw.range_tlb.Lookup(asid, vaddr)) {
    fast = FastEntry{true, false, asid, e->vbase, e->bytes, e->pbase, e->prot};
    return ReplayFastHit(fast, vaddr);
  }
  ctx_->counters().tlb_misses++;
  // Range-table walk (hardware walker over the OS-maintained range table).
  if (auto r = as.range_table().Lookup(vaddr)) {
    ctx_->counters().range_table_walks++;
    ctx_->Charge(c.range_table_walk_cycles + c.tlb_insert_cycles);
    hw.range_tlb.Insert(asid, r->vbase, r->bytes, r->pbase, r->prot);
    fast = FastEntry{true, false, asid, r->vbase, r->bytes, r->pbase, r->prot};
    return fast.At(vaddr, Source::kRangeTable);
  }
  // Radix page-table walk.
  if (auto t = as.page_table().Lookup(vaddr)) {
    ChargeWalk(as, vaddr, t->levels_walked);
    ctx_->Charge(c.tlb_insert_cycles);
    const Vaddr vbase = AlignDown(vaddr, t->page_bytes);
    const Paddr pbase = t->paddr - (vaddr - vbase);
    hw.l1_tlb.Insert(asid, vbase, pbase, t->page_bytes, t->prot);
    hw.l2_tlb.Insert(asid, vbase, pbase, t->page_bytes, t->prot);
    fast = FastEntry{true, true, asid, vbase, t->page_bytes, pbase, t->prot};
    return fast.At(vaddr, Source::kPageWalk);
  }
  // Charge the full failed walk: hardware discovers the hole the hard way.
  ChargeWalk(as, vaddr, as.page_table().depth());
  fast.valid = false;
  return std::nullopt;
}

TranslationInfo Mmu::ReplayFastHit(const FastEntry& fast, Vaddr vaddr) {
  ctx_->Charge(BookHits(fast.page_backed, 1));
  return fast.At(vaddr, fast.page_backed ? TranslationInfo::Source::kL1Tlb
                                         : TranslationInfo::Source::kRangeTlb);
}

Result<TranslationInfo> Mmu::Translate(AddressSpace& as, Vaddr vaddr, AccessType type) {
  if (Covers(as, vaddr, 1, type)) {
    return ReplayFastHit(cpu().fast, vaddr);
  }
  bool faulted = false;
  for (int attempt = 0; attempt <= kMaxFaultRetries; ++attempt) {
    auto info = TryTranslate(as, vaddr);
    if (info.has_value() && HasProt(info->prot, RequiredProt(type))) {
      info->faulted = faulted;
      return *info;
    }
    // Miss or protection violation: trap to the OS. A protection fault with
    // a handler supports copy-on-write-style upgrades; the handler must
    // shoot down the stale entry before returning.
    FaultHandler* handler = as.fault_handler();
    ctx_->Charge(ctx_->cost().fault_trap_cycles);
    if (handler == nullptr) {
      ctx_->counters().segv_faults++;
      return info.has_value() ? PermissionDenied("access violates mapping protection")
                              : FaultError("unhandled translation fault");
    }
    faulted = true;
    Status s = handler->HandleFault(vaddr, type);
    if (!s.ok()) {
      ctx_->counters().segv_faults++;
      return s;
    }
  }
  ctx_->counters().segv_faults++;
  return FaultError("fault handler loop did not install a translation");
}

uint64_t Mmu::TryBulkSpan(AddressSpace& as, Vaddr vaddr, uint64_t len, AccessType type,
                          Paddr* paddr_out) {
  if (!Covers(as, vaddr, 1, type)) {
    return 0;
  }
  const FastEntry& f = cpu().fast;
  const uint64_t span = std::min(len, f.vbase + f.bytes - vaddr);
  const Paddr pstart = f.pbase + (vaddr - f.vbase);
  // The touch price depends on the tier; a span that straddles the
  // DRAM/NVM boundary must go per-page to split the charge identically.
  if (phys_->TierOf(pstart) != phys_->TierOf(pstart + span - 1)) {
    return 0;
  }
  // Replay the chunk loop's charges in closed form: one translation hit
  // per page chunk, plus the touches of a possibly-short head, whole pages
  // and a possibly-short tail. Full 4 KiB chunks always take the streaming
  // rate, and the bulk formulas are exactly linear per 64-byte line, so
  // per-chunk and summed charges are equal to the cycle.
  const uint64_t head = std::min<uint64_t>(kPageSize - (vaddr & (kPageSize - 1)), span);
  const uint64_t body = span - head;
  ctx_->Charge(BookHits(f.page_backed, PageSpan(vaddr, span)) +
               DataTouchCycles(pstart, head, type) +
               body / kPageSize * DataTouchCycles(pstart, kPageSize, type) +
               DataTouchCycles(pstart, body % kPageSize, type));
  *paddr_out = pstart;
  return span;
}

Status Mmu::AccessSlow(AddressSpace& as, Vaddr vaddr, uint64_t len, AccessType type,
                       uint8_t* out, const uint8_t* in) {
  // Bulk replay is byte-identical only while the injector is idle for the
  // access kind. With poison armed, a batched read would charge every page
  // before the poison check instead of failing mid-loop. A batched write
  // folds N per-page NoteNvmWrite/ShadowBeforeWrite calls into one
  // whole-span call, exact only while nothing is armed (no crash-point
  // counting whose threshold could trip mid-span, no torn-persist sampling,
  // no poison healing granularity). A charge-only Touch always batches.
  const FaultInjector* inj = phys_->fault_injector();
  const bool batchable = inj == nullptr || (out != nullptr ? !inj->has_poison()
                                            : in == nullptr || inj->WriteBatchSafe());
  uint64_t done = 0;
  while (done < len) {
    const Vaddr cur = vaddr + done;
    Paddr pstart = 0;
    uint64_t n = batchable ? TryBulkSpan(as, cur, len - done, type, &pstart) : 0;
    if (n == 0) {
      n = std::min<uint64_t>(kPageSize - (cur & (kPageSize - 1)), len - done);
      auto t = Translate(as, cur, type);
      if (!t.ok()) {
        return t.status();
      }
      pstart = t->paddr;
      ctx_->Charge(DataTouchCycles(pstart, n, type));
    }
    if (out != nullptr) {
      O1_RETURN_IF_ERROR(phys_->ReadUncharged(pstart, std::span<uint8_t>(out + done, n)));
    } else if (in != nullptr) {
      O1_RETURN_IF_ERROR(phys_->WriteUncharged(pstart, std::span<const uint8_t>(in + done, n)));
    }
    done += n;
  }
  return OkStatus();
}

void Mmu::ShootdownPage(Asid asid, Vaddr vaddr) {
  ShootdownRange(asid, AlignDown(vaddr, kPageSize), kPageSize);
}

void Mmu::ShootdownRange(Asid asid, Vaddr vaddr, uint64_t len) {
  Shootdown(PendingInval{asid, vaddr, len, false});
}

void Mmu::ShootdownAsid(Asid asid) { Shootdown(PendingInval{asid, 0, 0, true}); }

void Mmu::Shootdown(const PendingInval& inval) {
  const CostModel& c = ctx_->cost();
  const int self = ctx_->current_cpu();
  const uint64_t remotes = static_cast<uint64_t>(ctx_->num_cpus() - 1);
  ctx_->counters().tlb_shootdowns++;
  if (batched_) {
    // Invalidate locally now; remotes get a queued invalidation that the OS
    // flushes once per operation (or the remote drains before translating).
    InvalidateOn(cpus_[static_cast<size_t>(self)], inval);
    ChargeShootdown(c.tlb_local_invalidate_cycles + remotes * c.shootdown_queue_cycles);
    for (size_t i = 0; i < cpus_.size(); ++i) {
      if (static_cast<int>(i) != self) {
        cpus_[i].pending.push_back(inval);
        ctx_->counters().shootdown_invals_batched++;
      }
    }
    return;
  }
  // Eager: every CPU is interrupted now. With more than one CPU the
  // initiator pays one IPI per page per remote -- the linear cost batched
  // mode amortizes away -- while a whole-ASID flush is one operation
  // however large the space is. At num_cpus == 1 this is a flat charge.
  for (CpuState& state : cpus_) {
    InvalidateOn(state, inval);
  }
  const uint64_t ipis = (inval.whole_asid ? 1 : PageSpan(inval.vaddr, inval.len)) * remotes;
  ChargeShootdown(c.tlb_shootdown_cycles + ipis * c.shootdown_ipi_cycles);
  ctx_->counters().shootdown_ipis_sent += ipis;
}

void Mmu::FlushPending() {
  if (!batched_) {
    return;
  }
  size_t queued = 0;
  for (const CpuState& state : cpus_) {
    queued += state.pending.size();
  }
  if (queued == 0) {
    return;  // nothing pending: no IPI round, no trace event
  }
  // Operand = invalidations retired this round, in page units, so the O(1)
  // verdict can ask whether one flush stays flat as the batch grows.
  ObsSpan span(*ctx_, TraceKind::kShootdownFlush, queued * kPageSize);
  const CostModel& c = ctx_->cost();
  const int self = ctx_->current_cpu();
  for (size_t i = 0; i < cpus_.size(); ++i) {
    CpuState& state = cpus_[i];
    if (state.pending.empty()) {
      continue;
    }
    const uint64_t drain = state.pending.size() * c.shootdown_drain_cycles;
    if (static_cast<int>(i) == self) {
      ChargeShootdown(drain);  // own queue: no IPI needed
    } else {
      ChargeShootdown(c.shootdown_ipi_cycles + drain);
      ctx_->counters().shootdown_ipis_sent++;
    }
    ApplyPending(state);
  }
}

size_t Mmu::PendingInvalidations(int cpu) const {
  O1_CHECK(cpu >= 0 && cpu < static_cast<int>(cpus_.size()));
  return cpus_[static_cast<size_t>(cpu)].pending.size();
}

void Mmu::InvalidateAll() {
  for (CpuState& state : cpus_) {
    state.fast.valid = false;
    state.l1_tlb.InvalidateAll();
    state.l2_tlb.InvalidateAll();
    state.range_tlb.InvalidateAll();
    state.pwc.clear();
    state.pwc_by_tick.clear();
    state.pending.clear();
  }
}

}  // namespace o1mem
