#include "src/fs/pmfs.h"

#include "src/obs/span.h"

#include <algorithm>
#include <map>

#include "src/sim/fault_injector.h"
#include "src/support/crc32.h"
#include "src/support/le_bytes.h"

namespace o1mem {

namespace {

// --- journal wire format ----------------------------------------------------
//
// Record = 24 B header + payload, padded to 8 B (all integers little-endian):
//   off  0  u32  len   (whole record, multiple of 8, >= 24)
//   off  4  u32  crc   (CRC-32 of the record with this field zeroed)
//   off  8  u64  generation
//   off 16  u8   op
//   off 17  u8[7] reserved
//   off 24  payload
// A len of 0 is the end-of-journal sentinel; a generation mismatch marks
// stale bytes from the slot's previous life; a CRC mismatch or unreadable
// line marks a torn/decayed tail.
//
// Each op's payload is listed at Pmfs::Fields, the one codec for it.

constexpr uint64_t kRecordHeaderBytes = 24;
constexpr uint64_t kSuperblockMagic = 0x4f31504d46533142ull;  // "O1PMFS1B"
constexpr uint32_t kSuperblockVersion = 1;

// Stamps generation and CRC; must be the last mutation before the bytes
// reach NVM.
void StampRecord(std::vector<uint8_t>& rec, uint64_t generation) {
  StoreLe<uint64_t>(rec.data() + 8, generation);
  StoreLe<uint32_t>(rec.data() + 4, 0);
  StoreLe<uint32_t>(rec.data() + 4, Crc32(rec));
}

// Payload appender: the Io that Encode runs Pmfs::Fields with.
struct Writer {
  std::vector<uint8_t>& v;

  void U64(uint64_t x) { AppendLe(v, x); }
  template <class... Bits>
  void Flags(Bits... bits) {
    uint8_t f = 0;
    int i = 0;
    ((f |= static_cast<uint8_t>((bits ? 1 : 0) << i++)), ...);
    v.push_back(f);
  }
  void Str(std::string_view s) {
    O1_CHECK_MSG(s.size() <= 0xFFFF, "pmfs path too long for journal record");
    AppendLe(v, static_cast<uint16_t>(s.size()));
    v.insert(v.end(), s.begin(), s.end());
  }
};

// Bounds-checked payload reader; any overrun poisons the whole decode.
struct Reader {
  const uint8_t* p;
  uint64_t len;
  uint64_t off = 0;
  bool fail = false;

  // The next `n` bytes, or nullptr (and fail) on overrun.
  const uint8_t* Take(uint64_t n) {
    if (fail || off + n > len) {
      fail = true;
      return nullptr;
    }
    off += n;
    return p + off - n;
  }
  void U64(uint64_t& x) {
    if (const uint8_t* at = Take(8)) {
      x = LoadLe<uint64_t>(at);
    }
  }
  template <class... Bits>
  void Flags(Bits&... bits) {
    if (const uint8_t* at = Take(1)) {
      int i = 0;
      ((bits = ((*at >> i++) & 1) != 0), ...);
    }
  }
  void Str(std::string& s) {
    const uint8_t* n = Take(2);
    const uint16_t size = n != nullptr ? LoadLe<uint16_t>(n) : 0;
    if (const uint8_t* at = Take(size)) {
      s.assign(reinterpret_cast<const char*>(at), size);
    }
  }
};

}  // namespace

// Record payloads (str = u16 length + bytes; flags = u8, bit i = the i-th
// listed bool):
//   kCreate       u64 inode, flags(persistent, discardable, quarantined), str path
//   kUnlink       str path
//   kResize       u64 inode, u64 size
//   kSetFlags     u64 inode, flags(persistent)
//   kAllocExtent  u64 inode, u64 file_offset, u64 block, u64 blocks
//   kMkdir        str path
//   kRmdir        str path
//   kRename       str from, str to
//   kLink         u64 inode, str path
// This switch is the only code that knows them: Encode runs it with a
// Writer, Decode with a Reader.
template <class Io, class Rec>
void Pmfs::Fields(Io& io, Rec& r) {
  switch (r.op) {
    case JournalOp::kCreate:
      io.U64(r.inode);
      io.Flags(r.persistent, r.discardable, r.quarantined);
      io.Str(r.path1);
      break;
    case JournalOp::kUnlink:
    case JournalOp::kMkdir:
    case JournalOp::kRmdir:
      io.Str(r.path1);
      break;
    case JournalOp::kRename:
      io.Str(r.path1);
      io.Str(r.path2);
      break;
    case JournalOp::kLink:
      io.U64(r.inode);
      io.Str(r.path1);
      break;
    case JournalOp::kResize:
      io.U64(r.inode);
      io.U64(r.size);
      break;
    case JournalOp::kSetFlags:
      io.U64(r.inode);
      io.Flags(r.persistent);
      break;
    case JournalOp::kAllocExtent:
      io.U64(r.inode);
      io.U64(r.file_offset);
      io.U64(r.block);
      io.U64(r.blocks);
      break;
  }
}

std::vector<uint8_t> Pmfs::Encode(const JournalRecord& r) {
  std::vector<uint8_t> v(kRecordHeaderBytes, 0);
  v[16] = static_cast<uint8_t>(r.op);
  Writer w{v};
  Fields(w, r);
  v.resize(AlignUp(v.size(), 8), 0);
  StoreLe(v.data(), static_cast<uint32_t>(v.size()));
  return v;
}

std::optional<Pmfs::JournalRecord> Pmfs::Decode(std::span<const uint8_t> bytes) {
  const uint8_t op = bytes[16];
  if (op < static_cast<uint8_t>(JournalOp::kCreate) ||
      op > static_cast<uint8_t>(JournalOp::kLink)) {
    return std::nullopt;
  }
  JournalRecord r{.op = static_cast<JournalOp>(op)};
  Reader rd{bytes.data() + kRecordHeaderBytes, bytes.size() - kRecordHeaderBytes};
  Fields(rd, r);
  if (rd.fail) {
    return std::nullopt;
  }
  return r;
}

Pmfs::Pmfs(Machine* machine, Paddr region_base, uint64_t region_bytes, ZeroPolicy zero_policy)
    : InodeFs(machine),
      region_base_(region_base),
      region_bytes_(region_bytes),
      zero_policy_(zero_policy),
      bitmap_(&machine->ctx(), region_bytes >> kPageShift) {
  O1_CHECK(IsAligned(region_base, kPageSize));
  O1_CHECK(IsAligned(region_bytes, kPageSize));
  O1_CHECK_MSG(machine->phys().TierOf(region_base) == MemTier::kNvm,
               "PMFS region must live in NVM");
  O1_CHECK(machine->phys().Contains(region_base, region_bytes));
  const uint64_t region_blocks = region_bytes >> kPageShift;
  // ~0.1% of the region per slot: checkpoint snapshots scale with live file
  // count, so GiB-scale regions need more than the 64 KiB a small region gets.
  slot_blocks_ = std::clamp<uint64_t>(region_blocks / 1024, 4, 512);
  meta_blocks_ = 1 + 2 * slot_blocks_;
  O1_CHECK_MSG(region_blocks > meta_blocks_ + 16, "pmfs region too small for metadata area");
  // Pin the metadata area in the bitmap; a fresh next-fit bitmap starts at
  // block 0, so the reservation always lands at the front of the region.
  auto meta = bitmap_.AllocExtent(meta_blocks_);
  O1_CHECK(meta.ok());
  O1_CHECK(meta->start == 0);
  Format();
}

Pmfs::~Pmfs() = default;

// --- superblock + journal persistence --------------------------------------

void Pmfs::Format() {
  active_slot_ = 0;
  generation_ = 1;
  journal_tail_bytes_ = 0;
  // End-of-journal sentinels (len == 0) so a parse of the fresh device
  // terminates immediately.
  O1_CHECK(machine_->phys().Zero(SlotBase(0), 64).ok());
  O1_CHECK(machine_->phys().Zero(SlotBase(1), 64).ok());
  O1_CHECK(machine_->phys().FlushLines(SlotBase(0), 64).ok());
  O1_CHECK(machine_->phys().FlushLines(SlotBase(1), 64).ok());
  O1_CHECK(WriteSuperblock(0, 1).ok());
}

Status Pmfs::WriteSuperblock(uint32_t active_slot, uint64_t generation) {
  std::array<uint8_t, 64> line{};
  StoreLe<uint64_t>(line.data(), kSuperblockMagic);
  StoreLe<uint32_t>(line.data() + 8, kSuperblockVersion);
  StoreLe<uint32_t>(line.data() + 12, active_slot);
  StoreLe<uint64_t>(line.data() + 16, generation);
  StoreLe<uint64_t>(line.data() + 24, slot_blocks_);
  StoreLe<uint64_t>(line.data() + 32, region_bytes_ >> kPageShift);
  StoreLe<uint32_t>(line.data() + 60, Crc32(std::span<const uint8_t>(line.data(), 60)));
  O1_RETURN_IF_ERROR(machine_->phys().Write(region_base_, line));
  return machine_->phys().FlushLines(region_base_, 64);
}

Result<std::pair<uint32_t, uint64_t>> Pmfs::ReadSuperblock() {
  std::array<uint8_t, 64> line{};
  O1_RETURN_IF_ERROR(machine_->phys().Read(region_base_, line));
  if (LoadLe<uint32_t>(line.data() + 60) != Crc32(std::span<const uint8_t>(line.data(), 60))) {
    return Corruption("pmfs superblock checksum mismatch");
  }
  if (LoadLe<uint64_t>(line.data()) != kSuperblockMagic ||
      LoadLe<uint32_t>(line.data() + 8) != kSuperblockVersion) {
    return Corruption("pmfs superblock magic/version mismatch");
  }
  const uint32_t active = LoadLe<uint32_t>(line.data() + 12);
  if (active > 1 || LoadLe<uint64_t>(line.data() + 24) != slot_blocks_ ||
      LoadLe<uint64_t>(line.data() + 32) != (region_bytes_ >> kPageShift)) {
    return Corruption("pmfs superblock names a different geometry");
  }
  return std::make_pair(active, LoadLe<uint64_t>(line.data() + 16));
}

Status Pmfs::ReserveJournal(uint64_t len) {
  if (journal_tail_bytes_ + len <= SlotBytes()) {
    return OkStatus();
  }
  O1_RETURN_IF_ERROR(Checkpoint());
  if (journal_tail_bytes_ + len > SlotBytes()) {
    return QuotaExceeded("pmfs journal slot cannot hold live metadata plus record");
  }
  return OkStatus();
}

Result<std::vector<uint8_t>> Pmfs::Prepare(const JournalRecord& r) {
  std::vector<uint8_t> rec = Encode(r);
  O1_RETURN_IF_ERROR(ReserveJournal(rec.size()));
  return rec;
}

Status Pmfs::AppendRecord(std::vector<uint8_t>& rec) {
  ObsSpan span(machine_->ctx(), TraceKind::kJournalCommit, rec.size());
  StampRecord(rec, generation_);
  const Paddr at = SlotBase(active_slot_) + journal_tail_bytes_;
  O1_RETURN_IF_ERROR(machine_->phys().Write(at, rec));
  // The flush is the commit point: the record either parses whole after a
  // crash or the tail is truncated at it.
  O1_RETURN_IF_ERROR(machine_->phys().FlushLines(at, rec.size()));
  machine_->ctx().Charge(machine_->ctx().cost().journal_record_cycles);
  journal_tail_bytes_ += rec.size();
  ++ops_records_;
  return OkStatus();
}

std::vector<uint8_t> Pmfs::EncodeSnapshot(uint64_t generation) const {
  std::vector<uint8_t> buf;
  auto emit = [&](const JournalRecord& r) {
    std::vector<uint8_t> rec = Encode(r);
    StampRecord(rec, generation);
    buf.insert(buf.end(), rec.begin(), rec.end());
  };
  // Directories first, sorted, so parents precede children at replay.
  for (const std::string& dir : ns_.AllDirs()) {
    emit({.op = JournalOp::kMkdir, .path1 = dir});
  }
  // One create per inode (its first path), then extents, size, extra links.
  std::map<InodeId, std::vector<std::string>> paths;
  for (const auto& [path, id] : ns_.AllFiles()) {
    paths[id].push_back(path);
  }
  for (const auto& [id, plist] : paths) {
    const Inode& inode = inodes_.at(id);
    emit({.op = JournalOp::kCreate,
          .inode = id,
          .persistent = inode.flags.persistent,
          .discardable = inode.flags.discardable,
          .quarantined = inode.quarantined,
          .path1 = plist.front()});
    for (const FileExtent& e : inode.extents.Extents()) {
      // Quarantined files can hold garbage extents; only well-formed,
      // in-region ones are worth snapshotting.
      if (InDataArea(e)) {
        emit({.op = JournalOp::kAllocExtent,
              .inode = id,
              .file_offset = e.file_offset,
              .block = BlockOf(e.paddr),
              .blocks = e.bytes >> kPageShift});
      }
    }
    emit({.op = JournalOp::kResize, .inode = id, .size = inode.size});
    for (size_t i = 1; i < plist.size(); ++i) {
      emit({.op = JournalOp::kLink, .inode = id, .path1 = plist[i]});
    }
  }
  return buf;
}

Status Pmfs::Checkpoint() {
  const uint64_t gen = generation_ + 1;
  std::vector<uint8_t> buf = EncodeSnapshot(gen);
  if (buf.size() + 8 > SlotBytes()) {
    return QuotaExceeded("pmfs live metadata exceeds a journal slot");
  }
  const uint32_t to = 1 - active_slot_;
  if (!buf.empty()) {
    O1_RETURN_IF_ERROR(machine_->phys().Write(SlotBase(to), buf));
    O1_RETURN_IF_ERROR(machine_->phys().FlushLines(SlotBase(to), buf.size()));
  }
  // End sentinel after the snapshot (stale later bytes are also fenced off
  // by their older generation; the sentinel covers the slot's first use).
  O1_RETURN_IF_ERROR(machine_->phys().Zero(SlotBase(to) + buf.size(), 8));
  O1_RETURN_IF_ERROR(machine_->phys().FlushLines(SlotBase(to) + buf.size(), 8));
  // One flushed 64 B superblock line flips the whole file system over.
  O1_RETURN_IF_ERROR(WriteSuperblock(to, gen));
  active_slot_ = to;
  generation_ = gen;
  journal_tail_bytes_ = buf.size();
  ++checkpoint_count_;
  return OkStatus();
}

void Pmfs::ApplyRecord(const JournalRecord& r) {
  switch (r.op) {
    case JournalOp::kCreate: {
      Inode inode(&machine_->ctx());
      inode.id = r.inode;
      inode.flags.persistent = r.persistent;
      inode.flags.discardable = r.discardable;
      inode.quarantined = r.quarantined;
      (void)AddInode(std::move(inode), r.path1);
      break;
    }
    case JournalOp::kUnlink:
      (void)DropName(r.path1);
      break;
    case JournalOp::kResize: {
      auto it = inodes_.find(r.inode);
      if (it == inodes_.end()) {
        return;
      }
      it->second.size = r.size;
      const uint64_t keep = AlignUp(r.size, kPageSize);
      if (keep < it->second.extents.mapped_bytes()) {
        (void)it->second.extents.TruncateFrom(keep);
      }
      break;
    }
    case JournalOp::kSetFlags: {
      auto it = inodes_.find(r.inode);
      if (it != inodes_.end()) {
        it->second.flags.persistent = r.persistent;
      }
      break;
    }
    case JournalOp::kAllocExtent: {
      auto it = inodes_.find(r.inode);
      if (it == inodes_.end()) {
        return;
      }
      (void)it->second.extents.Insert(r.file_offset, AddrOf(r.block), r.blocks << kPageShift);
      break;
    }
    case JournalOp::kMkdir: {
      Status s = ns_.Mkdir(r.path1);
      (void)s;
      break;
    }
    case JournalOp::kRmdir: {
      Status s = ns_.Rmdir(r.path1);
      (void)s;
      break;
    }
    case JournalOp::kRename: {
      Status s = ns_.Rename(r.path1, r.path2);
      (void)s;
      break;
    }
    case JournalOp::kLink:
      (void)AddLink(r.path1, r.inode);
      break;
  }
}

bool Pmfs::DropName(const std::string& path) {
  auto removed = ns_.RemoveFile(path);
  if (!removed.ok()) {
    return false;
  }
  auto it = inodes_.find(*removed);
  if (it == inodes_.end()) {
    return true;  // later hard link to an already-torn-down inode
  }
  if (it->second.links > 0) {
    it->second.links--;
  }
  if (it->second.links == 0) {
    // Extents vanish with the inode; the bitmap rebuild reclaims the
    // blocks and the kZeroEpoch re-zero pass clears them.
    inodes_.erase(it);
  }
  return true;
}

Pmfs::SlotProbe Pmfs::ParseSlot(uint32_t slot, bool apply, uint64_t expect_generation) {
  SlotProbe probe;
  const Paddr base = SlotBase(slot);
  const uint64_t cap = SlotBytes();
  uint64_t off = 0;
  std::vector<uint8_t> rec;
  while (off + kRecordHeaderBytes <= cap) {
    std::array<uint8_t, 8> head{};
    if (!machine_->phys().ReadUncharged(base + off, head).ok()) {
      probe.truncated = true;  // unreadable line mid-journal
      break;
    }
    const uint32_t len = LoadLe<uint32_t>(head.data());
    if (len == 0) {
      break;  // clean end sentinel
    }
    if (len < kRecordHeaderBytes || len % 8 != 0 || off + len > cap) {
      probe.truncated = true;
      break;
    }
    rec.resize(len);
    if (!machine_->phys().ReadUncharged(base + off, rec).ok()) {
      probe.truncated = true;
      break;
    }
    const uint32_t stored_crc = LoadLe<uint32_t>(rec.data() + 4);
    StoreLe<uint32_t>(rec.data() + 4, 0);
    if (Crc32(rec) != stored_crc) {
      probe.truncated = true;  // torn or decayed record
      break;
    }
    const uint64_t gen = LoadLe<uint64_t>(rec.data() + 8);
    if (expect_generation == 0) {
      expect_generation = gen;  // probe mode: first record names the slot
    }
    if (gen != expect_generation) {
      break;  // stale bytes from the slot's previous generation
    }
    auto decoded = Decode(rec);
    if (!decoded.has_value()) {
      probe.truncated = true;
      break;
    }
    if (apply) {
      ApplyRecord(*decoded);
    }
    probe.generation = gen;
    ++probe.records;
    off += len;
  }
  probe.bytes = off;
  return probe;
}

// --- inode helpers ----------------------------------------------------------

Status Pmfs::CheckWritable() const {
  if (mount_mode_ == MountMode::kDegraded) {
    return ReadOnlyError("pmfs degraded (read-only): " + degrade_reason_);
  }
  return OkStatus();
}

Result<Pmfs::Inode*> Pmfs::GetWritable(InodeId id) {
  O1_RETURN_IF_ERROR(CheckWritable());
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  if (inode->quarantined) {
    return MediaError("pmfs file quarantined");
  }
  return inode;
}

void Pmfs::Degrade(std::string reason) {
  mount_mode_ = MountMode::kDegraded;
  degrade_reason_ = std::move(reason);
}

// --- namespace ops ----------------------------------------------------------

Result<InodeId> Pmfs::Create(std::string_view path, const FileFlags& flags) {
  O1_RETURN_IF_ERROR(CheckWritable());
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  O1_ASSIGN_OR_RETURN(const std::string norm, Namespace::Normalize(path));
  const InodeId id = next_inode_;
  O1_ASSIGN_OR_RETURN(auto rec, Prepare({.op = JournalOp::kCreate,
                                         .inode = id,
                                         .persistent = flags.persistent,
                                         .discardable = flags.discardable,
                                         .path1 = norm}));
  Inode inode(&machine_->ctx());
  inode.id = id;
  inode.flags = flags;
  TouchAtime(inode);
  O1_RETURN_IF_ERROR(AddInode(std::move(inode), norm));
  O1_RETURN_IF_ERROR(AppendRecord(rec));
  return id;
}

Result<InodeId> Pmfs::CreateVolatile(const FileFlags& flags) {
  O1_RETURN_IF_ERROR(CheckWritable());
  if (flags.persistent) {
    return InvalidArgument("volatile inode cannot be persistent");
  }
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  const InodeId id = next_inode_;
  Inode inode(&machine_->ctx());
  inode.id = id;
  inode.flags = flags;
  inode.journaled = false;
  TouchAtime(inode);
  AddInode(std::move(inode));
  return id;
}

Status Pmfs::Release(InodeId id) { return MaybeFree(id); }

Status Pmfs::Unlink(std::string_view path) {
  O1_RETURN_IF_ERROR(CheckWritable());
  machine_->ctx().Charge(machine_->ctx().cost().file_delete_cycles);
  O1_ASSIGN_OR_RETURN(const std::string norm, Namespace::Normalize(path));
  O1_ASSIGN_OR_RETURN(auto rec, Prepare({.op = JournalOp::kUnlink, .path1 = norm}));
  O1_ASSIGN_OR_RETURN(const InodeId id, ns_.RemoveFile(norm));
  // Committed before any block is freed or zeroed: replay either sees the
  // unlink or a fully intact file, never a half-released one.
  O1_RETURN_IF_ERROR(AppendRecord(rec));
  return DropLink(id);
}

Status Pmfs::Mkdir(std::string_view path) {
  O1_RETURN_IF_ERROR(CheckWritable());
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  O1_ASSIGN_OR_RETURN(const std::string norm, Namespace::Normalize(path));
  O1_ASSIGN_OR_RETURN(auto rec, Prepare({.op = JournalOp::kMkdir, .path1 = norm}));
  O1_RETURN_IF_ERROR(ns_.Mkdir(norm));
  return AppendRecord(rec);
}

Status Pmfs::Rmdir(std::string_view path) {
  O1_RETURN_IF_ERROR(CheckWritable());
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  O1_ASSIGN_OR_RETURN(const std::string norm, Namespace::Normalize(path));
  O1_ASSIGN_OR_RETURN(auto rec, Prepare({.op = JournalOp::kRmdir, .path1 = norm}));
  O1_RETURN_IF_ERROR(ns_.Rmdir(norm));
  return AppendRecord(rec);
}

Status Pmfs::Rename(std::string_view from, std::string_view to) {
  O1_RETURN_IF_ERROR(CheckWritable());
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  O1_ASSIGN_OR_RETURN(const std::string norm_from, Namespace::Normalize(from));
  O1_ASSIGN_OR_RETURN(const std::string norm_to, Namespace::Normalize(to));
  O1_ASSIGN_OR_RETURN(
      auto rec, Prepare({.op = JournalOp::kRename, .path1 = norm_from, .path2 = norm_to}));
  O1_RETURN_IF_ERROR(ns_.Rename(norm_from, norm_to));
  return AppendRecord(rec);
}

Status Pmfs::Link(std::string_view existing, std::string_view new_path) {
  O1_RETURN_IF_ERROR(CheckWritable());
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  O1_ASSIGN_OR_RETURN(const InodeId id, ns_.LookupFile(existing));
  O1_ASSIGN_OR_RETURN(const std::string norm, Namespace::Normalize(new_path));
  O1_ASSIGN_OR_RETURN(auto rec, Prepare({.op = JournalOp::kLink, .inode = id, .path1 = norm}));
  O1_RETURN_IF_ERROR(AddLink(norm, id));
  return AppendRecord(rec);
}

// --- size changes -----------------------------------------------------------

Status Pmfs::GrowTo(Inode& inode, uint64_t new_size) {
  uint64_t allocated = inode.extents.mapped_bytes();
  const uint64_t target = AlignUp(new_size, kPageSize);
  while (allocated < target) {
    const uint64_t want_blocks = (target - allocated) >> kPageShift;
    auto extent = bitmap_.AllocExtentAtMost(want_blocks, 1);
    if (!extent.ok()) {
      return extent.status();
    }
    const Paddr paddr = AddrOf(extent->start);
    const uint64_t bytes = extent->count << kPageShift;
    if (zero_policy_ == ZeroPolicy::kEagerZero) {
      // Zero BEFORE the journal can map the extent into the file: a crash
      // in between leaves an unowned zeroed run for recovery to reclaim,
      // never a reachable extent of another file's stale bytes.
      O1_RETURN_IF_ERROR(machine_->phys().Zero(paddr, bytes));
      O1_RETURN_IF_ERROR(machine_->phys().FlushLines(paddr, bytes));
    }
    // kZeroEpoch: blocks were zeroed in the background when freed, so the
    // foreground allocation path does no per-byte work.
    if (inode.journaled) {
      O1_ASSIGN_OR_RETURN(auto rec, Prepare({.op = JournalOp::kAllocExtent,
                                             .inode = inode.id,
                                             .file_offset = allocated,
                                             .block = extent->start,
                                             .blocks = extent->count}));
      O1_RETURN_IF_ERROR(inode.extents.Insert(allocated, paddr, bytes));
      O1_RETURN_IF_ERROR(AppendRecord(rec));
    } else {
      // Unjournaled volatile inode: a crash leaves these blocks unowned and
      // the bitmap rebuild frees them, which is exactly the teardown a
      // linked volatile file would get.
      O1_RETURN_IF_ERROR(inode.extents.Insert(allocated, paddr, bytes));
    }
    allocated += bytes;
  }
  if (!inode.journaled) {
    inode.size = new_size;
    return OkStatus();
  }
  // The size commits LAST: replay exposes only fully journaled extents, and
  // a crash mid-grow leaves the file readable at its old size.
  O1_ASSIGN_OR_RETURN(auto rec,
                      Prepare({.op = JournalOp::kResize, .inode = inode.id, .size = new_size}));
  inode.size = new_size;
  return AppendRecord(rec);
}

Status Pmfs::ZeroOnFree(Paddr paddr, uint64_t bytes) {
  if (zero_policy_ != ZeroPolicy::kZeroEpoch) {
    return OkStatus();
  }
  // Background zeroing: contents are cleared before the block can ever be
  // reallocated, but the cycles are accounted off the critical path.
  O1_RETURN_IF_ERROR(machine_->phys().ZeroUncharged(paddr, bytes));
  const uint64_t flushed = machine_->phys().FlushLinesUncharged(paddr, bytes);
  background_zero_cycles_ += machine_->ctx().cost().NvmWriteBulkCycles(bytes) +
                             flushed * machine_->ctx().cost().clwb_cycles;
  return OkStatus();
}

Status Pmfs::ShrinkTo(Inode& inode, uint64_t new_size) {
  const uint64_t keep = AlignUp(new_size, kPageSize);
  std::vector<FileExtent> released = inode.extents.TruncateFrom(keep);
  for (const FileExtent& e : released) {
    O1_RETURN_IF_ERROR(ZeroOnFree(e.paddr, e.bytes));
    O1_RETURN_IF_ERROR(bitmap_.FreeExtent(
        BlockExtent{.start = BlockOf(e.paddr), .count = e.bytes >> kPageShift}));
  }
  // Zero the kept tail beyond the new size: a later extension must read
  // zeros there, not the dead bytes (truncate(2) semantics).
  if (new_size < keep) {
    if (auto tail = inode.extents.Lookup(new_size); tail.has_value()) {
      O1_RETURN_IF_ERROR(machine_->phys().Zero(tail->paddr + (new_size - tail->file_offset),
                                               keep - new_size));
    }
  }
  inode.size = new_size;
  return OkStatus();
}

Status Pmfs::ResizeSingleExtent(InodeId id, uint64_t size) {
  O1_ASSIGN_OR_RETURN(Inode * inode, GetWritable(id));
  if (inode->extents.extent_count() > 0) {
    return InvalidArgument("file already has backing");
  }
  if (size == 0) {
    return InvalidArgument("empty single-extent file");
  }
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  auto extent = bitmap_.AllocExtent(PagesFor(size));
  if (!extent.ok()) {
    return extent.status();
  }
  const Paddr paddr = AddrOf(extent->start);
  const uint64_t bytes = extent->count << kPageShift;
  if (zero_policy_ == ZeroPolicy::kEagerZero) {
    O1_RETURN_IF_ERROR(machine_->phys().Zero(paddr, bytes));
    O1_RETURN_IF_ERROR(machine_->phys().FlushLines(paddr, bytes));
  }
  if (!inode->journaled) {
    O1_RETURN_IF_ERROR(inode->extents.Insert(0, paddr, bytes));
    inode->size = size;
    TouchAtime(*inode);
    return OkStatus();
  }
  // Both records are reserved together, so no checkpoint can fall between
  // the extent and the size.
  auto arec = Encode(
      {.op = JournalOp::kAllocExtent, .inode = id, .block = extent->start, .blocks = extent->count});
  auto rrec = Encode({.op = JournalOp::kResize, .inode = id, .size = size});
  O1_RETURN_IF_ERROR(ReserveJournal(arec.size() + rrec.size()));
  O1_RETURN_IF_ERROR(inode->extents.Insert(0, paddr, bytes));
  O1_RETURN_IF_ERROR(AppendRecord(arec));
  inode->size = size;
  O1_RETURN_IF_ERROR(AppendRecord(rrec));
  TouchAtime(*inode);
  return OkStatus();
}

Status Pmfs::Resize(InodeId id, uint64_t size) {
  O1_ASSIGN_OR_RETURN(Inode * inode, GetWritable(id));
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  TouchAtime(*inode);
  if (size >= inode->size) {
    return GrowTo(*inode, size);
  }
  // Shrink: commit the new size FIRST, so a crash mid-free never zeroes
  // blocks a replayed journal still maps into the file.
  O1_ASSIGN_OR_RETURN(auto rec, Prepare({.op = JournalOp::kResize, .inode = id, .size = size}));
  O1_RETURN_IF_ERROR(AppendRecord(rec));
  return ShrinkTo(*inode, size);
}

// --- data path --------------------------------------------------------------

Result<Paddr> Pmfs::GetBackingPage(InodeId id, uint64_t offset, bool for_write) {
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  if (inode->quarantined) {
    return MediaError("pmfs file quarantined");
  }
  if (for_write) {
    O1_RETURN_IF_ERROR(CheckWritable());
  }
  if (offset >= AlignUp(std::max<uint64_t>(inode->size, 1), kPageSize)) {
    return InvalidArgument("page beyond end of pmfs file");
  }
  auto extent = inode->extents.Lookup(offset);
  if (!extent.has_value()) {
    // Should not happen: PMFS allocates eagerly at Resize. Treat as
    // corruption rather than silently allocating.
    return Corruption("pmfs hole inside file size");
  }
  const Paddr paddr = extent->paddr + (offset - extent->file_offset);
  return paddr;
}

Result<uint64_t> Pmfs::ReadAt(InodeId id, uint64_t offset, std::span<uint8_t> out) {
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  if (inode->quarantined) {
    return MediaError("pmfs file quarantined");
  }
  TouchAtime(*inode);
  if (offset >= inode->size) {
    return uint64_t{0};
  }
  const uint64_t len = std::min<uint64_t>(out.size(), inode->size - offset);
  uint64_t done = 0;
  while (done < len) {
    const uint64_t cur = offset + done;
    auto extent = inode->extents.Lookup(cur);
    if (!extent.has_value()) {
      return Corruption("pmfs hole inside file size");
    }
    const uint64_t in_extent =
        std::min<uint64_t>(extent->file_offset + extent->bytes - cur, len - done);
    const Paddr paddr = extent->paddr + (cur - extent->file_offset);
    O1_RETURN_IF_ERROR(machine_->phys().Read(paddr, out.subspan(done, in_extent)));
    done += in_extent;
  }
  return len;
}

Result<uint64_t> Pmfs::WriteAt(InodeId id, uint64_t offset, std::span<const uint8_t> data) {
  {
    O1_ASSIGN_OR_RETURN(Inode * inode, GetWritable(id));
    if (offset + data.size() > inode->size) {
      O1_RETURN_IF_ERROR(Resize(id, offset + data.size()));
    }
    TouchAtime(*inode);
  }
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  uint64_t done = 0;
  while (done < data.size()) {
    const uint64_t cur = offset + done;
    auto extent = inode->extents.Lookup(cur);
    if (!extent.has_value()) {
      return Corruption("pmfs hole inside file size");
    }
    const uint64_t in_extent =
        std::min<uint64_t>(extent->file_offset + extent->bytes - cur, data.size() - done);
    const Paddr paddr = extent->paddr + (cur - extent->file_offset);
    O1_RETURN_IF_ERROR(machine_->phys().Write(paddr, data.subspan(done, in_extent)));
    // write(2) on a PM file system is durable on return (NT stores + fence).
    O1_RETURN_IF_ERROR(machine_->phys().FlushLines(paddr, in_extent));
    done += in_extent;
  }
  return static_cast<uint64_t>(data.size());
}

Result<std::vector<FileExtentView>> Pmfs::Extents(InodeId id) {
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  std::vector<FileExtentView> out;
  for (const FileExtent& e : inode->extents.Extents()) {
    machine_->ctx().Charge(machine_->ctx().cost().extent_tree_op_cycles);
    out.push_back(FileExtentView{.file_offset = e.file_offset, .paddr = e.paddr,
                                 .bytes = e.bytes});
  }
  return out;
}

uint64_t Pmfs::free_bytes() const { return bitmap_.free_blocks() << kPageShift; }

Result<uint64_t> Pmfs::ReclaimDiscardable(uint64_t bytes_needed,
                                          std::vector<InodeId>* freed_persistent) {
  O1_RETURN_IF_ERROR(CheckWritable());
  return InodeFs::ReclaimDiscardable(bytes_needed, freed_persistent);
}

Status Pmfs::SetPersistent(InodeId id, bool persistent) {
  O1_ASSIGN_OR_RETURN(Inode * inode, GetWritable(id));
  if (!inode->journaled && persistent) {
    // A pathless unjournaled inode cannot survive a checkpoint, let alone a
    // crash; persistence requires a linked, journaled file.
    return InvalidArgument("volatile O_TMPFILE-style inode cannot be made persistent");
  }
  machine_->ctx().Charge(machine_->ctx().cost().inode_update_cycles);
  O1_ASSIGN_OR_RETURN(
      auto rec, Prepare({.op = JournalOp::kSetFlags, .inode = id, .persistent = persistent}));
  inode->flags.persistent = persistent;
  return AppendRecord(rec);
}

Status Pmfs::Destroy(InodeId id) {
  if (mount_mode_ == MountMode::kDegraded) {
    // Freeing rewrites the bitmap and (under kZeroEpoch) media; defer until
    // a scrub or recovery makes the mount writable again.
    return OkStatus();
  }
  O1_ASSIGN_OR_RETURN(Inode * inode, Get(id));
  if (inode->quarantined) {
    // Keep the blocks fenced off in the bitmap; the next scrub or recovery
    // reconsiders ownerless blocks with full knowledge of media state.
    inodes_.erase(id);
    return OkStatus();
  }
  O1_RETURN_IF_ERROR(ShrinkTo(*inode, 0));
  inodes_.erase(id);
  return OkStatus();
}

Status Pmfs::LeakBlocksForTest(uint64_t blocks) {
  O1_RETURN_IF_ERROR(CheckWritable());
  auto extent = bitmap_.AllocExtent(blocks);
  if (!extent.ok()) {
    return extent.status();
  }
  // Deliberately forget the owner: simulates a torn allocation where the
  // bitmap update persisted but the extent-tree/journal commit did not.
  return OkStatus();
}

// --- recovery ---------------------------------------------------------------

bool Pmfs::InDataArea(const FileExtent& e) const {
  return e.paddr >= AddrOf(meta_blocks_) && e.paddr + e.bytes <= region_base_ + region_bytes_ &&
         IsAligned(e.paddr, kPageSize) && IsAligned(e.bytes, kPageSize);
}

Pmfs::BlockClaims Pmfs::ClaimBlocks() const {
  BlockClaims claims;
  claims.owned = BitVector(region_bytes_ >> kPageShift);
  claims.owned.Assign(0, meta_blocks_, true);
  for (InodeId id : SortedInodeIds()) {
    const std::vector<FileExtent> extents = inodes_.at(id).extents.Extents();
    const bool claimable = std::all_of(extents.begin(), extents.end(), [&](const FileExtent& e) {
      const uint64_t last = BlockOf(e.paddr) + (e.bytes >> kPageShift);
      return InDataArea(e) && claims.owned.Find(true, BlockOf(e.paddr), last) == last;
    });
    if (!claimable) {
      claims.rejected.push_back(id);
      continue;
    }
    for (const FileExtent& e : extents) {
      claims.owned.Assign(BlockOf(e.paddr), e.bytes >> kPageShift, true);
      claims.runs.push_back({BlockOf(e.paddr), e.bytes >> kPageShift, id});
    }
  }
  std::sort(claims.runs.begin(), claims.runs.end(),
            [](const BlockClaim& a, const BlockClaim& b) { return a.first_block < b.first_block; });
  return claims;
}

std::vector<InodeId> Pmfs::SortedInodeIds() const {
  std::vector<InodeId> ids;
  ids.reserve(inodes_.size());
  for (const auto& [id, inode] : inodes_) {
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

InodeId Pmfs::BlockClaims::OwnerOf(uint64_t block) const {
  auto it = std::upper_bound(runs.begin(), runs.end(), block,
                             [](uint64_t b, const BlockClaim& r) { return b < r.first_block; });
  if (it == runs.begin()) {
    return kInvalidInode;
  }
  --it;
  return block < it->first_block + it->blocks ? it->inode : kInvalidInode;
}

template <class Fn>
void Pmfs::ForEachUnreadableLine(Paddr from, Fn fn) const {
  const Paddr end = region_base_ + region_bytes_;
  for (Paddr cursor = from; cursor < end;) {
    auto bad = machine_->phys().FindUnreadableLineUncharged(cursor, end - cursor);
    if (!bad.has_value()) {
      return;
    }
    fn(*bad);
    cursor = AlignDown(*bad, 64) + 64;
  }
}

void Pmfs::RebuildBitmap(BlockClaims claims) {
  // A rejected file keeps NO blocks and is quarantined instead of aborting
  // the mount.
  for (InodeId id : claims.rejected) {
    inodes_.at(id).quarantined = true;
  }
  BitVector& owned = claims.owned;
  // Sticky-unreadable lines reported by the platform (ARS-style bad-line
  // list) are fenced off so the allocator never hands them out.
  const FaultInjector* fi = machine_->phys().fault_injector();
  ForEachUnreadableLine(region_base_, [&](Paddr bad) {
    const uint64_t block = BlockOf(bad);
    if (block >= meta_blocks_ && !owned.Test(block) && fi->IsSticky(bad)) {
      owned.Assign(block, 1, true);
      bad_blocks_.insert(block);
    }
  });
  Status reset = bitmap_.Reset(owned);
  O1_CHECK(reset.ok());
  // kZeroEpoch hands out pre-zeroed blocks; a crash may have interrupted a
  // background zero, so re-zero free space before it can be reallocated.
  if (zero_policy_ == ZeroPolicy::kZeroEpoch) {
    const uint64_t blocks = owned.size();
    for (uint64_t run = owned.Find(false, meta_blocks_, blocks); run < blocks;) {
      const uint64_t run_end = owned.Find(true, run, blocks);
      Status zeroed = ZeroOnFree(AddrOf(run), (run_end - run) << kPageShift);
      O1_CHECK(zeroed.ok());
      run = owned.Find(false, run_end, blocks);
    }
  }
}

Status Pmfs::OnCrash() {
  SimContext& ctx = machine_->ctx();
  // Reboot trusts nothing but NVM: forget all in-memory state.
  ns_.Clear();
  inodes_.clear();
  next_inode_ = 1;
  bad_blocks_.clear();
  mount_mode_ = MountMode::kReadWrite;
  degrade_reason_.clear();
  ops_records_ = 0;

  // 1. Superblock names the active slot; on damage, probe both slots and
  //    adopt the one with the newest valid generation.
  uint32_t slot = 0;
  uint64_t gen = 0;
  if (auto sb = ReadSuperblock(); sb.ok()) {
    slot = sb->first;
    gen = sb->second;
  } else {
    const SlotProbe p0 = ParseSlot(0, /*apply=*/false, 0);
    const SlotProbe p1 = ParseSlot(1, /*apply=*/false, 0);
    slot = p1.generation > p0.generation ? 1 : 0;
    gen = std::max(p0.generation, p1.generation);  // 0 if both empty: infer
  }

  // 2. Replay the valid journal prefix.
  SlotProbe replay;
  {
    ObsSpan replay_span(ctx, TraceKind::kJournalReplay);
    replay = ParseSlot(slot, /*apply=*/true, gen);
    active_slot_ = slot;
    generation_ = std::max<uint64_t>({replay.generation, gen, 1});
    journal_tail_bytes_ = replay.bytes;
    ctx.Charge(ctx.cost().NvmReadBulkCycles(std::max<uint64_t>(replay.bytes, 64)) +
               replay.records * ctx.cost().journal_record_cycles / 4);
    replay_span.set_operand(replay.bytes);
  }

  // 3. Processes died with the power: all open/map references vanish, and
  //    volatile files go with them (metadata-only teardown; the closing
  //    checkpoint persists the result and the bitmap rebuild frees blocks).
  std::vector<std::string> volatile_paths;
  for (const auto& [path, id] : ns_.AllFiles()) {
    Inode& inode = inodes_.at(id);
    inode.opens = 0;
    inode.maps = 0;
    if (!inode.flags.persistent) {
      volatile_paths.push_back(path);
    }
  }
  for (const std::string& path : volatile_paths) {
    O1_CHECK(DropName(path));
  }
  // A shrink commits its size record before zeroing the kept tail, so a
  // crash can leave dead bytes between size and the page boundary; clear
  // them now, off the critical path (nothing live can sit past the final
  // size -- growing writes always extend the size first).
  for (auto& [id, inode] : inodes_) {
    const uint64_t keep = AlignUp(inode.size, kPageSize);
    if (inode.size < keep && inode.size < inode.extents.mapped_bytes()) {
      if (auto tail = inode.extents.Lookup(inode.size); tail.has_value()) {
        const Paddr at = tail->paddr + (inode.size - tail->file_offset);
        (void)machine_->phys().ZeroUncharged(at, keep - inode.size);
        const uint64_t flushed = machine_->phys().FlushLinesUncharged(at, keep - inode.size);
        background_zero_cycles_ += ctx.cost().NvmWriteBulkCycles(keep - inode.size) +
                                   flushed * ctx.cost().clwb_cycles;
      }
    }
  }

  // 4. Bitmap rebuild: leaked blocks (allocated but ownerless, e.g. a torn
  //    allocation) are reclaimed; conflicting files are quarantined.
  RebuildBitmap(ClaimBlocks());

  // 5. Compact the replayed state into the other slot and flip. Failure
  //    degrades the mount instead of failing the boot.
  if (Status ck = Checkpoint(); !ck.ok()) {
    Degrade("recovery checkpoint failed: " + ck.ToString());
  } else if (auto sb = ReadSuperblock(); !sb.ok()) {
    // The write went through but the line does not read back (sticky media
    // fault): future boots cannot trust this mount's commits.
    Degrade("superblock unreadable after recovery: " + sb.status().ToString());
  } else if (journal_tail_bytes_ > 0) {
    std::vector<uint8_t> scratch(journal_tail_bytes_);
    if (!machine_->phys().ReadUncharged(SlotBase(active_slot_), scratch).ok()) {
      Degrade("journal slot unreadable after recovery");
    }
  }
  ops_records_ = 0;
  return OkStatus();
}

Result<ScrubReport> Pmfs::Scrub() {
  SimContext& ctx = machine_->ctx();
  ScrubReport report;
  bool healthy = true;
  std::string reason;
  auto note_unhealthy = [&](std::string r) {
    if (healthy) {
      healthy = false;
      reason = std::move(r);
    }
  };
  auto count_quarantined = [&] {
    uint64_t n = 0;
    for (const auto& [id, inode] : inodes_) {
      n += inode.quarantined ? 1 : 0;
    }
    return n;
  };
  const uint64_t quarantined_before = count_quarantined();

  // 1. Superblock: revalidate against in-memory truth; rewrite on damage.
  if (auto sb = ReadSuperblock(); !sb.ok()) {
    if (sb.status().code() == StatusCode::kMediaError) {
      ++report.media_errors_found;
    }
    (void)WriteSuperblock(active_slot_, generation_);
    report.superblock_rewritten = true;
    if (auto again = ReadSuperblock(); !again.ok()) {
      note_unhealthy("superblock cannot be repaired: " + again.status().ToString());
    }
  }

  // 2. Journal: the valid prefix must cover everything appended. A shorter
  //    prefix means torn or decayed records -- compact the (authoritative)
  //    in-memory state into the other slot.
  const SlotProbe probe = ParseSlot(active_slot_, /*apply=*/false, generation_);
  report.journal_records_checked = probe.records;
  if (probe.bytes < journal_tail_bytes_) {
    report.journal_truncated_bytes = journal_tail_bytes_ - probe.bytes;
    if (Status ck = Checkpoint(); ck.ok()) {
      report.journal_compacted = true;
    } else {
      note_unhealthy("journal compaction failed: " + ck.ToString());
    }
  }

  // 3. Media patrol, charged as one sequential read of the region. Poison
  //    in live file data quarantines the file; transient poison in free
  //    space heals by rewrite; sticky poison in free space is retired.
  ctx.Charge(ctx.cost().NvmReadBulkCycles(region_bytes_));
  BlockClaims claims = ClaimBlocks();
  const FaultInjector* fi = machine_->phys().fault_injector();
  // The superblock was handled above.
  ForEachUnreadableLine(region_base_ + kPageSize, [&](Paddr bad) {
    ++report.media_errors_found;
    const uint64_t block = BlockOf(bad);
    const bool sticky = fi->IsSticky(bad);
    if (block < meta_blocks_) {
      // Journal area. The active valid prefix was just re-verified (and
      // compacted away from any damage), so this line is reconstructible --
      // unless the medium refuses to take a rewrite.
      if (sticky) {
        note_unhealthy("sticky media fault inside the journal area");
      } else {
        const Paddr line = AlignDown(bad, 64);
        (void)machine_->phys().ZeroUncharged(line, 64);
        (void)machine_->phys().FlushLinesUncharged(line, 64);
        ++report.blocks_repaired;
      }
    } else if (const InodeId owner = claims.OwnerOf(block); owner != kInvalidInode) {
      inodes_.at(owner).quarantined = true;
    } else if (sticky) {
      bad_blocks_.insert(block);
      ++report.bad_blocks_retired;
    } else {
      (void)machine_->phys().ZeroUncharged(AddrOf(block), kPageSize);
      (void)machine_->phys().FlushLinesUncharged(AddrOf(block), kPageSize);
      ++report.blocks_repaired;
    }
  });

  // 4. Structure: quarantine conflicting/out-of-range files and rebuild
  //    the bitmap around the survivors and the retired blocks. The patrol
  //    changed no extent, so its claims still hold.
  RebuildBitmap(std::move(claims));
  report.files_quarantined = count_quarantined() - quarantined_before;

  // Quarantine verdicts must survive the next crash: they ride in checkpoint
  // snapshots (flag bit 4 of the create record), so commit one whenever this
  // scrub isolated a file.
  if (healthy && report.files_quarantined > 0) {
    if (Status ck = Checkpoint(); ck.ok()) {
      report.journal_compacted = true;
    } else {
      note_unhealthy("cannot persist quarantine verdicts: " + ck.ToString());
    }
  }

  // 5. Verdict. A scrub that repaired everything lifts a degraded mount
  //    back to read-write and runs the frees Destroy deferred while it
  //    was read-only; one that could not, degrades it.
  if (healthy) {
    const bool lifted = mount_mode_ == MountMode::kDegraded;
    mount_mode_ = MountMode::kReadWrite;
    degrade_reason_.clear();
    if (lifted) {
      for (InodeId id : SortedInodeIds()) {
        O1_RETURN_IF_ERROR(MaybeFree(id));
      }
    }
  } else {
    Degrade(reason);
  }
  report.degraded = mount_mode_ == MountMode::kDegraded;
  return report;
}

Status Pmfs::VerifyIntegrity() {
  SimContext& ctx = machine_->ctx();
  std::vector<bool> owned(region_bytes_ >> kPageShift, false);
  for (uint64_t b = 0; b < meta_blocks_; ++b) {
    owned[b] = true;
  }
  for (auto& [id, inode] : inodes_) {
    if (inode.quarantined) {
      continue;  // already isolated; its claims are void
    }
    for (const FileExtent& e : inode.extents.Extents()) {
      ctx.Charge(ctx.cost().extent_tree_op_cycles);
      if (!InDataArea(e)) {
        return Corruption("extent outside pmfs data area");
      }
      for (uint64_t b = BlockOf(e.paddr); b < BlockOf(e.paddr) + (e.bytes >> kPageShift); ++b) {
        if (owned[b]) {
          return Corruption("block owned by two extents");
        }
        owned[b] = true;
        if (!bitmap_.IsAllocated(b)) {
          return Corruption("extent block not marked allocated in bitmap");
        }
      }
    }
  }
  return OkStatus();
}

}  // namespace o1mem
