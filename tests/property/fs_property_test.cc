// Property test: both file systems behave like an ideal byte store with
// whole-file lifetimes.
//
// A random stream of create/write/read/resize/unlink/link operations, open
// and map references and discardable reclaim runs against tmpfs and PMFS
// (both zeroing policies) in lockstep with a reference model (inode -> byte
// vector + link/open/map counts, path -> inode). Reads must always return
// exactly the model's bytes (including zeros for holes). After every step an
// inode exists iff its links + opens + maps > 0, and the storage the file
// system reports in use is the storage its live inodes hold. Reclaim never
// takes a name from an open or mapped file, and the bytes and file count it
// reports are those of the inodes whose last name it unlinked. PMFS must
// additionally pass integrity verification throughout, and its persistent
// files must survive a crash with contents intact while volatile files
// vanish.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "src/fs/pmfs.h"
#include "src/fs/tmpfs.h"
#include "src/mm/phys_manager.h"
#include "src/support/rng.h"

namespace o1mem {
namespace {

// 64-bit so Param has no padding: gtest prints Param as a raw byte dump in
// the test's listed name, and padding bytes would leak stack garbage into it
// (the name would change from one process to the next).
enum class FsKind : uint64_t { kTmpfs, kPmfsEager, kPmfsEpoch };

struct Param {
  FsKind fs;
  uint64_t seed;
};

class FsProperty : public ::testing::TestWithParam<Param> {
 protected:
  FsProperty()
      : machine_(MachineConfig{.dram_bytes = 128 * kMiB, .nvm_bytes = 128 * kMiB}),
        phys_mgr_(&machine_) {
    switch (GetParam().fs) {
      case FsKind::kTmpfs:
        tmpfs_ = std::make_unique<Tmpfs>(&machine_, &phys_mgr_, 96 * kMiB);
        fs_ = tmpfs_.get();
        break;
      case FsKind::kPmfsEager:
        pmfs_ = std::make_unique<Pmfs>(&machine_, machine_.phys().nvm_base(), 128 * kMiB,
                                       ZeroPolicy::kEagerZero);
        fs_ = pmfs_.get();
        break;
      case FsKind::kPmfsEpoch:
        pmfs_ = std::make_unique<Pmfs>(&machine_, machine_.phys().nvm_base(), 128 * kMiB,
                                       ZeroPolicy::kZeroEpoch);
        fs_ = pmfs_.get();
        break;
    }
  }

  Machine machine_;
  PhysManager phys_mgr_;
  std::unique_ptr<Tmpfs> tmpfs_;
  std::unique_ptr<Pmfs> pmfs_;
  FileSystem* fs_ = nullptr;
};

// One inode of the reference model.
struct ModelFile {
  std::vector<uint8_t> bytes;
  bool persistent = false;
  bool discardable = false;
  uint32_t links = 1;
  uint32_t opens = 0;
  uint32_t maps = 0;
};

TEST_P(FsProperty, BehavesLikeAByteStore) {
  Rng rng(GetParam().seed);
  std::map<InodeId, ModelFile> files;     // live inodes
  std::map<std::string, InodeId> paths;   // namespace
  std::set<InodeId> dead;                 // freed inodes
  int created = 0;
  int linked = 0;
  auto pick_file = [&]() -> std::pair<const InodeId, ModelFile>& {
    return *std::next(files.begin(), static_cast<int>(rng.NextBelow(files.size())));
  };
  auto pick_path = [&]() -> std::pair<const std::string, InodeId>& {
    return *std::next(paths.begin(), static_cast<int>(rng.NextBelow(paths.size())));
  };

  for (int step = 0; step < 400; ++step) {
    const uint64_t dice = rng.NextBelow(100);
    if (dice < 14 && created < 40) {
      // Create.
      const std::string path = "/f" + std::to_string(created++);
      FileFlags flags;
      flags.persistent = GetParam().fs != FsKind::kTmpfs && rng.NextBool(0.5);
      flags.discardable = rng.NextBool(0.5);
      auto inode = fs_->Create(path, flags);
      ASSERT_TRUE(inode.ok());
      files[*inode] = ModelFile{.persistent = flags.persistent, .discardable = flags.discardable};
      paths[path] = *inode;
    } else if (dice < 40 && !files.empty()) {
      // Write at a random offset (may extend the file).
      auto& [id, file] = pick_file();
      const uint64_t offset = rng.NextBelow(96 * kKiB);
      std::vector<uint8_t> data(rng.NextInRange(1, 16 * kKiB));
      for (auto& b : data) {
        b = static_cast<uint8_t>(rng.Next());
      }
      auto wrote = fs_->WriteAt(id, offset, data);
      if (!wrote.ok()) {
        continue;  // quota/space pressure is legal; model unchanged
      }
      ASSERT_EQ(*wrote, data.size());
      auto& bytes = file.bytes;
      if (bytes.size() < offset + data.size()) {
        bytes.resize(offset + data.size(), 0);
      }
      std::copy(data.begin(), data.end(),
                bytes.begin() + static_cast<std::ptrdiff_t>(offset));
    } else if (dice < 56 && !files.empty()) {
      // Read a random window and compare with the model (EOF clamping too).
      auto& [id, file] = pick_file();
      const uint64_t offset = rng.NextBelow(128 * kKiB);
      std::vector<uint8_t> out(rng.NextInRange(1, 8 * kKiB), 0xEE);
      auto read = fs_->ReadAt(id, offset, out);
      ASSERT_TRUE(read.ok());
      const auto& bytes = file.bytes;
      const uint64_t expected =
          offset >= bytes.size() ? 0 : std::min<uint64_t>(out.size(), bytes.size() - offset);
      ASSERT_EQ(*read, expected) << "inode " << id << " @" << offset;
      for (uint64_t i = 0; i < expected; ++i) {
        ASSERT_EQ(out[i], bytes[offset + i]) << "inode " << id << " @" << offset + i;
      }
    } else if (dice < 64 && !files.empty()) {
      // Resize (both directions). Growth reads back as zeros.
      auto& [id, file] = pick_file();
      const uint64_t new_size = rng.NextBelow(128 * kKiB);
      Status s = fs_->Resize(id, new_size);
      if (!s.ok()) {
        continue;  // out of space
      }
      file.bytes.resize(new_size, 0);
    } else if (dice < 70 && !paths.empty()) {
      // Unlink.
      auto it = paths.find(pick_path().first);
      ASSERT_TRUE(fs_->Unlink(it->first).ok());
      files.at(it->second).links--;
      paths.erase(it);
    } else if (dice < 74 && !paths.empty()) {
      // Hard link: one more name for the same inode.
      auto& [existing, id] = pick_path();
      const std::string path = "/l" + std::to_string(linked++);
      ASSERT_TRUE(fs_->Link(existing, path).ok());
      files.at(id).links++;
      paths[path] = id;
    } else if (dice < 82 && !files.empty()) {
      // Take an open or a map reference.
      auto& [id, file] = pick_file();
      if (rng.NextBool(0.5)) {
        ASSERT_TRUE(fs_->AddOpenRef(id).ok());
        file.opens++;
      } else {
        ASSERT_TRUE(fs_->AddMapRef(id).ok());
        file.maps++;
      }
    } else if (dice < 90 && !files.empty()) {
      // Drop an open or a map reference; one never taken is refused.
      auto& [id, file] = pick_file();
      const bool open = rng.NextBool(0.5);
      uint32_t& count = open ? file.opens : file.maps;
      Status s = open ? fs_->DropOpenRef(id) : fs_->DropMapRef(id);
      if (count == 0) {
        ASSERT_EQ(s.code(), StatusCode::kInvalidArgument) << "inode " << id;
      } else {
        ASSERT_TRUE(s.ok()) << s.ToString();
        count--;
      }
    } else if (dice < 93) {
      // Discardable reclaim.
      const uint64_t needed = rng.NextBelow(256 * kKiB);
      std::map<InodeId, uint64_t> held;
      for (const auto& [id, file] : files) {
        held[id] = fs_->Stat(id)->allocated_bytes;
      }
      const uint64_t reclaimed_before = machine_.ctx().counters().files_reclaimed;
      auto released = fs_->ReclaimDiscardable(needed);
      ASSERT_TRUE(released.ok());
      uint64_t freed_bytes = 0;
      uint64_t freed_files = 0;
      for (auto it = paths.begin(); it != paths.end();) {
        ModelFile& file = files.at(it->second);
        const bool victim = file.discardable && file.opens == 0 && file.maps == 0;
        if (fs_->LookupPath(it->first).ok()) {
          // Stopping short of `needed` means no victim was left.
          ASSERT_FALSE(*released < needed && victim) << it->first << " step " << step;
          ++it;
          continue;
        }
        ASSERT_TRUE(victim) << it->first << " reclaimed while referenced, step " << step;
        if (--file.links == 0) {
          freed_bytes += held.at(it->second);
          ++freed_files;
        }
        it = paths.erase(it);
      }
      EXPECT_EQ(*released, freed_bytes) << "step " << step;
      EXPECT_EQ(machine_.ctx().counters().files_reclaimed - reclaimed_before, freed_files);
    } else if (pmfs_ != nullptr && dice < 96) {
      ASSERT_TRUE(pmfs_->VerifyIntegrity().ok()) << "step " << step;
    }

    // Lifetime: an inode lives iff links + opens + maps > 0, and the storage
    // in use is exactly what the live inodes hold.
    for (auto it = files.begin(); it != files.end();) {
      const ModelFile& file = it->second;
      if (file.links + file.opens + file.maps > 0) {
        ++it;
        continue;
      }
      dead.insert(it->first);
      it = files.erase(it);
    }
    uint64_t held_bytes = 0;
    for (const auto& [id, file] : files) {
      auto st = fs_->Stat(id);
      ASSERT_TRUE(st.ok()) << "live inode " << id << " missing at step " << step;
      ASSERT_EQ(st->link_count, file.links);
      ASSERT_EQ(st->open_count, file.opens);
      ASSERT_EQ(st->map_count, file.maps);
      held_bytes += st->allocated_bytes;
    }
    for (InodeId id : dead) {
      ASSERT_EQ(fs_->Stat(id).status().code(), StatusCode::kNotFound)
          << "unreferenced inode " << id << " survives at step " << step;
    }
    ASSERT_EQ(fs_->quota_bytes() - fs_->free_bytes(), held_bytes) << "step " << step;
  }

  // Full final sweep: every live inode's entire contents match the model.
  for (const auto& [id, file] : files) {
    const auto& bytes = file.bytes;
    auto stat = fs_->Stat(id);
    ASSERT_TRUE(stat.ok());
    EXPECT_EQ(stat->size, bytes.size()) << "inode " << id;
    std::vector<uint8_t> out(bytes.size() + 16, 0xEE);
    auto read = fs_->ReadAt(id, 0, out);
    ASSERT_TRUE(read.ok());
    ASSERT_EQ(*read, bytes.size());
    for (size_t i = 0; i < bytes.size(); ++i) {
      ASSERT_EQ(out[i], bytes[i]) << "inode " << id << " byte " << i;
    }
  }

  // Crash pass for PMFS: persistent files keep contents under every name,
  // volatile ones vanish.
  if (pmfs_ != nullptr) {
    machine_.Crash();
    ASSERT_TRUE(pmfs_->OnCrash().ok());
    ASSERT_TRUE(pmfs_->VerifyIntegrity().ok());
    for (const auto& [path, id] : paths) {
      const ModelFile& file = files.at(id);
      auto found = pmfs_->LookupPath(path);
      if (!file.persistent) {
        EXPECT_FALSE(found.ok()) << path << " should have vanished";
        continue;
      }
      ASSERT_TRUE(found.ok()) << path;
      std::vector<uint8_t> out(file.bytes.size());
      auto read = pmfs_->ReadAt(*found, 0, out);
      ASSERT_TRUE(read.ok());
      ASSERT_EQ(*read, file.bytes.size());
      for (size_t i = 0; i < file.bytes.size(); ++i) {
        ASSERT_EQ(out[i], file.bytes[i]) << path << " byte " << i << " after crash";
      }
    }
  }
}

std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
  std::string fs;
  switch (info.param.fs) {
    case FsKind::kTmpfs:
      fs = "Tmpfs";
      break;
    case FsKind::kPmfsEager:
      fs = "PmfsEager";
      break;
    case FsKind::kPmfsEpoch:
      fs = "PmfsEpoch";
      break;
  }
  return fs + "Seed" + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FsProperty,
    ::testing::Values(Param{FsKind::kTmpfs, 1}, Param{FsKind::kTmpfs, 2},
                      Param{FsKind::kTmpfs, 3}, Param{FsKind::kPmfsEager, 1},
                      Param{FsKind::kPmfsEager, 2}, Param{FsKind::kPmfsEager, 3},
                      Param{FsKind::kPmfsEpoch, 1}, Param{FsKind::kPmfsEpoch, 2},
                      Param{FsKind::kPmfsEpoch, 3}),
    ParamName);

}  // namespace
}  // namespace o1mem
