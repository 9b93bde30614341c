// Crash-recovery property test: a random stream of file-system and FOM
// operations with power failures injected at random points. After every
// recovery:
//   * PMFS integrity verification must pass;
//   * persistent files must exist with exactly the contents the model says
//     (the write(2) path is durable-on-return, so the model is exact);
//   * volatile files must be gone;
//   * the block bitmap's free count must equal total minus live extents.
// Runs on both persistence models -- the strict (explicit-flush) machine
// must give identical guarantees for the file-API path.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/os/system.h"
#include "src/support/rng.h"

namespace o1mem {
namespace {

// 64-bit so Param has no padding: gtest prints Param as a raw byte dump in
// the test's listed name, and padding bytes would leak stack garbage into it
// (the name would change from one process to the next).
enum class Model : uint64_t { kAuto, kStrict };

struct Param {
  Model model;
  uint64_t seed;
};

class CrashProperty : public ::testing::TestWithParam<Param> {};

TEST_P(CrashProperty, RecoveryInvariantsHoldUnderRandomCrashes) {
  SystemConfig config;
  config.machine.dram_bytes = 128 * kMiB;
  config.machine.nvm_bytes = 256 * kMiB;
  config.machine.persistence = GetParam().model == Model::kStrict
                                    ? PersistenceModel::kExplicitFlush
                                    : PersistenceModel::kAutoDurable;
  System sys(config);
  Rng rng(GetParam().seed);

  std::map<std::string, std::vector<uint8_t>> persistent_model;
  // Persistent FOM segments: path -> expected contents (fixed size).
  std::map<std::string, std::vector<uint8_t>> fom_model;
  int created = 0;
  Process* proc = nullptr;
  Process* fom_proc = nullptr;
  auto relaunch = [&] {
    auto launched = sys.Launch(Backend::kBaseline);
    O1_CHECK(launched.ok());
    proc = *launched;
    auto fom_launched = sys.Launch(Backend::kFom);
    O1_CHECK(fom_launched.ok());
    fom_proc = *fom_launched;
  };
  relaunch();

  for (int step = 0; step < 250; ++step) {
    const uint64_t dice = rng.NextBelow(100);
    if (dice < 20 && created < 30) {
      const bool persistent = rng.NextBool(0.6);
      const std::string path = "/data/f" + std::to_string(created++);
      auto fd = sys.Creat(*proc, sys.pmfs(), path, FileFlags{.persistent = persistent});
      ASSERT_TRUE(fd.ok());
      ASSERT_TRUE(sys.Close(*proc, *fd).ok());
      if (persistent) {
        persistent_model[path] = {};
      }
    } else if (dice < 55 && !persistent_model.empty()) {
      // Durable write through the file API.
      auto it = std::next(persistent_model.begin(),
                          static_cast<int>(rng.NextBelow(persistent_model.size())));
      auto fd = sys.Open(*proc, it->first);
      if (!fd.ok()) {
        continue;
      }
      const uint64_t offset = rng.NextBelow(32 * kKiB);
      std::vector<uint8_t> data(rng.NextInRange(1, 8 * kKiB));
      for (auto& b : data) {
        b = static_cast<uint8_t>(rng.Next());
      }
      ASSERT_TRUE(sys.Pwrite(*proc, *fd, offset, data).ok());
      ASSERT_TRUE(sys.Close(*proc, *fd).ok());
      auto& bytes = it->second;
      if (bytes.size() < offset + data.size()) {
        bytes.resize(offset + data.size(), 0);
      }
      std::copy(data.begin(), data.end(), bytes.begin() + static_cast<std::ptrdiff_t>(offset));
    } else if (dice < 65 && !persistent_model.empty()) {
      // Rename a persistent file.
      auto it = std::next(persistent_model.begin(),
                          static_cast<int>(rng.NextBelow(persistent_model.size())));
      const std::string to = "/data/renamed" + std::to_string(created++);
      ASSERT_TRUE(sys.Rename(it->first, to).ok());
      auto node = persistent_model.extract(it);
      node.key() = to;
      persistent_model.insert(std::move(node));
    } else if (dice < 75 && !persistent_model.empty()) {
      // Delete a persistent file.
      auto it = std::next(persistent_model.begin(),
                          static_cast<int>(rng.NextBelow(persistent_model.size())));
      ASSERT_TRUE(sys.Unlink(it->first).ok());
      persistent_model.erase(it);
    } else if (dice < 80) {
      // FOM noise: volatile segments that should vanish at the crash.
      (void)sys.fom().CreateSegment("/tmp/noise" + std::to_string(created++),
                                    rng.NextInRange(1, 64) * kPageSize);
    } else if (dice < 85 && fom_model.size() < 8) {
      // Persistent FOM segment: created, mapped, filled through the DAX
      // mapping, persisted with a user-space flush, unmapped. Contents must
      // survive every later crash.
      const std::string path = "/data/seg" + std::to_string(created++);
      const uint64_t bytes = rng.NextInRange(1, 16) * kPageSize;
      auto seg = sys.fom().CreateSegment(
          path, bytes, SegmentOptions{.flags = {.persistent = true}});
      ASSERT_TRUE(seg.ok());
      auto va = sys.fom().Map(fom_proc->fom(), *seg, Prot::kReadWrite);
      ASSERT_TRUE(va.ok());
      std::vector<uint8_t> data(bytes);
      for (auto& b : data) {
        b = static_cast<uint8_t>(rng.Next());
      }
      ASSERT_TRUE(sys.UserWrite(*fom_proc, *va, data).ok());
      ASSERT_TRUE(sys.UserFlush(*fom_proc, *va, bytes).ok());
      ASSERT_TRUE(sys.fom().Unmap(fom_proc->fom(), *va).ok());
      fom_model[path] = std::move(data);
    } else if (dice < 92) {
      // CRASH.
      ASSERT_TRUE(sys.Crash().ok()) << "step " << step;
      ASSERT_TRUE(sys.pmfs().VerifyIntegrity().ok()) << "step " << step;
      relaunch();
      // Persistent files: exact contents. Everything else in /tmp: gone.
      for (const auto& [path, bytes] : persistent_model) {
        auto inode = sys.pmfs().LookupPath(path);
        ASSERT_TRUE(inode.ok()) << path << " lost at step " << step;
        std::vector<uint8_t> out(bytes.size());
        if (!bytes.empty()) {
          auto read = sys.pmfs().ReadAt(*inode, 0, out);
          ASSERT_TRUE(read.ok());
          ASSERT_EQ(*read, bytes.size());
          ASSERT_EQ(out, bytes) << path << " corrupted at step " << step;
        }
      }
      // FOM persistent segments: remap through the relaunched FOM process
      // and compare the DAX contents byte for byte.
      for (const auto& [path, bytes] : fom_model) {
        auto seg = sys.fom().OpenSegment(path);
        ASSERT_TRUE(seg.ok()) << path << " lost at step " << step;
        auto va = sys.fom().Map(fom_proc->fom(), *seg, Prot::kRead);
        ASSERT_TRUE(va.ok());
        std::vector<uint8_t> out(bytes.size());
        ASSERT_TRUE(sys.UserRead(*fom_proc, *va, out).ok());
        ASSERT_EQ(out, bytes) << path << " corrupted at step " << step;
        ASSERT_TRUE(sys.fom().Unmap(fom_proc->fom(), *va).ok());
      }
      for (const std::string& path : sys.pmfs().ListPaths()) {
        const bool sidecar = path.starts_with("/.fom/tables/");
        ASSERT_TRUE(persistent_model.contains(path) || fom_model.contains(path) || sidecar)
            << "unexpected survivor " << path << " at step " << step;
      }
    }
  }

  // The FOM process holds mapped-but-unlinked launch segments (code, heap,
  // stack) whose blocks have no path; exit it so the path walk below sees
  // every live block.
  ASSERT_TRUE(sys.Exit(fom_proc).ok());

  // Final accounting: free space equals the data-area capacity (the region
  // minus superblock + journal slots) minus what the model holds.
  uint64_t live = 0;
  for (const auto& [path, bytes] : persistent_model) {
    auto st = sys.pmfs().Stat(*sys.pmfs().LookupPath(path));
    ASSERT_TRUE(st.ok());
    live += st->allocated_bytes;
  }
  // Volatile segments may still be alive (no crash since creation), and FOM
  // segments/table sidecars hold blocks too; account them all.
  for (const std::string& path : sys.pmfs().ListPaths()) {
    if (!persistent_model.contains(path)) {
      live += sys.pmfs().Stat(*sys.pmfs().LookupPath(path))->allocated_bytes;
    }
  }
  EXPECT_EQ(sys.pmfs().free_bytes(), sys.pmfs().quota_bytes() - live);
  EXPECT_TRUE(sys.pmfs().VerifyIntegrity().ok());
}

std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
  return std::string(info.param.model == Model::kAuto ? "Auto" : "Strict") +
         "Seed" + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrashProperty,
    ::testing::Values(Param{Model::kAuto, 11},
                      Param{Model::kAuto, 22},
                      Param{Model::kAuto, 33},
                      Param{Model::kStrict, 11},
                      Param{Model::kStrict, 22},
                      Param{Model::kStrict, 33}),
    ParamName);

}  // namespace
}  // namespace o1mem
