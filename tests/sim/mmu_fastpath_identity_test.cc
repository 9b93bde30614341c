// Host fast-path identity at the Mmu level: every scenario runs once with
// the fast path on and once with O1MEM_NO_HOST_FASTPATH=1, and the two runs
// must agree on the final clock, every CPU's cycle total, every event
// counter, every status and every byte read back. The scenarios cover each
// replay the fast path makes: page-backed (4 KiB, 2 MiB) and range-backed
// spans on both tiers, the single-chunk prologue (lengths 1..4096), the bulk
// span (an unaligned 3-page run), a span straddling the DRAM/NVM boundary,
// armed poison, explicit-flush NVM writes, a crash point armed mid-span and
// a queued batched shootdown.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/machine.h"

namespace o1mem {
namespace {

constexpr uint64_t kDram = 64 * kMiB;  // NVM starts at this physical address
constexpr Vaddr kVa = 1 * kGiB;
constexpr Vaddr kVaNvm = 2 * kGiB;

struct Fingerprint {
  uint64_t clock = 0;
  std::vector<uint64_t> cpu_cycles;
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<StatusCode> statuses;
  std::vector<uint8_t> bytes;
};

class Recorder {
 public:
  Recorder(Machine& m, AddressSpace& as, Fingerprint& fp) : m_(m), as_(as), fp_(fp) {}

  // Writes a pattern, reads it back and touches it both ways.
  void Access(Vaddr vaddr, uint64_t len) {
    std::vector<uint8_t> data(len);
    for (uint64_t i = 0; i < len; ++i) {
      data[i] = static_cast<uint8_t>(next_++ * 7 + i);
    }
    Note(m_.mmu().WriteVirt(as_, vaddr, data));
    Read(vaddr, len);
    Note(m_.mmu().Touch(as_, vaddr, len, AccessType::kRead));
    Note(m_.mmu().Touch(as_, vaddr, len, AccessType::kWrite));
  }

  void Read(Vaddr vaddr, uint64_t len) {
    std::vector<uint8_t> back(len);
    Note(m_.mmu().ReadVirt(as_, vaddr, back));
    fp_.bytes.insert(fp_.bytes.end(), back.begin(), back.end());
  }

  // Every length the single-chunk prologue distinguishes, at in-page and
  // page-crossing offsets, twice over (the second pass replays from the
  // fast entry), then an unaligned 3-page span for the bulk replay.
  void Exercise(Vaddr base, uint64_t bytes) {
    for (int pass = 0; pass < 2; ++pass) {
      for (uint64_t len : std::initializer_list<uint64_t>{1, 64, 255, 256, 4096}) {
        for (uint64_t off : {uint64_t{0}, uint64_t{100}, kPageSize - 64}) {
          if (off + len <= bytes) {
            Access(base + off, len);
          }
        }
      }
      Access(base + 100, 3 * kPageSize);
    }
  }

  void Note(const Status& s) { fp_.statuses.push_back(s.code()); }

 private:
  Machine& m_;
  AddressSpace& as_;
  Fingerprint& fp_;
  uint32_t next_ = 1;
};

MachineConfig SmallMachine() {
  MachineConfig config;
  config.dram_bytes = kDram;
  config.nvm_bytes = 64 * kMiB;
  return config;
}

void MapPages(AddressSpace& as, Vaddr vaddr, Paddr paddr, uint64_t pages, uint64_t page_bytes) {
  for (uint64_t i = 0; i < pages; ++i) {
    ASSERT_TRUE(as.page_table()
                    .MapPage(vaddr + i * page_bytes, paddr + i * page_bytes, page_bytes,
                             Prot::kReadWrite)
                    .ok());
  }
}

void MapRange(AddressSpace& as, Vaddr vaddr, Paddr paddr, uint64_t bytes) {
  ASSERT_TRUE(as.range_table()
                  .Insert({.vbase = vaddr, .bytes = bytes, .pbase = paddr,
                           .prot = Prot::kReadWrite})
                  .ok());
}

using Scenario = std::function<void(Machine&, Fingerprint&)>;

Fingerprint Run(const MachineConfig& config, const Scenario& scenario, bool fastpath) {
  const char* prior = std::getenv("O1MEM_NO_HOST_FASTPATH");
  const std::optional<std::string> saved =
      prior == nullptr ? std::nullopt : std::optional<std::string>(prior);
  if (fastpath) {
    unsetenv("O1MEM_NO_HOST_FASTPATH");
  } else {
    setenv("O1MEM_NO_HOST_FASTPATH", "1", 1);
  }
  Machine m(config);  // the Mmu reads the variable here
  if (saved.has_value()) {
    setenv("O1MEM_NO_HOST_FASTPATH", saved->c_str(), 1);
  } else {
    unsetenv("O1MEM_NO_HOST_FASTPATH");
  }

  Fingerprint fp;
  scenario(m, fp);
  fp.clock = m.ctx().now();
  for (int cpu = 0; cpu < m.ctx().num_cpus(); ++cpu) {
    fp.cpu_cycles.push_back(m.ctx().cpu_cycles(cpu));
  }
  m.ctx().counters().ForEachField(
      [&fp](const char* name, uint64_t value) { fp.counters.emplace_back(name, value); });
  return fp;
}

void ExpectIdentical(const MachineConfig& config, const Scenario& scenario) {
  const Fingerprint on = Run(config, scenario, /*fastpath=*/true);
  const Fingerprint off = Run(config, scenario, /*fastpath=*/false);
  EXPECT_GT(on.clock, 0u);
  EXPECT_EQ(on.clock, off.clock);
  EXPECT_EQ(on.cpu_cycles, off.cpu_cycles);
  ASSERT_EQ(on.counters.size(), off.counters.size());
  for (size_t i = 0; i < on.counters.size(); ++i) {
    EXPECT_EQ(on.counters[i].second, off.counters[i].second)
        << "counter " << on.counters[i].first << " diverged";
  }
  EXPECT_EQ(on.statuses, off.statuses);
  EXPECT_EQ(on.bytes, off.bytes);
}

TEST(MmuFastpathIdentityTest, SmallPagesOnBothTiers) {
  ExpectIdentical(SmallMachine(), [](Machine& m, Fingerprint& fp) {
    auto as = m.CreateAddressSpace();
    MapPages(*as, kVa, 8 * kMiB, 4, kPageSize);
    MapPages(*as, kVaNvm, kDram + 8 * kMiB, 4, kPageSize);
    Recorder r(m, *as, fp);
    r.Exercise(kVa, 4 * kPageSize);
    r.Exercise(kVaNvm, 4 * kPageSize);
  });
}

TEST(MmuFastpathIdentityTest, LargePagesOnBothTiers) {
  ExpectIdentical(SmallMachine(), [](Machine& m, Fingerprint& fp) {
    auto as = m.CreateAddressSpace();
    MapPages(*as, kVa, 4 * kMiB, 1, kLargePageSize);
    MapPages(*as, kVaNvm, kDram + 4 * kMiB, 1, kLargePageSize);
    Recorder r(m, *as, fp);
    r.Exercise(kVa, kLargePageSize);
    r.Exercise(kVaNvm, kLargePageSize);
  });
}

TEST(MmuFastpathIdentityTest, RangeMappingsOnBothTiers) {
  ExpectIdentical(SmallMachine(), [](Machine& m, Fingerprint& fp) {
    auto as = m.CreateAddressSpace();
    MapRange(*as, kVa, 16 * kMiB, 64 * kKiB);
    MapRange(*as, kVaNvm, kDram + 16 * kMiB, 64 * kKiB);
    Recorder r(m, *as, fp);
    r.Exercise(kVa, 64 * kKiB);
    r.Exercise(kVaNvm, 64 * kKiB);
  });
}

TEST(MmuFastpathIdentityTest, RangeStraddlingTheTierBoundary) {
  ExpectIdentical(SmallMachine(), [](Machine& m, Fingerprint& fp) {
    auto as = m.CreateAddressSpace();
    MapRange(*as, kVa, kDram - 2 * kPageSize, 4 * kPageSize);
    Recorder r(m, *as, fp);
    r.Exercise(kVa, 4 * kPageSize);
    r.Access(kVa, 4 * kPageSize);
    r.Access(kVa + kPageSize + 8, 2 * kPageSize);
  });
}

TEST(MmuFastpathIdentityTest, TransientPoisonSendsReadsDownTheSlowPath) {
  ExpectIdentical(SmallMachine(), [](Machine& m, Fingerprint& fp) {
    auto as = m.CreateAddressSpace();
    MapPages(*as, kVa, 8 * kMiB, 4, kPageSize);
    MapRange(*as, kVaNvm, kDram + 16 * kMiB, 64 * kKiB);
    Recorder r(m, *as, fp);
    r.Access(kVa, 4 * kPageSize);
    r.Access(kVaNvm, 4 * kPageSize);
    m.fault_injector().MarkUnreadable(8 * kMiB + 2 * kPageSize + 128, /*sticky=*/false);
    m.fault_injector().MarkUnreadable(kDram + 16 * kMiB + kPageSize, /*sticky=*/false);
    for (int pass = 0; pass < 2; ++pass) {
      r.Read(kVa + 8, 64);                    // clean line
      r.Read(kVa, 4 * kPageSize);             // fails on the poisoned page
      r.Read(kVa + 2 * kPageSize + 128, 64);  // the poisoned line itself
      r.Read(kVaNvm + 100, 3 * kPageSize);
      r.Read(kVaNvm + 5 * kPageSize, 256);
    }
    r.Exercise(kVa, 4 * kPageSize);  // the rewrite heals the DRAM line
    r.Read(kVa, 4 * kPageSize);
    r.Read(kVaNvm, 4 * kPageSize);
  });
}

TEST(MmuFastpathIdentityTest, ExplicitFlushNvmWrites) {
  MachineConfig config = SmallMachine();
  config.persistence = PersistenceModel::kExplicitFlush;
  ExpectIdentical(config, [](Machine& m, Fingerprint& fp) {
    auto as = m.CreateAddressSpace();
    MapPages(*as, kVa, kDram + 8 * kMiB, 4, kPageSize);
    MapRange(*as, kVaNvm, kDram + 16 * kMiB, 64 * kKiB);
    Recorder r(m, *as, fp);
    r.Exercise(kVa, 4 * kPageSize);
    r.Exercise(kVaNvm, 64 * kKiB);
  });
}

TEST(MmuFastpathIdentityTest, CrashPointArmedMidSpan) {
  ExpectIdentical(SmallMachine(), [](Machine& m, Fingerprint& fp) {
    auto as = m.CreateAddressSpace();
    MapRange(*as, kVaNvm, kDram + 16 * kMiB, 64 * kKiB);
    Recorder r(m, *as, fp);
    r.Access(kVaNvm, 4 * kPageSize);
    // The crash point lands inside the next 3-page write, so that write
    // must go page by page to mark exactly the lines after it volatile.
    m.fault_injector().ArmCrashAtNvmWrite(m.fault_injector().nvm_line_writes() + 100);
    r.Access(kVaNvm + 100, 3 * kPageSize);
    EXPECT_TRUE(m.fault_injector().triggered());
    m.Crash();
    r.Read(kVaNvm, 4 * kPageSize);
  });
}

TEST(MmuFastpathIdentityTest, BatchedShootdownPendingOnSecondCpu) {
  MachineConfig config = SmallMachine();
  config.smp.num_cpus = 2;
  config.smp.batched_shootdowns = true;
  ExpectIdentical(config, [](Machine& m, Fingerprint& fp) {
    auto as = m.CreateAddressSpace();
    auto other = m.CreateAddressSpace();
    MapPages(*as, kVa, 8 * kMiB, 4, kPageSize);
    MapRange(*as, kVaNvm, kDram + 16 * kMiB, 64 * kKiB);
    MapPages(*other, kVa, 12 * kMiB, 1, kPageSize);
    Recorder r(m, *as, fp);
    Recorder r_other(m, *other, fp);
    m.ctx().SetCurrentCpu(1);
    r.Exercise(kVa, 4 * kPageSize);
    r.Access(kVaNvm, 2 * kPageSize);  // CPU 1's fast entry now covers kVaNvm
    // CPU 0 shoots down a page of `as` and leaves it queued on CPU 1, whose
    // fast entry still covers kVaNvm: CPU 1 must drain before using it.
    m.ctx().SetCurrentCpu(0);
    m.mmu().ShootdownRange(as->asid(), kVa + kPageSize, kPageSize);
    EXPECT_EQ(m.mmu().PendingInvalidations(1), 1u);
    m.ctx().SetCurrentCpu(1);
    r.Access(kVaNvm + 64, 64);
    EXPECT_EQ(m.mmu().PendingInvalidations(1), 0u);
    // A queued whole-ASID invalidation of another ASID is not drained by
    // translations in `as`, only by one in its own ASID.
    m.ctx().SetCurrentCpu(0);
    m.mmu().ShootdownAsid(other->asid());
    m.ctx().SetCurrentCpu(1);
    r.Access(kVaNvm + 128, 64);
    EXPECT_EQ(m.mmu().PendingInvalidations(1), 1u);
    r_other.Access(kVa, 64);
    EXPECT_EQ(m.mmu().PendingInvalidations(1), 0u);
    m.ctx().SetCurrentCpu(0);
    m.mmu().ShootdownAsid(as->asid());
    m.ctx().SetCurrentCpu(1);
    r.Exercise(kVa, 4 * kPageSize);
    r.Access(kVaNvm + 100, 3 * kPageSize);
    m.ctx().SetCurrentCpu(0);
    m.mmu().ShootdownRange(as->asid(), kVaNvm, 64 * kKiB);
    m.mmu().FlushPending();
    m.ctx().SetCurrentCpu(1);
    r.Access(kVaNvm + 100, 3 * kPageSize);
  });
}

}  // namespace
}  // namespace o1mem
