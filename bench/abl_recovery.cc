// Ablation: crash-recovery and scrub latency.
//
// Recovery cost is the price of the paper's persistence story: after a
// power cut, PMFS re-reads the superblock, replays the valid journal
// prefix, rebuilds the block bitmap, and compacts the journal; FOM then
// drops its table cache and sweeps orphan table sidecars (it reads none: a
// segment's sidecar is read and checked on its first splice map). Scrub()
// is the online version (plus a full media patrol).
//
// Two sweeps, both on the simulated clock (deterministic):
//   * journal length -- metadata ops since the last checkpoint; replay is
//     linear in records, everything else is fixed;
//   * file count -- live persistent files at crash time; checkpoint
//     snapshot encoding, bitmap rebuild, and the orphan-sidecar sweep are
//     linear in files/extents, not in bytes.
#include "bench/common.h"

namespace o1mem {
namespace {

SystemConfig RecoveryConfig() {
  SystemConfig config;
  config.machine.dram_bytes = 512 * kMiB;
  config.machine.nvm_bytes = 2 * kGiB;
  return config;
}

// The legs from a power cut back to a scrubbed mount, on the simulated clock.
struct RecoveryLegs {
  double replay_us = 0;   // PMFS journal replay + bitmap rebuild
  double sidecar_us = 0;  // FOM table-cache drop + orphan-sidecar sweep
  double scrub_us = 0;    // online scrub (media patrol)
};

// Cuts power, then recovers PMFS and FOM and scrubs, timing each leg.
RecoveryLegs CrashAndRecover(System& sys) {
  sys.machine().Crash();
  RecoveryLegs legs;
  SimTimer timer(sys);
  O1_CHECK(sys.pmfs().OnCrash().ok());
  legs.replay_us = timer.ElapsedUs();
  timer.Restart();
  O1_CHECK(sys.fom().OnCrash().ok());  // sweeps orphan table sidecars
  legs.sidecar_us = timer.ElapsedUs();
  timer.Restart();
  auto report = sys.pmfs().Scrub();
  O1_CHECK(report.ok() && !report->degraded);
  legs.scrub_us = timer.ElapsedUs();
  return legs;
}

struct Row {
  uint64_t x = 0;  // journal records or file count
  RecoveryLegs legs;
};

// Sweep 1: recovery/scrub vs journal length. A fixed small file set, then
// `target_records` metadata ops (size flips) to grow the journal tail.
Row MeasureJournalLength(uint64_t target_records) {
  System sys(RecoveryConfig());
  constexpr int kFiles = 8;
  std::vector<InodeId> ids;
  for (int f = 0; f < kFiles; ++f) {
    auto id = sys.pmfs().Create("/data/f" + std::to_string(f),
                                FileFlags{.persistent = true});
    O1_CHECK(id.ok());
    ids.push_back(*id);
  }
  // Each Resize appends records; alternate sizes so every op journals.
  uint64_t i = 0;
  while (sys.pmfs().journal_records() < target_records) {
    const InodeId id = ids[i % ids.size()];
    O1_CHECK(sys.pmfs().Resize(id, ((i % 4) + 1) * kPageSize).ok());
    ++i;
  }
  const uint64_t records = sys.pmfs().journal_records();
  return Row{.x = records, .legs = CrashAndRecover(sys)};
}

// Sweep 2: recovery/scrub vs live persistent file count (one page each,
// so data volume stays flat while metadata scales).
Row MeasureFileCount(uint64_t files) {
  System sys(RecoveryConfig());
  for (uint64_t f = 0; f < files; ++f) {
    auto seg = sys.fom().CreateSegment(
        "/data/seg" + std::to_string(f), kPageSize,
        SegmentOptions{.flags = {.persistent = true}});
    if (!seg.ok()) {
      std::fprintf(stderr, "CreateSegment %llu/%llu: %s\n",
                   static_cast<unsigned long long>(f),
                   static_cast<unsigned long long>(files),
                   seg.status().ToString().c_str());
    }
    O1_CHECK(seg.ok());
  }
  return Row{.x = files, .legs = CrashAndRecover(sys)};
}

// The recovery SLO a serving system actually cares about, decomposed: after
// a crash with a warm journal, how long is each leg of the path back to the
// first successfully served request? Reported as individual --json metrics
// (gated by tools/bench_diff.py like any other cost) and consumed by the
// chaos campaigns as the nominal single-shard baseline.
struct RecoverySlo {
  uint64_t replay_records = 0;
  RecoveryLegs legs;
  double to_serving_us = 0;  // launch + open + map + first read
};

RecoverySlo MeasureRecoverySlo() {
  System sys(RecoveryConfig());
  constexpr uint64_t kStateBytes = 16 * kMiB;
  auto seg = sys.fom().CreateSegment("/srv/state", kStateBytes,
                                     SegmentOptions{.flags = {.persistent = true}});
  O1_CHECK(seg.ok());
  // Warm the journal the way a serving day would: metadata churn on side
  // files while the state segment takes writes.
  {
    auto proc = sys.Launch(Backend::kFom);
    O1_CHECK(proc.ok());
    auto open = sys.fom().OpenSegment("/srv/state");
    O1_CHECK(open.ok());
    auto base = sys.fom().Map((*proc)->fom(), *open, Prot::kReadWrite);
    O1_CHECK(base.ok());
    std::vector<uint8_t> record(1024, 7);
    for (uint64_t i = 0; i < 64; ++i) {
      O1_CHECK(sys.UserWrite(**proc, *base + i * 64 * kKiB, record).ok());
    }
    auto scratch = sys.pmfs().Create("/srv/scratch", FileFlags{.persistent = true});
    O1_CHECK(scratch.ok());
    for (uint64_t i = 0; i < 256; ++i) {
      O1_CHECK(sys.pmfs().Resize(*scratch, ((i % 4) + 1) * kPageSize).ok());
    }
  }
  RecoverySlo slo;
  slo.replay_records = sys.pmfs().journal_records();

  slo.legs = CrashAndRecover(sys);

  SimTimer timer(sys);
  auto proc = sys.Launch(Backend::kFom);
  O1_CHECK(proc.ok());
  auto open = sys.fom().OpenSegment("/srv/state");
  O1_CHECK(open.ok());
  auto base = sys.fom().Map((*proc)->fom(), *open, Prot::kReadWrite);
  O1_CHECK(base.ok());
  uint8_t first[64];
  O1_CHECK(sys.UserRead(**proc, *base, first).ok());
  slo.to_serving_us = timer.ElapsedUs();
  return slo;
}

}  // namespace
}  // namespace o1mem

int main(int argc, char** argv) {
  using namespace o1mem;
  BenchJson json("abl_recovery", argc, argv);
  InitBenchObs(argc, argv);
  RejectUnknownFlags(argc, argv);

  // Recovery is every leg before the scrub: replay and the sidecar sweep.
  auto add_row = [](Table& table, const Row& row) {
    table.AddRow({Table::Int(row.x), Table::Num(row.legs.replay_us + row.legs.sidecar_us),
                  Table::Num(row.legs.scrub_us)});
  };
  Table by_journal("Ablation: recovery and online scrub latency vs journal length "
                   "(8 files, simulated us)");
  by_journal.AddRow({"journal records", "recover us", "scrub us"});
  for (uint64_t records : {16ull, 64ull, 256ull, 1024ull, 4096ull}) {
    add_row(by_journal, MeasureJournalLength(records));
  }
  by_journal.Print();
  MaybePrintCsv(by_journal);
  json.AddTable(by_journal);

  Table by_files("\nAblation: recovery and online scrub latency vs persistent FOM "
                 "segments (4 KiB each; orphan-sidecar sweep included)");
  by_files.AddRow({"files", "recover us", "scrub us"});
  for (uint64_t files : {8ull, 32ull, 128ull, 512ull}) {
    add_row(by_files, MeasureFileCount(files));
  }
  by_files.Print();
  MaybePrintCsv(by_files);
  json.AddTable(by_files);

  const RecoverySlo slo = MeasureRecoverySlo();
  Table slo_table("\nAblation: crash-to-serving SLO decomposition (16 MiB state, " +
                  std::to_string(slo.replay_records) + " journal records, simulated us)");
  slo_table.AddRow({"leg", "us"});
  slo_table.AddRow({"journal replay + bitmap rebuild", Table::Num(slo.legs.replay_us)});
  slo_table.AddRow({"FOM orphan-sidecar sweep", Table::Num(slo.legs.sidecar_us)});
  slo_table.AddRow({"online scrub (media patrol)", Table::Num(slo.legs.scrub_us)});
  slo_table.AddRow({"launch + map + first read", Table::Num(slo.to_serving_us)});
  slo_table.Print();
  MaybePrintCsv(slo_table);
  json.AddTable(slo_table);
  json.Metric("recovery_replay_records", static_cast<double>(slo.replay_records));
  json.Metric("recovery_replay_us", slo.legs.replay_us);
  json.Metric("recovery_sidecar_us", slo.legs.sidecar_us);
  json.Metric("recovery_scrub_us", slo.legs.scrub_us);
  json.Metric("recovery_time_to_serving_us", slo.to_serving_us);

  std::printf(
      "\nReplay is linear in journal records; scrub adds a fixed full-region media "
      "patrol, so it dominates at short journals and amortizes at long ones.\n");

  RecordOccupancy(json);
  json.Write();
  return 0;
}
