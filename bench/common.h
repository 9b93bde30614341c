// Shared helpers for the paper-figure benchmarks.
//
// Every bench binary follows the same pattern:
//   * measurement functions return *simulated* microseconds (the Machine's
//     cycle clock converted at the configured frequency) -- deterministic,
//     host-independent;
//   * main() extracts its flags (bench/json_out.h), rejects any it does not
//     know, prints the paper's series as an aligned table (plus CSV when
//     O1MEM_BENCH_CSV is set), and writes them to --json=<path>.
#ifndef O1MEM_BENCH_COMMON_H_
#define O1MEM_BENCH_COMMON_H_

#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/json_out.h"
#include "src/obs/exporters.h"
#include "src/os/malloc.h"
#include "src/os/system.h"
#include "src/support/table.h"

namespace o1mem {

// Smoke mode for CI: O1MEM_BENCH_SMALL=1 trims every sweep so the whole
// bench suite finishes in seconds (trend shapes survive; magnitudes shrink).
inline bool BenchSmall() { return std::getenv("O1MEM_BENCH_SMALL") != nullptr; }

// Large mode for the nightly sweep: O1MEM_BENCH_LARGE=1 scales op-count
// loops up (billion-op territory) so per-op host overheads dominate setup
// and host-throughput numbers are stable. Ignored when small mode is also
// set (small wins: CI smoke must stay fast).
inline bool BenchLarge() {
  return std::getenv("O1MEM_BENCH_LARGE") != nullptr && !BenchSmall();
}

// Applies small/large mode to an op count: /8 in small mode (floor 1),
// x16 in large mode.
inline uint64_t ScaleOps(uint64_t ops) {
  if (BenchSmall()) {
    return ops / 8 > 0 ? ops / 8 : 1;
  }
  return BenchLarge() ? ops * 16 : ops;
}

// Applies small mode to a size sweep: keeps entries up to 16 MiB (always at
// least one).
inline std::vector<uint64_t> MaybeShrink(std::vector<uint64_t> sizes) {
  if (!BenchSmall()) {
    return sizes;
  }
  std::vector<uint64_t> kept;
  for (uint64_t size : sizes) {
    if (size <= 16 * kMiB) {
      kept.push_back(size);
    }
  }
  if (kept.empty() && !sizes.empty()) {
    kept.push_back(sizes.front());
  }
  return kept;
}

// Observability collected across every System a bench builds (benches make
// one machine per measurement): histogram registries merge, trace rings
// drain into per-System Chrome pid groups. Recording never charges cycles
// (src/obs/observer.h), so enabling it cannot move any printed number.
struct BenchObsState {
  std::optional<std::string> trace_path;  // --trace=<path>, unset = no trace
  HistogramRegistry hist;                 // merged across all Systems
  std::vector<TraceGroup> groups;         // one Chrome pid per drained System
  uint64_t next_pid = 1;
  double cpu_ghz = 2.0;  // for cycle->us conversion in the trace file
};

inline BenchObsState& BenchObs() {
  static BenchObsState state;
  return state;
}

// Call first in main (before BenchConfig() is used): pulls --trace=<path>
// out of argv and arms the trace ring for every System built via
// BenchConfig().
inline void InitBenchObs(int& argc, char** argv) {
  BenchObs().trace_path = ExtractFlag(argc, argv, "trace");
}

// Drains `sys`'s observer into the bench-wide state: histograms merge,
// trace events (if any) become one pid group. SimTimer calls this on
// destruction; helpers without a timer can call it directly before their
// System dies. Safe to call repeatedly (drain semantics, no double count).
inline void CaptureObs(System& sys) {
  BenchObsState& state = BenchObs();
  Observer& obs = sys.machine().observer();
  state.cpu_ghz = sys.ctx().cost().cpu_ghz;
  if (obs.hist() != nullptr) {
    state.hist.Merge(*obs.hist());
    obs.hist()->Reset();
  }
  const bool any_ring = obs.ring() != nullptr && obs.ring()->total_pushed() != 0;
  const bool any_exemplars = obs.exemplars() != nullptr && obs.exemplars()->kept_total() != 0;
  const bool any_metrics = obs.metrics() != nullptr && obs.metrics()->total_pushed() != 0;
  if (any_ring || any_exemplars || any_metrics) {
    TraceGroup group;
    group.pid = state.next_pid++;
    group.label = "sys" + std::to_string(group.pid);
    if (obs.ring() != nullptr) {
      group.dropped = obs.ring()->dropped();
      group.events = obs.ring()->Drain();
    }
    if (obs.exemplars() != nullptr) {
      group.exemplars = obs.exemplars()->Drain();
    }
    if (obs.metrics() != nullptr) {
      group.metrics = obs.metrics()->Drain();
    }
    state.groups.push_back(std::move(group));
  }
}

// Default bench machine: 4 GiB DRAM + 16 GiB NVM at 2 GHz. Histograms are
// always on (free: the observer never charges cycles); the trace ring only
// when --trace was passed.
inline SystemConfig BenchConfig() {
  SystemConfig config;
  config.machine.dram_bytes = 4 * kGiB;
  config.machine.nvm_bytes = 16 * kGiB;
  config.tmpfs_quota_bytes = 3 * kGiB;
  config.machine.obs.histograms = true;
  config.machine.obs.trace = BenchObs().trace_path.has_value();
  // A traced bench also retains tail exemplars and the per-tick metrics
  // ring: one --trace flag arms the whole causal-tracing artifact. Still
  // zero simulated cycles either way.
  config.machine.obs.exemplars = config.machine.obs.trace;
  config.machine.obs.metrics = config.machine.obs.trace;
  return config;
}

// The benches' tier shape: a DRAM file cache of `cache_bytes` over the NVM
// home. Long aggregation windows (8 samples) so nr_accesses can spread
// 0..8: hot regions then differ from lukewarm neighbours by more than the
// merge tolerance and survive as distinct regions (DAMON uses ~20 samples
// per window for the same reason).
inline TierConfig BenchTier(uint64_t cache_bytes) {
  TierConfig t;
  t.enabled = true;
  t.dram_cache_bytes = cache_bytes;
  t.aggregation_ticks = 8;
  t.min_region_bytes = 64 * kPageSize;  // 256 KiB
  t.min_regions = 16;
  t.max_regions = 64;
  t.hot_threshold = 2;
  t.promote_after = 1;
  t.demote_after = 8;
  return t;
}

// The paper's file-size sweep (Figures 1/6 use 4 KB - 1 MB; we extend to
// 1 GiB to show where the trends go at "big memory" scale).
inline std::vector<uint64_t> FileSizeSweep() {
  return MaybeShrink({4 * kKiB,   16 * kKiB,  64 * kKiB,  256 * kKiB, 1 * kMiB,
                      4 * kMiB,   16 * kMiB,  64 * kMiB,  256 * kMiB, 1 * kGiB});
}

inline std::string SizeLabel(uint64_t bytes) {
  char buf[32];
  if (bytes < kKiB) {
    std::snprintf(buf, sizeof(buf), "%lluB", static_cast<unsigned long long>(bytes));
  } else if (bytes >= kGiB) {
    std::snprintf(buf, sizeof(buf), "%lluG", static_cast<unsigned long long>(bytes / kGiB));
  } else if (bytes >= kMiB) {
    std::snprintf(buf, sizeof(buf), "%lluM", static_cast<unsigned long long>(bytes / kMiB));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluK", static_cast<unsigned long long>(bytes / kKiB));
  }
  return buf;
}

// Per-tier occupancy in every BENCH_*.json: the slot is stamped while a
// System is still alive (SimTimer does it automatically on destruction;
// helpers without a timer call CaptureOccupancy(sys) themselves -- last
// writer wins), and main calls RecordOccupancy(json) once before
// json.Write(). Makes tier pressure visible in the artifacts next to the
// timing tables. Benches that drive a bare Machine report all-zero
// occupancy.
inline TierOccupancy& LastOccupancy() {
  static TierOccupancy occupancy;
  return occupancy;
}

inline void CaptureOccupancy(System& sys) { LastOccupancy() = sys.Occupancy(); }

// Mirrors the merged latency histograms as a table in the bench JSON (one
// row per non-empty (op, size class) slot). Column names carry "cycles" so
// tools/bench_diff.py gates the tail latencies like any other cost column.
inline void RecordLatency(BenchJson& json) {
  const BenchObsState& state = BenchObs();
  Table table("latency histograms (cycles)");
  table.AddRow({"op", "class", "count", "p50_cycles", "p99_cycles", "max_cycles"});
  state.hist.ForEachNonEmpty([&table](TraceKind kind, SizeClass size_class,
                                      const LatencyHistogram& h) {
    table.AddRow({TraceKindName(kind), SizeClassName(size_class),
                  std::to_string(h.count()), std::to_string(h.Percentile(50)),
                  std::to_string(h.Percentile(99)), std::to_string(h.max())});
  });
  json.AddTable(table);
}

// Writes the merged Chrome trace when --trace=<path> was passed.
inline void WriteBenchTrace() {
  const BenchObsState& state = BenchObs();
  if (!state.trace_path.has_value()) {
    return;
  }
  if (!WriteChromeTraceFile(*state.trace_path, state.groups, state.cpu_ghz)) {
    std::fprintf(stderr, "cannot write trace %s\n", state.trace_path->c_str());
  }
}

inline void RecordOccupancy(BenchJson& json) {
  const TierOccupancy& o = LastOccupancy();
  json.Metric("dram_total_bytes", static_cast<double>(o.dram_total_bytes));
  json.Metric("dram_used_bytes", static_cast<double>(o.dram_used_bytes));
  json.Metric("dram_free_bytes", static_cast<double>(o.dram_free_bytes));
  json.Metric("nvm_total_bytes", static_cast<double>(o.nvm_total_bytes));
  json.Metric("nvm_used_bytes", static_cast<double>(o.nvm_used_bytes));
  json.Metric("nvm_free_bytes", static_cast<double>(o.nvm_free_bytes));
  json.Metric("dram_cache_bytes", static_cast<double>(o.dram_cache_bytes));
  json.Metric("dram_cache_used_bytes", static_cast<double>(o.dram_cache_used_bytes));
  json.Metric("dram_cache_free_bytes", static_cast<double>(o.dram_cache_free_bytes));
  json.Metric("contig_area_bytes", static_cast<double>(o.contig_area_bytes));
  json.Metric("contig_claimed_bytes", static_cast<double>(o.contig_claimed_bytes));
  json.Metric("contig_lent_file_bytes", static_cast<double>(o.contig_lent_file_bytes));
  json.Metric("contig_lent_tier_bytes", static_cast<double>(o.contig_lent_tier_bytes));
  json.Metric("contig_free_bytes", static_cast<double>(o.contig_free_bytes));
  // Every main calls RecordOccupancy once right before json.Write(); ride
  // along so each bench also gets the latency table and its --trace file
  // without per-bench wiring.
  RecordLatency(json);
  WriteBenchTrace();
}

// RAII stopwatch over the simulated clock.
class SimTimer {
 public:
  explicit SimTimer(System& sys) : sys_(sys), start_(sys.ctx().now()) {}
  // Leaves a final occupancy snapshot behind and drains the observer (the
  // System outlives the timer's scope), so every timed measurement feeds
  // RecordOccupancy/RecordLatency and the merged --trace file.
  ~SimTimer() {
    CaptureOccupancy(sys_);
    CaptureObs(sys_);
  }
  double ElapsedUs() const { return sys_.ctx().clock().CyclesToUs(sys_.ctx().now() - start_); }
  void Restart() { start_ = sys_.ctx().now(); }

 private:
  System& sys_;
  uint64_t start_;
};

inline void MaybePrintCsv(const Table& table) {
  if (std::getenv("O1MEM_BENCH_CSV") != nullptr) {
    table.PrintCsv();
  }
}

}  // namespace o1mem

#endif  // O1MEM_BENCH_COMMON_H_
