// Observability knobs (MachineConfig::obs). Everything defaults OFF so a
// default-configured machine is cycle- and allocation-identical to the seed:
// the observer never charges simulated cycles (it is the measurement
// apparatus, not part of the machine being measured), and with both switches
// off every instrumentation site costs one pointer test + one branch.
//
// The two switches are independent:
//   * `trace`      -- typed events go into a fixed-capacity overwrite-oldest
//                     ring (TraceRing); memory is bounded by `ring_capacity`
//                     regardless of run length.
//   * `histograms` -- per-(op kind, operand-size class) log2-bucket cycle
//                     histograms (HistogramRegistry); fixed-size arrays, so
//                     O(1) memory and O(1) per-sample cost.
#ifndef O1MEM_SRC_OBS_OBS_CONFIG_H_
#define O1MEM_SRC_OBS_OBS_CONFIG_H_

#include <cstdint>

namespace o1mem {

// Event categories, used as a bitmask: a disabled category is rejected with
// a single branch before any event is materialized.
enum TraceCategory : uint32_t {
  kCatSyscall = 1u << 0,    // System entry points (mmap, read, fork, ...)
  kCatFault = 1u << 1,      // demand-pager fault handling
  kCatShootdown = 1u << 2,  // batched TLB shootdown flushes
  kCatTier = 1u << 3,       // tier promotion / demotion / writeback / ticks
  kCatReclaim = 1u << 4,    // reclaim passes (baseline scan, FOM shed)
  kCatJournal = 1u << 5,    // PMFS journal commits and replays
  kCatInjector = 1u << 6,   // fault-injector triggers and crashes
  kCatService = 1u << 7,    // service-level overload events (shed, breaker, brownout)
  kCatAll = (1u << 8) - 1,
};

struct ObsConfig {
  // Master switch for the trace ring. Off: Emit() is one branch.
  bool trace = false;
  // Category enable bitmask (only consulted when `trace` is set).
  uint32_t categories = kCatAll;
  // Fixed event capacity of the ring; oldest events are overwritten.
  uint32_t ring_capacity = 1u << 16;
  // Master switch for the latency-histogram registry.
  bool histograms = false;
  // Exemplar reservoir (request-scoped causal tracing): retain the full span
  // trees of the slowest requests per (root op, size class), overwrite-oldest.
  // Requires `trace` (trees are staged off the emit path). All memory is
  // fixed at construction; the sizes are Observer::kExemplar* constants.
  bool exemplars = false;
  // Per-tick service metrics ring (queue depth, brownout level, breaker
  // state, tier occupancy over time) -- same overwrite-oldest discipline,
  // Observer::kMetricsCapacity rows.
  bool metrics = false;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_OBS_OBS_CONFIG_H_
