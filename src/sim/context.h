// SimContext: the bundle of clock + cost model + counters threaded through
// every simulated component. One SimContext exists per Machine.
//
// SMP model: the simulation stays single-host-threaded and deterministic.
// "CPUs" are an accounting dimension -- callers (benchmarks, the OS layer)
// interleave work across CPUs deterministically (typically round-robin) by
// calling SetCurrentCpu() between operations. Charges advance the one global
// clock AND the current CPU's private cycle total, so per-CPU balance is
// observable while results stay bit-reproducible.
#ifndef O1MEM_SRC_SIM_CONTEXT_H_
#define O1MEM_SRC_SIM_CONTEXT_H_

#include <cstdint>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/counters.h"
#include "src/support/check.h"

namespace o1mem {

class Observer;

// The machine's SMP shape and the per-CPU fast-path features layered on it.
// All default to the seed's single-CPU behaviour so existing configurations
// are bit-for-bit unchanged.
struct SmpConfig {
  int num_cpus = 1;

  // Batched + lazy TLB shootdowns: unmap/protect enqueue invalidations on
  // remote CPUs and the OS flushes once per operation (one IPI per CPU)
  // instead of one IPI per page per CPU. A CPU must drain its queue before
  // translating in an affected ASID (enforced by the Mmu).
  bool batched_shootdowns = false;

  // Linux pcp-style per-CPU frame caches in front of the buddy allocator:
  // order-0 allocs/frees become a lock-free pop/push; refill/drain moves
  // PhysManager::kPcpBatch frames under one zone-lock round trip.
  bool percpu_frame_cache = false;

  // Background pre-zeroed frame pool: AllocFrame(zero=true) pops an
  // already-zeroed frame; the 4 KiB Zero() runs off the critical path and is
  // accounted in PhysManager::background_zero_cycles().
  bool prezero_pool = false;
  uint64_t prezero_target_frames = 1024;
};

class SimContext {
 public:
  SimContext() = default;
  explicit SimContext(const CostModel& cost, const SmpConfig& smp = SmpConfig())
      : cost_(cost), smp_(smp), clock_(cost.cpu_ghz),
        cpu_cycles_(static_cast<size_t>(smp.num_cpus), 0) {
    O1_CHECK(smp.num_cpus >= 1);
  }

  // Advances simulated time by `cycles`, attributed to the current CPU
  // (or to the active redirect sink -- see RedirectCharges).
  void Charge(uint64_t cycles) {
    if (redirect_ != nullptr) {
      *redirect_ += cycles;
      return;
    }
    clock_.Advance(cycles);
    cpu_cycles_[static_cast<size_t>(current_cpu_)] += cycles;
  }

  const CostModel& cost() const { return cost_; }
  const SmpConfig& smp() const { return smp_; }
  SimClock& clock() { return clock_; }
  const SimClock& clock() const { return clock_; }
  EventCounters& counters() { return counters_; }
  const EventCounters& counters() const { return counters_; }

  // --- Per-CPU view ------------------------------------------------------
  int num_cpus() const { return smp_.num_cpus; }
  int current_cpu() const { return current_cpu_; }
  void SetCurrentCpu(int cpu) {
    O1_CHECK(cpu >= 0 && cpu < smp_.num_cpus);
    current_cpu_ = cpu;
  }
  uint64_t cpu_cycles(int cpu) const {
    O1_CHECK(cpu >= 0 && cpu < smp_.num_cpus);
    return cpu_cycles_[static_cast<size_t>(cpu)];
  }

  // Redirects subsequent Charge() calls into `sink` instead of the clock:
  // models work done by a background thread off every CPU's critical path
  // (e.g. pre-zeroing frames). Deterministic -- the cycles are still counted,
  // just not on the measured timeline. Callers must pair with
  // StopRedirectingCharges(); nesting is not supported.
  void RedirectCharges(uint64_t* sink) {
    O1_CHECK(redirect_ == nullptr && sink != nullptr);
    redirect_ = sink;
  }
  void StopRedirectingCharges() {
    O1_CHECK(redirect_ != nullptr);
    redirect_ = nullptr;
  }

  // The machine's observability sink (src/obs). Null only for a bare
  // SimContext outside a Machine; instrumentation sites treat null as
  // "everything off". Never charges cycles -- see src/obs/observer.h.
  Observer* obs() const { return obs_; }
  void SetObserver(Observer* obs) { obs_ = obs; }

  // Convenience: current simulated time in cycles / microseconds.
  uint64_t now() const { return clock_.now(); }
  double ElapsedUs(uint64_t start_cycles) const { return clock_.ElapsedUs(start_cycles); }

 private:
  CostModel cost_;
  SmpConfig smp_;
  SimClock clock_{cost_.cpu_ghz};
  EventCounters counters_;
  int current_cpu_ = 0;
  std::vector<uint64_t> cpu_cycles_ = std::vector<uint64_t>(1, 0);
  uint64_t* redirect_ = nullptr;
  Observer* obs_ = nullptr;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_SIM_CONTEXT_H_
