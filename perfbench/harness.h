// Shared driver state for the three benchmark workloads: options, the span
// recorder, the repetition loop, and the metric tables the driver prints.
//
// A run repeats one *repetition* -- set-up, then a fixed timed phase whose
// work depends on the seed alone -- until --seconds of host time have
// passed (at least kMinRepetitions times). Every repetition simulates the
// same thing, so its simulated metrics and digest must match the first
// one's exactly (checked); host-clock metrics are medians over
// repetitions of the process's CPU time (HostCpuNs). In a traced run, even
// repetitions record spans and odd ones do not, which gives
// obs.trace_overhead from one process.
#ifndef O1MEM_PERFBENCH_HARNESS_H_
#define O1MEM_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/bench_lib.h"
#include "src/os/system.h"

namespace o1mem::perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string span_out;  // traced runs write the span buffer here ("" = skip)
};

// Benchmark spans: the benchmark's own request/restart scopes ("bench.*")
// and one name per public call into a layer, named <src module>.<call>.
enum SpanName : uint32_t {
  kBenchGet,
  kBenchPut,
  kBenchRestart,
  kOsUserRead,
  kOsUserWrite,
  kOsUserFlush,
  kOsMalloc,
  kOsLaunch,
  kFomOpen,
  kFomMap,
  kFomCreate,
  kFomDelete,
  kMmReclaim,
  kSimCrash,
  kTierTick,
  kChaosRun,
  kSpanCount,
};

std::vector<std::string> SpanNames();

// A metric's name and unit.
struct MetricDef {
  std::string name;
  std::string unit;
};

// Every per-layer metric the traced run reports, in output order. Span
// metrics are <span>.calls / .sim_us / .host_ms for each span name above
// (plus self times for the bench.* scopes); the rest come from counters and
// service reports. A layer a workload does not touch reads 0.
std::vector<MetricDef> LayerMetricDefs();

// Every end-to-end metric a workload may define, with unit, clock and
// direction, in output order.
struct EndToEndDef {
  const char* name;
  const char* unit;
  const char* clock;  // "sim", "host" or "-" (a count ratio, no clock)
  const char* better;
};
const std::vector<EndToEndDef>& EndToEndDefs();

class Harness {
 public:
  static constexpr int kMinRepetitions = 3;

  explicit Harness(const Options& options);

  const Options& options() const { return options_; }
  SpanRecorder& spans() { return spans_; }

  // --- repetitions -----------------------------------------------------------
  // True while another repetition should start.
  bool WantRepetition() const;
  // Starts the next repetition (its set-up): fresh metrics and digest.
  void BeginRepetition();
  // Set-up done (its host time is one setup_s sample); starts the timed
  // phase and the span window on `ctx`, traced on even repetitions of a
  // traced run.
  void BeginTimed(const SimContext& ctx);
  // Timed phase done: `requests` served. Books the host rate (leaving out
  // `untimed_cpu_ns` of HostCpuNs time spent on audits inside the phase),
  // takes the span totals, closes the digest and checks it against
  // repetition 0.
  void EndTimed(uint64_t requests, const SimClock& clock, int64_t untimed_cpu_ns = 0);
  int repetitions() const { return repetitions_; }

  // --- metrics of the current repetition ------------------------------------
  void SetEndToEnd(const std::string& name, double value);
  void SetLayer(const std::string& name, double value);
  // Counter deltas -> layer metrics; every raw counter also goes into the
  // digest.
  void AddCounters(const EventCounters& delta, uint64_t user_accesses);

  // Adds a line to the workload's detail table (kept from repetition 0,
  // printed before the end-to-end table).
  void Note(const std::string& line);
  const std::vector<std::string>& notes() const { return notes_; }

  // Records a failed correctness check; the driver then exits nonzero.
  void Fail(const std::string& what);
  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  // Requests attempted over the timed phases and requests failed outright
  // (lost or answered wrong); refused requests are not failures here but
  // count in fail_share.
  void CountRequests(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  // --- results (repetition 0, plus host medians) ----------------------------
  // Fills the host-clock end-to-end metrics and obs.trace_overhead.
  void Finish(double calib_err);
  const std::map<std::string, double>& end_to_end() const { return first_.e2e; }
  const std::map<std::string, double>& layer() const { return first_.layer; }
  std::string DigestHex() const { return first_.digest.Hex(); }

 private:
  struct Metrics {
    std::map<std::string, double> e2e;
    std::map<std::string, double> layer;
    Digest digest;
  };

  Metrics Fresh() const;
  // Digest over every simulated quantity: sim-clock end-to-end metrics and
  // every layer metric that is not host time or tracing bookkeeping (raw
  // counters were added by AddCounters).
  static void CloseDigest(Metrics& m);
  void WriteSpans(const SimClock& clock) const;

  Options options_;
  SpanRecorder spans_;
  Metrics cur_;
  Metrics first_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  int repetitions_ = 0;
  int64_t run_start_ns_ = 0;  // wall clock: bounds the run to --seconds
  int64_t rep_start_cpu_ns_ = 0;
  int64_t timed_start_cpu_ns_ = 0;
  std::vector<double> setups_;
  std::vector<double> traced_rates_;  // requests per host second, spans on
  std::vector<double> plain_rates_;   // requests per host second, spans off
};

// Sets, for op = get, put, req: <op>_p50_us and <op>_p999_us (exact order
// statistics), <op>_mean_us, <op>_trim_us (mean of the fastest 99%) and
// <op>_tail_us (mean of the slowest 0.1%); notes each op's sample count.
void SetLatencyMetrics(Harness& h, const SimClock& clock, const std::vector<uint64_t>& get,
                       const std::vector<uint64_t>& put, const std::vector<uint64_t>& req);

// Journal commits or replays recorded by the System's latency histograms
// (MachineConfig.obs.histograms must be on).
uint64_t JournalEvents(System& sys, TraceKind kind);

// Simulated unpopulated mmap on tmpfs and on DAX versus the paper's
// ~8 us / ~15 us: the max relative error of the two.
double CalibrationError();

// Applies the tier settings of `app_kv_service --tier=on` (32 MiB DRAM
// cache, 8-tick aggregation, 16..64 regions of >= 256 KiB).
void EnableKvTier(SystemConfig& config);

// The three workloads: each runs one repetition (set-up + timed phase).
void ZipfHotRepetition(Harness& h);
void UniformLifecycleRepetition(Harness& h);
void OverloadChaosRepetition(Harness& h);

}  // namespace o1mem::perfbench

#endif  // O1MEM_PERFBENCH_HARNESS_H_
