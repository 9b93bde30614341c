// Per-tick service time series: one fixed-size POD sample per supervisor
// tick, held in an overwrite-oldest FixedRing (MetricsRing). Where the trace
// ring answers "what did this request do", the metrics ring answers "what
// was the system doing when the tail formed": queue depth, brownout level,
// breaker state, shards down, and tier occupancy over time, exported
// alongside the trace as Chrome counter events so Perfetto plots them under
// the spans and tools/tail_explainer.py can line the p999 window up with
// them.
//
// Like every other obs structure the ring never charges simulated cycles and
// its memory is capacity * sizeof(MetricSample) forever.
#ifndef O1MEM_SRC_OBS_METRICS_H_
#define O1MEM_SRC_OBS_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/trace_ring.h"

namespace o1mem {

struct MetricSample {
  uint64_t tick = 0;
  uint64_t cycles = 0;               // sim clock when the sample was taken
  uint32_t queue_depth = 0;          // admission queue depth, all shards
  uint32_t backoff_retries = 0;      // client requests parked in backoff
  uint16_t brownout_level = 0;       // max level across shards (0 = normal)
  uint16_t breakers_open = 0;        // breakers not in closed state
  uint16_t shards_down = 0;          // shards hung or dead
  uint16_t arrivals = 0;             // new arrivals this tick
  uint64_t tier_promoted_bytes = 0;  // DRAM-cache residency
};

static_assert(sizeof(MetricSample) == 40, "MetricSample must stay a fixed 40-byte slot");

using MetricsRing = FixedRing<MetricSample>;

// End-of-run tail summary published by the service into the Observer so the
// procfs `tailstat` section and `app_kv_service --json` report per-shard
// p999 + the top blame component without any trace post-processing. Host
// bookkeeping only (strings/vectors are fine: written once at end of run,
// never on the request path, never charged cycles).
struct TailShardStat {
  uint32_t shard = 0;
  uint64_t requests = 0;
  double p999_us = 0.0;
  std::string top_component;  // largest blame share: "serve", "admission_wait", ...
  double top_share = 0.0;     // its fraction of summed tail latency
};

struct TailSnapshot {
  bool valid = false;
  double p999_us = 0.0;           // completed-request p999, all shards
  double blame_coverage = 0.0;    // attributed / measured, gate >= 0.95
  std::string top_component;
  double top_share = 0.0;
  std::vector<TailShardStat> shards;
};

}  // namespace o1mem

#endif  // O1MEM_SRC_OBS_METRICS_H_
