// overload_chaos: the 4-shard ShardedKvService on 4 simulated CPUs, driven
// open loop. (a) A fixed ladder of Poisson offered loads without faults
// gives slo_load_x. (b) One protected run with burst arrivals peaking at
// 1.5x capacity, composed with kill + hang + poison faults scheduled inside
// the run's tick horizon, gives everything else.
//
// The only workload where the chaos layer (admission, retry budget,
// breakers, brownout, watchdog) and recovery (scrub, replay, remap) do the
// work. Latency runs from arrival tick to completion; the arrival process
// is simulated, so the generator never runs late.
#include "perfbench/harness.h"

#include <array>

#include "src/chaos/shard_service.h"

namespace o1mem::perfbench {

namespace {

constexpr int kShards = 4;
constexpr uint64_t kLadderOps = 20000;
// The chaos run serves ~42k of its arrivals, ~12.6k of them puts: enough
// for a p999 of each op with 10 samples beyond it.
constexpr uint64_t kChaosOps = 60000;
// Ladder rungs, as multiples of capacity (shards x slots per tick).
constexpr std::array<double, 10> kLadder = {0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0, 1.1};
// The SLO a rung must meet to count toward slo_load_x.
constexpr double kSloP99Us = 50.0;
constexpr double kSloFailShare = 0.01;
// Backlog growth: the last window's mean depth above 1.25x the one before
// plus 2 requests. Window means of a steady queue wander by +-30% at light
// load, so a tighter test calls noise growth.
constexpr double kQueueGrowth = 1.25;
constexpr double kQueueSlack = 2.0;

SystemConfig ServiceSystemConfig() {
  SystemConfig config;
  config.machine.dram_bytes = 4 * kGiB;
  config.machine.nvm_bytes = 16 * kGiB;
  config.tmpfs_quota_bytes = 3 * kGiB;
  config.machine.smp.num_cpus = kShards;
  config.machine.smp.batched_shootdowns = true;
  config.machine.smp.percpu_frame_cache = true;
  config.machine.smp.prezero_pool = true;
  config.pmfs_zero_policy = ZeroPolicy::kZeroEpoch;
  // Histograms give fs.journal_*; the service-category trace ring keeps
  // every request's root span, whose durations give exact percentiles.
  config.machine.obs.histograms = true;
  config.machine.obs.trace = true;
  config.machine.obs.categories = kCatService;
  config.machine.obs.ring_capacity = 1u << 19;
  return config;
}

ShardServiceConfig LadderConfig(double load, uint64_t seed) {
  ShardServiceConfig config;
  config.shards = kShards;
  config.shard_bytes = 32 * kMiB;
  config.ops = kLadderOps;
  config.workload_seed = seed;
  config.overload = OverloadConfig::Protected();
  config.arrival.enabled = true;
  config.arrival.kind = ArrivalConfig::Kind::kPoisson;
  config.arrival.rate = load * kShards * static_cast<double>(config.overload.slots_per_tick);
  config.arrival.scan_fraction = 0.05;
  return config;
}

// Burst arrivals at 24/tick for 40 ticks, then 40 quiet ticks: 1.5x the
// 16-slot capacity at peak. The campaign is scaled to the ticks the
// arrivals actually span (ops / mean rate), so every fault lands inside it:
// one kill and one hang, both of which must fire.
constexpr uint64_t kScheduledKills = 1;
constexpr uint64_t kScheduledHangs = 1;

ShardServiceConfig ChaosRunConfig(uint64_t seed) {
  ShardServiceConfig config = LadderConfig(1.0, seed);
  config.ops = kChaosOps;
  config.arrival.kind = ArrivalConfig::Kind::kBurst;
  config.arrival.rate = 24;
  config.arrival.burst_ticks = 40;
  config.arrival.scan_fraction = 0;
  const uint64_t horizon = static_cast<uint64_t>(static_cast<double>(kChaosOps) /
                                                 config.arrival.MeanRate());
  const std::string spec = "kill@" + std::to_string(horizon / 4) + ":r; hang@" +
                           std::to_string(horizon / 2) + ":rx64; poison@" +
                           std::to_string(horizon / 8) + ":r!; poison@every" +
                           std::to_string(horizon / 5) + ":r";
  auto chaos = ParseCampaign(spec, seed);
  O1_CHECK(chaos.ok());
  config.chaos = *chaos;
  return config;
}

// Exact per-request latencies (cycles) from the service's root spans.
struct RequestLatencies {
  std::vector<uint64_t> get, put, all;
};

RequestLatencies RootLatencies(System& sys) {
  RequestLatencies out;
  const TraceRing* ring = sys.machine().observer().ring();
  for (const TraceEvent& e : ring->Snapshot()) {
    if (e.span_id != 1 || e.parent_span != 0 || e.trace_id == 0) {
      continue;
    }
    if (e.kind == TraceKind::kKvGet) {
      out.get.push_back(e.duration_cycles);
    } else if (e.kind == TraceKind::kKvPut) {
      out.put.push_back(e.duration_cycles);
    } else if (e.kind != TraceKind::kKvScan) {
      continue;
    }
    out.all.push_back(e.duration_cycles);
  }
  return out;
}

struct ServiceRun {
  ShardServiceReport report;
  RequestLatencies latencies;
  EventCounters counters;
  uint64_t journal_commits = 0;
  uint64_t journal_replays = 0;
  int64_t cpu_ns = 0;  // host CPU time inside ShardedKvService::Run only
};

struct Deployment {
  std::unique_ptr<System> sys;
  std::unique_ptr<ShardedKvService> service;
};

Deployment Deploy(const ShardServiceConfig& config) {
  Deployment d;
  d.sys = std::make_unique<System>(ServiceSystemConfig());
  d.service = std::make_unique<ShardedKvService>(*d.sys, config);
  return d;
}

ServiceRun Serve(Harness& h, Deployment d, const std::string& label) {
  ServiceRun run;
  h.spans().Bind(&d.sys->ctx());
  const int64_t start = HostCpuNs();
  {
    SpanRecorder::Scope s(h.spans(), kChaosRun);
    run.report = d.service->Run();
  }
  run.cpu_ns = HostCpuNs() - start;
  h.spans().Bind(nullptr);  // d.sys dies with this call
  run.latencies = RootLatencies(*d.sys);
  run.counters = d.sys->ctx().counters();
  run.journal_commits = JournalEvents(*d.sys, TraceKind::kJournalCommit);
  run.journal_replays = JournalEvents(*d.sys, TraceKind::kJournalReplay);
  const ShardServiceReport& r = run.report;
  if (r.ops_lost != 0 || r.verify_failures != 0) {
    h.Fail("overload_chaos " + label + ": " + std::to_string(r.ops_lost) + " lost, " +
           std::to_string(r.verify_failures) + " verify failures");
  }
  if (d.sys->machine().observer().ring()->dropped() != 0 ||
      run.latencies.all.size() != r.all_latency.count()) {
    h.Fail("overload_chaos " + label + ": trace ring lost request roots (" +
           std::to_string(run.latencies.all.size()) + " of " +
           std::to_string(r.all_latency.count()) + ")");
  }
  return run;
}

std::string Num(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", x);
  return buf;
}

double FailShareOf(const ShardServiceReport& r) {
  return FailShare(r.overload.arrivals, r.overload.served_in_deadline);
}

// A rung meets the SLO: exact p99 from arrival within the limit, at most 1%
// of arrivals not served in deadline, and no queue growth across the last
// two measurement windows.
bool MeetsSlo(const ServiceRun& run, const SimClock& clock) {
  const OverloadReport& ov = run.report.overload;
  const double p99_us = clock.CyclesToUs(OrderStatistic(run.latencies.all, 99));
  const bool flat = ov.queue_depth_window_b <= ov.queue_depth_window_a * kQueueGrowth + kQueueSlack;
  return p99_us <= kSloP99Us && FailShareOf(run.report) <= kSloFailShare && flat;
}

void Report(Harness& h, const ServiceRun& run, const std::vector<ServiceRun>& ladder,
            const SimClock& clock) {
  const ShardServiceReport& r = run.report;
  const OverloadReport& ov = r.overload;
  SetLatencyMetrics(h, clock, run.latencies.get, run.latencies.put, run.latencies.all);
  h.SetEndToEnd("sim_req_per_s", static_cast<double>(ov.served) / (r.run_us * 1e-6));
  double restart_max = 0;
  double scrub_us = 0;
  double remap_max = 0;
  uint64_t replay = 0;
  uint64_t detect_max = 0;
  for (const RecoveryEvent& e : r.recoveries) {
    restart_max = std::max(restart_max, e.time_to_first_served_us);
    scrub_us += e.scrub_us;
    remap_max = std::max(remap_max, e.remap_us);
    replay += e.replay_records;
    detect_max = std::max(detect_max, e.detect_tick - e.down_tick);
  }
  h.SetEndToEnd("restart_max_us", restart_max);
  char summary[200];
  std::snprintf(summary, sizeof(summary),
                "chaos run: %llu arrivals, %llu served, %llu kills, %llu hangs, %llu watchdog kills; "
                "service all_latency p999 (log2 bucket bound) %.1f us vs exact %.1f us",
                static_cast<unsigned long long>(ov.arrivals),
                static_cast<unsigned long long>(ov.served),
                static_cast<unsigned long long>(r.kills), static_cast<unsigned long long>(r.hangs),
                static_cast<unsigned long long>(r.watchdog_kills),
                clock.CyclesToUs(r.all_latency.Percentile(99.9)),
                clock.CyclesToUs(OrderStatistic(run.latencies.all, 99.9)));
  h.Note(summary);
  h.SetEndToEnd("goodput_ratio", ov.goodput_per_tick / ov.capacity_per_tick);
  h.SetEndToEnd("fail_share", FailShareOf(r));
  double slo_load = 0;
  bool met_so_far = true;
  h.Note("\nladder (Poisson, protected, no faults): load  p99_us  fail_share  queue_a  queue_b  slo");
  for (size_t i = 0; i < kLadder.size(); ++i) {
    const ServiceRun& rung = ladder[i];
    const bool meets = MeetsSlo(rung, clock);
    met_so_far = met_so_far && meets;
    if (met_so_far) {
      slo_load = kLadder[i];
    }
    char line[160];
    std::snprintf(line, sizeof(line), "  %5.2fx  %8.3f  %8.4f  %8.3f  %8.3f  %s", kLadder[i],
                  clock.CyclesToUs(OrderStatistic(rung.latencies.all, 99)),
                  FailShareOf(rung.report), rung.report.overload.queue_depth_window_a,
                  rung.report.overload.queue_depth_window_b, meets ? "met" : "missed");
    h.Note(line);
  }
  h.SetEndToEnd("slo_load_x", slo_load);

  h.AddCounters(run.counters, ov.served);
  h.SetLayer("fs.journal_commits", static_cast<double>(run.journal_commits));
  h.SetLayer("fs.journal_replays", static_cast<double>(run.journal_replays));
  h.SetLayer("fs.scrub_us", scrub_us);
  h.SetLayer("fs.replay_records", static_cast<double>(replay));
  h.SetLayer("chaos.detect_ticks", static_cast<double>(detect_max));
  h.SetLayer("chaos.remap_us", remap_max);
  h.SetLayer("chaos.served_per_admitted",
             static_cast<double>(ov.served) / static_cast<double>(std::max<uint64_t>(ov.admitted, 1)));
  h.SetLayer("chaos.sheds", static_cast<double>(ov.sheds));
  uint64_t expired = 0;
  uint64_t breaker = 0;
  uint64_t brownout = 0;
  uint64_t max_depth = 0;
  for (const ShardOverloadStats& st : ov.per_shard) {
    expired += st.expired_in_queue;
    breaker += st.breaker_transitions;
    for (size_t level = 1; level < st.brownout_ticks.size(); ++level) {
      brownout += st.brownout_ticks[level];
    }
    max_depth = std::max(max_depth, st.max_queue_depth);
  }
  h.SetLayer("chaos.expired_drops", static_cast<double>(expired));
  h.SetLayer("chaos.retries_per_req",
             static_cast<double>(r.retries) / static_cast<double>(std::max<uint64_t>(ov.arrivals, 1)));
  h.SetLayer("chaos.retry_budget_denials", static_cast<double>(ov.retry_budget_denials));
  h.SetLayer("chaos.breaker_transitions", static_cast<double>(breaker));
  h.SetLayer("chaos.brownout_ticks", static_cast<double>(brownout));
  h.SetLayer("chaos.max_queue_depth", static_cast<double>(max_depth));
  h.SetLayer("chaos.blame_coverage", r.tail.blame_coverage);
}

}  // namespace

// Set-up deploys the chaos run's machine and service; the timed phase is
// that run followed by the ladder (each rung on a fresh machine). Host
// time counts ShardedKvService::Run only, not the ladder machines' boots.
void OverloadChaosRepetition(Harness& h) {
  const uint64_t seed = h.options().seed;
  Deployment first = Deploy(ChaosRunConfig(seed));
  const SimClock clock = first.sys->ctx().clock();
  h.BeginTimed(first.sys->ctx());
  const int64_t phase_start = HostCpuNs();
  const ServiceRun chaos = Serve(h, std::move(first), "chaos run");
  const ShardServiceReport& r = chaos.report;
  // A hang is only recovered by the watchdog, so every hang must also
  // show up as a watchdog kill.
  if (r.kills < kScheduledKills || r.hangs < kScheduledHangs ||
      r.watchdog_kills < kScheduledHangs) {
    h.Fail("overload_chaos: scheduled faults did not fire (kills " + std::to_string(r.kills) +
           ", hangs " + std::to_string(r.hangs) + ", watchdog kills " +
           std::to_string(r.watchdog_kills) + ")");
  }
  uint64_t arrivals = r.overload.arrivals;
  uint64_t failed = r.ops_lost + r.verify_failures;
  int64_t run_ns = chaos.cpu_ns;
  std::vector<ServiceRun> ladder;
  for (double load : kLadder) {
    ladder.push_back(Serve(h, Deploy(LadderConfig(load, seed)), "ladder rung " + Num(load)));
    const ShardServiceReport& rung = ladder.back().report;
    arrivals += rung.overload.arrivals;
    failed += rung.ops_lost + rung.verify_failures;
    run_ns += ladder.back().cpu_ns;
  }
  Report(h, chaos, ladder, clock);
  h.CountRequests(arrivals, failed);
  h.EndTimed(arrivals, clock, HostCpuNs() - phase_start - run_ns);
}

}  // namespace o1mem::perfbench
