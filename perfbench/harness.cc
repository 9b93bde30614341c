#include "perfbench/harness.h"

#include <sys/resource.h>

#include <cstdio>

#include "src/obs/latency_histogram.h"

namespace o1mem::perfbench {

namespace {

// Fixed span-buffer capacity (48 bytes a span, 12 MiB): holds every span of
// uniform_lifecycle and overload_chaos; zipf_hot's ~2.1M spans overflow it
// and the rest are counted in obs.spans_dropped (totals stay exact).
constexpr size_t kSpanCapacity = size_t{1} << 18;

constexpr const char* kSpanNameTable[kSpanCount] = {
    "bench.get",     "bench.put",     "bench.restart", "os.user_read",
    "os.user_write", "os.user_flush", "os.malloc",     "os.launch",
    "fom.open",      "fom.map",       "fom.create",    "fom.delete",
    "mm.reclaim",    "sim.crash",     "tier.tick",     "chaos.run",
};

// Spans whose self time differs from their total: the benchmark's own
// scopes, which enclose layer calls.
bool HasChildren(uint32_t span) { return span <= kBenchRestart; }

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Whether a metric is a function of the simulation alone (and so belongs in
// the digest): not a host-clock metric and not tracing bookkeeping.
bool IsSimulated(const std::string& name) {
  for (const EndToEndDef& def : EndToEndDefs()) {
    if (name == def.name) {
      return std::string_view(def.clock) != "host";
    }
  }
  return !name.ends_with("host_ms") && !name.starts_with("obs.");
}

// Median of a non-empty vector (mean of the middle pair when even).
double Median(std::vector<double> v) {
  O1_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Peak resident set of this process, MiB.
double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace

std::vector<std::string> SpanNames() {
  return std::vector<std::string>(std::begin(kSpanNameTable), std::end(kSpanNameTable));
}

const std::vector<EndToEndDef>& EndToEndDefs() {
  static const std::vector<EndToEndDef> defs = {
      {"get_p50_us", "us", "sim", "lower"},
      {"get_p999_us", "us", "sim", "lower"},
      {"get_mean_us", "us", "sim", "lower"},
      {"get_trim_us", "us", "sim", "lower"},
      {"get_tail_us", "us", "sim", "lower"},
      {"put_p50_us", "us", "sim", "lower"},
      {"put_p999_us", "us", "sim", "lower"},
      {"put_mean_us", "us", "sim", "lower"},
      {"put_trim_us", "us", "sim", "lower"},
      {"put_tail_us", "us", "sim", "lower"},
      {"req_p50_us", "us", "sim", "lower"},
      {"req_p999_us", "us", "sim", "lower"},
      {"req_mean_us", "us", "sim", "lower"},
      {"req_trim_us", "us", "sim", "lower"},
      {"req_tail_us", "us", "sim", "lower"},
      {"sim_req_per_s", "req/s", "sim", "higher"},
      {"restart_max_us", "us", "sim", "lower"},
      {"goodput_ratio", "x", "sim", "higher"},
      {"slo_load_x", "x", "sim", "higher"},
      {"fail_share", "ratio", "-", "lower"},
      {"ok_share", "ratio", "-", "higher"},
      {"space_amp", "ratio", "sim", "lower"},
      {"calib_err", "ratio", "sim", "lower"},
      {"host_req_per_s", "req/s", "host", "higher"},
      {"setup_s", "s", "host", "lower"},
      {"peak_rss_mib", "MiB", "host", "lower"},
  };
  return defs;
}

std::vector<MetricDef> LayerMetricDefs() {
  std::vector<MetricDef> defs;
  for (uint32_t s = 0; s < kSpanCount; ++s) {
    const std::string name = kSpanNameTable[s];
    defs.push_back({name + ".calls", "count"});
    defs.push_back({name + ".sim_us", "us"});
    defs.push_back({name + ".host_ms", "ms"});
    if (HasChildren(s)) {
      defs.push_back({name + ".self_sim_us", "us"});
      defs.push_back({name + ".self_host_ms", "ms"});
    }
  }
  const std::vector<MetricDef> rest = {
      {"sim.tlb_hit_ratio", "ratio"},
      {"sim.page_walks", "count"},
      {"sim.range_tlb_hits", "count"},
      {"sim.bytes_copied", "B"},
      {"tier.dram_hit_ratio", "ratio"},
      {"tier.promotions", "count"},
      {"tier.demotions", "count"},
      {"tier.migrated_bytes", "B"},
      {"tier.writeback_bytes", "B"},
      {"os.malloc_cache_refills", "count"},
      {"os.malloc_chunks_mapped", "count"},
      {"os.syscalls", "count"},
      {"fom.ptes_written", "count"},
      {"fom.range_entries_installed", "count"},
      {"fom.subtree_splices", "count"},
      {"mm.frames_allocated", "count"},
      {"mm.bytes_zeroed", "B"},
      {"mm.prezero_hit_ratio", "ratio"},
      {"mm.files_reclaimed", "count"},
      {"fs.journal_commits", "count"},
      {"fs.journal_replays", "count"},
      {"fs.scrub_us", "us"},
      {"fs.replay_records", "count"},
      {"chaos.detect_ticks", "ticks"},
      {"chaos.remap_us", "us"},
      {"chaos.served_per_admitted", "ratio"},
      {"chaos.sheds", "count"},
      {"chaos.expired_drops", "count"},
      {"chaos.retries_per_req", "ratio"},
      {"chaos.retry_budget_denials", "count"},
      {"chaos.breaker_transitions", "count"},
      {"chaos.brownout_ticks", "ticks"},
      {"chaos.max_queue_depth", "count"},
      {"chaos.blame_coverage", "ratio"},
      {"obs.trace_overhead", "ratio"},
      {"obs.spans_dropped", "count"},
  };
  defs.insert(defs.end(), rest.begin(), rest.end());
  return defs;
}

Harness::Harness(const Options& options)
    : options_(options), spans_(SpanNames(), options.traced ? kSpanCapacity : 0),
      run_start_ns_(HostNowNs()) {}

Harness::Metrics Harness::Fresh() const {
  Metrics m;
  for (const MetricDef& def : LayerMetricDefs()) {
    m.layer[def.name] = 0;
  }
  return m;
}

bool Harness::WantRepetition() const {
  if (!correct()) {
    return false;
  }
  return repetitions_ < kMinRepetitions ||
         static_cast<double>(HostNowNs() - run_start_ns_) * 1e-9 < options_.seconds;
}

void Harness::BeginRepetition() {
  cur_ = Fresh();
  // Set-up calls are not part of the span window: no clock, no buffer.
  spans_.Bind(nullptr);
  spans_.SetTraced(false);
  rep_start_cpu_ns_ = HostCpuNs();
}

void Harness::BeginTimed(const SimContext& ctx) {
  timed_start_cpu_ns_ = HostCpuNs();
  setups_.push_back(static_cast<double>(timed_start_cpu_ns_ - rep_start_cpu_ns_) * 1e-9);
  spans_.Bind(&ctx);
  spans_.ResetTotals();
  spans_.SetTraced(options_.traced && repetitions_ % 2 == 0);
}

void Harness::EndTimed(uint64_t requests, const SimClock& clock, int64_t untimed_cpu_ns) {
  const double host_s =
      static_cast<double>(HostCpuNs() - timed_start_cpu_ns_ - untimed_cpu_ns) * 1e-9;
  (spans_.traced() ? traced_rates_ : plain_rates_).push_back(static_cast<double>(requests) / host_s);
  O1_CHECK(spans_.idle());
  const auto& names = spans_.names();
  const auto& totals = spans_.totals();
  for (uint32_t s = 0; s < kSpanCount; ++s) {
    const SpanTotals& t = totals[s];
    const std::string& name = names[s];
    SetLayer(name + ".calls", static_cast<double>(t.calls));
    SetLayer(name + ".sim_us", clock.CyclesToUs(t.sim_cycles));
    SetLayer(name + ".host_ms", static_cast<double>(t.host_ns) * 1e-6);
    if (HasChildren(s)) {
      SetLayer(name + ".self_sim_us", clock.CyclesToUs(t.sim_self_cycles));
      SetLayer(name + ".self_host_ms", static_cast<double>(t.host_self_ns) * 1e-6);
    }
  }
  SetLayer("obs.spans_dropped", static_cast<double>(spans_.dropped()));
  // The never-zero form of fail_share: BENCHMARK.json gates no metric that can read 0.
  cur_.e2e["ok_share"] = 1.0 - cur_.e2e.at("fail_share");
  CloseDigest(cur_);
  if (repetitions_ == 0) {
    first_ = cur_;
    WriteSpans(clock);
  } else if (cur_.digest.value() != first_.digest.value()) {
    std::string diff;
    auto compare = [&diff](const std::map<std::string, double>& now,
                           const std::map<std::string, double>& ref) {
      for (const auto& [name, value] : now) {
        if (IsSimulated(name) && ref.count(name) == 1 && ref.at(name) != value) {
          diff += " " + name + "=" + std::to_string(value) + "/" + std::to_string(ref.at(name));
        }
      }
    };
    compare(cur_.e2e, first_.e2e);
    compare(cur_.layer, first_.layer);
    Fail("repetition " + std::to_string(repetitions_) + " simulated differently from repetition 0:" +
         (diff.empty() ? " raw counters" : diff));
  }
  ++repetitions_;
}

void Harness::CloseDigest(Metrics& m) {
  for (const EndToEndDef& def : EndToEndDefs()) {
    auto it = m.e2e.find(def.name);
    if (IsSimulated(def.name) && it != m.e2e.end()) {
      m.digest.Add(def.name, it->second);
    }
  }
  for (const auto& [name, value] : m.layer) {
    if (IsSimulated(name)) {
      m.digest.Add(name, value);
    }
  }
}

void Harness::SetEndToEnd(const std::string& name, double value) { cur_.e2e[name] = value; }

void Harness::SetLayer(const std::string& name, double value) {
  O1_CHECK(cur_.layer.count(name) == 1);
  cur_.layer[name] = value;
}

void Harness::Fail(const std::string& what) { failures_.push_back(what); }

void Harness::Note(const std::string& line) {
  if (repetitions_ == 0) {
    notes_.push_back(line);
  }
}

void Harness::Finish(double calib_err) {
  first_.e2e["calib_err"] = calib_err;
  first_.e2e["host_req_per_s"] = Median(plain_rates_.empty() ? traced_rates_ : plain_rates_);
  first_.e2e["setup_s"] = Median(setups_);
  first_.e2e["peak_rss_mib"] = PeakRssMib();
  first_.layer["obs.trace_overhead"] =
      traced_rates_.empty() || plain_rates_.empty()
          ? 0
          : Median(traced_rates_) / Median(plain_rates_) - 1.0;
}

void Harness::AddCounters(const EventCounters& d, uint64_t user_accesses) {
  d.ForEachField([this](const char* name, uint64_t value) { cur_.digest.Add(name, value); });
  SetLayer("sim.tlb_hit_ratio",
           Ratio(d.tlb_l1_hits + d.tlb_l2_hits, d.tlb_l1_hits + d.tlb_l2_hits + d.tlb_misses));
  SetLayer("sim.page_walks", static_cast<double>(d.page_walks));
  SetLayer("sim.range_tlb_hits", static_cast<double>(d.range_tlb_hits));
  SetLayer("sim.bytes_copied", static_cast<double>(d.bytes_copied));
  SetLayer("tier.dram_hit_ratio", Ratio(d.tier_hot_hits_dram, user_accesses));
  SetLayer("tier.promotions", static_cast<double>(d.tier_promotions));
  SetLayer("tier.demotions", static_cast<double>(d.tier_demotions));
  SetLayer("tier.migrated_bytes", static_cast<double>(d.tier_migrated_bytes));
  SetLayer("tier.writeback_bytes", static_cast<double>(d.tier_writeback_bytes));
  SetLayer("os.malloc_cache_refills", static_cast<double>(d.malloc_cache_refills));
  SetLayer("os.malloc_chunks_mapped", static_cast<double>(d.malloc_chunks_mapped));
  SetLayer("os.syscalls", static_cast<double>(d.syscalls));
  SetLayer("fom.ptes_written", static_cast<double>(d.ptes_written));
  SetLayer("fom.range_entries_installed", static_cast<double>(d.range_entries_installed));
  SetLayer("fom.subtree_splices", static_cast<double>(d.subtree_splices));
  SetLayer("mm.frames_allocated", static_cast<double>(d.frames_allocated));
  SetLayer("mm.bytes_zeroed", static_cast<double>(d.bytes_zeroed));
  SetLayer("mm.prezero_hit_ratio", Ratio(d.prezero_hits, d.prezero_hits + d.prezero_misses));
  SetLayer("mm.files_reclaimed", static_cast<double>(d.files_reclaimed));
}

void Harness::WriteSpans(const SimClock& clock) const {
  if (!options_.traced || options_.span_out.empty()) {
    return;
  }
  std::FILE* f = std::fopen(options_.span_out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", options_.span_out.c_str());
    return;
  }
  std::fprintf(f, "# index\tname\tparent\trequest\tsim_start_us\tsim_end_us\thost_start_ns\thost_end_ns\n");
  const auto& names = spans_.names();
  const auto& buf = spans_.buffer();
  for (size_t i = 0; i < buf.size(); ++i) {
    const SpanRecord& r = buf[i];
    std::fprintf(f, "%zu\t%s\t%u\t%llu\t%.4f\t%.4f\t%lld\t%lld\n", i + 1, names[r.name].c_str(),
                 r.parent, static_cast<unsigned long long>(r.request),
                 clock.CyclesToUs(r.sim_start), clock.CyclesToUs(r.sim_end),
                 static_cast<long long>(r.host_start_ns), static_cast<long long>(r.host_end_ns));
  }
  std::fprintf(f, "# dropped\t%llu\n", static_cast<unsigned long long>(spans_.dropped()));
  std::fclose(f);
}

void SetLatencyMetrics(Harness& h, const SimClock& clock, const std::vector<uint64_t>& get,
                       const std::vector<uint64_t>& put, const std::vector<uint64_t>& req) {
  const std::pair<const char*, const std::vector<uint64_t>*> ops[] = {
      {"get", &get}, {"put", &put}, {"req", &req}};
  for (const auto& [op, samples] : ops) {
    const std::string name = op;
    h.SetEndToEnd(name + "_p50_us", clock.CyclesToUs(OrderStatistic(*samples, 50)));
    h.SetEndToEnd(name + "_p999_us", clock.CyclesToUs(OrderStatistic(*samples, 99.9)));
    h.SetEndToEnd(name + "_mean_us", Mean(*samples) / clock.ghz() / 1000.0);
    h.SetEndToEnd(name + "_trim_us", TrimmedMean(*samples, 99) / clock.ghz() / 1000.0);
    h.SetEndToEnd(name + "_tail_us", TailMean(*samples, 99.9) / clock.ghz() / 1000.0);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%s: %zu samples; highest percentile with >= 10 samples beyond: p%g", op,
                  samples->size(), HighestSupportedPercentile(samples->size()));
    h.Note(line);
  }
}

uint64_t JournalEvents(System& sys, TraceKind kind) {
  const HistogramRegistry* hist = sys.machine().observer().hist();
  uint64_t n = 0;
  for (uint32_t c = 0; c < kSizeClassCount; ++c) {
    n += hist->At(kind, static_cast<SizeClass>(c)).count();
  }
  return n;
}

namespace {

// One unpopulated baseline mmap of a 64 MiB file, simulated microseconds.
double UnpopulatedMmapUs(bool dax) {
  SystemConfig config;
  config.machine.dram_bytes = 1 * kGiB;
  config.machine.nvm_bytes = 1 * kGiB;
  System sys(config);
  auto proc = sys.Launch(Backend::kBaseline);
  O1_CHECK(proc.ok());
  FileSystem& fs =
      dax ? static_cast<FileSystem&>(sys.pmfs()) : static_cast<FileSystem&>(sys.tmpfs());
  auto fd = sys.Creat(**proc, fs, "/calib/file", FileFlags{.persistent = dax});
  O1_CHECK(fd.ok());
  O1_CHECK(sys.Ftruncate(**proc, *fd, 64 * kMiB).ok());
  const uint64_t start = sys.ctx().now();
  auto vaddr = sys.Mmap(**proc, MmapArgs{.length = 64 * kMiB, .fd = *fd});
  O1_CHECK(vaddr.ok());
  return sys.ctx().ElapsedUs(start);
}

}  // namespace

double CalibrationError() {
  const double tmpfs_err = std::abs(UnpopulatedMmapUs(false) - 8.0) / 8.0;
  const double dax_err = std::abs(UnpopulatedMmapUs(true) - 15.0) / 15.0;
  return std::max(tmpfs_err, dax_err);
}

void EnableKvTier(SystemConfig& config) {
  config.machine.tier.enabled = true;
  config.machine.tier.dram_cache_bytes = 32 * kMiB;
  config.machine.tier.aggregation_ticks = 8;
  config.machine.tier.min_region_bytes = 64 * kPageSize;
  config.machine.tier.min_regions = 16;
  config.machine.tier.max_regions = 64;
  config.machine.tier.hot_threshold = 2;
  config.machine.tier.promote_after = 1;
  config.machine.tier.demote_after = 8;
}

}  // namespace o1mem::perfbench
