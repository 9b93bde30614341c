// uniform_lifecycle: one closed-loop client living through repeated service
// lives over pre-created FOM persistent segments of 64 MiB .. 4 GiB. Each
// life: Crash; restart (Launch, OpenSegment, Map); a burst of 50/50
// get/put with uniform keys, each request allocating and freeing its buffer
// with SizeClassAllocator; a discardable cache segment written; a
// checkpoint (UserFlush of every record put this life); every few lives
// ReclaimFom and DeleteSegment of old caches.
//
// The working set dwarfs the DRAM cache, so the tier earns no hits and
// flushes force writebacks; restart is timed against segment size (the
// paper's O(1) claim).
#include "perfbench/harness.h"

#include <array>
#include <deque>

#include "src/os/malloc.h"

namespace o1mem::perfbench {

namespace {

constexpr uint64_t kRecordBytes = 1024;
constexpr std::array<uint64_t, 4> kSegmentBytes = {64 * kMiB, 256 * kMiB, 1 * kGiB, 4 * kGiB};
constexpr uint64_t kCacheBytes = 2 * kMiB;
constexpr uint64_t kCacheWriteBytes = 256 * kKiB;
constexpr double kPutFraction = 0.5;
constexpr uint64_t kTierTickEvery = 1024;
constexpr uint64_t kBurstRequests = 1500;
// 16 lives = 24000 requests: ~12k gets and ~12k puts (p999 keeps >= 10
// samples beyond it), every segment size restarted four times.
constexpr int kLives = 16;

std::string SegmentPath(size_t i) { return "/srv/state" + std::to_string(i); }

struct Segment {
  std::vector<uint32_t> version;  // shadow copy: latest flushed put per key
  std::vector<uint64_t> written;  // keys with at least one put, in put order
};

struct World {
  std::unique_ptr<System> sys;
  std::vector<Segment> segments;
  std::deque<std::string> caches;  // cache segments still on the device, oldest first
  uint64_t issued = 0;             // requests (TierTick cadence)
};

// One restart, crash to first request served, in simulated cycles.
struct Restart {
  size_t segment = 0;
  uint64_t reboot = 0;  // System::Crash: the machine comes back up
  uint64_t remap = 0;   // Launch + OpenSegment + Map
  uint64_t first = 0;   // the first request
  uint64_t total() const { return reboot + remap + first; }
};

struct Samples {
  std::vector<uint64_t> get, put, req;
  std::vector<Restart> restarts;
};

std::unique_ptr<World> SetUp(Harness& h) {
  auto w = std::make_unique<World>();
  SystemConfig config;
  config.machine.dram_bytes = 4 * kGiB;
  config.machine.nvm_bytes = 8 * kGiB;
  config.tmpfs_quota_bytes = 1 * kGiB;
  config.machine.obs.histograms = true;
  config.pmfs_zero_policy = ZeroPolicy::kZeroEpoch;
  EnableKvTier(config);
  w->sys = std::make_unique<System>(config);
  for (size_t i = 0; i < kSegmentBytes.size(); ++i) {
    auto seg = w->sys->fom().CreateSegment(SegmentPath(i), kSegmentBytes[i],
                                           SegmentOptions{.flags = FileFlags{.persistent = true}});
    if (!seg.ok()) {
      h.Fail("uniform_lifecycle: creating " + SegmentPath(i) + " failed");
      return nullptr;
    }
    w->segments.emplace_back();
    w->segments.back().version.assign(kSegmentBytes[i] / kRecordBytes, 0);
  }
  return w;
}

// One life on segment `seg`; false on a failed call or check. The
// read-back audit after restart is kept off both clocks: its simulated
// cycles and host time are added to `audit_cycles` / `audit_cpu_ns`.
bool Life(Harness& h, World& w, int life, size_t seg, KeyStream& stream, Samples& samples,
          uint64_t& audit_cycles, int64_t& audit_cpu_ns) {
  SpanRecorder& spans = h.spans();
  System& sys = *w.sys;
  Segment& state = w.segments[seg];
  const std::string where = "uniform_lifecycle life " + std::to_string(life) + ": ";
  Restart restart{.segment = seg};
  uint64_t stamp = sys.ctx().now();
  auto lap = [&sys, &stamp]() {
    const uint64_t now = sys.ctx().now();
    const uint64_t elapsed = now - stamp;
    stamp = now;
    return elapsed;
  };

  Process* proc = nullptr;
  Vaddr base = 0;
  {
    SpanRecorder::Scope restart_span(spans, kBenchRestart);
    Status crashed;
    {
      SpanRecorder::Scope s(spans, kSimCrash);
      crashed = sys.Crash();
    }
    restart.reboot = lap();
    Result<Process*> launched = Unsupported("not launched");
    {
      SpanRecorder::Scope s(spans, kOsLaunch);
      launched = sys.Launch(Backend::kFom);
    }
    Result<InodeId> opened = Unsupported("not opened");
    {
      SpanRecorder::Scope s(spans, kFomOpen);
      opened = sys.fom().OpenSegment(SegmentPath(seg));
    }
    if (!crashed.ok() || !launched.ok() || !opened.ok()) {
      h.Fail(where + "crash/launch/open failed");
      return false;
    }
    proc = *launched;
    Result<Vaddr> mapped = Unsupported("not mapped");
    {
      SpanRecorder::Scope s(spans, kFomMap);
      mapped = sys.fom().Map(proc->fom(), *opened, Prot::kReadWrite);
    }
    if (!mapped.ok()) {
      h.Fail(where + "map failed");
      return false;
    }
    base = *mapped;
    restart.remap = lap();
  }
  SizeClassAllocator alloc(&sys, proc);
  std::vector<uint64_t> dirty;
  std::array<uint8_t, kRecordBytes> buf;

  auto request = [&]() -> bool {
    spans.SetRequest(samples.req.size() + 1);
    const KeyOp op = stream.Next();
    const Vaddr addr = base + op.key * kRecordBytes;
    const bool put = op.op == OpKind::kPut;
    const uint32_t v = state.version[op.key] + (put ? 1 : 0);
    if (put) {
      FillRecord(op.key, v, buf);
    }
    bool ok = true;
    uint64_t get_cycles = 0;
    const uint64_t start = sys.ctx().now();
    {
      SpanRecorder::Scope req(spans, put ? kBenchPut : kBenchGet);
      Result<Vaddr> reqbuf = Unsupported("no buffer");
      {
        SpanRecorder::Scope s(spans, kOsMalloc);
        reqbuf = alloc.Malloc(kRecordBytes);
      }
      ok = reqbuf.ok();
      if (ok && put) {
        SpanRecorder::Scope s(spans, kOsUserWrite);
        ok = sys.UserWrite(*proc, *reqbuf, buf).ok() && sys.UserWrite(*proc, addr, buf).ok();
      } else if (ok) {
        const uint64_t get_start = sys.ctx().now();
        SpanRecorder::Scope s(spans, kOsUserRead);
        ok = sys.UserRead(*proc, addr, buf).ok();
        get_cycles = sys.ctx().now() - get_start;
      }
      if (ok) {
        SpanRecorder::Scope s(spans, kOsMalloc);
        ok = alloc.Free(*reqbuf).ok();
      }
    }
    const uint64_t latency = sys.ctx().now() - start;
    if (!ok || (!put && !RecordMatches(op.key, v, buf))) {
      return false;
    }
    if (put) {
      if (state.version[op.key] == 0) {
        state.written.push_back(op.key);
      }
      state.version[op.key] = v;
      dirty.push_back(op.key);
    }
    (put ? samples.put : samples.get).push_back(put ? latency : get_cycles);
    samples.req.push_back(latency);
    if (++w.issued % kTierTickEvery == 0) {
      SpanRecorder::Scope tick(spans, kTierTick);
      ok = sys.TierTick().ok();
    }
    return ok;
  };

  if (!request()) {
    h.Fail(where + "first request after restart failed");
    return false;
  }
  restart.first = lap();
  samples.restarts.push_back(restart);

  // Audit, off both clocks: every put flushed in an earlier life reads back.
  const int64_t audit_host = HostCpuNs();
  const uint64_t audit_sim = sys.ctx().now();
  for (uint64_t key : state.written) {
    if (!sys.UserRead(*proc, base + key * kRecordBytes, buf).ok() ||
        !RecordMatches(key, state.version[key], buf)) {
      h.Fail(where + "record " + std::to_string(key) + " of " + SegmentPath(seg) +
             " lost an acknowledged, flushed put across the crash");
      return false;
    }
  }
  audit_cycles += sys.ctx().now() - audit_sim;
  audit_cpu_ns += HostCpuNs() - audit_host;

  for (uint64_t i = 1; i < kBurstRequests; ++i) {
    if (!request()) {
      h.Fail(where + "request " + std::to_string(i) +
             " failed or read data that differs from the shadow copy");
      return false;
    }
  }

  // A discardable cache segment, written.
  const std::string cache = "/srv/cache" + std::to_string(life);
  Result<InodeId> created = Unsupported("not created");
  {
    SpanRecorder::Scope s(spans, kFomCreate);
    created = sys.fom().CreateSegment(
        cache, kCacheBytes,
        SegmentOptions{.flags = FileFlags{.persistent = true, .discardable = true}});
  }
  if (!created.ok()) {
    h.Fail(where + "creating " + cache + " failed");
    return false;
  }
  w.caches.push_back(cache);
  Result<Vaddr> cache_map = Unsupported("not mapped");
  {
    SpanRecorder::Scope s(spans, kFomMap);
    cache_map = sys.fom().Map(proc->fom(), *created, Prot::kReadWrite);
  }
  std::vector<uint8_t> cache_data(kCacheWriteBytes, static_cast<uint8_t>(life));
  bool ok = cache_map.ok();
  if (ok) {
    SpanRecorder::Scope s(spans, kOsUserWrite);
    ok = sys.UserWrite(*proc, *cache_map, cache_data).ok();
  }

  // Checkpoint: flush every record put this life.
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  for (uint64_t key : dirty) {
    SpanRecorder::Scope s(spans, kOsUserFlush);
    ok = ok && sys.UserFlush(*proc, base + key * kRecordBytes, kRecordBytes).ok();
  }

  // Housekeeping every few lives: pressure reclaim drops the least recently
  // used unmapped caches (this life's is mapped); an old one is deleted.
  if (ok && life % 4 == 3) {
    SpanRecorder::Scope s(spans, kMmReclaim);
    ok = sys.ReclaimFom(2 * kCacheBytes).ok();
  }
  std::erase_if(w.caches, [&sys](const std::string& path) {
    return !sys.pmfs().LookupPath(path).ok();
  });
  if (ok && life % 4 == 1 && w.caches.size() > 1) {
    SpanRecorder::Scope s(spans, kFomDelete);
    ok = sys.fom().DeleteSegment(w.caches.front()).ok();
    w.caches.pop_front();
  }
  if (!ok) {
    h.Fail(where + "cache, checkpoint or reclaim step failed");
    return false;
  }
  return true;
}

}  // namespace

void UniformLifecycleRepetition(Harness& h) {
  std::unique_ptr<World> world = SetUp(h);
  if (world == nullptr) {
    return;
  }
  World& w = *world;
  SimContext& ctx = w.sys->ctx();
  std::vector<KeyStream> streams;
  for (size_t i = 0; i < kSegmentBytes.size(); ++i) {
    streams.emplace_back(kSegmentBytes[i] / kRecordBytes, nullptr, kPutFraction,
                         h.options().seed, 1 + i);
  }
  // Lives visit the segments in seeded order, each size once per 4 lives.
  Rng order_rng(h.options().seed * 0x9e3779b97f4a7c15ULL + 7);
  std::array<size_t, 4> order = {0, 1, 2, 3};

  Samples samples;
  const EventCounters counters_before = ctx.counters();
  const uint64_t commits_before = JournalEvents(*w.sys, TraceKind::kJournalCommit);
  const uint64_t replays_before = JournalEvents(*w.sys, TraceKind::kJournalReplay);
  const uint64_t sim_start = ctx.now();
  uint64_t audit_cycles = 0;
  int64_t audit_cpu_ns = 0;
  h.BeginTimed(ctx);
  for (int life = 0; life < kLives; ++life) {
    if (life % 4 == 0) {
      for (size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[order_rng.NextBelow(i + 1)]);
      }
    }
    const size_t seg = order[static_cast<size_t>(life % 4)];
    if (!Life(h, w, life, seg, streams[seg], samples, audit_cycles, audit_cpu_ns)) {
      h.CountRequests(samples.req.size() + 1, 1);
      return;
    }
  }
  const SimClock& clock = ctx.clock();
  const double sim_s = clock.CyclesToUs(ctx.now() - sim_start - audit_cycles) * 1e-6;
  SetLatencyMetrics(h, clock, samples.get, samples.put, samples.req);
  const uint64_t requests = samples.req.size();
  h.SetEndToEnd("sim_req_per_s", static_cast<double>(requests) / sim_s);
  uint64_t restart_max = 0;
  h.Note("\nrestart by segment size (slowest of its lives, simulated us):");
  h.Note("  segment    reboot     remap     first     total");
  for (size_t i = 0; i < kSegmentBytes.size(); ++i) {
    const Restart* slowest = nullptr;
    for (const Restart& r : samples.restarts) {
      if (r.segment == i && (slowest == nullptr || r.total() > slowest->total())) {
        slowest = &r;
      }
    }
    restart_max = std::max(restart_max, slowest->total());
    char line[128];
    std::snprintf(line, sizeof(line), "  %5llu MiB %9.3f %9.3f %9.3f %9.3f",
                  static_cast<unsigned long long>(kSegmentBytes[i] / kMiB),
                  clock.CyclesToUs(slowest->reboot), clock.CyclesToUs(slowest->remap),
                  clock.CyclesToUs(slowest->first), clock.CyclesToUs(slowest->total()));
    h.Note(line);
  }
  h.SetEndToEnd("restart_max_us", clock.CyclesToUs(restart_max));
  h.SetEndToEnd("fail_share", FailShare(requests, requests));
  uint64_t written = 0;
  for (const Segment& s : w.segments) {
    written += s.written.size();
  }
  const TierOccupancy occ = w.sys->Occupancy();
  h.SetEndToEnd("space_amp", static_cast<double>(occ.nvm_used_bytes + occ.dram_used_bytes) /
                                 static_cast<double>(written * kRecordBytes));
  h.AddCounters(ctx.counters().Delta(counters_before), requests);
  h.SetLayer("fs.journal_commits", static_cast<double>(
                                       JournalEvents(*w.sys, TraceKind::kJournalCommit) -
                                       commits_before));
  h.SetLayer("fs.journal_replays", static_cast<double>(
                                       JournalEvents(*w.sys, TraceKind::kJournalReplay) -
                                       replays_before));
  h.CountRequests(requests, 0);
  h.EndTimed(requests, clock, audit_cpu_ns);
}

}  // namespace o1mem::perfbench
