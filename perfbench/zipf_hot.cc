// zipf_hot: one closed-loop client, 70/30 get/put of 1 KiB records with
// zipf theta = 0.99 over a FOM persistent segment, DRAM tier on (the
// app_kv_service --tier=on settings) with System::TierTick every 1024
// requests. Warm-up runs in set-up until the tier has promoted the head.
//
// The per-request hot path: syscall-free user loads/stores through
// translation and media, with the zipf head served from the DRAM cache.
#include "perfbench/harness.h"

#include <array>

namespace o1mem::perfbench {

namespace {

// 64 MiB: with the app_kv_service tier settings (16..64 monitoring
// regions) the access monitor finds the zipf head reliably only on a small
// segment. Over 1 GiB it promotes nothing in 2 Mi requests; at 128 and 256
// MiB some seeds run hundreds of thousands of requests with no DRAM hit.
// At 64 MiB every seed tried serves 50-90% of requests from DRAM.
constexpr uint64_t kSegmentBytes = 64 * kMiB;
constexpr uint64_t kRecordBytes = 1024;
constexpr uint64_t kRecords = kSegmentBytes / kRecordBytes;
constexpr double kPutFraction = 0.3;
constexpr double kTheta = 0.99;
constexpr uint64_t kTierTickEvery = 1024;
constexpr uint64_t kWarmupRequests = 256 * 1024;
// 4 Mi timed requests. The tier keeps cycling between promoting the head
// (~55% DRAM hits) and a wider set (~93%); 4 Mi requests average enough
// cycles that the trimmed mean differs by ~3% across seeds (1 Mi: ~5%).
constexpr uint64_t kTimedRequests = 4 * 1024 * 1024;

struct Client {
  std::unique_ptr<System> sys;
  Process* proc = nullptr;
  Vaddr base = 0;
  std::unique_ptr<KeyStream> stream;
  std::vector<uint32_t> version;  // shadow copy: latest acknowledged put per key
  uint64_t issued = 0;            // requests since launch (TierTick cadence)
  uint64_t written_records = 0;   // keys with at least one put
};

struct Samples {
  std::vector<uint64_t> get, put, req;
};

// One request; returns false on a failed call or a wrong read. Every
// kTierTickEvery requests it also runs the tier's background tick, whose
// host CPU time is added to `tick_cpu_ns`.
bool Request(Harness& h, Client& c, Samples* samples, int64_t& tick_cpu_ns) {
  SpanRecorder& spans = h.spans();
  SimContext& ctx = c.sys->ctx();
  const KeyOp op = c.stream->Next();
  const Vaddr addr = c.base + op.key * kRecordBytes;
  std::array<uint8_t, kRecordBytes> buf;
  bool ok = true;
  const uint64_t start = ctx.now();
  if (op.op == OpKind::kPut) {
    const uint32_t v = c.version[op.key] + 1;
    FillRecord(op.key, v, buf);
    {
      SpanRecorder::Scope req(spans, kBenchPut);
      SpanRecorder::Scope call(spans, kOsUserWrite);
      ok = c.sys->UserWrite(*c.proc, addr, buf).ok();
    }
    if (ok) {
      c.written_records += c.version[op.key] == 0 ? 1 : 0;
      c.version[op.key] = v;
    }
  } else {
    {
      SpanRecorder::Scope req(spans, kBenchGet);
      SpanRecorder::Scope call(spans, kOsUserRead);
      ok = c.sys->UserRead(*c.proc, addr, buf).ok();
    }
    ok = ok && RecordMatches(op.key, c.version[op.key], buf);
  }
  const uint64_t latency = ctx.now() - start;
  if (samples != nullptr) {
    (op.op == OpKind::kPut ? samples->put : samples->get).push_back(latency);
    samples->req.push_back(latency);
  }
  if (++c.issued % kTierTickEvery == 0) {
    const int64_t tick_start = HostCpuNs();
    {
      SpanRecorder::Scope tick(spans, kTierTick);
      ok = c.sys->TierTick().ok() && ok;
    }
    tick_cpu_ns += HostCpuNs() - tick_start;
  }
  return ok;
}

// Set-up: machine, segment, process, mapping, then the warm-up.
std::unique_ptr<Client> SetUp(Harness& h, const ZipfGenerator& zipf) {
  auto c = std::make_unique<Client>();
  SystemConfig config;
  config.machine.dram_bytes = 4 * kGiB;
  config.machine.nvm_bytes = 4 * kGiB;
  config.tmpfs_quota_bytes = 1 * kGiB;
  config.machine.obs.histograms = true;  // journal counts (fs.journal_*)
  config.pmfs_zero_policy = ZeroPolicy::kZeroEpoch;
  EnableKvTier(config);
  c->sys = std::make_unique<System>(config);
  System& sys = *c->sys;
  auto seg = sys.fom().CreateSegment("/srv/state", kSegmentBytes,
                                     SegmentOptions{.flags = FileFlags{.persistent = true}});
  auto proc = sys.Launch(Backend::kFom);
  if (!seg.ok() || !proc.ok()) {
    h.Fail("zipf_hot: segment creation or launch failed");
    return nullptr;
  }
  c->proc = *proc;
  auto mapped = sys.fom().Map(c->proc->fom(), *seg, Prot::kReadWrite);
  if (!mapped.ok()) {
    h.Fail("zipf_hot: map failed");
    return nullptr;
  }
  c->base = *mapped;
  c->stream = std::make_unique<KeyStream>(kRecords, &zipf, kPutFraction, h.options().seed, 0);
  c->version.assign(kRecords, 0);
  int64_t tick_cpu_ns = 0;
  // Warm-up: long enough for the monitor to find the zipf head; it must be
  // serving DRAM hits over the last quarter.
  uint64_t hits_before = 0;
  for (uint64_t i = 0; i < kWarmupRequests; ++i) {
    if (i == kWarmupRequests * 3 / 4) {
      hits_before = sys.ctx().counters().tier_hot_hits_dram;
    }
    if (!Request(h, *c, nullptr, tick_cpu_ns)) {
      h.Fail("zipf_hot: warm-up request failed");
      return nullptr;
    }
  }
  if (sys.ctx().counters().tier_hot_hits_dram == hits_before) {
    h.Fail("zipf_hot: the tier served no DRAM hits at the end of warm-up");
    return nullptr;
  }
  return c;
}

}  // namespace

void ZipfHotRepetition(Harness& h) {
  const ZipfGenerator zipf(kRecords, kTheta);
  std::unique_ptr<Client> client = SetUp(h, zipf);
  if (client == nullptr) {
    return;
  }
  Client& c = *client;
  SimContext& ctx = c.sys->ctx();
  Samples samples;
  samples.get.reserve(kTimedRequests);
  samples.put.reserve(kTimedRequests);
  samples.req.reserve(kTimedRequests);
  const EventCounters counters_before = ctx.counters();
  const uint64_t commits_before = JournalEvents(*c.sys, TraceKind::kJournalCommit);
  const uint64_t replays_before = JournalEvents(*c.sys, TraceKind::kJournalReplay);
  const uint64_t sim_start = ctx.now();
  int64_t tick_cpu_ns = 0;
  h.BeginTimed(ctx);
  for (uint64_t i = 0; i < kTimedRequests; ++i) {
    h.spans().SetRequest(i + 1);
    if (!Request(h, c, &samples, tick_cpu_ns)) {
      h.Fail("zipf_hot: request " + std::to_string(i) +
             " failed or read data that differs from the shadow copy");
      h.CountRequests(i + 1, 1);
      return;
    }
  }
  h.spans().SetRequest(0);
  const double sim_s = ctx.ElapsedUs(sim_start) * 1e-6;
  SetLatencyMetrics(h, ctx.clock(), samples.get, samples.put, samples.req);
  h.SetEndToEnd("sim_req_per_s", static_cast<double>(kTimedRequests) / sim_s);
  h.SetEndToEnd("fail_share", FailShare(kTimedRequests, kTimedRequests));
  const TierOccupancy occ = c.sys->Occupancy();
  h.SetEndToEnd("space_amp", static_cast<double>(occ.nvm_used_bytes + occ.dram_used_bytes) /
                                 static_cast<double>(c.written_records * kRecordBytes));
  h.AddCounters(ctx.counters().Delta(counters_before), kTimedRequests);
  h.SetLayer("fs.journal_commits", static_cast<double>(
                                       JournalEvents(*c.sys, TraceKind::kJournalCommit) -
                                       commits_before));
  h.SetLayer("fs.journal_replays", static_cast<double>(
                                       JournalEvents(*c.sys, TraceKind::kJournalReplay) -
                                       replays_before));
  h.CountRequests(kTimedRequests, 0);
  // Host rate of the request loop: how often the tier migrates (and so what
  // its ticks cost) depends on the seed; that time is tier.tick.host_ms.
  h.EndTimed(kTimedRequests, ctx.clock(), tick_cpu_ns);
}

}  // namespace o1mem::perfbench
