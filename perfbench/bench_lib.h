// Host-independent pieces of the repository benchmark: exact order
// statistics, failure shares, seeded key streams, the simulated-state digest
// and the span recorder that times calls into each layer from outside.
//
// Everything here is plain C++ over the library's public types, so the
// benchmark's own tests (bench_lib_test.cc) exercise it without building a
// System.
#ifndef O1MEM_PERFBENCH_BENCH_LIB_H_
#define O1MEM_PERFBENCH_BENCH_LIB_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <time.h>

#include "src/sim/context.h"
#include "src/support/rng.h"
#include "src/support/zipf.h"

namespace o1mem::perfbench {

// --- Order statistics --------------------------------------------------------

// Nearest rank of the p-th percentile of n samples: ceil(p/100 * n),
// computed so that 99.9% of 1000 is exactly 999 (p/100 * n in floating
// point reads 999.0000000000001), clamped to [1, n].
inline size_t NearestRank(size_t n, double p) {
  const double exact = p * static_cast<double>(n) / 100.0;
  const size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9 * std::max(1.0, exact)));
  return std::clamp<size_t>(rank, 1, n);
}

// Exact order statistic: the smallest sample x such that at least p percent
// of the samples are <= x (nearest-rank). No interpolation, so the value is
// always one of the samples. 0 for an empty sample set.
inline uint64_t OrderStatistic(std::vector<uint64_t> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  const size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

// Mean of the samples beyond the p-th percentile's rank (the slowest
// n - ceil(p/100 * n) of them; at least the largest one). Unlike an order
// statistic it moves with every sample in the tail, so two seeds whose
// tails differ never read exactly alike. 0 for an empty sample set.
inline double TailMean(std::vector<uint64_t> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  const size_t n = samples.size();
  const size_t rank = std::min(n - 1, NearestRank(n, p));
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  double sum = 0;
  for (size_t i = rank; i < n; ++i) {
    sum += static_cast<double>(samples[i]);
  }
  return sum / static_cast<double>(n - rank);
}

// Mean of the samples up to the p-th percentile's rank (the slowest ones
// trimmed): the body of the distribution, unmoved by a handful of stalls.
inline double TrimmedMean(std::vector<uint64_t> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  const size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  double sum = 0;
  for (size_t i = 0; i < rank; ++i) {
    sum += static_cast<double>(samples[i]);
  }
  return sum / static_cast<double>(rank);
}

inline double Mean(const std::vector<uint64_t>& samples) {
  double sum = 0;
  for (uint64_t s : samples) {
    sum += static_cast<double>(s);
  }
  return samples.empty() ? 0 : sum / static_cast<double>(samples.size());
}

// The highest of the standard percentiles (50, 90, 99, 99.9, 99.99, ...)
// that still has at least `beyond` samples above its rank: with n samples
// the p-th percentile leaves n * (1 - p/100) samples beyond it. Returns 0
// when not even the median qualifies.
inline double HighestSupportedPercentile(uint64_t n, uint64_t beyond = 10) {
  double best = 0;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99, 99.999}) {
    const double tail = static_cast<double>(n) * (1.0 - p / 100.0);
    if (tail + 1e-9 >= static_cast<double>(beyond)) {
      best = p;
    }
  }
  return best;
}

// Requests that did not complete OK over requests attempted. A refused
// (shed, rejected) request counts as failed: it missed every latency limit.
inline double FailShare(uint64_t attempted, uint64_t completed_ok) {
  if (attempted == 0) {
    return 0;
  }
  const uint64_t ok = std::min(completed_ok, attempted);
  return static_cast<double>(attempted - ok) / static_cast<double>(attempted);
}

// --- Seeded key streams --------------------------------------------------------

enum class OpKind : uint8_t { kGet, kPut };

struct KeyOp {
  uint64_t key = 0;
  OpKind op = OpKind::kGet;
};

// Client request stream: keys drawn from `zipf` when given, else uniformly
// over `records`; op = put with probability `put_fraction`. The stream's
// Rng is seeded from (seed, stream id), so two streams of one run never
// share draws and the same seed replays the same keys.
class KeyStream {
 public:
  KeyStream(uint64_t records, const ZipfGenerator* zipf, double put_fraction, uint64_t seed,
            uint64_t stream_id)
      : records_(records), zipf_(zipf), put_fraction_(put_fraction),
        rng_(seed * 0x9e3779b97f4a7c15ULL + stream_id + 1) {}

  KeyOp Next() {
    KeyOp op;
    op.key = zipf_ != nullptr ? zipf_->Next(rng_) : rng_.NextBelow(records_);
    op.op = rng_.NextBool(put_fraction_) ? OpKind::kPut : OpKind::kGet;
    return op;
  }

 private:
  uint64_t records_;
  const ZipfGenerator* zipf_;
  double put_fraction_;
  Rng rng_;
};

// Record payload for (key, version): version 0 is the zero-filled record a
// fresh segment holds; any other version is a keyed word pattern, so a
// stale, torn or misplaced record never matches.
inline uint64_t RecordWord(uint64_t key, uint64_t version, size_t word) {
  if (version == 0) {
    return 0;
  }
  uint64_t z = key * 0xd1b54a32d192ed03ULL ^ (version + 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 31;
  return z + word * 0x9e3779b97f4a7c15ULL;
}

inline void FillRecord(uint64_t key, uint64_t version, std::span<uint8_t> out) {
  for (size_t w = 0; w * 8 < out.size(); ++w) {
    const uint64_t v = RecordWord(key, version, w);
    std::memcpy(out.data() + w * 8, &v, std::min<size_t>(8, out.size() - w * 8));
  }
}

inline bool RecordMatches(uint64_t key, uint64_t version, std::span<const uint8_t> data) {
  for (size_t w = 0; w * 8 < data.size(); ++w) {
    const uint64_t v = RecordWord(key, version, w);
    if (std::memcmp(data.data() + w * 8, &v, std::min<size_t>(8, data.size() - w * 8)) != 0) {
      return false;
    }
  }
  return true;
}

// --- Simulated-state digest ----------------------------------------------------

// FNV-1a over "name=value" lines. Only simulated quantities go in (sim-clock
// metrics, counter deltas, span call counts and simulated cycles), so a
// host-only change leaves it identical and any simulated change moves it.
class Digest {
 public:
  void Add(std::string_view name, uint64_t value) {
    Mix(name);
    Mix("=");
    Mix(std::to_string(value));
    Mix("\n");
  }
  void Add(std::string_view name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Mix(name);
    Mix("=");
    Mix(buf);
    Mix("\n");
  }
  uint64_t value() const { return hash_; }
  std::string Hex() const {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  void Mix(std::string_view s) {
    for (char c : s) {
      hash_ ^= static_cast<uint8_t>(c);
      hash_ *= 0x100000001b3ULL;
    }
  }
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// --- Span recorder -------------------------------------------------------------

inline int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time this process has run, ns. Unlike wall time it leaves out time
// the host gave to other work (other processes, or hypervisor steal), so
// the benchmark's host rates and set-up times use it.
inline int64_t HostCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// One recorded span: a timed call into a layer, both clocks.
struct SpanRecord {
  uint32_t name = 0;    // index into the recorder's name table
  uint32_t parent = 0;  // buffer index + 1 of the enclosing span, 0 = root
  uint64_t request = 0; // client request id (0 = not request-scoped)
  uint64_t sim_start = 0;
  uint64_t sim_end = 0;
  int64_t host_start_ns = 0;
  int64_t host_end_ns = 0;
};

// Per-name totals. Self time is the span's duration minus the part of it
// its direct children cover; children of one span never overlap here (one
// host thread, strict nesting), so "covered" is the sum of their durations.
struct SpanTotals {
  uint64_t calls = 0;
  uint64_t sim_cycles = 0;
  uint64_t sim_self_cycles = 0;
  int64_t host_ns = 0;
  int64_t host_self_ns = 0;
};

// Times calls into layers from outside the program. Simulated totals are
// always kept (they cost two clock reads of a plain counter and feed the
// digest, so traced and untraced runs hash alike); host clocks and the span
// buffer only when `traced`. The buffer has fixed capacity: once full,
// further spans are counted as dropped but still summed into the totals.
class SpanRecorder {
 public:
  SpanRecorder(std::vector<std::string> names, size_t capacity)
      : names_(std::move(names)), totals_(names_.size()), capacity_(capacity) {}

  void Bind(const SimContext* ctx) { ctx_ = ctx; }
  void SetTraced(bool traced) { traced_ = traced; }
  bool traced() const { return traced_; }
  void SetRequest(uint64_t request) { request_ = request; }

  // Opens a span on the bound context's clock (and the host clock when
  // traced). Spans must close in LIFO order.
  void Begin(uint32_t name) {
    BeginAt(name, ctx_ != nullptr ? ctx_->now() : 0, traced_ ? HostNowNs() : 0, traced_);
  }
  void End() { EndAt(ctx_ != nullptr ? ctx_->now() : 0, traced_ ? HostNowNs() : 0); }

  // The same at explicit clock values (tests drive these directly).
  void BeginAt(uint32_t name, uint64_t sim_start, int64_t host_start_ns, bool buffered = true) {
    Open open;
    open.name = name;
    open.sim_start = sim_start;
    open.host_start_ns = host_start_ns;
    open.slot = buffered ? Reserve() : -1;
    stack_.push_back(open);
  }
  void EndAt(uint64_t sim_end, int64_t host_end_ns) {
    const Open open = stack_.back();
    stack_.pop_back();
    Close(open, sim_end, host_end_ns);
  }

  const std::vector<std::string>& names() const { return names_; }
  const std::vector<SpanTotals>& totals() const { return totals_; }
  const std::vector<SpanRecord>& buffer() const { return buffer_; }
  uint64_t dropped() const { return dropped_; }
  bool idle() const { return stack_.empty(); }

  // Clears totals (not the buffer): the timed window starts here.
  void ResetTotals() { std::fill(totals_.begin(), totals_.end(), SpanTotals{}); }

  class Scope {
   public:
    Scope(SpanRecorder& rec, uint32_t name) : rec_(rec) { rec_.Begin(name); }
    ~Scope() { rec_.End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
  };

 private:
  struct Open {
    uint32_t name = 0;
    uint64_t sim_start = 0;
    int64_t host_start_ns = 0;
    int64_t slot = -1;  // buffer index, -1 = not buffered
    uint64_t child_sim = 0;
    int64_t child_host = 0;
  };

  int64_t Reserve() {
    if (buffer_.size() >= capacity_) {
      ++dropped_;
      return -1;
    }
    buffer_.emplace_back();
    return static_cast<int64_t>(buffer_.size() - 1);
  }

  void Close(const Open& open, uint64_t sim_end, int64_t host_end) {
    const uint64_t sim = sim_end - open.sim_start;
    const int64_t host = host_end - open.host_start_ns;
    SpanTotals& t = totals_[open.name];
    ++t.calls;
    t.sim_cycles += sim;
    t.sim_self_cycles += sim - std::min(sim, open.child_sim);
    t.host_ns += host;
    t.host_self_ns += host - std::min(host, open.child_host);
    if (!stack_.empty()) {
      stack_.back().child_sim += sim;
      stack_.back().child_host += host;
    }
    if (open.slot >= 0) {
      SpanRecord& r = buffer_[static_cast<size_t>(open.slot)];
      r.name = open.name;
      r.request = request_;
      r.sim_start = open.sim_start;
      r.sim_end = sim_end;
      r.host_start_ns = open.host_start_ns;
      r.host_end_ns = host_end;
      r.parent = 0;
      for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
        if (it->slot >= 0) {
          r.parent = static_cast<uint32_t>(it->slot + 1);
          break;
        }
      }
    }
  }

  std::vector<std::string> names_;
  std::vector<SpanTotals> totals_;
  std::vector<SpanRecord> buffer_;
  std::vector<Open> stack_;
  size_t capacity_;
  uint64_t dropped_ = 0;
  uint64_t request_ = 0;
  bool traced_ = false;
  const SimContext* ctx_ = nullptr;
};

}  // namespace o1mem::perfbench

#endif  // O1MEM_PERFBENCH_BENCH_LIB_H_
