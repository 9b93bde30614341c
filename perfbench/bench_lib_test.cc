// Tests of the benchmark's own arithmetic: exact order statistics and the
// "enough samples beyond" rule, fail_share counting refusals, seeded key
// generators, record patterns, the digest, and span self time.
//
// Plain asserts (no test framework), so the benchmark package builds with
// nothing beyond the library. Run: perfbench_test (exit 0 = all passed).
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/bench_lib.h"

namespace o1mem::perfbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                        \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                         \
    }                                                                       \
  } while (0)

std::vector<uint64_t> Range(uint64_t lo, uint64_t hi) {
  std::vector<uint64_t> v;
  for (uint64_t x = hi; x >= lo; --x) {  // descending: order must not matter
    v.push_back(x);
  }
  return v;
}

void OrderStatisticsAreExactSamples() {
  EXPECT(OrderStatistic({}, 50) == 0);
  EXPECT(OrderStatistic({5, 1, 4, 2, 3}, 50) == 3);
  EXPECT(OrderStatistic({5, 1, 4, 2, 3}, 100) == 5);
  EXPECT(OrderStatistic({5, 1, 4, 2, 3}, 0) == 1);
  EXPECT(OrderStatistic({7}, 99.9) == 7);
  // Nearest rank: ceil(p/100 * n), never interpolated.
  EXPECT(OrderStatistic(Range(1, 1000), 99.9) == 999);
  EXPECT(OrderStatistic(Range(1, 10000), 99.9) == 9990);
  EXPECT(OrderStatistic(Range(1, 10000), 50) == 5000);
  EXPECT(OrderStatistic({10, 20}, 50) == 10);
  EXPECT(OrderStatistic({10, 20}, 50.1) == 20);
}

void HighestPercentileNeedsTenSamplesBeyond() {
  EXPECT(HighestSupportedPercentile(10000) == 99.9);   // exactly 10 beyond
  EXPECT(HighestSupportedPercentile(9999) == 99.0);    // 9.999 beyond p99.9
  EXPECT(HighestSupportedPercentile(1000) == 99.0);
  EXPECT(HighestSupportedPercentile(100000) == 99.99);
  EXPECT(HighestSupportedPercentile(20) == 50.0);
  EXPECT(HighestSupportedPercentile(19) == 0.0);       // 9.5 beyond the median
  EXPECT(HighestSupportedPercentile(1000, 1) == 99.9);
}

void TailMeanAveragesBeyondTheRank() {
  EXPECT(TailMean({}, 99.9) == 0);
  EXPECT(TailMean(Range(1, 1000), 99.9) == 1000.0);
  EXPECT(TailMean(Range(1, 1000), 99.0) == 995.5);  // mean of 991..1000
  EXPECT(TailMean({4, 4, 4, 4}, 99.9) == 4.0);
  EXPECT(Mean({1, 2, 3, 6}) == 3.0);
}

void FailShareCountsRefusals() {
  EXPECT(FailShare(0, 0) == 0);
  EXPECT(FailShare(100, 100) == 0);
  EXPECT(FailShare(100, 97) == 0.03);
  // 10 attempted: 7 served in time, 2 shed, 1 rejected -> 3 failed.
  EXPECT(FailShare(10, 7) == 0.3);
  EXPECT(FailShare(10, 12) == 0);  // completions never exceed attempts
}

void KeyStreamsReplayUnderASeed() {
  const ZipfGenerator zipf(1000, 0.99);
  for (const ZipfGenerator* gen : {static_cast<const ZipfGenerator*>(nullptr), &zipf}) {
    KeyStream a(1000, gen, 0.3, 42, 0);
    KeyStream b(1000, gen, 0.3, 42, 0);
    KeyStream other_seed(1000, gen, 0.3, 43, 0);
    KeyStream other_stream(1000, gen, 0.3, 42, 1);
    int same = 0;
    int diff_seed = 0;
    int diff_stream = 0;
    int puts = 0;
    for (int i = 0; i < 10000; ++i) {
      const KeyOp x = a.Next();
      const KeyOp y = b.Next();
      const KeyOp s = other_seed.Next();
      const KeyOp t = other_stream.Next();
      same += x.key == y.key && x.op == y.op ? 1 : 0;
      diff_seed += x.key != s.key ? 1 : 0;
      diff_stream += x.key != t.key ? 1 : 0;
      puts += x.op == OpKind::kPut ? 1 : 0;
      EXPECT(x.key < 1000);
    }
    EXPECT(same == 10000);
    EXPECT(diff_seed > 5000);
    EXPECT(diff_stream > 5000);
    EXPECT(puts > 2700 && puts < 3300);
  }
}

void RecordPatternsIdentifyKeyAndVersion() {
  std::vector<uint8_t> rec(1024);
  FillRecord(7, 3, rec);
  EXPECT(RecordMatches(7, 3, rec));
  EXPECT(!RecordMatches(7, 2, rec));
  EXPECT(!RecordMatches(8, 3, rec));
  EXPECT(!RecordMatches(7, 0, rec));
  rec[517] ^= 1;  // one torn byte
  EXPECT(!RecordMatches(7, 3, rec));
  FillRecord(7, 0, rec);
  EXPECT(RecordMatches(7, 0, rec));
  EXPECT(RecordMatches(12345, 0, rec));  // version 0 is the zero-filled record
}

void DigestSeesEveryValueAndOrder() {
  auto hex = [](std::initializer_list<std::pair<const char*, uint64_t>> items) {
    Digest d;
    for (const auto& [name, value] : items) {
      d.Add(name, value);
    }
    return d.Hex();
  };
  EXPECT(hex({{"a", 1}, {"b", 2}}) == hex({{"a", 1}, {"b", 2}}));
  EXPECT(hex({{"a", 1}, {"b", 2}}) != hex({{"a", 1}, {"b", 3}}));
  EXPECT(hex({{"a", 1}, {"b", 2}}) != hex({{"b", 2}, {"a", 1}}));
  EXPECT(hex({{"a", 12}}) != hex({{"a1", 2}}));
  Digest x;
  Digest y;
  x.Add("v", 0.1 + 0.2);
  y.Add("v", 0.3);
  EXPECT(x.value() != y.value());  // full precision, not a rounded print
}

void SpanSelfTimeSubtractsChildren() {
  // parent [0,100] > a [10,30] > g [15,20]; parent > b [40,70].
  SpanRecorder rec({"parent", "a", "b", "g"}, 16);
  rec.BeginAt(0, 0, 1000);
  rec.BeginAt(1, 10, 1010);
  rec.BeginAt(3, 15, 1015);
  rec.EndAt(20, 1020);
  rec.EndAt(30, 1030);
  rec.BeginAt(2, 40, 1040);
  rec.EndAt(70, 1070);
  rec.EndAt(100, 1100);
  EXPECT(rec.idle());
  const auto& t = rec.totals();
  EXPECT(t[0].calls == 1 && t[0].sim_cycles == 100);
  EXPECT(t[0].sim_self_cycles == 50);  // 100 - (20 + 30)
  EXPECT(t[0].host_self_ns == 50);
  EXPECT(t[1].sim_cycles == 20 && t[1].sim_self_cycles == 15);  // 20 - 5
  EXPECT(t[2].sim_self_cycles == 30);
  EXPECT(t[3].sim_self_cycles == 5);
  // Buffer order is open order; parent links are buffer index + 1.
  const auto& buf = rec.buffer();
  EXPECT(buf.size() == 4);
  EXPECT(buf[0].name == 0 && buf[0].parent == 0);
  EXPECT(buf[1].name == 1 && buf[1].parent == 1);
  EXPECT(buf[2].name == 3 && buf[2].parent == 2);
  EXPECT(buf[3].name == 2 && buf[3].parent == 1);
  EXPECT(rec.dropped() == 0);
}

void FullSpanBufferDropsButStillCounts() {
  SpanRecorder rec({"s"}, 2);
  for (uint64_t i = 0; i < 5; ++i) {
    rec.BeginAt(0, i * 10, 0);
    rec.EndAt(i * 10 + 3, 0);
  }
  EXPECT(rec.buffer().size() == 2);
  EXPECT(rec.dropped() == 3);
  EXPECT(rec.totals()[0].calls == 5 && rec.totals()[0].sim_cycles == 15);
  rec.ResetTotals();
  EXPECT(rec.totals()[0].calls == 0);
}

}  // namespace
}  // namespace o1mem::perfbench

int main() {
  using namespace o1mem::perfbench;
  OrderStatisticsAreExactSamples();
  HighestPercentileNeedsTenSamplesBeyond();
  TailMeanAveragesBeyondTheRank();
  FailShareCountsRefusals();
  KeyStreamsReplayUnderASeed();
  RecordPatternsIdentifyKeyAndVersion();
  DigestSeesEveryValueAndOrder();
  SpanSelfTimeSubtractsChildren();
  FullSpanBufferDropsButStillCounts();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_test: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
