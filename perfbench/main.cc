// perfbench_driver: runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload <zipf_hot|uniform_lifecycle|overload_chaos>
//                    --seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]
//
// Prints the end-to-end table (every metric with unit and clock; "n/a"
// where the workload does not define it), with --trace 1 the per-layer
// metrics and each layer's self time on both clocks, then the
// simulated-state digest, and last one JSON line:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// whose metrics are the end-to-end set BENCHMARK.json gates (--trace 0) or every
// per-layer metric (--trace 1). A failed correctness check prints what
// failed on stderr and exits 1 with no JSON line.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/harness.h"

namespace o1mem::perfbench {
namespace {

// End-to-end metrics in the JSON line (BENCHMARK.json lists exactly
// these): the ones every workload defines, never 0, and steady across seeds
// to well within their bounds. The simulated rest are exact functions of
// the seed and are held fixed by the digest instead; host_req_per_s swings
// with other tenants' cache and memory traffic by more than any bound
// allows (see README.md).
const std::vector<std::string> kGatedEndToEnd = {
    "req_trim_us", "ok_share", "calib_err", "setup_s",
};

bool ParseArgs(int argc, char** argv, Options& o) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.traced = value == "1";
    } else if (flag == "--spans-out") {
      o.span_out = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void PrintEndToEnd(const Harness& h) {
  std::printf("\n%-16s %14s  %-6s %-5s %-7s\n", "end-to-end", "value", "unit", "clock", "better");
  for (const EndToEndDef& def : EndToEndDefs()) {
    auto it = h.end_to_end().find(def.name);
    std::printf("%-16s %14s  %-6s %-5s %-7s\n", def.name,
                it == h.end_to_end().end() ? "n/a" : Num(it->second).c_str(), def.unit, def.clock,
                def.better);
  }
}

void PrintLayers(const Harness& h) {
  const auto& layer = h.layer();
  std::printf("\n%-16s %10s %14s %14s %12s %12s\n", "span", "calls", "sim_us", "self_sim_us",
              "host_ms", "self_host_ms");
  for (const std::string& name : SpanNames()) {
    const double sim = layer.at(name + ".sim_us");
    const double host = layer.at(name + ".host_ms");
    // A layer call's span has no children: its self time is its total.
    auto self = [&](const char* what, double total) {
      auto it = layer.find(name + what);
      return it == layer.end() ? total : it->second;
    };
    std::printf("%-16s %10.0f %14.3f %14.3f %12.3f %12.3f\n", name.c_str(),
                layer.at(name + ".calls"), sim, self(".self_sim_us", sim), host,
                self(".self_host_ms", host));
  }
  std::printf("\n%-28s %16s  %s\n", "per-layer", "value", "unit");
  for (const MetricDef& def : LayerMetricDefs()) {
    std::printf("%-28s %16s  %s\n", def.name.c_str(), Num(layer.at(def.name)).c_str(),
                def.unit.c_str());
  }
}

void PrintJson(const Harness& h) {
  std::string metrics;
  auto add = [&metrics](const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + name + "\": {\"value\": " +
               buf + ", \"unit\": \"" + unit + "\"}";
  };
  if (h.options().traced) {
    for (const MetricDef& def : LayerMetricDefs()) {
      add(def.name, h.layer().at(def.name), def.unit);
    }
  } else {
    for (const std::string& name : kGatedEndToEnd) {
      for (const EndToEndDef& def : EndToEndDefs()) {
        if (name == def.name) {
          add(name, h.end_to_end().at(name), def.unit);
        }
      }
    }
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              static_cast<unsigned long long>(h.attempted()),
              static_cast<unsigned long long>(h.failed()), metrics.c_str());
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <zipf_hot|uniform_lifecycle|overload_chaos> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]\n");
    return 2;
  }
  void (*repetition)(Harness&) = nullptr;
  if (options.workload == "zipf_hot") {
    repetition = ZipfHotRepetition;
  } else if (options.workload == "uniform_lifecycle") {
    repetition = UniformLifecycleRepetition;
  } else if (options.workload == "overload_chaos") {
    repetition = OverloadChaosRepetition;
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  // Pin glibc's mmap threshold at its default. Left dynamic, it rises after
  // the first repetition frees its simulated memory, later repetitions then
  // take those large zero-filled blocks from the heap instead of fresh
  // mmap pages, and touch all of them (RSS grew 0.6 -> 3.5 GiB).
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  // Calibration is measured once, before the set-ups it is not part of.
  const double calib_err = CalibrationError();
  Harness h(options);
  while (h.WantRepetition()) {
    h.BeginRepetition();
    repetition(h);
  }
  if (!h.correct() || h.failed() != 0) {
    for (const std::string& f : h.failures()) {
      std::fprintf(stderr, "perfbench: FAILED: %s\n", f.c_str());
    }
    return 1;
  }
  h.Finish(calib_err);
  for (const std::string& name : kGatedEndToEnd) {
    if (h.end_to_end().count(name) == 0) {
      std::fprintf(stderr, "perfbench: %s does not define %s\n", options.workload.c_str(),
                   name.c_str());
      return 1;
    }
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d: %d repetitions, %llu requests\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.traced ? 1 : 0, h.repetitions(),
              static_cast<unsigned long long>(h.attempted()));
  for (const std::string& line : h.notes()) {
    std::printf("%s\n", line.c_str());
  }
  PrintEndToEnd(h);
  if (options.traced) {
    PrintLayers(h);
  }
  std::printf("\nsim_digest %s\n", h.DigestHex().c_str());
  PrintJson(h);
  return 0;
}

}  // namespace
}  // namespace o1mem::perfbench

int main(int argc, char** argv) { return o1mem::perfbench::Main(argc, argv); }
