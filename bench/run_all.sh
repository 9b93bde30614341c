#!/usr/bin/env bash
# Produces every bench output CI checks: one BENCH_<name>.json per row below
# (plus the TRACE_<name>.json files named there), written at the repo root
# (override with OUT_DIR).
# Binaries are looked up in BUILD_DIR/bench (default: build/bench). Set
# O1MEM_BENCH_SMALL=1 for the quick CI smoke; bench/baseline/ holds that
# run, and `tools/bench_diff.py --identical bench/baseline OUT_DIR` checks a
# fresh one against it.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build}"
OUT_DIR="${OUT_DIR:-$ROOT}"
mkdir -p "$OUT_DIR"

count=0
# run NAME BINARY [ARGS...]: one output, BENCH_NAME.json.
run() {
  local name="$1" bin="$BUILD_DIR/bench/$2"
  shift 2
  if [[ ! -x "$bin" ]]; then
    echo "missing bench binary: $bin (run cmake --build $BUILD_DIR first)" >&2
    exit 1
  fi
  echo "=== $name ==="
  "$bin" "--json=$OUT_DIR/BENCH_$name.json" "$@"
  count=$((count + 1))
}

# The fig1a, malloc and fragmentation traces (Chrome trace_event JSON,
# Perfetto-loadable) are inputs for trace_report.py's O(1) verdicts in CI.
run fig1a_mmap_cost          fig1a_mmap_cost --trace="$OUT_DIR/TRACE_fig1a_mmap_cost.json"
run fig1b_touch_pages        fig1b_touch_pages
run fig2_alloc_anon_vs_pmfs  fig2_alloc_anon_vs_pmfs
run fig3_shared_mappings     fig3_shared_mappings
run fig8_pbm                 fig8_pbm
run fig9_range_translation   fig9_range_translation
run sec43_read_vs_mmap       sec43_read_vs_mmap
run abl_zeroing              abl_zeroing
run abl_reclaim              abl_reclaim
run abl_metadata             abl_metadata
run abl_hugepages            abl_hugepages
run abl_virt_walks           abl_virt_walks
run abl_pinning              abl_pinning
run abl_fork                 abl_fork
run abl_runtime              abl_runtime
run abl_recovery             abl_recovery
run abl_overload             abl_overload
# The 0.5x-3x sweep composed with a kill+hang campaign at 2x (clean sheds,
# zero lost; O1_CHECKs in the binary gate it).
run abl_overload_campaign    abl_overload --campaign=default
run abl_smp_scaling          abl_smp_scaling
run abl_tiering              abl_tiering
run abl_malloc_wcet          abl_malloc_wcet --trace="$OUT_DIR/TRACE_abl_malloc_wcet.json"
run abl_fragmentation        abl_fragmentation --trace="$OUT_DIR/TRACE_abl_fragmentation.json"
# Burst arrival over capacity gives the tail structure (admission waits,
# client retries) worth attributing; the trace is tail_explainer.py's input
# in CI, and --trace arms the exemplar reservoir + per-tick metrics ring.
run app_kv_service           app_kv_service --arrival=burst:24x40 \
                               --trace="$OUT_DIR/TRACE_app_kv_service.json"
# Default mode: the phase table (zipfian ops, crash restart and the FOM
# pressure phase that reclaims discardable files), tier off and on.
run app_kv_phases            app_kv_service --tier=off
run app_kv_phases_tier       app_kv_service --tier=on
# Chaos campaigns must run to completion with zero lost requests (the binary
# exits nonzero otherwise). The canned one kills, hangs and poisons; the
# second also crashes the machine, replaying the machine-wide branch of
# ShardedKvService::Recover.
run app_kv_chaos             app_kv_service --shards=4 --campaign=default
run app_kv_crash             app_kv_service --shards=4 \
                               "--campaign=crash@300; kill@100:0; poison@50:r!; poison@every80:r"
# Open-loop poisson arrivals composed with the canned campaign.
run app_kv_overload          app_kv_service --shards=4 --arrival=poisson:32 --campaign=default

echo "wrote $count JSON files to $OUT_DIR"
