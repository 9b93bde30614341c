#!/usr/bin/env python3
"""Compare BENCH_<name>.json files produced by bench/run_all.sh.

Usage:
    tools/bench_diff.py BASELINE.json CANDIDATE.json [--threshold=0.10] [--identical]
    tools/bench_diff.py BASELINE_DIR CANDIDATE_DIR [--threshold=0.10] [--identical]

Prints a per-metric / per-table-cell diff and exits nonzero when any *cost*
series (simulated cycles or time: column or metric names containing "cycles",
"c/op", "us", "ns" -- including underscore-delimited tokens like the
host_ns_per_op_* wall-clock fields -- "time", or a percentile like
"p50"/"p99") regressed by more than the threshold (default 10%). Tail-latency
columns from the bench latency-histogram tables (p50_cycles/p99_cycles/
max_cycles) are gated like any other cost, so a p99 regression fails CI even
when means stay flat. Host-throughput fields are gated through their
host_ns_per_op_* form (lower is better), so a bench whose host loop got >10%
slower fails the diff; the companion host_ops_per_sec_* fields are
informational. Non-cost series (hit rates, byte gauges, ratios) are printed
for context but never fail the diff.

--identical switches to determinism mode: the two documents must match
exactly -- every config entry, metric, and table cell -- except metrics
prefixed host_ (wall-clock noise). CI runs it in directory form against the
committed reference run, bench/baseline/: every BENCH_*.json there needs a
fresh counterpart in CANDIDATE_DIR and every fresh BENCH_*.json needs a
baseline, so an output can neither vanish nor appear unpinned.

Pinned fields: pinned.json beside the baseline file(s) (bench/baseline/
pinned.json for the reference run) maps a file name to the "metrics" it must
report and the "tables" it must hold (a title containing each string,
case-insensitive). The pins hold in both modes and are checked in the
baseline and the candidate alike, so a regenerated baseline that drops a
pinned SLO field still fails, and a pin naming a file the baseline directory
lacks fails the directory form. Stdlib only, so it runs anywhere CI does.
"""

import glob
import json
import os
import re
import sys

PINS_FILE = "pinned.json"

COST_PATTERN = re.compile(
    r"(cycles|c/op|\bus\b|\bns\b|(?:^|_)us(?:_|$)|(?:^|_)ns(?:_|$)|time|\bp\d+\b)",
    re.IGNORECASE)


def is_cost_name(name: str) -> bool:
    return COST_PATTERN.search(name) is not None


def as_number(cell):
    """Numeric value of a metric or table cell, or None (labels, sizes)."""
    if isinstance(cell, (int, float)):
        return float(cell)
    if not isinstance(cell, str):
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def compare(name, old, new, threshold, regressions, report):
    if old is None or new is None:
        return
    if old == 0:
        delta = 0.0 if new == 0 else float("inf")
    else:
        delta = (new - old) / abs(old)
    cost = is_cost_name(name)
    flag = ""
    if cost and delta > threshold:
        regressions.append((name, old, new, delta))
        flag = "  <-- REGRESSION"
    elif abs(delta) > threshold:
        flag = "  (changed)"
    if flag or cost:
        report.append(f"  {name}: {old:g} -> {new:g} ({delta:+.1%}){flag}")


def table_by_title(doc):
    return {t.get("title", ""): t for t in doc.get("metrics", {}).get("tables", [])}


def rows_by_label(table):
    """Rows keyed by first column; duplicate labels get a #N suffix so
    repeated sweep points (e.g. two '16M' rows at different skews) still
    pair up positionally."""
    out = {}
    seen = {}
    for row in table.get("rows", []):
        if not row:
            continue
        n = seen.get(row[0], 0)
        seen[row[0]] = n + 1
        out[row[0] if n == 0 else f"{row[0]}#{n}"] = row
    return out


def strip_host_metrics(doc):
    """Drops host_* wall-clock metrics: everything else must be simulated
    and therefore bit-reproducible across identical runs."""
    metrics = doc.get("metrics", {})
    doc = dict(doc)
    doc["metrics"] = {k: v for k, v in metrics.items() if not k.startswith("host_")}
    return doc


def diff_identical(old_doc, new_doc):
    """Exact comparison minus host_* metrics; returns a list of mismatches."""
    old_doc = strip_host_metrics(old_doc)
    new_doc = strip_host_metrics(new_doc)
    problems = []

    def walk(path, a, b):
        if type(a) is not type(b):
            problems.append(f"{path}: type {type(a).__name__} != {type(b).__name__}")
        elif isinstance(a, dict):
            for key in a.keys() | b.keys():
                if key not in a:
                    problems.append(f"{path}.{key}: only in candidate")
                elif key not in b:
                    problems.append(f"{path}.{key}: only in baseline")
                else:
                    walk(f"{path}.{key}", a[key], b[key])
        elif isinstance(a, list):
            if len(a) != len(b):
                problems.append(f"{path}: length {len(a)} != {len(b)}")
            for i, (x, y) in enumerate(zip(a, b)):
                walk(f"{path}[{i}]", x, y)
        elif a != b:
            problems.append(f"{path}: {a!r} != {b!r}")

    walk("$", old_doc, new_doc)
    return problems


def load_pins(baseline_dir):
    """The pin list beside the baseline ({} when there is none)."""
    path = os.path.join(baseline_dir, PINS_FILE)
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def missing_pins(doc, pin):
    """Pinned metrics and table-title substrings that `doc` lacks."""
    metrics = doc.get("metrics", {})
    titles = [t.lower() for t in table_by_title(doc)]
    missing = [m for m in pin.get("metrics", []) if as_number(metrics.get(m)) is None]
    missing += [
        f"table titled *{want}*" for want in pin.get("tables", [])
        if not any(want.lower() in title for title in titles)
    ]
    return missing


def diff_regression(old_doc, new_doc, threshold):
    """Cost-regression report; returns (report lines, regressions)."""
    if old_doc.get("bench") != new_doc.get("bench"):
        print(
            f"warning: comparing different benches "
            f"({old_doc.get('bench')} vs {new_doc.get('bench')})",
            file=sys.stderr,
        )

    regressions = []
    report = [f"bench: {new_doc.get('bench')}  (threshold {threshold:.0%})"]

    old_metrics = old_doc.get("metrics", {})
    new_metrics = new_doc.get("metrics", {})
    for key, old_val in old_metrics.items():
        if key == "tables":
            continue
        compare(key, as_number(old_val), as_number(new_metrics.get(key)), threshold,
                regressions, report)

    # Metrics the candidate added (absent in the baseline) are informational:
    # a new feature's metrics cannot regress against nothing, but they should
    # be visible in the diff so reviewers notice them appearing.
    added = [
        key
        for key in new_metrics
        if key != "tables" and key not in old_metrics and as_number(new_metrics[key]) is not None
    ]
    for key in added:
        report.append(f"  {key}: (new in candidate) = {as_number(new_metrics[key]):g}")

    new_tables = table_by_title(new_doc)
    for title, old_table in table_by_title(old_doc).items():
        new_table = new_tables.get(title)
        if new_table is None:
            report.append(f"  table dropped: {title}")
            continue
        columns = old_table.get("columns", [])
        new_columns = new_table.get("columns", [])
        new_rows = rows_by_label(new_table)
        for label, old_row in rows_by_label(old_table).items():
            new_row = new_rows.get(label)
            if new_row is None:
                report.append(f"  row dropped: {title} / {label}")
                continue
            for i, col in enumerate(columns):
                if i == 0 or col not in new_columns:
                    continue
                j = new_columns.index(col)
                if i < len(old_row) and j < len(new_row):
                    compare(f"{label} / {col}", as_number(old_row[i]),
                            as_number(new_row[j]), threshold, regressions, report)
    return report, regressions


def diff_files(old_path, new_path, pin, threshold, identical):
    """Diffs one baseline/candidate pair and prints the verdict; returns
    True when it passes."""
    with open(old_path) as f:
        old_doc = json.load(f)
    with open(new_path) as f:
        new_doc = json.load(f)
    ok = True
    if identical:
        problems = diff_identical(old_doc, new_doc)
        if problems:
            print(f"{len(problems)} determinism mismatch(es) "
                  f"(host_* metrics excluded):")
            for p in problems[:50]:
                print(f"  {p}")
            ok = False
        else:
            print("identical (host_* metrics excluded).")
    else:
        report, regressions = diff_regression(old_doc, new_doc, threshold)
        print("\n".join(report))
        if regressions:
            print(f"\n{len(regressions)} cost regression(s) above {threshold:.0%}:")
            for name, old, new, delta in regressions:
                print(f"  {name}: {old:g} -> {new:g} ({delta:+.1%})")
            ok = False
        else:
            print("\nno cost regressions.")
    for side, doc in (("baseline", old_doc), ("candidate", new_doc)):
        missing = missing_pins(doc, pin)
        if missing:
            print(f"{len(missing)} pinned field(s) missing from the {side}:")
            for name in missing:
                print(f"  {name}")
            ok = False
    return ok


def diff_dirs(old_dir, new_dir, threshold, identical):
    """Diffs every BENCH_*.json pair of two directories; a file on one side
    only, or a pin for a file the baseline lacks, fails."""
    def names(d):
        return {os.path.basename(p) for p in glob.glob(os.path.join(d, "BENCH_*.json"))}

    pins = load_pins(old_dir)
    old_names, new_names = names(old_dir), names(new_dir)
    failures = [f"{n}: no fresh counterpart in {new_dir}" for n in sorted(old_names - new_names)]
    failures += [f"{n}: no baseline in {old_dir}" for n in sorted(new_names - old_names)]
    failures += [f"{n}: pinned but not in {old_dir}" for n in sorted(pins.keys() - old_names)]
    for name in sorted(old_names & new_names):
        print(f"=== {name} ===")
        if not diff_files(os.path.join(old_dir, name), os.path.join(new_dir, name),
                          pins.get(name, {}), threshold, identical):
            failures.append(f"{name}: fails (see above)")
    if failures:
        print(f"\n{len(failures)} failure(s):")
        for f in failures:
            print(f"  {f}")
        return False
    print(f"\nall {len(old_names)} file(s) pass.")
    return True


def main(argv):
    threshold = 0.10
    identical = False
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        elif arg == "--identical":
            identical = True
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = paths
    if os.path.isdir(old) != os.path.isdir(new):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if os.path.isdir(old):
        return 0 if diff_dirs(old, new, threshold, identical) else 1
    pin = load_pins(os.path.dirname(old) or ".").get(os.path.basename(old), {})
    return 0 if diff_files(old, new, pin, threshold, identical) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
