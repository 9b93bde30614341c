#!/usr/bin/env python3
"""Unit tests for tools/bench_diff.py's exit codes, and a check that the
committed pin list (bench/baseline/pinned.json) holds in the committed
baseline.

Run: python3 tools/bench_diff_test.py (ctest runs it as BenchDiffTest).
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, TOOLS)
import bench_diff  # noqa: E402

BASELINE_DIR = os.path.join(TOOLS, "..", "bench", "baseline")
NAME = "BENCH_t.json"


def doc(metrics, tables=()):
    return {"bench": "t", "config": {}, "metrics": dict(metrics, tables=list(tables))}


BLAME = {"title": "Tail blame (p999)", "columns": ["layer", "us"], "rows": [["os", "1"]]}


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.base = os.path.join(tmp.name, "base")
        self.new = os.path.join(tmp.name, "new")
        os.mkdir(self.base)
        os.mkdir(self.new)

    def write(self, directory, name, content):
        with open(os.path.join(directory, name), "w") as f:
            json.dump(content, f)

    def pin(self, name=NAME, metrics=(), tables=()):
        self.write(self.base, bench_diff.PINS_FILE,
                   {name: {"metrics": list(metrics), "tables": list(tables)}})

    def main(self, old, new, *flags):
        with contextlib.redirect_stdout(io.StringIO()):
            return bench_diff.main(["bench_diff.py", old, new, *flags])

    def run_diff(self, old, new, *flags):
        """Two-file form: baseline/BENCH_t.json vs candidate/BENCH_t.json."""
        self.write(self.base, NAME, old)
        self.write(self.new, NAME, new)
        return self.main(os.path.join(self.base, NAME), os.path.join(self.new, NAME), *flags)

    def run_dirs(self, *flags):
        return self.main(self.base, self.new, *flags)

    # --- two-file form ---------------------------------------------------

    def test_identical_passes(self):
        d = doc({"a_us": 1.0, "host_ns": 5.0}, [BLAME])
        other = doc({"a_us": 1.0, "host_ns": 9.0}, [BLAME])
        self.pin(metrics=["a_us"], tables=["tail blame"])
        self.assertEqual(self.run_diff(d, other, "--identical"), 0)

    def test_identical_mismatch_fails(self):
        self.assertEqual(self.run_diff(doc({"a_us": 1.0}), doc({"a_us": 2.0}), "--identical"), 1)

    def test_identical_still_checks_pins(self):
        # The field is gone from both files, e.g. after a regenerated baseline.
        d = doc({"a_us": 1.0})
        self.assertEqual(self.run_diff(d, d, "--identical"), 0)
        self.pin(metrics=["a_us", "b_us"])
        self.assertEqual(self.run_diff(d, d, "--identical"), 1)

    def test_identical_still_checks_pinned_table(self):
        d = doc({"a_us": 1.0})
        self.pin(tables=["tail blame"])
        self.assertEqual(self.run_diff(d, d, "--identical"), 1)

    def test_pins_in_regression_mode(self):
        d = doc({"a_us": 1.0})
        self.pin(metrics=["a_us"])
        self.assertEqual(self.run_diff(d, d), 0)
        self.pin(metrics=["b_us"])
        self.assertEqual(self.run_diff(d, d), 1)

    def test_pins_hold_in_the_baseline_too(self):
        self.pin(metrics=["b_us"])
        self.assertEqual(self.run_diff(doc({"a_us": 1.0}), doc({"a_us": 1.0, "b_us": 1.0})), 1)

    def test_pins_apply_by_file_name(self):
        d = doc({"a_us": 1.0})
        self.pin(name="BENCH_other.json", metrics=["b_us"])
        self.assertEqual(self.run_diff(d, d, "--identical"), 0)

    def test_cost_regression_fails(self):
        self.assertEqual(self.run_diff(doc({"a_us": 1.0}), doc({"a_us": 1.5})), 1)
        self.assertEqual(self.run_diff(doc({"a_us": 1.0}), doc({"a_us": 1.05})), 0)

    # --- directory form --------------------------------------------------

    def test_dirs_identical_pass(self):
        for name in ("BENCH_a.json", "BENCH_b.json"):
            self.write(self.base, name, doc({"a_us": 1.0, "host_ns": 5.0}))
            self.write(self.new, name, doc({"a_us": 1.0, "host_ns": 7.0}))
        # Traces and blame files beside the fresh run are not bench output.
        self.write(self.new, "TRACE_a.json", {})
        self.pin(name="BENCH_a.json", metrics=["a_us"])
        self.assertEqual(self.run_dirs("--identical"), 0)

    def test_dirs_mismatch_fails(self):
        self.write(self.base, NAME, doc({"a_us": 1.0}))
        self.write(self.new, NAME, doc({"a_us": 2.0}))
        self.assertEqual(self.run_dirs("--identical"), 1)

    def test_dirs_missing_candidate_fails(self):
        self.write(self.base, NAME, doc({"a_us": 1.0}))
        self.write(self.base, "BENCH_gone.json", doc({"a_us": 1.0}))
        self.write(self.new, NAME, doc({"a_us": 1.0}))
        self.assertEqual(self.run_dirs("--identical"), 1)

    def test_dirs_unpinned_candidate_fails(self):
        self.write(self.base, NAME, doc({"a_us": 1.0}))
        self.write(self.new, NAME, doc({"a_us": 1.0}))
        self.write(self.new, "BENCH_new.json", doc({"a_us": 1.0}))
        self.assertEqual(self.run_dirs("--identical"), 1)

    def test_dirs_pinned_field_missing_from_both_fails(self):
        d = doc({"a_us": 1.0})
        self.write(self.base, NAME, d)
        self.write(self.new, NAME, d)
        self.assertEqual(self.run_dirs("--identical"), 0)
        self.pin(metrics=["b_us"])
        self.assertEqual(self.run_dirs("--identical"), 1)

    def test_dirs_pin_for_absent_baseline_fails(self):
        self.write(self.base, NAME, doc({"a_us": 1.0}))
        self.write(self.new, NAME, doc({"a_us": 1.0}))
        self.pin(name="BENCH_gone.json", metrics=["a_us"])
        self.assertEqual(self.run_dirs("--identical"), 1)

    def test_dir_against_file_is_a_usage_error(self):
        self.write(self.new, NAME, doc({"a_us": 1.0}))
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(self.main(self.base, os.path.join(self.new, NAME)), 2)

    # --- the committed reference run -------------------------------------

    def test_committed_pins_hold_in_baseline(self):
        pins = bench_diff.load_pins(BASELINE_DIR)
        self.assertTrue(pins)
        for name, pin in pins.items():
            with self.subTest(file=name):
                path = os.path.join(BASELINE_DIR, name)
                self.assertTrue(os.path.exists(path), f"{name} is pinned but not in the baseline")
                with open(path) as f:
                    self.assertEqual(bench_diff.missing_pins(json.load(f), pin), [])


if __name__ == "__main__":
    unittest.main()
