#!/usr/bin/env python3
"""Unit tests for tools/bench_diff.py's exit codes.

Run: python3 tools/bench_diff_test.py (ctest runs it as BenchDiffTest).
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_diff  # noqa: E402


def doc(metrics, tables=()):
    return {"bench": "t", "config": {}, "metrics": dict(metrics, tables=list(tables))}


BLAME = {"title": "Tail blame (p999)", "columns": ["layer", "us"], "rows": [["os", "1"]]}


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def run_diff(self, old, new, *flags):
        paths = []
        for name, content in (("old.json", old), ("new.json", new)):
            path = os.path.join(self.dir.name, name)
            with open(path, "w") as f:
                json.dump(content, f)
            paths.append(path)
        with contextlib.redirect_stdout(io.StringIO()):
            return bench_diff.main(["bench_diff.py", *paths, *flags])

    def test_identical_passes(self):
        d = doc({"a_us": 1.0, "host_ns": 5.0}, [BLAME])
        other = doc({"a_us": 1.0, "host_ns": 9.0}, [BLAME])
        self.assertEqual(self.run_diff(d, other, "--identical", "--require=a_us",
                                       "--require-table=tail blame"), 0)

    def test_identical_mismatch_fails(self):
        self.assertEqual(self.run_diff(doc({"a_us": 1.0}), doc({"a_us": 2.0}), "--identical"), 1)

    def test_identical_still_checks_require(self):
        # The field is gone from both files, e.g. after a regenerated baseline.
        d = doc({"a_us": 1.0})
        self.assertEqual(self.run_diff(d, d, "--identical"), 0)
        self.assertEqual(self.run_diff(d, d, "--identical", "--require=a_us,b_us"), 1)

    def test_identical_still_checks_require_table(self):
        d = doc({"a_us": 1.0})
        self.assertEqual(self.run_diff(d, d, "--identical", "--require-table=tail blame"), 1)

    def test_require_in_regression_mode(self):
        d = doc({"a_us": 1.0})
        self.assertEqual(self.run_diff(d, d, "--require=a_us"), 0)
        self.assertEqual(self.run_diff(d, d, "--require=b_us"), 1)

    def test_cost_regression_fails(self):
        self.assertEqual(self.run_diff(doc({"a_us": 1.0}), doc({"a_us": 1.5})), 1)
        self.assertEqual(self.run_diff(doc({"a_us": 1.0}), doc({"a_us": 1.05})), 0)


if __name__ == "__main__":
    unittest.main()
