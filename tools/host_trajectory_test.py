#!/usr/bin/env python3
"""Checks bench/host_trajectory.jsonl, the committed record of perfbench host time.

Each change that claims a host-time gain appends one line per perfbench
workload: a JSON object measured as parent/change pairs of
`python3 perfbench/run.py --workload <w> --seed <n> --seconds <s> --trace 0`,
with the side that runs first alternating. Fields:

  base_commit      the parent commit the change was measured against
  change           one-line title of the change
  hardware         the machine the pairs ran on
  workload         zipf_hot, uniform_lifecycle or overload_chaos
  seconds          run length of every run
  seeds            the seeds of the pairs that both exited 0
  pairs            len(seeds)
  failed_seeds     seeds left out because a run exited nonzero (may be empty)
  setup_s, host_req_per_s
                   {"parent": Q, "change": Q} with Q = {"median", "q1", "q3"}
  minflt_per_rep   {"parent": m, "change": m}: median over runs of the
                   perfbench process's minor faults divided by its repetitions
  peak_rss_mib     {"parent": m, "change": m}: median over runs

Run: python3 tools/host_trajectory_test.py (ctest runs it as HostTrajectoryTest).
"""

import json
import os
import unittest

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench",
                    "host_trajectory.jsonl")
WORKLOADS = {"zipf_hot", "uniform_lifecycle", "overload_chaos"}
QUARTILED = ("setup_s", "host_req_per_s")
MEDIANS = ("minflt_per_rep", "peak_rss_mib")
SIDES = ("parent", "change")


def load(path=PATH):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and x >= 0


class HostTrajectoryTest(unittest.TestCase):
    def setUp(self):
        self.entries = load()

    def test_not_empty(self):
        self.assertGreater(len(self.entries), 0)

    def test_entries_are_well_formed(self):
        for i, e in enumerate(self.entries):
            with self.subTest(line=i + 1):
                self.assertIsInstance(e, dict)
                self.assertRegex(e["base_commit"], r"^[0-9a-f]{7,40}$")
                for key in ("change", "hardware"):
                    self.assertIsInstance(e[key], str)
                    self.assertTrue(e[key])
                self.assertIn(e["workload"], WORKLOADS)
                self.assertTrue(is_number(e["seconds"]) and e["seconds"] > 0)
                self.assertIsInstance(e["seeds"], list)
                self.assertEqual(e["pairs"], len(e["seeds"]))
                self.assertGreater(e["pairs"], 0)
                self.assertEqual(len(set(e["seeds"])), len(e["seeds"]))
                self.assertFalse(set(e["seeds"]) & set(e["failed_seeds"]))
                for metric in QUARTILED:
                    for side in SIDES:
                        q = e[metric][side]
                        self.assertTrue(all(is_number(q[k]) for k in ("q1", "median", "q3")))
                        self.assertLessEqual(q["q1"], q["median"])
                        self.assertLessEqual(q["median"], q["q3"])
                for metric in MEDIANS:
                    for side in SIDES:
                        self.assertTrue(is_number(e[metric][side]))

    def test_one_line_per_workload_and_change(self):
        keys = [(e["base_commit"], e["workload"]) for e in self.entries]
        self.assertEqual(len(keys), len(set(keys)))


if __name__ == "__main__":
    unittest.main()
