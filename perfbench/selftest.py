"""Self-tests of the benchmark, at reduced scale (about a minute).

From the root of a checkout::

    python3 perfbench/selftest.py

They check ``BENCHMARK.json`` against the result contract, that a run
prints every declared metric with its unit in the declared schema, that
the profiled repetition reproduces the unprofiled outputs and its layer
self times account for its wall time, and that the output check trips
on a perturbed expected value.
"""

from __future__ import annotations

import copy
import json
import math
import os
import re
import unittest

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_.\-/]{1,200}")
SPEC = run.load_spec()
_runs: dict[tuple[str, int], dict] = {}


def small_run(name: str, seed: int = 1, expected: dict | None = None) -> dict:
    """One traced run at reduced scale (cached per workload and seed)."""
    key = (name, seed)
    if expected is not None:
        return run.run(name, seed, 0, True, small=True, expected=expected)
    if key not in _runs:
        _runs[key] = run.run(name, seed, 0, True, small=True)
    return _runs[key]


class SpecTest(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(
            set(SPEC),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertLessEqual((run.ROOT / "BENCHMARK.json").stat().st_size, 64 * 1024)
        self.assertTrue(1 <= len(SPEC["paths"]) <= 16)
        for path in SPEC["paths"]:
            self.assertRegex(path, PATH)
            self.assertFalse(path.startswith("/") or ".." in path.split("/"))
        self.assertTrue(len(SPEC["command"]) <= 32)
        for arg in SPEC["command"]:
            self.assertTrue(len(arg) <= 200 and not arg.startswith("/"))
            self.assertNotIn("..", arg.split("/"))
        self.assertIsInstance(SPEC["run_seconds"], int)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= len(SPEC["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(SPEC["per_layer"]) <= 128)

    def test_names_units_bounds(self):
        names = []
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
            names.append(w["name"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))

    def test_workloads_match_code_and_expected(self):
        cells = run.import_workloads()
        declared = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(declared, list(cells.WORKLOADS))
        expected = json.loads((run.HERE / "expected.json").read_text())
        self.assertEqual(set(expected), set(declared))


class ResultTest(unittest.TestCase):
    def assert_result(self, line: dict, section: str) -> None:
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(line["correct"], True)
        self.assertIsInstance(line["attempted"], int)
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(line["failed"], 0)
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        self.assertEqual(list(line["metrics"]), list(declared))
        for name, metric in line["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], declared[name])
            value = metric["value"]
            self.assertTrue(isinstance(value, (int, float)) and not isinstance(value, bool))
            self.assertTrue(math.isfinite(value), name)
        json.loads(json.dumps(line))

    def test_every_workload_prints_the_declared_metrics(self):
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        produced = set()
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                report = small_run(w["name"])
                self.assertEqual(report["problems"], [])
                for section, trace in (("end_to_end", False), ("per_layer", True)):
                    names = [m["name"] for m in SPEC[section]]
                    self.assert_result(run.final_line(report, names, units, trace), section)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(report["metrics"][m["name"]], 0)
                produced |= set(report["metrics"])
        never = [m["name"] for m in SPEC["per_layer"] if m["name"] not in produced]
        self.assertEqual(never, [], "per-layer metrics no workload computes")

    def test_profiled_repetition_reproduces_outputs(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                report = small_run(w["name"])
                # warm-up + at least MIN_REPS measured + the profiled one,
                # each compared against the first measured repetition.
                self.assertGreaterEqual(report["attempted"], run.MIN_REPS + 2)
                self.assertEqual(report["failed"], 0)
                self.assertIn("tracing_overhead", report["metrics"])

    def test_self_times_account_for_profiled_wall(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = small_run(w["name"])["metrics"]
                self.assertGreater(metrics["profile.accounted_frac"], 0.9)
                self.assertLess(metrics["profile.accounted_frac"], 1.01)

    def test_layer_predictions(self):
        sweep = small_run("ssd_sweep")["metrics"]
        gc_writes = small_run("gc_writes")["metrics"]
        fig7 = small_run("fig7_src")["metrics"]
        for device_local in (sweep, gc_writes):
            self.assertEqual(device_local["net.self_s"], 0.0)
            self.assertEqual(device_local["fabric.self_s"], 0.0)
            self.assertGreater(device_local["ssd.self_s"], device_local["sim.self_s"] / 4)
        self.assertGreater(fig7["net.self_s"], fig7["ssd.self_s"])
        self.assertGreater(gc_writes["ssd.gc_invocations"], 0)
        self.assertGreater(fig7["core.src_gain_pct"], 0)
        self.assertGreater(fig7["ml.predict_calls"], 0)
        self.assertGreater(fig7["parallel.cells"], 0)


class OutputCheckTest(unittest.TestCase):
    def test_matching_expected_passes_and_perturbed_trips(self):
        outputs = small_run("gc_writes", seed=run.DEFAULT_SEED)["outputs"]
        self.assertEqual(small_run("gc_writes", run.DEFAULT_SEED, outputs)["failed"], 0)
        perturbed = copy.deepcopy(outputs)
        perturbed["ssd.gc_pages_moved"] += 1
        report = small_run("gc_writes", run.DEFAULT_SEED, perturbed)
        self.assertEqual(report["failed"], 1)
        self.assertTrue(any("ssd.gc_pages_moved" in p for p in report["problems"]))
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        line = run.final_line(report, list(units), units, False)
        self.assertIs(line["correct"], False)

    def test_invariant_trips(self):
        cells = run.import_workloads()
        outputs = dict(small_run("fig7_src")["outputs"], **{"core.src_gain_pct": -1.0})
        self.assertTrue(cells.WORKLOADS["fig7_src"].invariants(outputs))


if __name__ == "__main__":
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    unittest.main()
