"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ssd_sweep --seed 3 --seconds 20 --trace 0

The program is imported from ``src/`` of the same checkout; nothing is
installed.  One process, one thread: BLAS/OpenMP pools are pinned to a
single thread and every sweep runs with ``workers=1``.

A run sets the workload up ``SETUP_REPEATS`` times, runs one warm-up
repetition on the default seed's inputs (checked exactly against
``expected.json``), then repeats the unit of work on ``--seed``'s inputs
for ``--seconds`` (at least ``MIN_REPS`` times).  With ``--trace 1`` it
then runs one more repetition under cProfile for the per-layer numbers.
Every repetition's simulated outputs are checked; a mismatch or an
exception counts as failed and makes the exit code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer ones
with ``--trace 1``.  The lines before it list every metric with its
unit, the repetition count and the quartiles.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "repro"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
MIN_REPS = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class NoProgram(RuntimeError):
    """The checkout holds no program sources to benchmark."""


def import_workloads():
    """Import the benchmark's workloads against ``src/repro`` of this checkout."""
    if not (PACKAGE / "__init__.py").is_file():
        raise NoProgram(f"no program sources at {PACKAGE.relative_to(ROOT)}")
    sys.path.insert(0, str(PACKAGE.parent))
    import repro

    if Path(repro.__file__).resolve().parent != PACKAGE:
        raise NoProgram(f"imported repro from {repro.__file__}, not from this checkout")
    import cells

    return cells


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _median(samples: list[dict], key: str) -> float:
    return statistics.median(s.get(key, 0.0) for s in samples)


def _scaled(spans: dict, factor: float) -> dict:
    """Spans in reference seconds (``*_s`` keys; counts stay counts)."""
    return {k: v * factor if k.endswith("_s") else v for k, v in spans.items()}


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    small: bool = False,
    expected: dict | None = None,
) -> dict:
    """Measure one workload; return metrics, their summaries and the check.

    ``expected`` holds the default seed's simulated outputs; ``None``
    skips the exact comparison (the reduced-scale self-tests).  Host
    times are in reference seconds (see ``measure.py``); the raw
    seconds are kept in the summaries.
    """
    import measure

    clock = measure.Clock()
    start = time.perf_counter()
    cells = import_workloads()
    import_raw = time.perf_counter() - start
    import_s = import_raw * clock.factor()
    workload = cells.WORKLOADS[name]
    problems: list[str] = []
    attempted = failed = 0

    def set_up(spans):
        shared = workload.prepare(spans, small)
        return shared, workload.inputs(shared, DEFAULT_SEED, spans), workload.inputs(
            shared, seed, spans
        )

    setup_spans, setup_times, setup_raw = [], [], []
    for _ in range(SETUP_REPEATS):
        spans = cells.Spans()
        state, raw = measure.timed(set_up, spans)
        factor = clock.factor()
        setup_spans.append(_scaled(spans, factor))
        setup_times.append(import_s + raw * factor)
        setup_raw.append(import_raw + raw)
    shared, check_inputs, inputs = state
    del state
    # Set-up state lives for the whole run; keep the collector from
    # re-traversing it in every repetition's collection.
    gc.collect()
    gc.freeze()

    def attempt(fn, *args):
        nonlocal attempted, failed
        attempted += 1
        try:
            return fn(*args)
        except Exception:  # a failed repetition is counted, not fatal
            failed += 1
            problems.append(traceback.format_exc())
            return None

    def check(outputs, reference, label) -> None:
        nonlocal failed
        found = workload.invariants(outputs)
        if reference is not None and outputs != reference:
            diff = sorted(k for k in reference.keys() | outputs.keys()
                          if reference.get(k) != outputs.get(k))
            found.append(f"outputs differ from {label} in {diff}")
        if found:
            failed += 1
            problems.extend(f"{name} seed {seed}: {p}" for p in found)

    def repetition(inputs, spans, timer=measure.timed):
        return timer(workload.rep, shared, workload.fresh(inputs), spans)

    warm = attempt(repetition, check_inputs, cells.Spans())
    clock.factor()
    if warm is not None:
        check(warm[0], expected, f"expected.json at seed {DEFAULT_SEED}")

    walls, walls_raw, rep_spans, reference = [], [], [], None
    measured = 0
    t_measure = time.perf_counter()
    while measured < MIN_REPS or time.perf_counter() - t_measure < seconds:
        measured += 1
        spans = cells.Spans()
        result = attempt(repetition, inputs, spans)
        factor = clock.factor()
        if result is None:
            continue
        outputs, raw = result
        check(outputs, reference, "the first repetition")
        reference = reference or outputs
        walls.append(raw * factor)
        walls_raw.append(raw)
        rep_spans.append(_scaled(spans, factor))
    if reference is None:
        raise RuntimeError(f"every repetition of {name} failed:\n" + "\n".join(problems))

    wall = measure.summary(walls)
    setup = measure.summary(setup_times)
    metrics = {
        "wall_s": wall["median"],
        "setup_s": setup["median"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    summaries = {
        "wall_s": {**wall, "raw_median": statistics.median(walls_raw)},
        "setup_s": {**setup, "import_s": import_s, "raw_median": statistics.median(setup_raw)},
    }
    if trace:
        metrics |= per_layer(reference, wall, import_s, setup_spans, rep_spans)
        result = attempt(repetition, inputs, cells.Spans(), measure.profiled)
        factor = clock.factor()
        if result is not None:
            outputs, profiled_raw, call_raw, stats = result
            check(outputs, reference, "the unprofiled repetitions")
            self_s = measure.layer_self_times(stats, PACKAGE)
            metrics |= {f"{layer}.self_s": s * factor for layer, s in self_s.items()}
            metrics["profile.accounted_frac"] = sum(self_s.values()) / call_raw
            metrics["tracing_overhead"] = profiled_raw * factor / wall["median"]
    return {
        "metrics": metrics,
        "summaries": summaries,
        "outputs": reference,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def per_layer(reference, wall, import_s, setup_spans, rep_spans) -> dict[str, float]:
    """Per-layer numbers that need no profiler: counters and call spans."""
    metrics = {
        "sim.events_per_s": reference["sim.events"] / wall["median"],
        "setup.import_s": import_s,
    }
    for key in ("workloads.trace_gen_s", "workloads.features_s", "ml.predict_s",
                "ml.predict_calls"):
        metrics[key] = _median(rep_spans, key)
    for key in ("setup.trace_gen_s", "setup.tpm_train_s", "ml.fit_s",
                "parallel.sweep_wall_s", "parallel.overhead_s", "parallel.cells"):
        metrics[key] = _median(setup_spans, key)
    return {**reference, **metrics}


def final_line(report: dict, names: list[str], units: dict[str, str], trace: bool) -> dict:
    """The result object.  A per-layer counter a workload does not
    produce (``net.*`` on a device-local replay) is 0: that layer did
    no such work."""
    metrics = report["metrics"]
    missing = [n for n in names if n not in metrics]
    if missing and not trace:
        raise KeyError(f"metrics not computed: {missing}")
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": metrics.get(n, 0), "unit": units[n]} for n in names},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    spec = load_spec()
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in section]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    expected = json.loads((HERE / "expected.json").read_text())
    try:
        report = run(
            args.workload,
            args.seed,
            seconds,
            bool(args.trace),
            expected=expected[args.workload],
        )
    except NoProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for problem in report["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    for key, value in sorted(report["metrics"].items()):
        stats = report["summaries"].get(key)
        extra = "  " + json.dumps(stats) if stats else ""
        print(f"{key:32s} {value!r:>24} {units.get(key, '')}{extra}")
    line = final_line(report, names, units, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
