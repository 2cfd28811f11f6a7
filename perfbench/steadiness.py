"""Steadiness study: the run-to-run spread of every end-to-end metric.

Runs the benchmark command once per (workload, seed), one process at a
time, exactly as a harness would, and reports for each end-to-end
metric the median of the runs and the spread: the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``)
as a share of the median.  A spread is steady when it is below a third
of the metric's bound in ``BENCHMARK.json``.

From the root of a checkout::

    python3 perfbench/steadiness.py --seeds 1-9,7919 --out perfbench/steadiness.json

Seed 7919 is held out: no change to the benchmark or the program was
tuned on it, so a later claim can be re-checked on it.

Exit code 1 if any run failed its output check or any spread other
than ``setup_s``'s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    """``"1-9,7919"`` -> ``[1, ..., 9, 7919]``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
    return {"seed": seed, "exit": proc.returncode, "process_s": time.perf_counter() - t0,
            "correct": result.get("correct", False),
            "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()}}


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-9,7919"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    ok = True
    study = {"seeds": args.seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(spec["command"], name, seed, spec["run_seconds"]))
            print(json.dumps({"workload": name, **runs[-1]}), flush=True)
        ok &= all(r["exit"] == 0 and r["correct"] for r in runs)
        table = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in runs if metric["name"] in r["metrics"]]
            if len(values) < 2:
                ok = False
                continue
            median, share = spread(values)
            table[metric["name"]] = {
                "median": median, "spread": share, "bound": metric["bound"],
                "steady": share < metric["bound"] / 3,
            }
            if metric["name"] != "setup_s" and share > metric["bound"]:
                ok = False
            print(f"{name:10s} {metric['name']:12s} median {median:10.4f}  spread "
                  f"{share:6.3f}  bound {metric['bound']}  "
                  f"{'steady' if share < metric['bound'] / 3 else 'NOT STEADY'}")
        study["workloads"][name] = {"runs": runs, "spread": table}
    if args.out:
        args.out.write_text(json.dumps(study, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
