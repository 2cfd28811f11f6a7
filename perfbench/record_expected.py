"""Record the default seed's simulated outputs into ``expected.json``.

Run from the root of a checkout, only when a change is meant to move
the simulated results::

    python3 perfbench/record_expected.py [workload ...]

Each workload is set up and repeated twice; the two repetitions must
agree before their outputs are written.
"""

from __future__ import annotations

import json
import os
import sys

import run


def record(names: list[str]) -> None:
    cells = run.import_workloads()
    names = names or list(cells.WORKLOADS)
    path = run.HERE / "expected.json"
    expected = json.loads(path.read_text())
    for name in names:
        workload = cells.WORKLOADS[name]
        spans = cells.Spans()
        shared = workload.prepare(spans, False)
        inputs = workload.inputs(shared, run.DEFAULT_SEED, spans)
        first, second = (
            workload.rep(shared, workload.fresh(inputs), spans) for _ in range(2)
        )
        if first != second:
            raise SystemExit(f"{name}: repetitions disagree, not recording")
        expected[name] = first
        print(f"{name}: {json.dumps(first, sort_keys=True)}")
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    record(sys.argv[1:])
