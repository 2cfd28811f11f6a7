"""Checkpoint/restore of device-local SSD worlds.

The device path schedules its flash and controller events as anonymous
heap tuples whose arguments are bound methods (the next service stage)
and :class:`~repro.ssd.transactions.PageTransaction` s carrying cached
bound-method completion callbacks.  These tests snapshot a replay
mid-run, restore it (in this process and in a fresh interpreter) and
continue; the result must be byte-identical to the SSD golden trace.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import checkpoint as ck
from repro.sim.engine import MaxEventsExceeded

from tests.ssd.test_golden_trace import CELLS, _golden, build_cell, summarize


def _run_to(name: str, fraction: float):
    sim, world = build_cell(name)
    split = int(_golden()[name]["n_events"] * fraction)
    try:
        sim.run(max_events=split)
    except MaxEventsExceeded:
        pass
    assert sim.pending() > 0  # genuinely mid-run
    return sim, world


def _assert_matches_golden(summary: dict, golden: dict) -> None:
    assert summary["outputs"] == golden["outputs"]
    assert summary["completions_sha256"] == golden["completions_sha256"]
    assert summary["n_events"] == golden["n_events"]
    assert summary["sha256"] == golden["sha256"]


@pytest.mark.parametrize("name", sorted(CELLS))
def test_mid_run_round_trip_matches_golden(name, tmp_path):
    sim, world = _run_to(name, 0.5)
    path = tmp_path / "device.ckpt"
    ck.save(path, sim, world, scenario=CELLS[name])
    sim2, world2 = ck.load(path, scenario=CELLS[name])
    assert sim2 is not sim and world2 is not world
    sim2.run()
    _assert_matches_golden(summarize(sim2, world2), _golden()[name])


def test_restored_heap_aliases_cached_callbacks(tmp_path):
    """Completion callbacks cached on the controller restore as the
    same objects the in-flight transactions reference."""
    sim, world = _run_to("gc_shrunk", 0.4)
    path = tmp_path / "device.ckpt"
    ck.save(path, sim, world)
    sim2, world2 = ck.load(path)
    ctrl = world2.ssd.controller
    cached = {id(ctrl._page_done_cb), id(ctrl._write_page_done_cb)}
    txns = [
        arg
        for entry in sim2._queue._heap
        for arg in (entry[3] if isinstance(entry[3], tuple) else ())
        if hasattr(arg, "on_done")
    ]
    assert txns
    owned = [t for t in txns if t.owner is not None]
    assert owned and all(id(t.on_done) in cached for t in owned)


def test_fresh_process_continuation_matches_golden(tmp_path):
    """Restore every cell in a fresh interpreter and continue."""
    paths = {}
    for name in sorted(CELLS):
        sim, world = _run_to(name, 0.6)
        paths[name] = str(tmp_path / f"{name}.ckpt")
        ck.save(paths[name], sim, world, scenario=CELLS[name])
    out_path = tmp_path / "result.json"
    script = (
        "import json, pathlib\n"
        "from repro.sim import checkpoint as ck\n"
        "from tests.ssd.test_golden_trace import CELLS, summarize\n"
        "result = {}\n"
        f"for name, path in {paths!r}.items():\n"
        "    sim, world = ck.load(path, scenario=CELLS[name])\n"
        "    sim.run()\n"
        "    result[name] = summarize(sim, world)\n"
        f"pathlib.Path({str(out_path)!r}).write_text(json.dumps(result))\n"
    )
    repo_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(repo_root / "src"), str(repo_root)])
    env.pop("REPRO_SANITIZE", None)
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=300)
    result = json.loads(out_path.read_text())
    golden = _golden()
    for name in sorted(CELLS):
        _assert_matches_golden(result[name], golden[name])
