"""One dispatch loop, many observers: every observed mode is invisible.

:meth:`Simulator.run` has a lean loop (no observer, no event limit,
batch coalescing on) and an observed loop (one event at a time).  Every
caller of the observed loop — the ``trace=True`` dispatch log, the
profiler, the sanitizer at full fidelity and strided, and a
``max_events`` limit — must dispatch exactly what the lean loop does:
the same dispatch log (pinned by the golden files), the same
``events_dispatched`` and the same outputs.  The in-cast cell has batch
coalescing; ``gc_shrunk`` runs the SSD GC path under the FTL hook.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from repro.profiling import InstrumentedSimulator
from repro.profiling.bench import build_incast_cell, incast_outputs
from repro.sim.engine import Simulator
from tests.net import test_golden_trace as net_golden
from tests.ssd import test_golden_trace as ssd_golden

UNTIL = net_golden.CELL["duration_ns"] + 50_000

#: mode -> (traced simulator, ``max_events`` for ``run``).
MODES = {
    "trace": lambda: (Simulator(trace=True, sanitize=False), None),
    "profiler": lambda: (InstrumentedSimulator(trace=True), None),
    "sanitize": lambda: (Simulator(trace=True, sanitize=True), None),
    "stride:64": lambda: (Simulator(trace=True, sanitize="stride:64"), None),
    "max_events": lambda: (Simulator(trace=True, sanitize=False), 10**9),
}


def _check_observers(sim: Simulator) -> None:
    """What each observer recorded agrees with the dispatch log."""
    if isinstance(sim, InstrumentedSimulator):
        counts = Counter(name for _, name in sim.dispatch_log)
        assert sim.profile().site_counts == dict(counts)
    if sim.sanitizer is not None:
        stride = sim.sanitizer.stride
        # Sampled sweeps at every stride-th event, plus the end sweep.
        expected = sim.events_dispatched // stride + (stride > 1)
        assert sim.sanitizer.events_checked == expected


@pytest.mark.parametrize("mode", sorted(MODES))
def test_incast_cell_is_identical_under_every_observer(mode):
    lean_sim, lean_net = build_incast_cell(
        sim=Simulator(sanitize=False), **net_golden.CELL
    )
    assert lean_sim._batch_callbacks, "the cell must exercise coalescing"
    lean_sim.run(until=UNTIL)

    sim, max_events = MODES[mode]()
    sim, net = build_incast_cell(sim=sim, **net_golden.CELL)
    sim.run(until=UNTIL, max_events=max_events)

    golden = json.loads(net_golden.GOLDEN_PATH.read_text())
    log = net_golden.normalized_log(sim.dispatch_log)
    canonical = "\n".join(f"{t} {name}" for t, name in log)
    assert hashlib.sha256(canonical.encode()).hexdigest() == golden["sha256"]
    assert sim.events_dispatched == lean_sim.events_dispatched
    assert sim.now == lean_sim.now
    assert incast_outputs(net) == incast_outputs(lean_net) == golden["outputs"]
    _check_observers(sim)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_ssd_cell_is_identical_under_every_observer(mode):
    lean_sim, lean_world = ssd_golden.build_cell(
        "gc_shrunk", Simulator(sanitize=False)
    )
    lean_sim.run()

    sim, max_events = MODES[mode]()
    sim, world = ssd_golden.build_cell("gc_shrunk", sim)
    sim.run(max_events=max_events)

    golden = ssd_golden._golden()["gc_shrunk"]
    got = ssd_golden.summarize(sim, world)
    assert got["sha256"] == golden["sha256"]
    assert got["completions_sha256"] == golden["completions_sha256"]
    assert sim.events_dispatched == lean_sim.events_dispatched
    assert got["outputs"] == ssd_golden.device_outputs(lean_sim, lean_world)
    assert got["outputs"] == golden["outputs"]
    _check_observers(sim)
