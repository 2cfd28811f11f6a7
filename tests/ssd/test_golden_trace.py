"""Golden dispatch-trace test for the SSD/NVMe device path.

The golden file was recorded from the device simulator *before* its
per-page hot-path pass (handled ``Event`` s for every flash and
controller event, per-event latency arithmetic, a two-pass SSQ bucket
index).  This test replays the same cells on the current code and
asserts that the full ``(time, callback)`` dispatch log, the exact
``(completion time, req_id)`` completion log, and the FTL, CMT, write
cache, backend and driver counters are all unchanged.

Cells (all device-local replays, ``Simulator(trace=True)``):

* ``ssq_a_w4`` -- SSD-A behind an SSQ driver at write weight 4, over a
  small address space with sequential runs, so consistency redirects
  and write-cache read hits fire;
* ``small_cmt`` -- SSD-B with a one-translation-page CMT behind the
  default FIFO driver, so nearly every read issues a ``MAPPING_READ``;
* ``gc_shrunk`` -- a write-heavy stream on an SSD-B shrunk to 4 blocks
  of 32 pages per chip, so greedy GC (GC reads, GC programs, erases)
  and write-cache stalls run;
* ``faults_wb`` -- a write-back SSD-C behind an SSQ driver with a dead
  die and chip/channel slowdowns switched on and off mid-run, pinning
  the fail-fast path and the service-start reading of the multipliers.

Requests are renumbered ``0..N-1`` in trace order so the completion log
does not depend on how many requests the process created before.
Callable instances without a ``__qualname__`` (the replay's arrival
feed) log as their class name (:func:`repro.profiling.site_label`).

Re-baselining policy: the golden file may only be regenerated together
with a written justification here, and only when the ``outputs`` and
``completions`` blocks are byte-identical before and after (or the
behaviour change is itself the point of the change and is called out as
such).  A hot-path optimisation must pass against the file unmodified.

Regenerate (only when intentionally changing simulation behaviour)::

    PYTHONPATH=src python tests/ssd/test_golden_trace.py --regen
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.replay import _DriverFeed
from repro.nvme.driver import DefaultNvmeDriver
from repro.nvme.ssq import SSQDriver
from repro.sim.engine import Simulator
from repro.sim.units import KIB, MIB
from repro.ssd.config import SSD_A, SSD_B, SSD_C
from repro.ssd.device import SSD
from repro.workloads.micro import MicroWorkloadConfig, generate_micro_trace
from repro.workloads.traces import Trace

GOLDEN_PATH = Path(__file__).parent / "golden" / "device_traces.json"

#: Scenario parameters -- fixed forever for this golden file.
CELLS: dict[str, dict] = {
    "ssq_a_w4": dict(
        ssd="SSD-A",
        overrides={},
        driver="ssq",
        weights=(1, 4),
        reads=(10_000, 32 * KIB, 0.3),
        writes=(20_000, 32 * KIB, 0.3),
        n_reads=300,
        n_writes=150,
        address_sectors=8 * MIB // 512,
        seed=11,
        faults=[],
    ),
    "small_cmt": dict(
        ssd="SSD-B",
        overrides=dict(cmt_bytes=16 * KIB),
        driver="fifo",
        weights=None,
        reads=(4_000, 16 * KIB, 0.0),
        writes=(16_000, 16 * KIB, 0.0),
        n_reads=400,
        n_writes=100,
        address_sectors=512 * MIB // 512,
        seed=12,
        faults=[],
    ),
    "gc_shrunk": dict(
        ssd="SSD-B",
        overrides=dict(
            blocks_per_chip=4, pages_per_block=32, write_cache_bytes=2 * MIB, cmt_bytes=16 * KIB
        ),
        driver="ssq",
        weights=(1, 1),
        reads=(80_000, 16 * KIB, 0.0),
        writes=(20_000, 32 * KIB, 0.0),
        n_reads=250,
        n_writes=1000,
        address_sectors=8 * MIB // 512,
        seed=13,
        faults=[],
    ),
    "faults_wb": dict(
        ssd="SSD-C",
        overrides=dict(write_cache_policy="write_back", write_cache_bytes=1 * MIB),
        driver="ssq",
        weights=(1, 2),
        reads=(15_000, 24 * KIB, 0.2),
        writes=(15_000, 24 * KIB, 0.2),
        n_reads=250,
        n_writes=250,
        address_sectors=4 * MIB // 512,
        seed=14,
        # (time ns, backend method, args)
        faults=[
            (0, "fail_chip", (3,)),
            (500_000, "set_chip_slowdown", (5, 2.5)),
            (900_000, "set_channel_slowdown", (1, 1.75)),
            (2_500_000, "set_chip_slowdown", (5, 1.0)),
            (3_000_000, "set_channel_slowdown", (1, 1.0)),
        ],
    ),
}

_PRESETS = {"SSD-A": SSD_A, "SSD-B": SSD_B, "SSD-C": SSD_C}


class DeviceWorld:
    """Everything one cell's continuation needs (picklable as a unit)."""

    def __init__(self, ssd: SSD, driver, trace: Trace) -> None:
        self.ssd = ssd
        self.driver = driver
        self.trace = trace


def _stream(spec: tuple, address_sectors: int) -> MicroWorkloadConfig:
    interarrival, size, sequential = spec
    return MicroWorkloadConfig(
        interarrival,
        size,
        address_space_sectors=address_sectors,
        sequential_fraction=sequential,
    )


def build_cell(name: str, sim: Simulator | None = None) -> tuple[Simulator, DeviceWorld]:
    """A simulator (traced by default) with the cell's arrivals and faults scheduled."""
    cell = CELLS[name]
    config = _PRESETS[cell["ssd"]].with_overrides(**cell["overrides"])
    raw = generate_micro_trace(
        _stream(cell["reads"], cell["address_sectors"]),
        _stream(cell["writes"], cell["address_sectors"]),
        n_reads=cell["n_reads"],
        n_writes=cell["n_writes"],
        seed=cell["seed"],
    )
    trace = Trace([replace(req, req_id=i) for i, req in enumerate(raw)])
    sim = sim if sim is not None else Simulator(trace=True)
    ssd = SSD(sim, config)
    if cell["driver"] == "ssq":
        driver = SSQDriver(*cell["weights"])
    else:
        driver = DefaultNvmeDriver()
    driver.connect(ssd)
    ssd.set_cq_listener(ssd.auto_drain)
    feed = _DriverFeed(driver, sim)
    for req in trace:
        sim.schedule_at(req.arrival_ns, feed, req)
    for at_ns, method, args in cell["faults"]:
        sim.schedule_at(at_ns, getattr(ssd.backend, method), *args)
    return sim, DeviceWorld(ssd, driver, trace)


def trace_sha(dispatch_log: list[tuple[int, str]]) -> str:
    canonical = "\n".join(f"{t} {name}" for t, name in dispatch_log)
    return hashlib.sha256(canonical.encode()).hexdigest()


def completions(world: DeviceWorld) -> list[list]:
    """``[completion ns, req_id, error]`` per completed command, in order."""
    return [[t, req.req_id, req.error] for t, req in world.ssd.controller.completion_log]


def device_outputs(sim: Simulator, world: DeviceWorld) -> dict:
    """Counters of every layer the device path touches."""
    ssd, driver = world.ssd, world.driver
    ctrl, ftl, cache, backend = ssd.controller, ssd.ftl, ssd.cache, ssd.backend
    out = {
        "sim_end_ns": sim.now,
        "events_dispatched": sim.events_dispatched,
        "ctrl.commands_fetched": ctrl.commands_fetched,
        "ctrl.commands_completed": ctrl.commands_completed,
        "ctrl.background_write_failures": ctrl.background_write_failures,
        "backend.completed": backend.completed,
        "backend.failed_fast": backend.failed_fast,
        "backend.chip_busy_ns": [c.busy_ns_total for c in backend._chips],
        "backend.channel_busy_ns": [c.busy_ns_total for c in backend._channels],
        "ftl.gc_invocations": ftl.gc_invocations,
        "ftl.gc_pages_moved": ftl.gc_pages_moved,
        "ftl.mapped_pages": ftl.mapped_pages,
        "cmt.hits": ftl.cmt.hits,
        "cmt.misses": ftl.cmt.misses,
        "cache.read_hits": cache.read_hits,
        "cache.read_misses": cache.read_misses,
        "cache.occupied": cache.occupied,
        "cache.resident_pages": cache.resident_pages,
        "driver.submitted": driver.submitted,
        "driver.fetched": driver.fetched,
    }
    if isinstance(driver, SSQDriver):
        out["driver.consistency_redirects"] = driver.consistency_redirects
    return out


def summarize(sim: Simulator, world: DeviceWorld) -> dict:
    log = sim.dispatch_log
    counts: dict[str, int] = {}
    for _, name in log:
        counts[name] = counts.get(name, 0) + 1
    comps = completions(world)
    return {
        "sha256": trace_sha(sim.dispatch_log),
        "n_events": len(log),
        "per_tag_counts": dict(sorted(counts.items())),
        "first_30": [[t, n] for t, n in log[:30]],
        "last_30": [[t, n] for t, n in log[-30:]],
        "completions_sha256": hashlib.sha256(json.dumps(comps).encode()).hexdigest(),
        "completions_head": comps[:20],
        "outputs": device_outputs(sim, world),
    }


def capture(name: str) -> dict:
    """Run one golden cell to completion and summarise it."""
    sim, world = build_cell(name)
    sim.run()
    return {"cell": json.loads(json.dumps(CELLS[name])), **summarize(sim, world)}


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CELLS))
def test_device_dispatch_trace_matches_golden(name):
    golden = _golden()[name]
    got = capture(name)

    # Most diagnostic comparisons first, strongest (the hashes) last.
    assert got["cell"] == golden["cell"], "scenario drifted; see module docstring"
    assert got["outputs"] == golden["outputs"]
    assert got["per_tag_counts"] == golden["per_tag_counts"]
    assert got["n_events"] == golden["n_events"]
    assert got["first_30"] == golden["first_30"]
    assert got["last_30"] == golden["last_30"]
    assert got["completions_head"] == golden["completions_head"]
    assert got["completions_sha256"] == golden["completions_sha256"]
    assert got["sha256"] == golden["sha256"]


def test_golden_cells_exercise_their_paths():
    """Each cell keeps covering the path it was chosen for."""
    golden = _golden()
    assert golden["ssq_a_w4"]["outputs"]["driver.consistency_redirects"] > 0
    assert golden["ssq_a_w4"]["outputs"]["cache.read_hits"] > 0
    assert golden["small_cmt"]["outputs"]["cmt.misses"] >= 400
    assert golden["gc_shrunk"]["outputs"]["ftl.gc_invocations"] > 0
    assert golden["gc_shrunk"]["outputs"]["ftl.gc_pages_moved"] > 0
    assert golden["faults_wb"]["outputs"]["backend.failed_fast"] > 0


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("pass --regen to overwrite the golden file")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    data = {name: capture(name) for name in sorted(CELLS)}
    GOLDEN_PATH.write_text(json.dumps(data, indent=1) + "\n")
    for name, entry in data.items():
        print(f"{name}: {entry['n_events']} events, sha256={entry['sha256'][:16]}...")
