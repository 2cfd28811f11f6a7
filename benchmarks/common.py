"""Shared benchmark infrastructure.

* :func:`save_result` — persist a reproduced table under
  ``benchmarks/results/`` and queue it for the terminal summary;
* :func:`save_perf` / :func:`bench_workers` — sweep perf counters
  (events/sec, per-cell wall time, worker utilisation) persisted as
  JSON so BENCH_*.json runs can track the parallel-runner speedup;
* :func:`save_engine_perf` / :func:`load_engine_baseline` /
  :func:`load_engine_floor` — single-engine throughput numbers
  (``results/engine_perf.json``) against the checked-in pre-optimisation
  baseline and regression floor;
* :func:`trained_tpm` — session-cached TPM training per SSD model (the
  expensive sweep runs once even when several figure benches need it);
* workload factories matching the §IV descriptions (VDI-like trace, the
  Fig. 10 intensity levels).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.core.sampling import SamplingPlan, collect_training_set_with_report
from repro.core.tpm import ThroughputPredictionModel
from repro.parallel import SweepReport
from repro.sim.units import MS
from repro.ssd.config import SSDConfig
from repro.workloads.micro import MicroWorkloadConfig, generate_micro_trace
from repro.workloads.traces import Trace

RESULTS_DIR = Path(__file__).parent / "results"

#: (name, text) pairs replayed by the terminal summary hook.
SESSION_RESULTS: list[tuple[str, str]] = []

#: name -> perf counters, replayed by the terminal summary hook.
SESSION_PERF: dict[str, dict] = {}


def bench_workers() -> int:
    """Worker count for benchmark sweeps.

    ``REPRO_BENCH_WORKERS`` overrides (``1`` forces the serial path —
    results are bit-identical either way); the default uses every core.
    """
    env = os.environ.get("REPRO_BENCH_WORKERS")
    return int(env) if env else (os.cpu_count() or 1)


def save_result(name: str, text: str) -> None:
    """Write a reproduced table to disk and queue it for the summary."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    SESSION_RESULTS.append((name, text))


def save_perf(name: str, report: SweepReport) -> dict:
    """Persist a sweep's perf counters as JSON next to the tables.

    Returns the counter dict so benches can also attach it to
    ``benchmark.extra_info`` (landing in BENCH_*.json).
    """
    payload = report.perf_dict()
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}_perf.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    SESSION_PERF[name] = payload
    return payload


BENCH_DIR = Path(__file__).parent

#: Pre-optimisation engine numbers, captured once on the machine that
#: ran the PR 2 refactor (see ``results/engine_perf.json`` for the
#: matching "after" run).
ENGINE_BASELINE_PATH = BENCH_DIR / "engine_perf_baseline.json"

#: Minimum acceptable throughput — half the *pre-optimisation* baseline,
#: i.e. generous slack meant to catch order-of-magnitude regressions
#: (an accidental O(n) scan back in the loop), not machine jitter.
ENGINE_FLOOR_PATH = BENCH_DIR / "engine_perf_floor.json"


def load_engine_baseline() -> dict:
    """The checked-in pre-optimisation engine throughput numbers."""
    return json.loads(ENGINE_BASELINE_PATH.read_text())


def load_engine_floor() -> dict:
    """The checked-in events/sec floors for the engine perf guard."""
    return json.loads(ENGINE_FLOOR_PATH.read_text())


def save_engine_perf(current: dict) -> dict:
    """Persist engine throughput as before/after in ``engine_perf.json``.

    ``current`` maps scenario name (``engine_microbench``,
    ``incast_cell``) to a :class:`repro.profiling.BenchResult` dict.
    Returns the full payload (baseline + current + speedups).
    """
    baseline = load_engine_baseline()
    speedup = {}
    for key, cur in current.items():
        base = baseline.get(key)
        if base and base.get("events_per_sec"):
            speedup[key] = round(cur["events_per_sec"] / base["events_per_sec"], 2)
    payload = {"baseline": baseline, "current": current, "speedup": speedup}
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "engine_perf.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    SESSION_PERF["engine"] = {
        f"{key}_events_per_sec": cur["events_per_sec"] for key, cur in current.items()
    } | {f"{key}_speedup": s for key, s in speedup.items()}
    return payload


#: Maximum acceptable slowdown of the sanitizer-enabled incast cell
#: relative to the plain run.  The sanitizer's per-event invariant sweep
#: (queue depths, byte conservation, WRR token bounds) is O(components),
#: so >2x is expected on the small smoke cell.  This is a *ratio*
#: budget: the 2.5x value was set against a ~240k ev/s plain engine, and
#: the batched dispatch/rate-table work roughly doubled the denominator
#: without touching the sweep's absolute cost, so the bound is now 3.0x.
#: It still catches an accidentally quadratic check; absolute sweep cost
#: is additionally pinned by the stride budget below (the sampled leg
#: amortises the same sweep) and the engine events/sec floor.
SANITIZER_OVERHEAD_BUDGET = 3.0

#: Maximum acceptable slowdown of the *stride-sampled* sanitizer
#: (``sanitize="stride:64"``) on the same cell.  At stride 64 the
#: component sweep runs on ~1.6% of events, so what remains is the
#: sanitizing dispatch loop itself (monotonicity check, sampling
#: countdown, no batch coalescing); 1.15x is the contract that makes
#: strided checking cheap enough to leave on by default in long runs.
STRIDE_SANITIZER_OVERHEAD_BUDGET = 1.15

#: The stride the budget above is measured at (and CI enforces).
STRIDE_SANITIZER_STRIDE = 64


def _slowdown(off: dict, leg: dict) -> float:
    return (
        off["events_per_sec"] / leg["events_per_sec"]
        if leg.get("events_per_sec")
        else float("inf")
    )


def save_sanitizer_perf(off: dict, on: dict, stride: dict | None = None) -> dict:
    """Persist sanitizer-on vs -off (and optionally strided) numbers.

    ``off``/``on``/``stride`` are :class:`repro.profiling.BenchResult`
    dicts of the same scenario, measured *in the same process* so they
    share warm-up state.  Returns the payload, including slowdown
    ratios checked against :data:`SANITIZER_OVERHEAD_BUDGET` and
    :data:`STRIDE_SANITIZER_OVERHEAD_BUDGET`.

    The off leg recorded here is the number every other results file
    must agree with for this scenario — see
    :func:`shared_scenario_mismatch`.
    """
    payload = {
        "scenario": "incast_cell",
        "sanitize_off": off,
        "sanitize_on": on,
        "slowdown": round(_slowdown(off, on), 3),
        "budget": SANITIZER_OVERHEAD_BUDGET,
    }
    if stride is not None:
        payload[f"sanitize_stride_{STRIDE_SANITIZER_STRIDE}"] = stride
        payload["stride_slowdown"] = round(_slowdown(off, stride), 3)
        payload["stride_budget"] = STRIDE_SANITIZER_OVERHEAD_BUDGET
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "sanitizer_overhead.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    SESSION_PERF["sanitizer"] = {
        "events_per_sec_off": off["events_per_sec"],
        "events_per_sec_on": on["events_per_sec"],
        "slowdown": payload["slowdown"],
    } | (
        {
            "events_per_sec_stride": stride["events_per_sec"],
            "stride_slowdown": payload["stride_slowdown"],
        }
        if stride is not None
        else {}
    )
    return payload


#: Maximum relative disagreement between two results files' measurements
#: of the *same* scenario.  Both numbers come from one warmed process
#: (see ``smoke_cell.sanitizer_guard``), so a larger gap means the
#: accounting regressed — e.g. one file silently measuring a cold
#: process or a different cell — not machine noise.
SHARED_SCENARIO_TOLERANCE = 0.10


def shared_scenario_mismatch(
    tolerance: float = SHARED_SCENARIO_TOLERANCE,
) -> str | None:
    """Cross-check the incast numbers shared by the two results files.

    ``engine_perf.json`` (``current.incast_cell``) and
    ``sanitizer_overhead.json`` (``sanitize_off``) both record the plain
    2 ms incast cell.  Historically each file was regenerated by a
    separate cold process, so the "same" scenario disagreed by >40%
    and any ratio built across the files was fiction.  Both files are
    now written from one warmed process sharing the off leg; this check
    fails loudly if they ever drift apart again.  Returns a description
    of the mismatch, or ``None`` when consistent (or when either file
    is missing — nothing to compare yet).
    """
    engine_path = RESULTS_DIR / "engine_perf.json"
    sanitizer_path = RESULTS_DIR / "sanitizer_overhead.json"
    if not engine_path.exists() or not sanitizer_path.exists():
        return None
    engine = json.loads(engine_path.read_text())
    sanitizer = json.loads(sanitizer_path.read_text())
    a = engine.get("current", {}).get("incast_cell", {}).get("events_per_sec")
    b = sanitizer.get("sanitize_off", {}).get("events_per_sec")
    if not a or not b:
        return None
    gap = abs(a - b) / max(a, b)
    if gap > tolerance:
        return (
            f"incast_cell disagrees across results files: engine_perf.json "
            f"says {a} events/sec, sanitizer_overhead.json says {b} "
            f"({100 * gap:.1f}% apart, tolerance {100 * tolerance:.0f}%) — "
            f"regenerate both with "
            f"`PYTHONPATH=src python benchmarks/smoke_cell.py --sanitizer` "
            f"so they share one warmed off-leg measurement"
        )
    return None


#: Maximum acceptable slowdown of the incast cell with the fault
#: machinery attached but *no faults scheduled* (empty plan armed,
#: watchdog installed).  A dormant injector adds zero events and the
#: per-packet hooks are single is-None checks, so the honest cost is
#: ~1.0x; 1.1x tolerates machine jitter while catching any accidental
#: per-event work sneaking into the hooks.
FAULT_HOOK_OVERHEAD_BUDGET = 1.1


def save_faults_perf(off: dict, on: dict) -> dict:
    """Persist hooks-off vs hooks-on (dormant) incast numbers as JSON.

    ``off``/``on`` are :class:`repro.profiling.BenchResult` dicts of the
    same scenario.  Returns the payload, including the slowdown ratio
    checked against :data:`FAULT_HOOK_OVERHEAD_BUDGET`.
    """
    ratio = (
        off["events_per_sec"] / on["events_per_sec"]
        if on.get("events_per_sec")
        else float("inf")
    )
    payload = {
        "scenario": "incast_cell",
        "hooks_off": off,
        "hooks_on_dormant": on,
        "slowdown": round(ratio, 3),
        "budget": FAULT_HOOK_OVERHEAD_BUDGET,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "faults_overhead.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    SESSION_PERF["faults"] = {
        "events_per_sec_off": off["events_per_sec"],
        "events_per_sec_on": on["events_per_sec"],
        "slowdown": payload["slowdown"],
    }
    return payload


#: Maximum acceptable slowdown of a run checkpointed every
#: :data:`CHECKPOINT_EVERY_EVENTS` events relative to the same cell run
#: uninterrupted.  The cost has two parts: the pickle of the whole world
#: at each boundary (small — the incast world is a few dozen
#: components) and the loss of batch coalescing inside ``max_events``
#: legs.  1.15x is the contract that makes periodic checkpointing cheap
#: enough to leave on for long runs.
CHECKPOINT_OVERHEAD_BUDGET = 1.15

#: The checkpoint cadence the budget above is measured at.
CHECKPOINT_EVERY_EVENTS = 100_000


def save_checkpoint_perf(off: dict, ckpt: dict, *, n_checkpoints: int,
                         checkpoint_bytes: int) -> dict:
    """Persist plain vs checkpointed incast numbers as JSON.

    ``off``/``ckpt`` are :class:`repro.profiling.BenchResult` dicts of
    the same scenario (one warmed process).  The slowdown is a
    wall-time ratio — event *counts* can legitimately differ between
    the legs because ``max_events`` legs disable batch coalescing, so
    events/sec would not compare like for like.
    """
    ratio = (
        ckpt["wall_s"] / off["wall_s"] if off.get("wall_s") else float("inf")
    )
    payload = {
        "scenario": "incast_cell",
        "checkpoints_off": off,
        "checkpoints_on": ckpt,
        "n_checkpoints": n_checkpoints,
        "checkpoint_bytes": checkpoint_bytes,
        "every_events": CHECKPOINT_EVERY_EVENTS,
        "slowdown": round(ratio, 3),
        "budget": CHECKPOINT_OVERHEAD_BUDGET,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "checkpoint_overhead.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    SESSION_PERF["checkpoint"] = {
        "wall_s_off": off["wall_s"],
        "wall_s_on": ckpt["wall_s"],
        "slowdown": payload["slowdown"],
        "checkpoint_bytes": checkpoint_bytes,
    }
    return payload


#: Minimum acceptable event-count reduction of the dual-fidelity Clos
#: cell: the all-packet projection (dispatched events plus what serving
#: the fluid bytes as MTU packets would have cost) over the events
#: actually dispatched.  The acceptance-scale cell (4-pod Clos, 200
#: tenants, 8 foreground flows, 100 ms) measures ~16x; 10x is the
#: contract — dropping below it means fluid flows started costing
#: per-packet work again (e.g. the coupling accidentally forcing
#: per-packet updates) and the whole mode lost its reason to exist.
DUAL_FIDELITY_EVENT_REDUCTION_FLOOR = 10.0

#: Minimum events/sec of the dual-fidelity Clos cell's dispatch loop.
#: Measured ~210k on the reference box (the cell is heavier per event
#: than the incast smoke: 256 NICs, five-hop paths, burst math); half
#: of that catches order-of-magnitude regressions without tracking
#: machine jitter.
DUAL_FIDELITY_EVENTS_PER_SEC_FLOOR = 100_000


def save_clos_scale(result: dict) -> dict:
    """Persist the dual-fidelity Clos cell's numbers as JSON.

    ``result`` is a :class:`repro.experiments.ClosScaleResult` dict; the
    payload adds the two floors the guard enforces so the artifact is
    self-describing.
    """
    payload = {
        "scenario": "clos_scale_dual_fidelity",
        "result": result,
        "event_reduction_floor": DUAL_FIDELITY_EVENT_REDUCTION_FLOOR,
        "events_per_sec_floor": DUAL_FIDELITY_EVENTS_PER_SEC_FLOOR,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "clos_scale.json").write_text(json.dumps(payload, indent=2) + "\n")
    SESSION_PERF["clos_scale"] = {
        "events_per_sec": result["events_per_sec"],
        "event_reduction": result["event_reduction"],
    }
    return payload


#: Training sweep used for every TPM in the benchmark suite: the Fig. 5
#: axes (10–25 µs, 10–44 KB) extended with two lighter inter-arrival
#: points (40/60 µs) so the model sees both saturated and unsaturated
#: cells — without the latter, arrival flow speed carries no signal and
#: the model cannot predict light workloads (Fig. 10's light level).
DEFAULT_PLAN = SamplingPlan(
    interarrival_ns=(10_000, 16_000, 25_000, 40_000, 60_000),
    size_bytes=(16 * 1024, 32 * 1024, 44 * 1024),
    weight_ratios=(1, 2, 3, 4, 6, 8, 12),
    read_write_mixes=(1.0, 2.0),
    duration_ns=50 * MS,
)

_TPM_CACHE: dict[str, ThroughputPredictionModel] = {}


def trained_tpm(config: SSDConfig, plan: SamplingPlan | None = None) -> ThroughputPredictionModel:
    """A Random-Forest TPM for ``config``, trained once per session.

    The training sweep fans across :func:`bench_workers` processes; its
    perf counters land in ``results/tpm_training_<name>_perf.json``.
    """
    key = config.name
    if key not in _TPM_CACHE:
        training, report = collect_training_set_with_report(
            config, plan or DEFAULT_PLAN, workers=bench_workers()
        )
        save_perf(f"tpm_training_{key}", report)
        _TPM_CACHE[key] = ThroughputPredictionModel().fit(training)
    return _TPM_CACHE[key]


def vdi_like_trace(*, n_reads: int = 6000, n_writes: int = 2000, seed: int = 11) -> Trace:
    """The §IV-D workload: read-intensive, 44 KB reads / 23 KB writes,
    ~10 µs read inter-arrivals (≈35 Gbps offered read traffic)."""
    reads = MicroWorkloadConfig(10_000, 44 * 1024)
    writes = MicroWorkloadConfig(30_000, 23 * 1024)
    return generate_micro_trace(reads, writes, n_reads=n_reads, n_writes=n_writes, seed=seed)
