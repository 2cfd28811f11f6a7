"""The benchmark's workloads: what one set-up and one repetition do.

Every workload is open loop in simulated time: requests arrive on a
seeded schedule whatever the simulator does with them.  The benchmark
generates every input from the ``--seed`` it is given and hands the
program nothing else.

* ``ssd_sweep`` -- a serial TPM-training-style grid of device-local
  replays.  Exercises the SSD read chain, the NVMe SSQ driver and trace
  generation/feature extraction; the network is never built.
* ``gc_writes`` -- one write-dominated replay on a shrunk SSD, so greedy
  GC, write-cache stalls and CMT misses run.  Same ``ssd``/``nvme``
  layers as ``ssd_sweep`` but the program/erase/GC path instead of reads.
* ``fig7_src`` -- the paper's Fig. 7 cell through ``run_testbed``:
  DCQCN-only and DCQCN-SRC on a congested 1-initiator/2-target star.
  Network, fabric and controller work dominates; set-up trains the TPM.

A repetition returns a flat dict of simulated outputs.  They are a
deterministic function of the seed, so the benchmark checks them for
exact equality; the per-layer counters are read from the same dict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.core.sampling import SamplingPlan, collect_training_set_with_report
from repro.core.tpm import ThroughputPredictionModel
from repro.experiments.replay import replay_on_device
from repro.experiments.runner import BackgroundTraffic, TestbedConfig, run_testbed
from repro.nvme.ssq import SSQDriver
from repro.sim.units import KIB, MIB, MS
from repro.ssd.config import SSD_A, SSD_B
from repro.workloads.features import extract_features
from repro.workloads.micro import MicroWorkloadConfig, generate_micro_trace
from repro.workloads.traces import Trace

Outputs = dict[str, float]


class Spans(dict):
    """Accumulated host seconds (and call counts) around public calls.

    The benchmark's own instrumentation: it wraps the calls it makes
    into a layer, never code inside the program.
    """

    def add(self, key: str, seconds: float) -> None:
        self[key] = self.get(key, 0.0) + seconds

    def timed(self, key: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.add(key, time.perf_counter() - t0)


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``prepare(spans, small) -> shared``: the seed-independent set-up a
    #: repetition reuses.  ``small`` shrinks the workload for self-tests.
    prepare: Callable[[Spans, bool], Any]
    #: ``inputs(shared, seed, spans) -> inputs``: generate the seed's inputs.
    inputs: Callable[[Any, int, Spans], Any]
    #: ``fresh(inputs) -> args``: untimed per-repetition copy of inputs
    #: the simulator mutates (it stamps the requests it is given).
    fresh: Callable[[Any], Any]
    #: ``rep(shared, args, spans) -> outputs``: one timed unit of work.
    rep: Callable[[Any, Any, Spans], Outputs]
    #: ``invariants(outputs) -> problems`` that must hold at every seed.
    invariants: Callable[[Outputs], list[str]]


def _copy_trace(trace: Trace) -> Trace:
    """Fresh request objects, keeping ``req_id`` so arrival ties sort as
    in the original."""
    return Trace([replace(req) for req in trace])


def _unchanged(inputs: Any) -> Any:
    return inputs


def _ssd_counts(ssds, drivers) -> Outputs:
    """Additive SSD and NVMe driver counters."""
    return {
        "ssd.commands_completed": sum(s.controller.commands_completed for s in ssds),
        "ssd.gc_invocations": sum(s.ftl.gc_invocations for s in ssds),
        "ssd.gc_pages_moved": sum(s.ftl.gc_pages_moved for s in ssds),
        "ssd.cmt_hits": sum(s.ftl.cmt.hits for s in ssds),
        "ssd.cmt_misses": sum(s.ftl.cmt.misses for s in ssds),
        "ssd.cache_read_hits": sum(s.cache.read_hits for s in ssds),
        "ssd.cache_read_misses": sum(s.cache.read_misses for s in ssds),
        "nvme.fetched": sum(d.fetched for d in drivers),
        "nvme.consistency_redirects": sum(
            getattr(d, "consistency_redirects", 0) for d in drivers
        ),
    }


def _add(total: Outputs, counts: Outputs) -> None:
    for key, value in counts.items():
        total[key] = total.get(key, 0) + value


def _with_ratios(counts: Outputs) -> Outputs:
    """``counts`` plus the CMT and write-cache read hit ratios."""

    def ratio(hits: str, misses: str) -> float:
        total = counts[hits] + counts[misses]
        return counts[hits] / total if total else 0.0

    return {
        **counts,
        "ssd.cmt_hit_ratio": ratio("ssd.cmt_hits", "ssd.cmt_misses"),
        "ssd.cache_read_hit_ratio": ratio("ssd.cache_read_hits", "ssd.cache_read_misses"),
    }


def _positive(outputs: Outputs, *keys: str) -> list[str]:
    return [f"{k} = {outputs[k]!r}, expected > 0" for k in keys if not outputs[k] > 0]


# -- ssd_sweep ------------------------------------------------------------

#: (device, mean read inter-arrival ns, write:read inter-arrival factor,
#: SSQ write weight).  Both Table II devices, a saturating and a lighter
#: arrival rate, balanced and read-heavy mixes, and two weight ratios --
#: the axes the TPM training sweep walks.
SWEEP_GRID = [
    (ssd, inter, mix, weight)
    for ssd in (SSD_A, SSD_B)
    for inter in (10_000, 25_000)
    for mix in (1.0, 2.0)
    for weight in (1, 4)
]
SWEEP_SIZE_BYTES = 32 * KIB
SWEEP_SPAN_NS = 10 * MS


@dataclass(frozen=True)
class SweepShared:
    grid: list
    span_ns: int


def _sweep_prepare(spans: Spans, small: bool) -> SweepShared:
    if small:
        return SweepShared(SWEEP_GRID[::4], SWEEP_SPAN_NS // 4)
    return SweepShared(SWEEP_GRID, SWEEP_SPAN_NS)


def _sweep_inputs(shared: SweepShared, seed: int, spans: Spans) -> int:
    # Each cell generates its own trace inside the repetition, as the
    # training sweep does; the input is the seed they derive from.
    return seed


def _sweep_rep(shared: SweepShared, seed: int, spans: Spans) -> Outputs:
    read_gbps = write_gbps = 0.0
    counts: Outputs = {}
    for index, (config, inter, mix, weight) in enumerate(shared.grid):
        trace = spans.timed(
            "workloads.trace_gen_s",
            generate_micro_trace,
            MicroWorkloadConfig(inter, SWEEP_SIZE_BYTES),
            MicroWorkloadConfig(inter * mix, SWEEP_SIZE_BYTES),
            n_reads=max(300, int(shared.span_ns / inter)),
            n_writes=max(300, int(shared.span_ns / (inter * mix))),
            seed=seed * 1000 + index,
        )
        spans.timed("workloads.features_s", extract_features, trace)
        driver = SSQDriver(read_weight=1, write_weight=weight)
        result = replay_on_device(trace, config, driver, drain=False, measure_start_fraction=0.4)
        read_gbps += result.read_tput_gbps
        write_gbps += result.write_tput_gbps
        _add(counts, {
            "sim.events": result.sim_events,
            "sim.reads_measured": result.reads_completed,
            "sim.writes_measured": result.writes_completed,
            **_ssd_counts([result.ssd], [driver]),
        })
    n = len(shared.grid)
    return {"sim.read_gbps": read_gbps / n, "sim.write_gbps": write_gbps / n,
            **_with_ratios(counts)}


def _sweep_invariants(out: Outputs) -> list[str]:
    return _positive(out, "sim.read_gbps", "sim.write_gbps", "ssd.commands_completed")


# -- gc_writes -----------------------------------------------------------

#: SSD-B shrunk until GC must run: 16 chips x 8 blocks x 64 pages is
#: 128 MiB of flash, written through a 4 MiB cache with a one-page CMT
#: (2048 translations) over a 40 MiB address space.  Over a 64 MiB space
#: GC cannot keep up and the FTL runs out of free blocks on about half
#: the seeds; over 40 MiB none of seeds 0-199 did.
GC_CONFIG = SSD_B.with_overrides(
    name="SSD-B-gc",
    blocks_per_chip=8,
    pages_per_block=64,
    write_cache_bytes=4 * MIB,
    cmt_bytes=16 * KIB,
)
GC_ADDRESS_SECTORS = 40 * MIB // 512
#: Per-direction request counts; writes arrive every ~20 us.
GC_WRITES, GC_READS = 4000, 1000
GC_WRITE_INTERARRIVAL_NS = 20_000


def _gc_prepare(spans: Spans, small: bool) -> None:
    """Nothing to share; the self-tests run the full size, since a
    smaller trace never fills the flash enough to start GC."""


def _gc_inputs(shared: None, seed: int, spans: Spans) -> Trace:
    return spans.timed(
        "setup.trace_gen_s",
        generate_micro_trace,
        MicroWorkloadConfig(
            GC_WRITE_INTERARRIVAL_NS * GC_WRITES / GC_READS,
            16 * KIB,
            address_space_sectors=GC_ADDRESS_SECTORS,
        ),
        MicroWorkloadConfig(
            GC_WRITE_INTERARRIVAL_NS, 32 * KIB, address_space_sectors=GC_ADDRESS_SECTORS
        ),
        n_reads=GC_READS,
        n_writes=GC_WRITES,
        seed=seed,
    )


def _gc_rep(shared: None, trace: Trace, spans: Spans) -> Outputs:
    driver = SSQDriver(read_weight=1, write_weight=1)
    result = replay_on_device(trace, GC_CONFIG, driver, drain=True)
    return {
        "sim.read_gbps": result.read_tput_gbps,
        "sim.write_gbps": result.write_tput_gbps,
        "sim.events": result.sim_events,
        "sim.reads_measured": result.reads_completed,
        "sim.writes_measured": result.writes_completed,
        "sim.end_ns": result.ssd.sim.now,
        **_with_ratios(_ssd_counts([result.ssd], [driver])),
    }


def _gc_invariants(out: Outputs) -> list[str]:
    return _positive(
        out, "sim.read_gbps", "sim.write_gbps", "ssd.gc_invocations", "ssd.gc_pages_moved"
    )


# -- fig7_src ------------------------------------------------------------

#: The section IV-D cell shortened from 70 ms to 30 ms: the VDI-like
#: read-heavy trace (44 KB reads every ~10 us, 23 KB writes every
#: ~30 us), 14 background hosts at 10 Gbps congesting the initiator
#: downlink over the same share of the run as the paper's 10-45 ms
#: episode.
FIG7_SPAN_NS = 30 * MS
#: Reduced TPM training grid (24 cells): the weight-ratio axis over
#: saturating-to-light arrival rates of the Fig. 5 sizes.  The device
#: model is trained once per device, not per workload, so its seed is
#: fixed and only the trace follows ``--seed``.
FIG7_PLAN = SamplingPlan(
    interarrival_ns=(10_000, 25_000, 60_000),
    size_bytes=(32 * KIB, 44 * KIB),
    weight_ratios=(1, 2, 4, 8),
    read_write_mixes=(2.0,),
    duration_ns=20 * MS,
    seed=0,
)


class CountingTPM(ThroughputPredictionModel):
    """The default TPM, counting and timing the controller's predictions."""

    def __init__(self) -> None:
        super().__init__()
        self.predict_calls = 0
        self.predict_s = 0.0

    def predict(self, features, weight_ratio):
        t0 = time.perf_counter()
        try:
            return super().predict(features, weight_ratio)
        finally:
            self.predict_s += time.perf_counter() - t0
            self.predict_calls += 1


@dataclass(frozen=True)
class Fig7Shared:
    tpm: CountingTPM
    span_ns: int


def _fig7_prepare(spans: Spans, small: bool) -> Fig7Shared:
    plan = FIG7_PLAN
    if small:
        plan = replace(plan, interarrival_ns=(10_000, 60_000), weight_ratios=(1, 4))
    t0 = time.perf_counter()
    training, report = collect_training_set_with_report(SSD_A, plan, workers=1)
    tpm = CountingTPM()
    spans.timed("ml.fit_s", tpm.fit, training)
    spans.add("setup.tpm_train_s", time.perf_counter() - t0)
    spans.add("parallel.sweep_wall_s", report.wall_s)
    spans.add("parallel.overhead_s", report.wall_s - report.cell_wall_s)
    spans.add("parallel.cells", report.n_cells)
    return Fig7Shared(tpm, FIG7_SPAN_NS // (3 if small else 1))


def _fig7_inputs(shared: Fig7Shared, seed: int, spans: Spans) -> Trace:
    n_reads = shared.span_ns // 10_000
    return spans.timed(
        "setup.trace_gen_s",
        generate_micro_trace,
        MicroWorkloadConfig(10_000, 44 * KIB),
        MicroWorkloadConfig(30_000, 23 * KIB),
        n_reads=n_reads,
        n_writes=n_reads // 3,
        seed=seed,
    )


def _testbed_counts(run) -> Outputs:
    switches = run.network.switches.values()
    ssds = [ssd for t in run.targets for ssd in t.ssds]
    drivers = [d for t in run.targets for d in t.drivers]
    return {
        "net.packets_forwarded": sum(s.packets_forwarded for s in switches),
        "net.ecn_marks": sum(s.ecn_marks for s in switches),
        "net.pfc_pauses": sum(s.pauses_sent for s in switches),
        "net.packets_dropped": sum(s.packets_dropped for s in switches),
        "net.cnps": sum(len(nic.cnp_log) for nic in run.network.hosts.values()),
        "fabric.requests_sent": sum(i.requests_sent for i in run.initiators),
        "fabric.commands_received": sum(t.commands_received for t in run.targets),
        **_ssd_counts(ssds, drivers),
    }


def _fig7_fresh(trace: Trace) -> tuple[Trace, Trace]:
    """One copy of the trace for each scheme."""
    return _copy_trace(trace), _copy_trace(trace)


def _fig7_rep(shared: Fig7Shared, traces: tuple[Trace, Trace], spans: Spans) -> Outputs:
    tpm = shared.tpm
    calls, seconds = tpm.predict_calls, tpm.predict_s
    background = BackgroundTraffic(
        start_ns=shared.span_ns // 7,
        end_ns=shared.span_ns * 45 // 70,
        rate_gbps=10.0,
        n_hosts=14,
    )
    only = run_testbed(
        traces[0],
        TestbedConfig(driver="default", background=background, ssd_config=SSD_A),
        duration_ns=shared.span_ns,
    )
    src = run_testbed(
        traces[1],
        TestbedConfig(driver="ssq", src_enabled=True, background=background, ssd_config=SSD_A),
        tpm=tpm,
        duration_ns=shared.span_ns,
    )
    spans.add("ml.predict_calls", tpm.predict_calls - calls)
    spans.add("ml.predict_s", tpm.predict_s - seconds)
    counts: Outputs = {}
    _add(counts, _testbed_counts(only))
    _add(counts, _testbed_counts(src))
    return {
        "sim.read_gbps": src.trimmed_read_gbps(),
        "sim.write_gbps": src.trimmed_write_gbps(),
        "sim.only_read_gbps": only.trimmed_read_gbps(),
        "sim.only_write_gbps": only.trimmed_write_gbps(),
        "core.src_gain_pct": 100.0
        * (src.trimmed_aggregated_gbps() / only.trimmed_aggregated_gbps() - 1.0),
        "sim.events": only.sim_events + src.sim_events,
        "net.only_cnps_at_targets": len(only.pause_times_ns),
        "net.src_cnps_at_targets": len(src.pause_times_ns),
        **_with_ratios(counts),
    }


def _fig7_invariants(out: Outputs) -> list[str]:
    return _positive(out, "sim.read_gbps", "sim.write_gbps", "core.src_gain_pct")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ssd_sweep",
            _sweep_prepare,
            _sweep_inputs,
            _unchanged,
            _sweep_rep,
            _sweep_invariants,
        ),
        Workload(
            "gc_writes",
            _gc_prepare,
            _gc_inputs,
            _copy_trace,
            _gc_rep,
            _gc_invariants,
        ),
        Workload(
            "fig7_src",
            _fig7_prepare,
            _fig7_inputs,
            _fig7_fresh,
            _fig7_rep,
            _fig7_invariants,
        ),
    )
}
