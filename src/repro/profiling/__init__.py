"""Opt-in engine instrumentation: events/sec, callback sites, cProfile.

The plain :class:`repro.sim.engine.Simulator` keeps its dispatch loop
free of bookkeeping; this module provides the instrumentation for
performance work:

* :class:`SiteProfiler` — a dispatch observer that counts dispatches
  per callback site (:func:`site_label`) and measures wall-clock time;
* :class:`InstrumentedSimulator` — a ``Simulator`` constructed with a
  :class:`SiteProfiler` attached, whose :meth:`~InstrumentedSimulator.
  profile` also snapshots the heap high-water mark.  Slower than the
  plain engine; use it to find hot callbacks, not to produce results.
* :class:`EngineProfile` — the summary produced by
  :meth:`InstrumentedSimulator.profile`, JSON-ready via ``as_dict``.
* :func:`run_with_cprofile` — run any callable under :mod:`cProfile`
  and get back its result plus a cumulative-time report, for drilling
  below callback granularity into the engine itself.
* :mod:`repro.profiling.bench` — the standard scenarios
  (:func:`engine_microbench`, :func:`run_incast_cell`) that
  ``benchmarks/smoke_cell.py`` and the ``repro profile`` CLI subcommand
  time.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.profiling.bench import (
    BenchResult,
    build_incast_cell,
    engine_microbench,
    incast_outputs,
    run_incast_cell,
)
from repro.sim.engine import DispatchObserver, Simulator, site_label

__all__ = [
    "BenchResult",
    "EngineProfile",
    "InstrumentedSimulator",
    "SanitizerCostProfile",
    "SiteProfiler",
    "build_incast_cell",
    "engine_microbench",
    "incast_outputs",
    "run_incast_cell",
    "run_with_cprofile",
    "site_label",
]


@dataclass
class EngineProfile:
    """Aggregate engine statistics from an instrumented run."""

    events_dispatched: int = 0
    wall_s: float = 0.0
    heap_high_water: int = 0
    sim_end_ns: int = 0
    #: callback ``__qualname__`` -> dispatch count.
    site_counts: dict[str, int] = field(default_factory=dict)

    @property
    def events_per_sec(self) -> float:
        return self.events_dispatched / self.wall_s if self.wall_s > 0 else 0.0

    def top_sites(self, n: int = 10) -> list[tuple[str, int]]:
        """The ``n`` most-dispatched callback sites, descending."""
        return sorted(self.site_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n]

    def as_dict(self) -> dict:
        return {
            "events_dispatched": self.events_dispatched,
            "wall_s": round(self.wall_s, 6),
            "events_per_sec": round(self.events_per_sec),
            "heap_high_water": self.heap_high_water,
            "sim_end_ns": self.sim_end_ns,
            "site_counts": dict(self.top_sites(len(self.site_counts))),
        }

    def format(self, top: int = 10) -> str:
        lines = [
            f"events dispatched : {self.events_dispatched}",
            f"wall time         : {self.wall_s:.3f} s",
            f"events/sec        : {self.events_per_sec:,.0f}",
            f"heap high-water   : {self.heap_high_water}",
            f"sim end           : {self.sim_end_ns} ns",
            "top callback sites:",
        ]
        total = max(1, self.events_dispatched)
        for name, count in self.top_sites(top):
            lines.append(f"  {count:>10}  {100.0 * count / total:5.1f}%  {name}")
        return "\n".join(lines)


@dataclass
class SanitizerCostProfile:
    """Where the runtime sanitizer's checking budget went.

    Snapshot of a :class:`repro.analysis.sanitizer.Sanitizer`'s
    per-invariant-group counters: how many sweeps each group ran, how
    many violations it reported, and — when the sanitizer had
    ``enable_cost_tracking()`` on — the cumulative wall nanoseconds per
    group.  This is the number behind the stride-sampling trade-off:
    ``events_checked / events_dispatched`` quantifies what ``stride:K``
    saved, the per-group split says which invariant to thin out next.
    """

    #: Dispatched events that ran the full component sweep.
    events_checked: int = 0
    #: Total events the run dispatched (for the sampling-rate context).
    events_dispatched: int = 0
    #: group -> sweeps run / violations found / cumulative wall ns.
    check_counts: dict[str, int] = field(default_factory=dict)
    violation_counts: dict[str, int] = field(default_factory=dict)
    check_ns: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_simulator(cls, sim: Simulator) -> "SanitizerCostProfile":
        """Snapshot a sanitizing simulator's counters (post-run)."""
        sanitizer = sim.sanitizer
        if sanitizer is None:
            raise ValueError("simulator has no sanitizer attached")
        return cls(
            events_checked=sanitizer.events_checked,
            events_dispatched=sim.events_dispatched,
            check_counts=dict(sanitizer.check_counts),
            violation_counts=dict(sanitizer.violation_counts),
            check_ns=dict(sanitizer.check_ns),
        )

    @property
    def sampling_rate(self) -> float:
        """Fraction of dispatched events that paid a full sweep."""
        if self.events_dispatched <= 0:
            return 0.0
        return self.events_checked / self.events_dispatched

    def as_dict(self) -> dict:
        return {
            "events_checked": self.events_checked,
            "events_dispatched": self.events_dispatched,
            "sampling_rate": round(self.sampling_rate, 6),
            "check_counts": dict(self.check_counts),
            "violation_counts": dict(self.violation_counts),
            "check_ns": dict(self.check_ns),
        }

    def format(self) -> str:
        lines = [
            f"events checked    : {self.events_checked} of "
            f"{self.events_dispatched} dispatched "
            f"({100.0 * self.sampling_rate:.1f}%)",
            "per invariant group:",
        ]
        total_ns = max(1, sum(self.check_ns.values()))
        timed = any(self.check_ns.values())
        for group in self.check_counts:
            ns = self.check_ns.get(group, 0)
            cost = f"  {ns:>12} ns {100.0 * ns / total_ns:5.1f}%" if timed else ""
            lines.append(
                f"  {group:<10} {self.check_counts[group]:>10} sweeps"
                f"  {self.violation_counts.get(group, 0):>3} violations{cost}"
            )
        return "\n".join(lines)


class SiteProfiler(DispatchObserver):
    """Dispatch observer that counts events per callback site.

    Attached to a :class:`Simulator` it sees every dispatched event
    (stride 1) and accumulates the wall time of each ``run()`` call.
    """

    __slots__ = ("site_counts", "run_wall_s", "_t0")

    def __init__(self) -> None:
        #: :func:`site_label` -> dispatch count.
        self.site_counts: dict[str, int] = {}
        self.run_wall_s: float = 0.0
        self._t0 = 0.0

    def run_started(self, sim: Simulator) -> None:
        self._t0 = _time.perf_counter()

    def observe(self, sim: Simulator, time: int, callback: Callable[..., Any]) -> None:
        name = site_label(callback)
        self.site_counts[name] = self.site_counts.get(name, 0) + 1

    def run_finished(self, sim: Simulator, dispatched: int, completed: bool) -> None:
        self.run_wall_s += _time.perf_counter() - self._t0


class InstrumentedSimulator(Simulator):
    """A :class:`Simulator` with a :class:`SiteProfiler` attached.

    Never sanitized (the sanitizer's sweeps would pollute the wall
    time), and slower than the plain engine: use it to find hot
    callbacks, not to produce results.  Outputs are bit-identical.
    """

    __slots__ = ("profiler",)

    def __init__(self, *, trace: bool = False) -> None:
        super().__init__(trace=trace, sanitize=False)
        self.profiler = self.attach(SiteProfiler())

    def profile(self) -> EngineProfile:
        """Snapshot the statistics accumulated so far."""
        return EngineProfile(
            events_dispatched=self.events_dispatched,
            wall_s=self.profiler.run_wall_s,
            heap_high_water=self._queue.high_water,
            sim_end_ns=self.now,
            site_counts=dict(self.profiler.site_counts),
        )


def run_with_cprofile(
    fn: Callable[[], Any], *, top: int = 25, sort: str = "cumulative"
) -> tuple[Any, str]:
    """Run ``fn`` under :mod:`cProfile`; return ``(result, report_text)``.

    Complements :class:`InstrumentedSimulator`: site counts say *which
    callbacks* dominate, the cProfile report says *where inside them*
    (and inside the engine) the time goes.
    """
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).strip_dirs().sort_stats(sort).print_stats(top)
    return result, buf.getvalue()
