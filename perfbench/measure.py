"""Timing and profile attribution for the benchmark.

Timing rule, for every host-time metric: a repetition starts from a
collected heap and ends with ``gc.collect()`` inside its timer, so it
pays for its own garbage (reference cycles of the simulated world it
built) instead of leaving them to whichever later sample the cyclic
collector happens to run in.  Reported values are medians over the
post-warm-up repetitions, with their count and quartiles.

Host times are reported in *reference seconds*: a fixed calibration
kernel runs before and after every timed region, and the region's raw
seconds are divided by the mean of those two kernel times and multiplied
by :data:`REFERENCE_CAL_S`.  On a shared
virtual machine the speed of a vCPU drifts by +-20% over tens of
seconds with its neighbours' load; the kernel drifts with it, so the
ratio drifts less than raw seconds do.  The kernel is the benchmark's own
code, so a change to the program moves the ratio and not the kernel.
"""

from __future__ import annotations

import cProfile
import gc
import heapq
import pstats
import statistics
import time
from pathlib import Path
from typing import Any, Callable

#: Layers of the program, named after the ``repro`` sub-packages.  Self
#: time in any other code (the benchmark itself, external code with no
#: caller inside ``repro``) is reported as ``other``.
LAYERS = (
    "sim", "ssd", "nvme", "workloads", "net", "fabric", "core", "ml", "experiments",
)


#: The calibration kernel's time, in seconds, at the reference speed:
#: its median on a 2-vCPU Intel Xeon (2.1 GHz) virtual machine running
#: CPython 3.11.  A reference second is a second at that speed.
REFERENCE_CAL_S = 0.08


class _Event:
    __slots__ = ("time", "kind", "payload")

    def __init__(self, time: int, kind: int, payload: list) -> None:
        self.time = time
        self.kind = kind
        self.payload = payload


def _kernel(n: int = 60_000) -> dict[int, int]:
    """A fixed discrete-event-style loop: heap push/pop of tuples holding
    slotted objects, dict updates and small allocations -- the operations
    the simulator spends its time on."""
    heap: list = []
    counts: dict[int, int] = {}
    now = 0
    for i in range(n):
        heapq.heappush(heap, (now + (i * 7919) % 1000, i, _Event(now, i % 17, [i])))
        if len(heap) > 64:
            now, _, event = heapq.heappop(heap)
            counts[event.kind] = counts.get(event.kind, 0) + len(event.payload)
    return counts


def calibrate() -> float:
    """Seconds the calibration kernel takes now.

    The collector is off while it runs: its garbage is freed by
    reference counting, and a collection would time the size of the
    heap the benchmark happens to hold instead of the machine.
    """
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Clock:
    """Converts timed regions to reference seconds.

    Construction runs the kernel; call :meth:`factor` right after each
    timed region.  It runs the kernel again and returns
    ``REFERENCE_CAL_S / mean(kernel before, kernel after)``, the factor
    that converts the region's raw seconds to reference seconds.
    """

    def __init__(self) -> None:
        calibrate()  # first call pays for cold caches
        self._last = calibrate()

    def factor(self) -> float:
        before, self._last = self._last, calibrate()
        return REFERENCE_CAL_S / ((before + self._last) / 2)


def timed(fn: Callable[..., Any], *args: Any) -> tuple[Any, float]:
    """Run ``fn(*args)`` as one GC-charged repetition: ``(result, seconds)``."""
    gc.collect()
    t0 = time.perf_counter()
    result = fn(*args)
    gc.collect()
    return result, time.perf_counter() - t0


def profiled(
    fn: Callable[..., Any], *args: Any
) -> tuple[Any, float, float, pstats.Stats]:
    """:func:`timed` with ``fn`` run under :mod:`cProfile`.

    Returns ``(result, seconds, call_seconds, stats)``: ``seconds`` is
    timed like :func:`timed`, ``call_seconds`` covers the profiled call
    alone (what the profile's self times add up to).
    """
    profiler = cProfile.Profile()
    gc.collect()
    t0 = time.perf_counter()
    result = profiler.runcall(fn, *args)
    t1 = time.perf_counter()
    gc.collect()
    return result, time.perf_counter() - t0, t1 - t0, pstats.Stats(profiler)


def summary(values: list[float]) -> dict[str, float]:
    """Median, quartiles and count of a list of samples."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def layer_self_times(stats: pstats.Stats, package_root: Path) -> dict[str, float]:
    """Self seconds per layer from a cProfile run.

    A function under ``package_root/<layer>/`` belongs to that layer.
    Self time of any other function (builtins such as ``heapq.heappush``,
    numpy, the standard library) is charged to its callers in proportion
    to the time it spent on behalf of each, recursively, so the engine's
    heap operations count as ``sim`` and a forest's numpy work as ``ml``.
    The values sum to the profiled total.
    """
    root = str(package_root.resolve()) + "/"
    entries = stats.stats  # (file, line, name) -> (cc, nc, tt, ct, callers)

    def layer_of(key: tuple) -> str | None:
        filename = key[0]
        if not filename.startswith(root):
            return None
        head = filename[len(root):].split("/", 1)[0]
        return head if head in LAYERS else "other"

    shares_cache: dict[tuple, dict[str, float]] = {}

    def shares(key: tuple) -> dict[str, float]:
        layer = layer_of(key)
        if layer is not None:
            return {layer: 1.0}
        if key in shares_cache:
            return shares_cache[key]
        shares_cache[key] = {"other": 1.0}  # guards recursion through cycles
        callers = entries[key][4] if key in entries else {}
        weights = {c: edge[2] for c, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: edge[0] for c, edge in callers.items()}
            total = sum(weights.values())
        if total <= 0:
            return shares_cache[key]
        out: dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, frac in shares(caller).items():
                out[layer] = out.get(layer, 0.0) + frac * weight / total
        shares_cache[key] = out
        return out

    totals = {layer: 0.0 for layer in (*LAYERS, "other")}
    for key, (_cc, _nc, tt, _ct, _callers) in entries.items():
        for layer, frac in shares(key).items():
            totals[layer] += tt * frac
    return totals
