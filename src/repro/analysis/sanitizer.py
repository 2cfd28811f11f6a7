"""Runtime DES sanitizer: dispatch-time invariant checks (opt-in).

The static linter (:mod:`repro.analysis.simlint`) catches patterns that
*could* break determinism; this module catches state that already *has*
gone wrong, the moment it happens.  Enable it with
``Simulator(sanitize=True)`` or ``REPRO_SANITIZE=1`` (which attaches a
:class:`Sanitizer` to every :class:`~repro.sim.engine.Simulator`
constructed without an explicit ``sanitize``, so whole existing
scenarios run sanitized unchanged).  The :class:`Sanitizer` is a
:class:`~repro.sim.engine.DispatchObserver`: the engine's observed loop
calls its sweep after every K-th event and stamps its errors.

Checked invariants, per checked event:

* **event-time-monotonic** — the clock never moves backwards between
  dispatches (a corrupted heap or hand-pushed entry fails loudly; the
  observed loop itself checks this on every event);
* **queue-depth** — link queued bytes, switch buffered/ingress bytes,
  and NIC TXQ usage never go negative (and TXQ never exceeds capacity);
* **byte-conservation** — every DATA byte a NIC receives is either
  delivered in a reassembled message, still pending reassembly, or
  explicitly discarded (CRC failure, go-back-N dedup, partial-message
  eviction): ``bytes_received == reassembly_bytes_delivered + Σ partial
  + reassembly_bytes_discarded``;
* **reliability-bounds** — per-flow go-back-N state stays sane: never
  more unacked segments than the window, ``base_seq <= next_seq``, the
  current RTO inside ``[rto_ns, rto_max_ns]`` (backoff can neither
  undershoot the base nor escape the ceiling), and the retransmit queue
  never larger than the unacked window it was copied from;
* **wrr-tokens** — TokenWRR balances stay within ``[0, weight]``
  (the PR 1 clamp-at-zero semantics);
* **ftl-mapping** — after every GC erase, the forward map and the
  per-block reverse maps agree exactly (checked via a wrapper around
  :meth:`repro.ssd.ftl.FTL.finish_gc`, since a full walk is O(mapped
  pages) and only GC restructures the map).

Stride mode
-----------
``Simulator(sanitize="stride:K")`` (or ``REPRO_SANITIZE=stride:K``)
runs the component sweep every K-th dispatched event instead of every
event, plus one final full sweep when each ``run()`` call returns —
so a *sticky* violation (negative queue depth, broken conservation sum)
is always caught, at most K-1 events late, for ~1/K of the checking
cost.  Clock monotonicity is still verified on every event (one int
compare).  A strided run is bit-identical to a plain or fully-checked
run — the sanitizer only observes.

When a strided run does trip, the violation site is coarse (the event
*at the sampling point*, not the event that corrupted state).  The
:func:`escalate` helper implements the rewind-free escalation protocol:
re-run the same scenario seeded with ``sanitize=True`` — determinism
makes the replay exact — and let the full-fidelity run pinpoint the
first offending event.

Violations raise :class:`SanitizerError` carrying the invariant name,
the simulated time, and the offending event's callback site label (the
same ``__qualname__`` labels :mod:`repro.profiling` reports), so a
failure reads like ``[queue-depth] at t=1840ns during Link._finish: ...``.

Per-invariant-group cost counters (checks run, violations found, and —
after :meth:`Sanitizer.enable_cost_tracking` — nanoseconds spent per
group) feed :class:`repro.profiling.SanitizerCostProfile`.

The sanitizer never schedules events or draws randomness, so a
sanitized run is bit-identical to a plain one — the overhead budgets
(``<= 3.0x`` full, ``<= 1.15x`` at stride 64, on the incast cell) are
enforced by ``benchmarks/smoke_cell.py`` and recorded in
``benchmarks/results/``.  The observed dispatch loop never coalesces
anonymous events into batch dispatches (each member dispatches singly —
provably the same order, see ``repro.sim.engine``), so full-fidelity
checks run between batch members and localization stays exact.
"""

from __future__ import annotations

import time as _walltime
from typing import TYPE_CHECKING, Any, Callable, TypeVar

from repro.sim.engine import DispatchObserver, site_label

if TYPE_CHECKING:
    from repro.net.fluid import FluidDomain
    from repro.net.link import Link
    from repro.net.nic import NIC
    from repro.net.switch import Switch
    from repro.nvme.wrr import TokenWRR
    from repro.sim.engine import Simulator
    from repro.ssd.ftl import FTL

__all__ = [
    "SanitizerError",
    "Sanitizer",
    "escalate",
    "ftl_mapping_violation",
    "parse_stride",
]

_T = TypeVar("_T")


class SanitizerError(RuntimeError):
    """A runtime invariant of the simulation was violated.

    Attributes
    ----------
    invariant:
        Short invariant name (``queue-depth``, ``byte-conservation``, ...).
    detail:
        Human-readable description of the violated state.
    time_ns / site:
        Simulated time and callback site label of the offending event;
        filled in by the dispatch loop when the violation is detected
        outside it (e.g. the FTL GC hook).
    """

    def __init__(
        self,
        invariant: str,
        detail: str,
        *,
        time_ns: int | None = None,
        site: str | None = None,
    ) -> None:
        super().__init__(detail)
        self.invariant = invariant
        self.detail = detail
        self.time_ns = time_ns
        self.site = site

    def __str__(self) -> str:
        at = f" at t={self.time_ns}ns" if self.time_ns is not None else ""
        during = f" during {self.site}" if self.site else ""
        return f"[{self.invariant}]{at}{during}: {self.detail}"


def ftl_mapping_violation(ftl: "FTL") -> str | None:
    """Full forward/reverse FTL map consistency walk; None when clean."""
    chips = ftl._chips
    for lpn, (chip_index, block_id, page) in ftl._map.items():
        if not 0 <= chip_index < len(chips):
            return f"lpn {lpn} maps to nonexistent chip {chip_index}"
        block = chips[chip_index].blocks.get(block_id)
        if block is None:
            return f"lpn {lpn} maps to erased/unknown block {block_id} on chip {chip_index}"
        if block.page_lpn.get(page) != lpn:
            return (
                f"lpn {lpn} maps to (chip={chip_index}, block={block_id}, "
                f"page={page}) but the block records lpn "
                f"{block.page_lpn.get(page)} there"
            )
    for chip in chips:
        for block in chip.blocks.values():
            for page, lpn in block.page_lpn.items():
                if ftl._map.get(lpn) != (chip.chip_index, block.id, page):
                    return (
                        f"block {block.id} on chip {chip.chip_index} claims valid "
                        f"lpn {lpn} at page {page} but the map says "
                        f"{ftl._map.get(lpn)}"
                    )
    return None


#: Invariant-group keys, in sweep order (the cost-counter axis).
CHECK_GROUPS = ("links", "switches", "nics", "wrrs", "fluids")


class _CheckedFinishGC:
    """Instance-attribute wrapper for ``ftl.finish_gc`` (mapping check).

    A slotted callable rather than a closure so a sanitized FTL can be
    checkpoint-pickled.  It deliberately stores only the FTL and calls
    the *class* method through ``type(...)``: capturing the original
    bound ``ftl.finish_gc`` would re-capture this very wrapper (the
    instance attribute shadows the class method) after a restore.
    """

    __slots__ = ("ftl",)

    def __init__(self, ftl: "FTL") -> None:
        self.ftl = ftl

    def __call__(self, chip_index: int, block_id: int) -> None:
        type(self.ftl).finish_gc(self.ftl, chip_index, block_id)
        detail = ftl_mapping_violation(self.ftl)
        if detail is not None:
            raise SanitizerError(
                "ftl-mapping", f"after GC erase of block {block_id}: {detail}"
            )


class Sanitizer(DispatchObserver):
    """Registry of tracked components plus their per-event check functions.

    ``Simulator(sanitize=...)`` attaches one as ``sim.sanitizer``; the
    observed dispatch loop then calls :meth:`observe` (the full sweep)
    after every ``stride``-th event and :meth:`run_finished` (the
    end-of-run sweep) when a strided ``run()`` returns.  Components
    self-register at construction time when their simulator carries a
    sanitizer (``sim.sanitizer is not None``); tests can also register
    objects directly.  Checks are grouped by component type so a checked
    event pays a handful of Python calls, each a tight loop over a
    homogeneous list.  Per-group counters (``check_counts``,
    ``violation_counts``, and ``check_ns`` once
    :meth:`enable_cost_tracking` is on) record where checking time goes.
    """

    __slots__ = (
        "stride",
        "_links",
        "_switches",
        "_nics",
        "_wrrs",
        "_ftls",
        "_fluids",
        "events_checked",
        "check_counts",
        "violation_counts",
        "check_ns",
        "_timed",
    )

    def __init__(self, stride: int = 1) -> None:
        #: The component sweep runs every this-many dispatched events.
        self.stride = stride
        self._links: list[Link] = []
        self._switches: list[Switch] = []
        self._nics: list[NIC] = []
        self._wrrs: list[tuple[str, TokenWRR]] = []
        self._ftls: list[FTL] = []
        self._fluids: list[FluidDomain] = []
        self.events_checked = 0
        #: group -> component sweeps run (one per checked event).
        self.check_counts: dict[str, int] = {g: 0 for g in CHECK_GROUPS}
        #: group -> violations the sweep reported.
        self.violation_counts: dict[str, int] = {g: 0 for g in CHECK_GROUPS}
        #: group -> cumulative wall ns (only grows under cost tracking).
        self.check_ns: dict[str, int] = {g: 0 for g in CHECK_GROUPS}
        self._timed = False

    def enable_cost_tracking(self) -> None:
        """Start timing each invariant group (perf_counter_ns per sweep).

        Timing costs a couple of clock reads per group per checked
        event, so it is off by default; the count/violation counters are
        maintained either way.
        """
        self._timed = True

    # -- registration ---------------------------------------------------
    def track_link(self, link: "Link") -> None:
        self._links.append(link)

    def track_switch(self, switch: "Switch") -> None:
        self._switches.append(switch)

    def track_nic(self, nic: "NIC") -> None:
        self._nics.append(nic)

    def track_wrr(self, wrr: "TokenWRR", *, name: str = "TokenWRR") -> None:
        self._wrrs.append((name, wrr))

    def track_fluid(self, domain: "FluidDomain") -> None:
        self._fluids.append(domain)

    def track_ftl(self, ftl: "FTL") -> None:
        """Wrap ``ftl.finish_gc`` with a full mapping-consistency walk."""
        self._ftls.append(ftl)
        ftl.finish_gc = _CheckedFinishGC(ftl)  # type: ignore[method-assign]

    # -- per-event checks ------------------------------------------------
    def _check_links(self) -> tuple[str, str] | None:
        for link in self._links:
            if link._queued_bytes < 0:
                return (
                    "queue-depth",
                    f"link {link.name} queued_bytes went negative "
                    f"({link._queued_bytes})",
                )
        return None

    def _check_switches(self) -> tuple[str, str] | None:
        for switch in self._switches:
            if switch._buffered_bytes < 0:
                return (
                    "queue-depth",
                    f"switch {switch.name} buffered_bytes went negative "
                    f"({switch._buffered_bytes})",
                )
            for port, level in switch._ingress_bytes.items():
                if level < 0:
                    return (
                        "queue-depth",
                        f"switch {switch.name} ingress port {port} byte account "
                        f"went negative ({level})",
                    )
        return None

    def _check_nics(self) -> tuple[str, str] | None:
        for nic in self._nics:
            used = nic._txq_used
            if used < 0 or used > nic.config.txq_capacity_bytes:
                return (
                    "queue-depth",
                    f"NIC {nic.name} TXQ usage {used} outside "
                    f"[0, {nic.config.txq_capacity_bytes}]",
                )
            reassembly = nic._reassembly
            pending = sum(reassembly.values()) if reassembly else 0
            expected = (
                nic.reassembly_bytes_delivered
                + pending
                + nic.reassembly_bytes_discarded
            )
            if nic.bytes_received != expected:
                return (
                    "byte-conservation",
                    f"NIC {nic.name} received {nic.bytes_received} B but "
                    f"delivered {nic.reassembly_bytes_delivered} B with "
                    f"{pending} B pending and "
                    f"{nic.reassembly_bytes_discarded} B discarded "
                    f"({nic.bytes_received - expected:+d} B unaccounted)",
                )
            for flow in nic.flows.values():
                if flow.queued_bytes < 0:
                    return (
                        "queue-depth",
                        f"flow {nic.name}->{flow.dst} queued_bytes went "
                        f"negative ({flow.queued_bytes})",
                    )
                rel = flow._rel
                if rel is None:
                    continue
                rcfg = rel.config
                if len(rel.unacked) > rcfg.window_packets:
                    return (
                        "reliability-bounds",
                        f"flow {nic.name}->{flow.dst} holds "
                        f"{len(rel.unacked)} unacked segments, window is "
                        f"{rcfg.window_packets}",
                    )
                if rel.base_seq > rel.next_seq:
                    return (
                        "reliability-bounds",
                        f"flow {nic.name}->{flow.dst} base_seq "
                        f"{rel.base_seq} beyond next_seq {rel.next_seq}",
                    )
                if not rcfg.rto_ns <= rel.rto_current_ns <= rcfg.rto_max_ns:
                    return (
                        "reliability-bounds",
                        f"flow {nic.name}->{flow.dst} RTO "
                        f"{rel.rto_current_ns} outside "
                        f"[{rcfg.rto_ns}, {rcfg.rto_max_ns}]",
                    )
                if len(rel.retransmit_queue) > len(rel.unacked):
                    return (
                        "reliability-bounds",
                        f"flow {nic.name}->{flow.dst} retransmit queue "
                        f"({len(rel.retransmit_queue)}) larger than the "
                        f"unacked window ({len(rel.unacked)})",
                    )
        return None

    def _check_wrrs(self) -> tuple[str, str] | None:
        for name, wrr in self._wrrs:
            if not (0 <= wrr.read_tokens <= wrr.read_weight):
                return (
                    "wrr-tokens",
                    f"{name} read tokens {wrr.read_tokens} outside "
                    f"[0, {wrr.read_weight}]",
                )
            if not (0 <= wrr.write_tokens <= wrr.write_weight):
                return (
                    "wrr-tokens",
                    f"{name} write tokens {wrr.write_tokens} outside "
                    f"[0, {wrr.write_weight}]",
                )
        return None

    def _check_fluids(self) -> tuple[str, str] | None:
        for domain in self._fluids:
            failure = domain.fluid_violation()
            if failure is not None:
                return failure
        return None

    #: Group key -> bound sweep, filled per instance in ``check``.
    _GROUP_METHODS = (
        ("links", _check_links),
        ("switches", _check_switches),
        ("nics", _check_nics),
        ("wrrs", _check_wrrs),
        ("fluids", _check_fluids),
    )

    def check(self) -> tuple[str, str] | None:
        """Run every cheap invariant; ``(invariant, detail)`` or None."""
        self.events_checked += 1
        counts = self.check_counts
        if self._timed:
            clock = _walltime.perf_counter_ns
            ns = self.check_ns
            for group, method in self._GROUP_METHODS:
                t0 = clock()
                failure = method(self)
                ns[group] += clock() - t0
                counts[group] += 1
                if failure is not None:
                    self.violation_counts[group] += 1
                    return failure
            return None
        for group, method in self._GROUP_METHODS:
            counts[group] += 1
            failure = method(self)
            if failure is not None:
                self.violation_counts[group] += 1
                return failure
        return None

    def check_ftls(self) -> tuple[str, str] | None:
        """On-demand full FTL walk (also runs inside the GC hook)."""
        for ftl in self._ftls:
            detail = ftl_mapping_violation(ftl)
            if detail is not None:
                return ("ftl-mapping", detail)
        return None

    def check_now(self, time_ns: int | None = None) -> None:
        """Run every invariant check immediately (outside dispatch)."""
        failure = self.check() or self.check_ftls()
        if failure is not None:
            invariant, detail = failure
            raise SanitizerError(invariant, detail, time_ns=time_ns)

    def full_fidelity(self) -> None:
        """Check every event from the next ``run()`` call on (stride 1)."""
        self.stride = 1

    # -- dispatch observer ------------------------------------------------
    def observe(
        self, sim: "Simulator", time: int, callback: Callable[..., Any]
    ) -> None:
        failure = self.check()
        if failure is not None:
            invariant, detail = failure
            raise SanitizerError(
                invariant, detail, time_ns=time, site=site_label(callback)
            )

    def run_finished(
        self, sim: "Simulator", dispatched: int, completed: bool
    ) -> None:
        # End-of-run full sweep: a strided run must not let a sticky
        # violation escape just because the run ended mid-window.
        if not completed or self.stride == 1 or not dispatched:
            return
        failure = self.check()
        if failure is not None:
            invariant, detail = failure
            raise SanitizerError(
                invariant,
                f"{detail} (caught by the end-of-run sweep; re-run with "
                f"sanitize=True or repro.analysis.sanitizer.escalate() "
                f"for the exact event)",
                time_ns=sim.now,
            )

    @staticmethod
    def stamp(err: BaseException, time: int, callback: Callable[..., Any]) -> None:
        """Give a violation raised inside a callback its dispatch context.

        Deferred-origin violations (the FTL GC hook) know neither the
        event nor the time; the observed loop passes both on the way out.
        """
        if isinstance(err, SanitizerError):
            if err.site is None:
                err.site = site_label(callback)
            if err.time_ns is None:
                err.time_ns = time


def parse_stride(sanitize: bool | str) -> int:
    """Check stride encoded in a ``sanitize`` value (1 = every event).

    ``True`` (and truthy legacy strings like ``"1"``/``"on"``) mean
    full fidelity; ``"stride:K"`` samples every K-th event.
    """
    if isinstance(sanitize, str):
        value = sanitize.strip().lower()
        if value.startswith("stride:"):
            try:
                stride = int(value.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"malformed sanitize stride: {sanitize!r}") from None
            if stride < 1:
                raise ValueError(f"sanitize stride must be >= 1, got {stride}")
            return stride
    return 1


def escalate(
    scenario: Callable[[bool | str], _T], *, stride: int = 64
) -> _T:
    """Run ``scenario`` strided; on violation, replay at full fidelity.

    ``scenario`` must build and run its simulation from the ``sanitize``
    value it is passed (e.g. ``lambda s: run_incast_cell(sim=
    Simulator(sanitize=s))``) and be deterministic — every simulation in
    this library is, for fixed seeds.  The strided leg is cheap
    (~1/stride of the checking cost); only if its sampled sweep reports
    a violation is the cell re-run with ``sanitize=True``, which stops
    at the exact first offending event.  No state rewind is needed —
    determinism *is* the rewind.

    Raises the full-fidelity :class:`SanitizerError` (chained to the
    strided one) when the replay reproduces the violation; re-raises the
    strided error annotated as non-reproducing otherwise (a scenario
    that draws entropy outside the simulator could cause this).
    Returns the strided run's result when no violation fires.
    """
    try:
        return scenario(f"stride:{stride}")
    except SanitizerError as coarse:
        result = scenario(True)  # a precise SanitizerError chains implicitly
        del result
        raise SanitizerError(
            coarse.invariant,
            f"{coarse.detail} (violation did not reproduce under the "
            f"full-fidelity re-run; is the scenario deterministic?)",
            time_ns=coarse.time_ns,
            site=coarse.site,
        ) from coarse


def env_sanitize_enabled(value: str | None) -> bool:
    """Interpret the ``REPRO_SANITIZE`` environment value as on/off."""
    return bool(env_sanitize_mode(value))


def env_sanitize_mode(value: str | None) -> bool | str:
    """Interpret ``REPRO_SANITIZE``: off, full (``True``), or ``stride:K``."""
    if value is None:
        return False
    stripped = value.strip().lower()
    if stripped in ("", "0", "false", "no", "off"):
        return False
    if stripped.startswith("stride:"):
        return stripped
    return True
