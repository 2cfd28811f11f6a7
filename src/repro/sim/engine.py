"""The discrete-event simulator engine.

One :class:`Simulator` instance owns the global clock.  Components
(:class:`repro.net.link.Link`, :class:`repro.ssd.device.SSD`, ...)
hold a reference to it and call :meth:`Simulator.schedule` /
:meth:`Simulator.schedule_at` to arrange future work.

The engine is intentionally minimal — no process abstraction, no
co-routines — because profiling showed plain callback dispatch is the
fastest way to push millions of events through CPython (see
``DESIGN.md`` §5).  :meth:`Simulator.run` works directly on the event
queue's tuple heap: each iteration peeks the head tuple once, pops it,
and dispatches, instead of paying a ``peek_time()`` + ``pop()`` double
traversal per event.

Two event kinds flow through the loop (see :mod:`repro.sim.events`):
handled ``(time, seq, HANDLED_MARK, Event)`` entries for anything that
might be cancelled, and anonymous ``(time, seq, callback, args)``
entries (:meth:`Simulator.schedule_anon`) for fire-and-forget hot
paths; one sentinel identity check per dispatch tells them apart.
Adjacent anonymous entries at the *same timestamp* with the *same
callback object* are coalesced into one batch dispatch when the
callback has a batch handler registered via
:meth:`Simulator.register_batch` — a burst of packets landing on a link
in one tick then costs one Python call instead of N.  Coalescing is
strictly order-preserving: batch members are exactly the consecutive
run of equal-``(time, callback)`` heap heads, popped in sequence order,
and anonymous events cannot be cancelled, so a batched dispatch is
semantically identical to dispatching the members one by one.

:meth:`Simulator.run` has exactly two loops.  The lean loop above runs
whenever nothing watches the run; attaching a :class:`DispatchObserver`
(the ``trace=True`` dispatch log, the runtime sanitizer, the profiler)
or passing ``max_events`` selects the observed loop, which dispatches
strictly one event at a time (no coalescing — same order, see above),
checks that the clock never moves backwards, and calls each observer
after every ``stride``-th event.  The strides share one countdown, so
a sampled observer costs the loop one int compare per event, not a
method call.
"""

from __future__ import annotations

import heapq
import os
from typing import TYPE_CHECKING, Any, Callable, TypeVar

from repro.sim.events import HANDLED_MARK, Event, EventQueue

if TYPE_CHECKING:
    from repro.analysis.sanitizer import Sanitizer
    from repro.core.units import Nanoseconds

#: Sentinel "no deadline" for the run loop's ``until`` comparison —
#: far beyond any simulated instant, so one int compare replaces an
#: ``is not None`` check per dispatched event.
_NO_DEADLINE = 1 << 62


class MaxEventsExceeded(RuntimeError):
    """:meth:`Simulator.run` hit its ``max_events`` safety valve.

    Raised *after* the limit-hitting event ran, so the simulator's state
    is partial — ``now`` sits at that event's time and later events are
    still queued — but fully consistent and open for inspection: the
    clock, ``events_dispatched``, and the pending queue all reflect
    exactly what was dispatched.  The attributes carry the same snapshot
    for handlers that only see the exception.
    """

    def __init__(
        self, max_events: int, dispatched: int, pending: int, now: Nanoseconds
    ) -> None:
        super().__init__(
            f"simulation exceeded max_events={max_events} after dispatching "
            f"{dispatched} events in this run() call ({pending} events still "
            f"pending at t={now}); possible livelock — simulator state is "
            f"partial but consistent for inspection"
        )
        self.max_events = max_events
        self.dispatched = dispatched
        self.pending = pending
        self.now = now


def site_label(callback: Callable[..., Any]) -> str:
    """Stable label for a callback site (dispatch log, profiler, sanitizer).

    Functions and bound methods give their ``__qualname__``; callable
    instances give their class's, so no label carries a memory address.
    """
    return getattr(callback, "__qualname__", None) or type(callback).__qualname__


class DispatchObserver:
    """A hook on :meth:`Simulator.run`'s observed loop.

    Attach one with :meth:`Simulator.attach`.  :meth:`observe` runs
    after the callback of every ``stride``-th dispatched event, counted
    over the simulator's lifetime (events ``stride``, ``2 * stride``,
    ... — the phase survives ``run()`` boundaries and checkpoints);
    :meth:`run_started` / :meth:`run_finished` bracket each ``run()``
    call.  An observer may raise to abort the run; it must not schedule
    events, so an observed run dispatches exactly what a plain one does.
    """

    __slots__ = ()

    #: observe() runs on every this-many dispatched events (re-read
    #: whenever the observer is due and at the first event of a run).
    stride: int = 1

    def run_started(self, sim: "Simulator") -> None:
        """Called when ``run()`` enters the observed loop."""

    def observe(
        self, sim: "Simulator", time: "Nanoseconds", callback: Callable[..., Any]
    ) -> None:
        """Called after the due event's ``callback`` returned."""

    def run_finished(
        self, sim: "Simulator", dispatched: int, completed: bool
    ) -> None:
        """Called as ``run()`` exits; ``completed`` is False when it raised."""


class _DispatchLog(DispatchObserver):
    """The ``trace=True`` observer: appends ``(time, site)`` per event."""

    __slots__ = ("log",)

    def __init__(self, log: list[tuple[int, str]]) -> None:
        self.log = log

    def observe(
        self, sim: "Simulator", time: "Nanoseconds", callback: Callable[..., Any]
    ) -> None:
        self.log.append((time, site_label(callback)))


_Observer = TypeVar("_Observer", bound=DispatchObserver)


class Simulator:
    """Single-clock discrete-event simulator.

    Parameters
    ----------
    trace:
        When true, every dispatched event is appended to
        :attr:`dispatch_log` as ``(time, site_label(callback))`` —
        useful in tests, far too slow for real runs.  The log is kept by
        an observer, so a traced run dispatches one event at a time and
        logs exactly what a coalescing run dispatches.
    sanitize:
        When true (or when the ``REPRO_SANITIZE`` environment variable
        is set and ``sanitize`` is left as ``None``), a
        :class:`repro.analysis.sanitizer.Sanitizer` is attached as
        :attr:`sanitizer`: it checks runtime invariants (clock
        monotonicity, queue depths, byte conservation, ...) and raises
        :class:`~repro.analysis.sanitizer.SanitizerError` on violation.
        The string form ``"stride:K"`` (e.g. ``"stride:64"``, also
        accepted in ``REPRO_SANITIZE``) samples the invariant sweep
        every K-th event instead of every event — see DESIGN.md §6.
        The sanitized run is bit-identical to a plain one, just slower.
    """

    #: ``__slots__`` keeps every hot attribute (``now`` above all — read
    #: and written once per dispatched event) a fixed-offset slot load
    #: instead of a dict lookup.  Subclasses declare their own additions.
    __slots__ = (
        "now",
        "_queue",
        "dispatch_log",
        "events_dispatched",
        "_batch_callbacks",
        "_observers",
        "sanitizer",
        "watchdog",
    )

    def __init__(
        self, *, trace: bool = False, sanitize: bool | str | None = None
    ) -> None:
        self.now: Nanoseconds = 0
        self._queue = EventQueue()
        self.dispatch_log: list[tuple[int, str]] = []
        self.events_dispatched: int = 0
        #: item callback -> batch callback (see :meth:`register_batch`).
        self._batch_callbacks: dict[Callable[..., None], Callable[..., None]] = {}
        #: Attached observers, in attach order (see :meth:`attach`).
        self._observers: list[DispatchObserver] = []
        #: The attached sanitizer; components register themselves here
        #: when it is not ``None``.
        self.sanitizer: "Sanitizer | None" = None
        #: Quiescence hook (e.g. the stuck-I/O watchdog from
        #: :mod:`repro.faults.watchdog`): called with the simulator once
        #: per :meth:`run` call, only when the event heap fully drained —
        #: i.e. the model has nothing left to do.  Zero per-event cost.
        #: The hook may raise (``StuckIOError``) to turn a silent wedge
        #: into a diagnostic failure.
        self.watchdog: "Callable[[Simulator], None] | None" = None
        if trace:
            self.attach(_DispatchLog(self.dispatch_log))
        if sanitize is None and "REPRO_SANITIZE" in os.environ:
            from repro.analysis.sanitizer import env_sanitize_mode

            sanitize = env_sanitize_mode(os.environ["REPRO_SANITIZE"])
        if sanitize:
            from repro.analysis.sanitizer import Sanitizer, parse_stride

            self.sanitizer = self.attach(Sanitizer(stride=parse_stride(sanitize)))

    def attach(self, observer: _Observer) -> _Observer:
        """Watch every following :meth:`run` with ``observer``; returns it.

        Any attached observer routes ``run`` through the observed loop.
        Observers are called in attach order.
        """
        self._observers.append(observer)
        return observer

    # -- scheduling -----------------------------------------------------
    def schedule(
        self, delay: Nanoseconds, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` ns from now.

        Extra positional ``args`` are stored on the event handle and
        passed to the callback at dispatch — cheaper than allocating a
        closure per scheduled call on hot paths.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self._queue.push(self.now + delay, callback, *args)

    def schedule_at(
        self, time: Nanoseconds, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        return self._queue.push(time, callback, *args)

    def schedule_anon(
        self, delay: Nanoseconds, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` ``delay`` ns from now, handle-free.

        The anonymous twin of :meth:`schedule`: no :class:`Event` is
        allocated and the call cannot be cancelled.  Use on
        fire-and-forget hot paths (per-packet link steps); keep
        :meth:`schedule` for anything a component may need to cancel.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        # push_anon inlined: this is the per-packet scheduling path, and
        # the extra call frame measurably shows up on the incast cell.
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        heap = queue._heap
        heapq.heappush(heap, (self.now + delay, seq, callback, args))
        queue._live += 1
        if len(heap) > queue.high_water:
            queue.high_water = len(heap)

    def schedule_at_anon(
        self, time: Nanoseconds, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` at absolute ``time``, handle-free."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        heap = queue._heap
        heapq.heappush(heap, (time, seq, callback, args))
        queue._live += 1
        if len(heap) > queue.high_water:
            queue.high_water = len(heap)

    def schedule_recurring_anon(
        self,
        interval_ns: Nanoseconds,
        callback: Callable[[], None],
        *,
        until_ns: Nanoseconds,
    ) -> None:
        """Fire ``callback()`` every ``interval_ns`` until ``until_ns``.

        The recurring twin of :meth:`schedule_anon` for coarse-clock
        subsystems (the fluid background-traffic domain of
        :mod:`repro.net.fluid` above all): exactly one anonymous heap
        entry exists per series at any moment — the driver reschedules
        itself after invoking ``callback`` — so a domain ticking every
        ~100 µs costs the heap one slot, not one entry per future tick.
        The last firing is the largest ``now + k * interval_ns`` that is
        ``<= until_ns``; the series then ends (nothing to cancel — the
        driver simply stops rescheduling).
        """
        if interval_ns <= 0:
            raise ValueError(f"interval must be positive, got {interval_ns}")
        first_ns = self.now + interval_ns
        if first_ns <= until_ns:
            self.schedule_at_anon(
                first_ns, self._recurring_tick, interval_ns, until_ns, callback
            )

    def _recurring_tick(
        self,
        interval_ns: Nanoseconds,
        until_ns: Nanoseconds,
        callback: Callable[[], None],
    ) -> None:
        """Driver for :meth:`schedule_recurring_anon` (one hop per tick)."""
        callback()
        next_ns = self.now + interval_ns
        if next_ns <= until_ns:
            self.schedule_at_anon(
                next_ns, self._recurring_tick, interval_ns, until_ns, callback
            )

    def register_batch(
        self,
        callback: Callable[..., None],
        batch_callback: Callable[[list[tuple[Any, ...]]], None],
    ) -> None:
        """Declare ``batch_callback`` the coalesced form of ``callback``.

        When consecutive *anonymous* heap entries share one timestamp
        and the same ``callback`` object, the run loop pops the whole
        run and dispatches ``batch_callback([args, args, ...])`` once —
        each element the args tuple of one member, in dispatch order.
        The callback must be the identical object across schedules
        (e.g. a bound method cached once at construction); equal-but-
        distinct bound methods never coalesce, they just dispatch
        one by one.
        """
        self._batch_callbacks[callback] = batch_callback

    # -- execution ------------------------------------------------------
    def run(
        self, until: Nanoseconds | None = None, max_events: int | None = None
    ) -> int:
        """Dispatch events in time order.

        Parameters
        ----------
        until:
            Stop once the next event would fire after this time; the
            clock is advanced to ``until`` itself.  ``None`` runs until
            the queue drains.
        max_events:
            Safety valve for tests; raises :class:`MaxEventsExceeded` (a
            ``RuntimeError``) when hit so a livelocked model fails loudly
            rather than hanging CI.  The simulator is left mid-run —
            clock advanced, remaining events queued — but consistent, so
            callers may inspect ``now``, ``pending()``, and
            ``events_dispatched`` after catching the error.  A limit
            selects the observed loop, which never coalesces, so the
            limit is exact to the single event.

        Returns
        -------
        int
            The number of events dispatched during this call (batch
            members count individually).
        """
        if self._observers or max_events is not None:
            return self._run_observed(until, max_events)
        queue = self._queue
        heap = queue._heap  # the queue compacts in place; alias stays valid
        heappop = heapq.heappop
        batch_map = self._batch_callbacks
        deadline = _NO_DEADLINE if until is None else until
        coalesce = batch_map
        dispatched = 0
        # Lean loop for the overwhelmingly common configuration: no
        # observer, no event limit.  Identical semantics to the observed
        # loop below minus its per-event clock check and observer
        # countdown, which measurably add up at millions of events.
        try:
            while heap:
                time, _seq, callback, tail = heap[0]
                if time > deadline:
                    break
                heappop(heap)
                if callback is not HANDLED_MARK:
                    queue._live -= 1
                    self.now = time
                    if (
                        coalesce
                        and heap
                        and (head := heap[0])[0] == time
                        and head[2] is callback
                    ):
                        batch_callback = batch_map.get(callback)
                        if batch_callback is not None:
                            batch = [tail]
                            append = batch.append
                            while heap:
                                head = heap[0]
                                if head[0] != time or head[2] is not callback:
                                    break
                                heappop(heap)
                                append(head[3])
                            queue._live -= len(batch) - 1
                            batch_callback(batch)
                            dispatched += len(batch)
                            continue
                    callback(*tail)
                else:
                    ev = tail
                    if ev.cancelled:
                        queue._dead -= 1
                        continue
                    ev._queue = None
                    queue._live -= 1
                    self.now = time
                    args = ev.args
                    if args:
                        ev.callback(*args)
                    else:
                        ev.callback()
                dispatched += 1
        finally:
            self.events_dispatched += dispatched
        if until is not None and until > self.now:
            self.now = until
        if self.watchdog is not None and not heap:
            self.watchdog(self)
        return dispatched

    def _run_observed(self, until: Nanoseconds | None, max_events: int | None) -> int:
        """:meth:`run` one event at a time, with observers and a limit.

        Batch coalescing is off, so every event is one dispatch: the
        observers see each batch member and ``max_events`` is exact.
        Same pop order as the lean loop, hence the same outputs.
        """
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        deadline = _NO_DEADLINE if until is None else until
        limit = _NO_DEADLINE if max_events is None else max_events
        observers = self._observers
        for observer in observers:
            observer.run_started(self)
        base = self.events_dispatched
        # ``stop`` is the dispatch count at which an observer may be due
        # or the limit is hit, so one compare per event covers both.  It
        # starts at the first event, where the due set is worked out.
        stop = 1
        dispatched = 0
        completed = False
        time = self.now
        callback: Any = None
        try:
            while heap:
                time, _seq, callback, args = heap[0]
                if time > deadline:
                    break
                heappop(heap)
                if callback is not HANDLED_MARK:
                    queue._live -= 1
                else:
                    ev = args
                    if ev.cancelled:
                        queue._dead -= 1
                        continue
                    ev._queue = None
                    queue._live -= 1
                    callback = ev.callback
                    args = ev.args
                if time < self.now:
                    raise _clock_went_backwards(time, self.now, callback)
                self.now = time
                if args:
                    callback(*args)
                else:
                    callback()
                dispatched += 1
                if dispatched >= stop:
                    # Observers fire at lifetime event counts that are
                    # multiples of their stride.
                    count = base + dispatched
                    stop = limit
                    for observer in observers:
                        stride = observer.stride
                        phase = count % stride
                        if not phase:
                            observer.observe(self, time, callback)
                        if dispatched + stride - phase < stop:
                            stop = dispatched + stride - phase
                    if dispatched >= limit:
                        raise MaxEventsExceeded(
                            limit, dispatched, queue._live, self.now
                        )
            completed = True
        except Exception as err:
            # A violation raised from inside a callback (the sanitizer's
            # FTL GC hook) leaves its dispatch context unset; stamp the
            # event being dispatched on the way out.
            if self.sanitizer is not None:
                self.sanitizer.stamp(err, time, callback)
            raise
        finally:
            self.events_dispatched += dispatched
            for observer in observers:
                observer.run_finished(self, dispatched, completed)
        if until is not None and until > self.now:
            self.now = until
        if self.watchdog is not None and not heap:
            self.watchdog(self)
        return dispatched

    def pending(self) -> int:
        """Number of live events still scheduled (O(1))."""
        return len(self._queue)


def _clock_went_backwards(
    time: Nanoseconds, now: Nanoseconds, callback: Callable[..., Any]
) -> Exception:
    """The observed loop's clock-monotonicity failure (a corrupted heap)."""
    from repro.analysis.sanitizer import SanitizerError

    return SanitizerError(
        "event-time-monotonic",
        f"event scheduled at t={time} dispatched after t={now} — the clock "
        f"moved backwards",
        time_ns=time,
        site=site_label(callback),
    )
