"""Separate submission queues with WRR fetch — §III-A, Fig. 4-b.

The SSQ driver is the storage-side control point SRC manipulates:

* reads enter RSQ, writes enter WSQ — unless the **consistency check**
  finds an overlapping-LBA request still waiting in some SQ, in which
  case the new request joins that same queue so dependent I/Os retire
  in submission order;
* the device fetches by **token WRR** (:class:`repro.nvme.wrr.TokenWRR`);
  a fetched command consumes a token of *its own I/O type* regardless of
  which queue held it, preserving the demanded weight ratio;
* the configured queue depth is **partitioned** between the types in
  proportion to the weights, bounding per-type in-flight commands.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.nvme.wrr import TokenWRR
from repro.workloads.request import IORequest, OpType

_READ = OpType.READ


class SSQDriver:
    """Separate read/write submission queues with weighted fetch."""

    #: Dependency-detection granularity in bytes.  Requests are indexed
    #: by the 4 KiB buckets they touch; bucket collision is a
    #: conservative superset of sector overlap.
    DEPENDENCY_BUCKET_BYTES = 4096

    def __init__(
        self,
        read_weight: int = 1,
        write_weight: int = 1,
        *,
        consistency_check: bool = True,
    ) -> None:
        self.wrr = TokenWRR(read_weight, write_weight)
        #: §III-A data-consistency mechanism; disable only for ablation
        #: studies (dependent I/Os may then retire out of order).
        self.consistency_check = consistency_check
        self.rsq: deque[IORequest] = deque()
        self.wsq: deque[IORequest] = deque()
        self._doorbell: Callable[[], None] | None = None
        self.submitted = 0
        self.fetched = 0
        self.consistency_redirects = 0
        #: History of (submit-time) weight changes, for experiment plots.
        self.weight_log: list[tuple[int, int, int]] = []
        # bucket -> [queue, refcount]: which SQ holds waiting requests
        # touching this address bucket, and how many.
        self._pending_buckets: dict[int, list] = {}
        #: ``(queue_depth, read_slots, write_slots)`` of the last fetch;
        #: :meth:`set_weights` clears it.
        self._slots: tuple[int, int, int] | None = None

    def connect(self, device) -> None:
        """Bind to a device; submissions will ring its doorbell."""
        self._doorbell = device.doorbell
        device.attach_driver(self)
        sim = getattr(device, "sim", None)
        sanitizer = getattr(sim, "sanitizer", None)
        if sanitizer is not None:
            sanitizer.track_wrr(self.wrr, name="SSQDriver.wrr")

    # -- weight control (SRC's knob) -----------------------------------------
    def set_weights(self, read_weight: int, write_weight: int, *, now_ns: int = 0) -> None:
        self.wrr.set_weights(read_weight, write_weight)
        self._slots = None  # the QD partition follows the weights
        self.weight_log.append((now_ns, read_weight, write_weight))
        # A weight change can unblock fetch immediately (e.g. a larger
        # write partition); let the device re-evaluate.
        if self._doorbell is not None:
            self._doorbell()

    @property
    def weight_ratio(self) -> float:
        return self.wrr.weight_ratio

    # -- host side -----------------------------------------------------------
    def submit(self, request: IORequest, *, now_ns: int | None = None) -> None:
        """Enqueue with the consistency check, then ring the doorbell."""
        if now_ns is not None:
            request.submit_ns = now_ns
        target = self.rsq if request.op is _READ else self.wsq
        if self.consistency_check:
            target = self._index_request(request, target)
        target.append(request)
        self.submitted += 1
        if self._doorbell is not None:
            self._doorbell()

    def _index_request(
        self, request: IORequest, natural: deque[IORequest]
    ) -> deque[IORequest]:
        """Consistency check and bucket indexing in one pass.

        Returns the SQ ``request`` must join: the queue of the first
        waiting request whose bucket it overlaps, else ``natural``.
        Overlap is tracked at :data:`DEPENDENCY_BUCKET_BYTES` granularity
        through an index updated on submit/fetch, so the check is
        O(pages touched) instead of a queue scan.  Buckets already
        indexed gain a reference (later requests to a bucket follow the
        same queue, so repointing is unnecessary); new buckets are
        indexed under the chosen queue.
        """
        pending = self._pending_buckets
        first = request.lba * 512
        width = self.DEPENDENCY_BUCKET_BYTES
        buckets = range(first // width, (first + request.size_bytes - 1) // width + 1)
        if pending.keys().isdisjoint(buckets):
            # No dependency waiting (the common case).
            for bucket in buckets:
                pending[bucket] = [natural, 1]
            return natural
        target = None
        fresh = []
        for bucket in buckets:
            entry = pending.get(bucket)
            if entry is None:
                fresh.append(bucket)
            else:
                if target is None:
                    target = entry[0]
                entry[1] += 1
        if target is not natural:
            self.consistency_redirects += 1
        for bucket in fresh:
            pending[bucket] = [target, 1]
        return target

    def _unindex_buckets(self, request: IORequest) -> None:
        pending = self._pending_buckets
        first = request.lba * 512
        width = self.DEPENDENCY_BUCKET_BYTES
        for bucket in range(first // width, (first + request.size_bytes - 1) // width + 1):
            entry = pending.get(bucket)
            if entry is None:
                continue
            if entry[1] > 1:
                entry[1] -= 1
            else:
                del pending[bucket]

    # -- device side (SubmissionSource) -----------------------------------------
    def has_pending(self) -> bool:
        return bool(self.rsq or self.wsq)

    def _partition(self, queue_depth: int) -> tuple[int, int]:
        """(read slots, write slots) split of QD by the weight ratio."""
        total = self.wrr.read_weight + self.wrr.write_weight
        write_slots = max(1, (queue_depth * self.wrr.write_weight) // total)
        read_slots = max(1, queue_depth - write_slots)
        return read_slots, write_slots

    def fetch(
        self, inflight_reads: int, inflight_writes: int, queue_depth: int
    ) -> IORequest | None:
        # WRR chooses by queue occupancy; the skip-if-empty rule (serve
        # the other queue without moving tokens) applies only to truly
        # empty queues.  A slot-blocked head instead *stalls* fetch until
        # its class completes a command — this is what makes the token
        # ratio authoritative for throughput control, while the QD
        # partition guarantees each class its own slots so a class whose
        # completions are back-pressured (reads under congestion) can
        # never occupy the whole device.
        rsq = self.rsq
        wsq = self.wsq
        if rsq and wsq:
            # Tokens move only when both queues compete for the turn.
            both = True
            queue = rsq if self.wrr.choose(True, True) is _READ else wsq
        elif rsq or wsq:
            both = False
            queue = rsq or wsq
        else:
            return None
        head = queue[0]
        slots = self._slots
        if slots is None or slots[0] != queue_depth:
            slots = self._slots = (queue_depth, *self._partition(queue_depth))
        if head.op is _READ:
            if inflight_reads >= slots[1]:
                return None
        elif inflight_writes >= slots[2]:
            return None
        queue.popleft()
        if self.consistency_check:
            self._unindex_buckets(head)
        if both:
            self.wrr.consume(head.op)
        self.fetched += 1
        return head

    # -- introspection ----------------------------------------------------------
    def queued(self) -> int:
        return len(self.rsq) + len(self.wsq)

    def queue_lengths(self) -> tuple[int, int]:
        return len(self.rsq), len(self.wsq)
