"""Property: the one-pass SSQ bucket index equals the two-pass original.

:class:`TwoPassSSQ` below is the SSQ driver as it was before its index
was fused: ``submit`` first looks up the consistency queue over the
request's 4 KiB buckets, then walks the same buckets again to index
them; ``fetch`` recomputes the QD partition on every call and always
walks the fetched request's buckets to unindex it.  Random overlapping
submit/fetch/re-weight sequences drive both drivers side by side; queue
placement, fetch results, ``consistency_redirects`` and the bucket
refcounts must agree after every step.
"""

from __future__ import annotations

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvme.ssq import SSQDriver
from repro.nvme.wrr import TokenWRR
from repro.workloads.request import IORequest, OpType

BUCKET = 4096


class TwoPassSSQ:
    """Reference implementation (two bucket passes per submit)."""

    def __init__(self, read_weight: int, write_weight: int) -> None:
        self.wrr = TokenWRR(read_weight, write_weight)
        self.rsq: deque[IORequest] = deque()
        self.wsq: deque[IORequest] = deque()
        self.consistency_redirects = 0
        self.fetched = 0
        self.pending: dict[int, list] = {}

    @staticmethod
    def buckets(request: IORequest) -> range:
        start = (request.lba * 512) // BUCKET
        end = (request.lba * 512 + request.size_bytes - 1) // BUCKET
        return range(start, end + 1)

    def submit(self, request: IORequest) -> None:
        natural = self.rsq if request.is_read else self.wsq
        target = None
        for bucket in self.buckets(request):  # pass 1: consistency lookup
            entry = self.pending.get(bucket)
            if entry is not None:
                target = entry[0]
                break
        if target is None:
            target = natural
        elif target is not natural:
            self.consistency_redirects += 1
        for bucket in self.buckets(request):  # pass 2: index
            entry = self.pending.get(bucket)
            if entry is None:
                self.pending[bucket] = [target, 1]
            else:
                entry[1] += 1
        target.append(request)

    def fetch(self, inflight_reads: int, inflight_writes: int, queue_depth: int):
        choice = self.wrr.choose(bool(self.rsq), bool(self.wsq))
        if choice is None:
            return None
        both = bool(self.rsq) and bool(self.wsq)
        queue = self.rsq if choice is OpType.READ else self.wsq
        head = queue[0]
        total = self.wrr.read_weight + self.wrr.write_weight
        write_slots = max(1, (queue_depth * self.wrr.write_weight) // total)
        read_slots = max(1, queue_depth - write_slots)
        if head.is_read and inflight_reads >= read_slots:
            return None
        if not head.is_read and inflight_writes >= write_slots:
            return None
        queue.popleft()
        for bucket in self.buckets(head):
            entry = self.pending.get(bucket)
            if entry is None:
                continue
            entry[1] -= 1
            if entry[1] <= 0:
                del self.pending[bucket]
        if both:
            self.wrr.consume(head.op)
        self.fetched += 1
        return head


def _state(driver, rsq, wsq, pending) -> dict:
    name = {id(rsq): "rsq", id(wsq): "wsq"}
    return {
        "rsq": [r.req_id for r in rsq],
        "wsq": [r.req_id for r in wsq],
        "redirects": driver.consistency_redirects,
        "fetched": driver.fetched,
        "tokens": (driver.wrr.read_tokens, driver.wrr.write_tokens),
        "index": {b: (name[id(q)], n) for b, (q, n) in sorted(pending.items())},
    }


submit_op = st.tuples(
    st.just("submit"),
    st.booleans(),  # is read
    st.integers(0, 40),  # start sector, in units of 2 KiB (straddles buckets)
    st.integers(1, 40),  # size in 512 B sectors (up to 5 buckets)
)
fetch_op = st.tuples(
    st.just("fetch"),
    st.integers(0, 6),  # in-flight reads
    st.integers(0, 6),  # in-flight writes
    st.sampled_from([2, 4, 8, 64]),  # queue depth
)
weight_op = st.tuples(st.just("weights"), st.integers(1, 8), st.integers(1, 8), st.just(0))


@settings(deadline=None, max_examples=200)
@given(
    weights=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    ops=st.lists(st.one_of(submit_op, submit_op, fetch_op, weight_op), max_size=80),
)
def test_fused_index_matches_two_pass_reference(weights, ops):
    driver = SSQDriver(*weights)
    ref = TwoPassSSQ(*weights)
    for op in ops:
        if op[0] == "submit":
            _, is_read, start, sectors = op
            request = IORequest(
                arrival_ns=0,
                op=OpType.READ if is_read else OpType.WRITE,
                lba=start * 4,
                size_bytes=sectors * 512,
            )
            driver.submit(request)
            ref.submit(request)
        elif op[0] == "fetch":
            _, reads, writes, depth = op
            assert driver.fetch(reads, writes, depth) is ref.fetch(reads, writes, depth)
        else:
            _, read_weight, write_weight, _ = op
            driver.set_weights(read_weight, write_weight)
            ref.wrr.set_weights(read_weight, write_weight)
        assert _state(driver, driver.rsq, driver.wsq, driver._pending_buckets) == _state(
            ref, ref.rsq, ref.wsq, ref.pending
        )
    # Draining both leaves identical, empty indexes.
    while (got := driver.fetch(0, 0, 10**6)) is not None:
        assert got is ref.fetch(0, 0, 10**6)
    assert ref.fetch(0, 0, 10**6) is None
    assert driver._pending_buckets == {} == ref.pending
