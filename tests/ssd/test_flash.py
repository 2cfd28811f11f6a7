"""Flash backend: two-stage service, alternation, channel contention."""

import pytest

from repro.sim.engine import Simulator
from repro.ssd.flash import FlashBackend
from repro.ssd.transactions import PageTransaction, TxnKind
from tests.conftest import FAST_SSD


def make_backend():
    sim = Simulator()
    return sim, FlashBackend(sim, FAST_SSD)


def txn(kind, chip=0, done=None, pages=FAST_SSD.page_bytes):
    return PageTransaction(kind=kind, chip_index=chip, page_bytes=pages, on_done=done)


def test_single_read_latency():
    sim, backend = make_backend()
    done = []
    backend.submit(txn(TxnKind.READ, done=lambda t: done.append(sim.now)))
    sim.run()
    expected = FAST_SSD.read_latency_ns + FAST_SSD.page_transfer_ns
    assert done == [expected]


def test_single_program_latency():
    sim, backend = make_backend()
    done = []
    backend.submit(txn(TxnKind.PROGRAM, done=lambda t: done.append(sim.now)))
    sim.run()
    expected = FAST_SSD.page_transfer_ns + FAST_SSD.write_latency_ns
    assert done == [expected]


def test_erase_skips_channel():
    sim, backend = make_backend()
    done = []
    t = PageTransaction(kind=TxnKind.ERASE, chip_index=0, page_bytes=0,
                        on_done=lambda t: done.append(sim.now))
    backend.submit(t)
    sim.run()
    assert done == [FAST_SSD.erase_latency_ns]


def test_same_chip_reads_serialise():
    sim, backend = make_backend()
    done = []
    for _ in range(3):
        backend.submit(txn(TxnKind.READ, chip=0, done=lambda t: done.append(sim.now)))
    sim.run()
    # Chip sense serialises; channel transfer pipelines behind it.
    read, xfer = FAST_SSD.read_latency_ns, FAST_SSD.page_transfer_ns
    assert done[0] == read + xfer
    assert done[1] >= 2 * read
    assert done[2] >= 3 * read


def test_different_chips_run_in_parallel():
    sim, backend = make_backend()
    done = []
    # Chips on different channels: fully parallel.
    backend.submit(txn(TxnKind.READ, chip=0, done=lambda t: done.append(sim.now)))
    backend.submit(txn(TxnKind.READ, chip=2, done=lambda t: done.append(sim.now)))
    sim.run()
    expected = FAST_SSD.read_latency_ns + FAST_SSD.page_transfer_ns
    assert done == [expected, expected]


def test_channel_shared_between_chips():
    sim, backend = make_backend()
    done = []
    # Chips 0 and 1 share channel 0: their transfers serialise.
    backend.submit(txn(TxnKind.READ, chip=0, done=lambda t: done.append(sim.now)))
    backend.submit(txn(TxnKind.READ, chip=1, done=lambda t: done.append(sim.now)))
    sim.run()
    assert done[0] == FAST_SSD.read_latency_ns + FAST_SSD.page_transfer_ns
    assert done[1] == FAST_SSD.read_latency_ns + 2 * FAST_SSD.page_transfer_ns


def test_alternation_prevents_read_starvation():
    """A backlog of slow programs must not starve queued reads."""
    sim, backend = make_backend()
    order = []
    for i in range(4):
        backend.submit(txn(TxnKind.PROGRAM, chip=0, done=lambda t, i=i: order.append(("w", i))))
    backend.submit(txn(TxnKind.READ, chip=0, done=lambda t: order.append(("r", 0))))
    sim.run()
    # The read completes after at most two writes, not after all four.
    read_pos = order.index(("r", 0))
    assert read_pos <= 2


def test_mapping_and_gc_reads_use_read_queue():
    sim, backend = make_backend()
    assert txn(TxnKind.MAPPING_READ).is_read_like
    assert txn(TxnKind.GC_READ).is_read_like
    assert not txn(TxnKind.GC_PROGRAM).is_read_like


def test_channel_of_mapping():
    _, backend = make_backend()
    assert backend.channel_of(0) == 0
    assert backend.channel_of(FAST_SSD.chips_per_channel) == 1
    with pytest.raises(ValueError):
        backend.channel_of(FAST_SSD.n_chips)


def test_completed_counter_and_pending():
    sim, backend = make_backend()
    for i in range(5):
        backend.submit(txn(TxnKind.READ, chip=i % FAST_SSD.n_chips))
    assert backend.pending() > 0
    sim.run()
    assert backend.completed == 5
    assert backend.pending() == 0


def test_chip_utilisation():
    sim, backend = make_backend()
    backend.submit(txn(TxnKind.READ, chip=0))
    sim.run()
    util = backend.chip_utilisation(sim.now)
    assert util[0] > 0
    assert all(u == 0 for u in util[1:])
    with pytest.raises(ValueError):
        backend.chip_utilisation(0)


def test_transaction_validation():
    with pytest.raises(ValueError):
        PageTransaction(kind=TxnKind.READ, chip_index=-1, page_bytes=1)
    with pytest.raises(ValueError):
        PageTransaction(kind=TxnKind.READ, chip_index=0, page_bytes=-1)


@pytest.mark.parametrize("kind", list(TxnKind))
@pytest.mark.parametrize("chip", [FAST_SSD.n_chips, FAST_SSD.n_chips + 7])
def test_out_of_range_chip_rejected_for_every_kind(kind, chip):
    """``submit`` validates the chip index once, the same way for every
    kind, before the transaction touches any queue or the event heap."""
    sim, backend = make_backend()
    pages = 0 if kind is TxnKind.ERASE else FAST_SSD.page_bytes
    with pytest.raises(ValueError, match="out of range"):
        backend.submit(txn(kind, chip=chip, pages=pages))
    assert backend.pending() == 0
    assert sim.pending() == 0


def test_out_of_range_chip_rejected_even_when_dies_failed():
    sim, backend = make_backend()
    backend.fail_chip(0)
    with pytest.raises(ValueError, match="out of range"):
        backend.submit(txn(TxnKind.READ, chip=FAST_SSD.n_chips))
    assert backend.failed_fast == 0
    with pytest.raises(ValueError):
        backend.fail_chip(FAST_SSD.n_chips)


class TestFaultMultiplierTiming:
    """Slowdowns are read when a service *starts*, not at enqueue."""

    def test_chip_slowdown_applies_to_already_queued_transaction(self):
        sim, backend = make_backend()
        read, xfer = FAST_SSD.read_latency_ns, FAST_SSD.page_transfer_ns
        done = []
        for _ in range(2):
            backend.submit(txn(TxnKind.READ, chip=0, done=lambda t: done.append(sim.now)))
        # The second read is queued on chip 0 when the fault fires.
        sim.schedule_at(read // 2, backend.set_chip_slowdown, 0, 3.0)
        sim.run()
        assert done == [read + xfer, max(read + 3 * read, read + xfer) + xfer]

    def test_chip_slowdown_cleared_before_start_is_not_charged(self):
        sim, backend = make_backend()
        read, xfer = FAST_SSD.read_latency_ns, FAST_SSD.page_transfer_ns
        done = []
        backend.set_chip_slowdown(0, 2.0)
        for _ in range(2):
            backend.submit(txn(TxnKind.READ, chip=0, done=lambda t: done.append(sim.now)))
        # Enqueued while slowed, but the fault clears before it starts.
        sim.schedule_at(read, backend.set_chip_slowdown, 0, 1.0)
        sim.run()
        # Unslowed sense 2R..3R; its transfer waits for the channel.
        assert done == [2 * read + xfer, max(3 * read, 2 * read + xfer) + xfer]

    def test_channel_slowdown_applies_to_already_queued_transfer(self):
        sim, backend = make_backend()
        read, xfer = FAST_SSD.read_latency_ns, FAST_SSD.page_transfer_ns
        done = []
        # Chips 0 and 1 share channel 0: the second transfer queues.
        for chip in (0, 1):
            backend.submit(txn(TxnKind.READ, chip=chip, done=lambda t: done.append(sim.now)))
        sim.schedule_at(read + xfer // 2, backend.set_channel_slowdown, 0, 2.0)
        sim.run()
        assert done == [read + xfer, read + xfer + 2 * xfer]

    def test_program_channel_stage_reads_multiplier_at_start(self):
        sim, backend = make_backend()
        write, xfer = FAST_SSD.write_latency_ns, FAST_SSD.page_transfer_ns
        done = []
        # Two programs on chips of channel 0: data-in transfers serialise.
        for chip in (0, 1):
            backend.submit(txn(TxnKind.PROGRAM, chip=chip, done=lambda t: done.append(sim.now)))
        sim.schedule_at(xfer // 2, backend.set_channel_slowdown, 0, 4.0)
        sim.run()
        assert done == [xfer + write, xfer + 4 * xfer + write]
