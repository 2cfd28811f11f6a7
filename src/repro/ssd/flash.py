"""Flash backend: channels, chips, and two-stage transaction service.

Service model (per MQSim):

* **read-like** transactions first occupy the chip for the sensing
  latency, then the channel for one page-transfer time;
* **program-like** transactions first occupy the channel (data in), then
  the chip for the program latency;
* **erase** occupies only the chip.

Chips and channels are independent FIFO servers; this captures both
chip-level parallelism (many chips busy at once) and channel contention
(transfers on one channel serialise).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.sim.engine import Simulator
from repro.ssd.config import SSDConfig
from repro.ssd.transactions import PageTransaction, TxnKind

if TYPE_CHECKING:
    from repro.core.units import Nanoseconds


@dataclass(slots=True)
class _Server:
    """A FIFO resource (one channel)."""

    busy: bool = False
    queue: deque = field(default_factory=deque)
    busy_ns_total: Nanoseconds = 0


@dataclass(slots=True)
class _Chip:
    """A chip with separate read/write service queues.

    MQSim's transaction scheduling unit keeps per-chip queues per
    transaction type; with the equal priority the paper assumes
    ("SSD firmware grants an equal priority to read and write commands"),
    service alternates between the two queues whenever both are
    backlogged, so a burst of slow programs cannot starve reads.
    """

    busy: bool = False
    read_queue: deque = field(default_factory=deque)
    write_queue: deque = field(default_factory=deque)
    last_was_read: bool = False
    busy_ns_total: Nanoseconds = 0

    def pending(self) -> int:
        return len(self.read_queue) + len(self.write_queue)


class FlashBackend:
    """Event-driven channels × chips flash array.

    Every stage event is scheduled anonymously: nothing ever cancels a
    chip or channel service, so no :class:`~repro.sim.events.Event`
    handle is needed.  The stage a transaction moves to next follows
    from its kind (read-like: chip → channel → finish; program-like:
    channel → chip → finish; erase: chip → finish), so queues hold bare
    transactions.
    """

    def __init__(self, sim: Simulator, config: SSDConfig) -> None:
        self.sim = sim
        self.config = config
        self._chips = [_Chip() for _ in range(config.n_chips)]
        self._channels = [_Server() for _ in range(config.n_channels)]
        self.completed: int = 0
        # -- constants of the configuration, computed once ---------------
        self._n_chips = config.n_chips
        #: chip index -> channel index.
        self._chip_channel = [
            i // config.chips_per_channel for i in range(config.n_chips)
        ]
        #: Chip-stage latency by ``TxnKind.chip_op`` (sense, program, erase).
        self._chip_ns = (
            config.read_latency_ns,
            config.write_latency_ns,
            config.erase_latency_ns,
        )
        #: Channel occupancy of one page (partial pages use a full slot).
        self._transfer_ns = config.page_transfer_ns
        # -- fault-injection state (all empty by default; the hot path
        # pays one truthiness check per stage when nothing is injected).
        # Multipliers are read when a service *starts*, never at enqueue.
        #: Dead dies: submissions fail fast with an error status.
        self._failed_chips: set[int] = set()
        #: chip index -> latency multiplier (slow/worn die).
        self._chip_latency_mult: dict[int, float] = {}
        #: channel index -> latency multiplier (brownout).
        self._channel_latency_mult: dict[int, float] = {}
        #: Transactions failed fast against dead dies.
        self.failed_fast: int = 0

    # -- topology helpers --------------------------------------------------
    def _bad_chip(self, chip_index: int) -> ValueError:
        return ValueError(f"chip index {chip_index} out of range [0, {self._n_chips})")

    def channel_of(self, chip_index: int) -> int:
        if not 0 <= chip_index < self._n_chips:
            raise self._bad_chip(chip_index)
        return self._chip_channel[chip_index]

    # -- fault injection ---------------------------------------------------
    def is_chip_failed(self, chip_index: int) -> bool:
        return chip_index in self._failed_chips

    def fail_chip(self, chip_index: int) -> None:
        """Kill a die: future submissions to it fail fast with an error.

        Transactions already queued on the chip finish normally — they
        were in flight when the die died; only the submit-time check is
        affected, which keeps the failure point deterministic.
        """
        if not 0 <= chip_index < self._n_chips:
            raise self._bad_chip(chip_index)
        self._failed_chips.add(chip_index)

    def set_chip_slowdown(self, chip_index: int, multiplier: float) -> None:
        """Scale a die's chip-stage latency (``1.0`` clears the fault).

        Applies to every chip service that starts from now on, including
        transactions already queued on the die.
        """
        if multiplier <= 0:
            raise ValueError(f"multiplier must be positive, got {multiplier}")
        if multiplier == 1.0:
            self._chip_latency_mult.pop(chip_index, None)
        else:
            self._chip_latency_mult[chip_index] = multiplier

    def set_channel_slowdown(self, ch_index: int, multiplier: float) -> None:
        """Scale a channel's transfer latency (brownout; ``1.0`` clears).

        Applies to every transfer that starts from now on, including
        transactions already queued on the channel.
        """
        if multiplier <= 0:
            raise ValueError(f"multiplier must be positive, got {multiplier}")
        if multiplier == 1.0:
            self._channel_latency_mult.pop(ch_index, None)
        else:
            self._channel_latency_mult[ch_index] = multiplier

    # -- dispatch -------------------------------------------------------------
    def submit(self, txn: PageTransaction) -> None:
        """Enter a transaction into the backend pipeline.

        Raises ``ValueError`` for a chip index outside the array, for
        every transaction kind, before any state changes.
        """
        chip_index = txn.chip_index
        if not 0 <= chip_index < self._n_chips:
            raise self._bad_chip(chip_index)
        txn.issued_ns = self.sim.now
        if self._failed_chips and chip_index in self._failed_chips:
            # Dead die: the command engine learns after one status-poll
            # round trip (modelled as a read-latency wait) that the
            # operation errored out; no chip or channel time is consumed.
            txn.failed = True
            self.failed_fast += 1
            self.sim.schedule_anon(self._chip_ns[0], self._finish, txn)
            return
        kind = txn.kind
        if kind.read_like or kind is TxnKind.ERASE:
            self._enqueue_chip(txn)
        else:  # PROGRAM, GC_PROGRAM: data in over the channel first
            self._enqueue_channel(txn)

    # -- chip stage -------------------------------------------------------
    def _enqueue_chip(self, txn: PageTransaction) -> None:
        chip_index = txn.chip_index
        chip = self._chips[chip_index]
        if txn.kind.read_like:
            chip.read_queue.append(txn)
        else:
            chip.write_queue.append(txn)
        if not chip.busy:
            self._start_chip(chip_index, chip)

    def _start_chip(self, chip_index: int, chip: _Chip) -> None:
        """Serve the chip's next transaction; the chip must be idle.

        Alternates between the read and write queues when both wait.
        """
        read_queue = chip.read_queue
        if read_queue and not (chip.last_was_read and chip.write_queue):
            txn = read_queue.popleft()
            chip.last_was_read = True
        elif chip.write_queue:
            txn = chip.write_queue.popleft()
            chip.last_was_read = False
        else:
            return
        chip.busy = True
        latency = self._chip_ns[txn.kind.chip_op]
        if self._chip_latency_mult:
            mult = self._chip_latency_mult.get(chip_index)
            if mult is not None:
                latency = max(1, int(latency * mult))
        chip.busy_ns_total += latency
        self.sim.schedule_anon(latency, self._chip_done, chip_index, txn)

    def _chip_done(self, chip_index: int, txn: PageTransaction) -> None:
        chip = self._chips[chip_index]
        chip.busy = False
        if txn.kind.read_like:
            self._enqueue_channel(txn)
        else:
            self._finish(txn)
        if not chip.busy:
            self._start_chip(chip_index, chip)

    # -- channel stage -------------------------------------------------------
    def _enqueue_channel(self, txn: PageTransaction) -> None:
        if txn.page_bytes == 0:
            # Nothing to move: the transfer takes no channel time.
            self._after_channel(txn)
            return
        ch_index = self._chip_channel[txn.chip_index]
        channel = self._channels[ch_index]
        channel.queue.append(txn)
        if not channel.busy:
            self._start_channel(ch_index, channel)

    def _start_channel(self, ch_index: int, channel: _Server) -> None:
        """Start the channel's next transfer; the channel must be idle."""
        txn = channel.queue.popleft()
        channel.busy = True
        latency = self._transfer_ns
        if self._channel_latency_mult:
            mult = self._channel_latency_mult.get(ch_index)
            if mult is not None:
                latency = max(1, int(latency * mult))
        channel.busy_ns_total += latency
        self.sim.schedule_anon(latency, self._channel_done, ch_index, txn)

    def _channel_done(self, ch_index: int, txn: PageTransaction) -> None:
        channel = self._channels[ch_index]
        channel.busy = False
        self._after_channel(txn)
        if not channel.busy and channel.queue:
            self._start_channel(ch_index, channel)

    # -- stage transitions ---------------------------------------------------
    def _after_channel(self, txn: PageTransaction) -> None:
        if txn.kind.read_like:
            self._finish(txn)
        else:
            self._enqueue_chip(txn)

    def _finish(self, txn: PageTransaction) -> None:
        txn.done_ns = self.sim.now
        self.completed += 1
        if txn.on_done is not None:
            txn.on_done(txn)

    # -- introspection ----------------------------------------------------
    def chip_utilisation(self, horizon_ns: Nanoseconds) -> list[float]:
        """Fraction of ``horizon_ns`` each chip spent busy."""
        if horizon_ns <= 0:
            raise ValueError("horizon must be positive")
        return [min(1.0, c.busy_ns_total / horizon_ns) for c in self._chips]

    def pending(self) -> int:
        """Transactions queued or in service in the backend."""
        chip_q = sum(c.pending() for c in self._chips)
        chan_q = sum(len(c.queue) for c in self._channels)
        busy = sum(c.busy for c in self._chips) + sum(c.busy for c in self._channels)
        return chip_q + chan_q + busy
