"""Page transactions — the unit of work inside the SSD backend.

The controller splits every fetched NVMe command into page-sized
transactions (MQSim's "transaction" layer); the FTL may add mapping
reads, and the GC adds copy/erase transactions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.sim.serial import SerialCounter


#: Values of the kinds whose chip operation comes first.
_READ_LIKE = ("read", "mapping_read", "gc_read")
#: Chip-operation index of each kind's value (see ``TxnKind.chip_op``).
_CHIP_OP = {"program": 1, "gc_program": 1, "erase": 2}


class TxnKind(enum.Enum):
    """What a page transaction does at the flash backend.

    Each member carries its service shape as plain attributes, set once
    at class creation: the flash backend reads them on every stage, and
    an attribute load is cheaper than hashing the member
    (``Enum.__hash__`` is a Python-level call).
    """

    READ = "read"
    PROGRAM = "program"
    ERASE = "erase"
    MAPPING_READ = "mapping_read"
    GC_READ = "gc_read"
    GC_PROGRAM = "gc_program"

    def __init__(self, value: str) -> None:
        #: Chip-op-first transaction (data flows chip → channel).
        self.read_like = value in _READ_LIKE
        #: Index of the chip-stage latency: 0 sense, 1 program, 2 erase.
        self.chip_op = _CHIP_OP.get(value, 0)


_txn_ids = SerialCounter("ssd.txn")


@dataclass(slots=True)
class PageTransaction:
    """One page-granularity flash operation.

    Attributes
    ----------
    kind:
        Operation type; determines chip occupancy time and channel usage.
    chip_index:
        Flat chip index ``channel * chips_per_channel + chip``.
    page_bytes:
        Payload moved over the channel (0 for erase).
    owner:
        Back-reference for ``on_done``: the in-flight command of a data
        read or program, the data read a mapping read gates, or None.
    on_done:
        Callback invoked with the transaction when the backend finishes
        it; the controller installs one cached bound method per kind
        that finds its command through ``owner``.
    """

    kind: TxnKind
    chip_index: int
    page_bytes: int
    owner: Any = None
    on_done: Callable[["PageTransaction"], None] | None = None
    txn_id: int = field(default_factory=_txn_ids.__next__)
    issued_ns: int = -1
    done_ns: int = -1
    #: Set by the backend when the target die has failed: the
    #: transaction completed with an error status instead of data.
    failed: bool = False

    def __post_init__(self) -> None:
        if self.chip_index < 0:
            raise ValueError(f"chip index must be non-negative, got {self.chip_index}")
        if self.page_bytes < 0:
            raise ValueError(f"page bytes must be non-negative, got {self.page_bytes}")

    @property
    def is_read_like(self) -> bool:
        """Chip-op-first transactions (data flows chip → channel)."""
        return self.kind.read_like
