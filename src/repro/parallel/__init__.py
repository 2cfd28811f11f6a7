"""Parallel sweep execution.

:mod:`repro.parallel.pool` fans independent cells across a process
pool, with retries, timeouts and orphan reaping.
"""

from repro.parallel.pool import (
    CellFailure,
    CellStats,
    SweepCellError,
    SweepReport,
    cell_seed,
    resolve_workers,
    run_cells,
)

__all__ = [
    "CellFailure",
    "CellStats",
    "SweepCellError",
    "SweepReport",
    "cell_seed",
    "resolve_workers",
    "run_cells",
]
