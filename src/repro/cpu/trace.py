"""The workload trace consumed by the core model.

One run of a task is a :class:`MaterializedTrace`: three parallel columns
``(compute_gap, address, kind)``, drawn once per run by
:meth:`repro.workloads.base.WorkloadSpec.generate_columns`.  Item ``i`` is
``compute_gap[i]`` cycles of core-local work followed by one memory access of
kind ``kind[i]`` at ``address[i]``, or by nothing when the kind is
:data:`KIND_NONE` (the pure-compute tail of a task).  This is the level of
detail the bus — the resource the paper studies — observes: when requests
are issued, of which kind, and how far apart.

The core walks the columns with a plain integer cursor in every kernel mode,
so the trace itself has no read position: resetting a core rewinds its cursor
and replays the identical pre-drawn sequence.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..bus.transaction import AccessType
from ..sim.errors import WorkloadError

__all__ = [
    "KIND_READ",
    "KIND_WRITE",
    "KIND_ATOMIC",
    "KIND_NONE",
    "ACCESS_BY_KIND",
    "MaterializedTrace",
]

# ----------------------------------------------------------------------
# Access-kind encoding
# ----------------------------------------------------------------------
#: Integer codes for the ``kind`` column of a trace.
KIND_READ: int = 0
KIND_WRITE: int = 1
KIND_ATOMIC: int = 2
#: A pure-compute item (no memory access; the ``address`` column holds 0).
KIND_NONE: int = 3

#: ``kind`` code -> :class:`~repro.bus.transaction.AccessType` (``None`` for
#: pure-compute items).
ACCESS_BY_KIND: tuple[AccessType | None, ...] = (
    AccessType.READ,
    AccessType.WRITE,
    AccessType.ATOMIC,
    None,
)


class MaterializedTrace:
    """A finite trace held as three parallel ``(gap, address, kind)`` columns.

    The columns are adopted without a copy (the workload generator passes
    plain Python lists, which the core's cursor indexes without numpy-scalar
    boxing); treat them as read-only.
    """

    def __init__(
        self,
        compute_gaps: Sequence[int],
        addresses: Sequence[int],
        kinds: Sequence[int],
        name: str = "materialized-trace",
    ) -> None:
        self.name = name
        if not (len(compute_gaps) == len(addresses) == len(kinds)):
            raise WorkloadError(
                f"trace {name!r}: column lengths differ "
                f"({len(compute_gaps)}/{len(addresses)}/{len(kinds)})"
            )
        if len(compute_gaps) and min(compute_gaps) < 0:
            raise WorkloadError(f"trace {name!r}: compute gaps cannot be negative")
        if len(kinds) and not (0 <= min(kinds) and max(kinds) <= KIND_NONE):
            raise WorkloadError(f"trace {name!r}: kind codes must be in [0, {KIND_NONE}]")
        self.compute_gaps = compute_gaps
        self.addresses = addresses
        self.kinds = kinds

    def __len__(self) -> int:
        return len(self.compute_gaps)

    def placement_columns(self, placement) -> tuple[list[int], list[int]]:
        """Per-item ``(set_index, tag)`` columns under ``placement``.

        Computed with the placement's vectorised form over the whole address
        column in one call (bit-identical per element to the scalar mapping),
        so a run's batch interpreter pays for the hashing once.  Items without
        a memory access carry address 0; their entries are never probed.
        """
        set_array, tag_array = placement.index_tag_arrays(
            np.array(self.addresses, dtype=np.int64)
        )
        return set_array.tolist(), tag_array.tolist()
