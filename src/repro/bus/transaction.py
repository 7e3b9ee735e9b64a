"""Bus transaction descriptors.

A :class:`BusRequest` describes one transfer a master (a core's cache
interface) wants to perform over the shared bus.  Because the modelled bus is
*non-split* (as in the paper's AMBA AHB configuration), a request occupies the
bus from the cycle it is granted until its full turnaround completes; the
duration is recorded on the request when the slave resolves it.
"""

from __future__ import annotations

import itertools
from enum import Enum

__all__ = ["AccessType", "BusRequest"]

_request_ids = itertools.count()


class AccessType(str, Enum):
    """Kind of memory operation carried by a bus request."""

    READ = "read"
    WRITE = "write"
    ATOMIC = "atomic"

    @property
    def is_write(self) -> bool:
        return self is AccessType.WRITE

    @property
    def is_atomic(self) -> bool:
        return self is AccessType.ATOMIC


class BusRequest:
    """One bus transaction from request to completion.

    Lifecycle timestamps are filled in as the request progresses:
    ``issue_cycle`` when the master asserts its request line, ``grant_cycle``
    when the arbiter grants the bus, ``complete_cycle`` when the (non-split)
    transaction releases the bus.  One of these is allocated per memory
    access of every core, hence a plain slotted record with an explicit
    constructor; ad-hoc data belongs in :attr:`annotations`, not in new
    attributes.
    """

    __slots__ = (
        "master_id",
        "address",
        "access",
        "issue_cycle",
        "request_id",
        "grant_cycle",
        "complete_cycle",
        "duration",
        "annotations",
    )

    def __init__(
        self,
        master_id: int,
        address: int,
        access: AccessType = AccessType.READ,
        issue_cycle: int = 0,
    ) -> None:
        self.master_id = master_id
        self.address = address
        self.access = access
        self.issue_cycle = issue_cycle
        #: Unique, monotonically increasing identifier (useful for
        #: tracing/tests).
        self.request_id: int = next(_request_ids)
        self.grant_cycle: int | None = None
        self.complete_cycle: int | None = None
        #: Number of cycles the bus is held, resolved by the slave at grant
        #: time.
        self.duration: int | None = None
        #: Free-form annotations added by the memory hierarchy (hit/miss,
        #: dirty eviction, ...), used by statistics and tests.
        self.annotations: dict[str, object] = {}

    @property
    def granted(self) -> bool:
        return self.grant_cycle is not None

    @property
    def completed(self) -> bool:
        return self.complete_cycle is not None

    @property
    def wait_cycles(self) -> int:
        """Cycles spent waiting for the bus grant (0 if not granted yet)."""
        if self.grant_cycle is None:
            return 0
        return self.grant_cycle - self.issue_cycle

    @property
    def total_latency(self) -> int:
        """Cycles from issue to completion (0 if not completed yet)."""
        if self.complete_cycle is None:
            return 0
        return self.complete_cycle - self.issue_cycle

    def annotate(self, **kwargs: object) -> "BusRequest":
        """Attach annotations and return ``self`` for chaining."""
        self.annotations.update(kwargs)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BusRequest(id={self.request_id}, master={self.master_id}, "
            f"addr=0x{self.address:x}, access={self.access.value}, "
            f"issue={self.issue_cycle}, grant={self.grant_cycle}, "
            f"complete={self.complete_cycle}, duration={self.duration})"
        )
