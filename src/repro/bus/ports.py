"""Master and slave port interfaces of the shared bus.

The bus talks to two kinds of peers:

* **masters** (one per core) which assert a request and are notified when the
  transaction completes — :class:`BusMasterPort` — and, if they define
  ``on_grant(request, cycle)``, when it is granted (the bus skips masters
  without one);
* a **slave** (the L2 + memory controller side) which resolves how long a
  granted transaction holds the bus — :class:`BusSlavePort`.

Both are defined as :class:`typing.Protocol` so any object implementing the
methods can be plugged in (the real cache hierarchy, or the lightweight stubs
used in unit tests and the analytical experiments).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from .transaction import BusRequest

__all__ = ["BusMasterPort", "BusSlavePort", "CallbackMaster", "FixedLatencySlave"]


@runtime_checkable
class BusMasterPort(Protocol):
    """What the bus expects from a master (a core-side bus interface).

    A master may also define ``on_grant(request, cycle)``, called the cycle
    its request is granted the bus; it is optional, so it is not part of
    the protocol.
    """

    def on_complete(self, request: BusRequest, cycle: int) -> None:
        """Called the cycle the request releases the bus (data returned)."""


@runtime_checkable
class BusSlavePort(Protocol):
    """What the bus expects from the slave side (L2 + memory)."""

    def resolve(self, request: BusRequest, cycle: int) -> int:
        """Serve ``request`` and return the number of cycles the bus is held.

        The returned duration must be at least 1 and at most the platform's
        ``MaxL``; the bus enforces this invariant.
        """


class CallbackMaster:
    """A minimal master port forwarding notifications to plain callables.

    Useful in tests and in the analytical experiments where there is no full
    cache hierarchy behind the master.
    """

    def __init__(self, on_grant=None, on_complete=None) -> None:
        self._on_grant = on_grant
        self._on_complete = on_complete

    def on_grant(self, request: BusRequest, cycle: int) -> None:
        if self._on_grant is not None:
            self._on_grant(request, cycle)

    def on_complete(self, request: BusRequest, cycle: int) -> None:
        if self._on_complete is not None:
            self._on_complete(request, cycle)


class FixedLatencySlave:
    """A slave that serves every request in a fixed number of cycles.

    This models the "streaming contender" abstraction used in the paper's
    illustrative example (Section II), where every contender request takes the
    memory latency, and is handy for unit-testing arbiters in isolation.
    """

    def __init__(self, latency: int) -> None:
        if latency <= 0:
            raise ValueError("fixed slave latency must be positive")
        self.latency = latency
        self.requests_served = 0

    def resolve(self, request: BusRequest, cycle: int) -> int:
        self.requests_served += 1
        request.annotate(slave="fixed", latency=self.latency)
        return self.latency
