"""DRAM models.

The paper's platform connects the L2 to a DDR2 memory through a memory
controller; every memory access costs a fixed 28 bus cycles.  :class:`DRAM`
therefore only needs to account accesses and expose the fixed latency — the
timing itself is folded into the bus hold time by the latency table, because
the bus is non-split and is occupied for the whole memory turnaround.

:class:`BankedDRAM` is the second contention point the CBA analysis extends
to: independent banks, each with a row buffer that stays open after an
access.  An access to the open row is a *row hit* (cheap), an access to a
bank with no open row is a *row miss* (activate), and an access to a bank
holding a different row is a *row conflict* (precharge + activate, the most
expensive case).  Cores sharing a bank therefore perturb each other's row
buffers — memory-system interference that exists even when the bus itself is
perfectly arbitrated.

Both models are passive and synchronous: the memory controller calls them at
bus-grant time, which happens on executed cycles in every kernel mode
(stepping, fast-forward, production), so their state evolution is
bit-identical across modes by construction — no wakes or ``fast_forward``
bookkeeping are needed.
"""

from __future__ import annotations

from ..sim.errors import ConfigurationError
from ..sim.stats import StatGroup

__all__ = ["DRAM", "BankedDRAM"]


class DRAM:
    """Fixed-latency DRAM with an optional open-row model."""

    def __init__(
        self,
        access_latency: int = 28,
        row_bytes: int = 1024,
        row_hit_latency: int | None = None,
    ) -> None:
        """Create the DRAM model.

        Parameters
        ----------
        access_latency:
            Latency of one memory access in bus cycles (paper: 28).
        row_bytes:
            Row size used when the open-row model is enabled.
        row_hit_latency:
            If given, accesses to the currently open row cost this many cycles
            instead of ``access_latency``.  ``None`` (default) disables the
            row-buffer model, matching the flat latency of the paper.
        """
        if access_latency <= 0:
            raise ValueError("DRAM access latency must be positive")
        if row_hit_latency is not None and not 0 < row_hit_latency <= access_latency:
            raise ValueError("row hit latency must be in (0, access_latency]")
        self.access_latency = access_latency
        self.row_bytes = row_bytes
        self.row_hit_latency = row_hit_latency
        self._open_row: int | None = None
        self.stats = StatGroup(name="dram.stats")
        # Touched on every memory access; pre-bound to skip the dict lookup.
        self._c_reads = self.stats.counter("reads")
        self._c_writes = self.stats.counter("writes")
        self._c_row_hits = self.stats.counter("row_hits")
        self._c_row_misses = self.stats.counter("row_misses")

    def access(self, address: int = 0, read: bool = True) -> int:
        """Perform one access and return its latency in cycles."""
        (self._c_reads if read else self._c_writes).value += 1
        if self.row_hit_latency is None:
            return self.access_latency
        row = address // self.row_bytes
        if row == self._open_row:
            self._c_row_hits.value += 1
            return self.row_hit_latency
        self._c_row_misses.value += 1
        self._open_row = row
        return self.access_latency

    def is_row_hit(self, address: int) -> bool:
        """Would an access to ``address`` hit the open row right now?"""
        if self.row_hit_latency is None:
            return False
        return address // self.row_bytes == self._open_row

    @property
    def total_accesses(self) -> int:
        return self._c_reads.value + self._c_writes.value

    def reset(self) -> None:
        self._open_row = None
        self.stats.reset()


class BankedDRAM:
    """Multi-bank DRAM with per-bank open-row state.

    Addresses interleave across banks at row granularity:
    ``bank = (address // row_bytes) % num_banks`` and the row within the bank
    is ``(address // row_bytes) // num_banks``, so consecutive rows land on
    consecutive banks (the usual interleaving that spreads streaming traffic).

    The same ``access``/``is_row_hit``/``reset`` protocol as :class:`DRAM`,
    so :class:`~repro.memory.controller.MemoryController` drives either model.
    """

    def __init__(
        self,
        num_banks: int = 4,
        row_bytes: int = 1024,
        row_hit_latency: int = 16,
        row_miss_latency: int = 24,
        row_conflict_latency: int = 28,
    ) -> None:
        if num_banks <= 0:
            raise ConfigurationError("BankedDRAM needs at least one bank")
        if row_bytes <= 0 or row_bytes & (row_bytes - 1):
            raise ConfigurationError("row size must be a positive power of two")
        if not 0 < row_hit_latency <= row_miss_latency <= row_conflict_latency:
            raise ConfigurationError(
                "DRAM latencies must satisfy 0 < hit <= miss <= conflict"
            )
        self.num_banks = num_banks
        self.row_bytes = row_bytes
        self.row_hit_latency = row_hit_latency
        self.row_miss_latency = row_miss_latency
        self.row_conflict_latency = row_conflict_latency
        #: Open row per bank (``None`` = bank precharged / no row open).
        self._open_rows: list[int | None] = [None] * num_banks
        self.stats = StatGroup(name="dram.stats")
        self._c_reads = self.stats.counter("reads")
        self._c_writes = self.stats.counter("writes")
        self._c_row_hits = self.stats.counter("row_hits")
        self._c_row_misses = self.stats.counter("row_misses")
        self._c_row_conflicts = self.stats.counter("row_conflicts")

    def _locate(self, address: int) -> tuple[int, int]:
        """``(bank, row)`` of ``address`` under row-granularity interleaving."""
        global_row = address // self.row_bytes
        return global_row % self.num_banks, global_row // self.num_banks

    def is_row_hit(self, address: int) -> bool:
        """Would an access to ``address`` hit its bank's open row right now?"""
        bank, row = self._locate(address)
        return self._open_rows[bank] == row

    def access(self, address: int = 0, read: bool = True) -> int:
        """Perform one access, update the bank state, return its latency."""
        (self._c_reads if read else self._c_writes).value += 1
        bank, row = self._locate(address)
        open_row = self._open_rows[bank]
        if open_row == row:
            self._c_row_hits.value += 1
            return self.row_hit_latency
        self._open_rows[bank] = row
        if open_row is None:
            self._c_row_misses.value += 1
            return self.row_miss_latency
        self._c_row_conflicts.value += 1
        return self.row_conflict_latency

    @property
    def total_accesses(self) -> int:
        return self._c_reads.value + self._c_writes.value

    def reset(self) -> None:
        self._open_rows = [None] * self.num_banks
        self.stats.reset()
