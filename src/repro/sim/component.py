"""Component base class for the cycle-driven kernel.

Every hardware block in the simulated platform (core, cache, bus, arbiter,
memory controller, DRAM) derives from :class:`Component`.  The stepped
reference calls each component's :meth:`Component.tick` once per cycle, in
registration order, so a component sees what the components before it did
in the same cycle.

Due-only dispatch (:meth:`~repro.sim.kernel.Kernel.run` outside
``KernelMode.STEPPING``) leaves out every tick a component promised is
uniform bookkeeping — it ticks a component at the wake the component pushed
with :meth:`Component.schedule_wake` and catches the cycles in between up
lazily through :meth:`Component.fast_forward`.  A component that calls into another
component therefore touches it first (:meth:`~repro.sim.kernel.Kernel.touch`,
pre-bound as ``_touch``), so the callee's lagging cycles are accounted with
the state they had before the call changes it; one that changes state an
observer samples syncs the observer first (``Kernel.sync``, ``_sync``).
A component that pushes no wake keeps the default :meth:`Component.next_event`
(the current cycle) and is due on every cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .clock import Clock

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance for type hints
    from .kernel import Kernel

__all__ = ["Component"]


def _unbound_touch(component: "Component") -> None:
    """``Component._touch``/``_sync`` outside ``bind``: no run to catch up with."""


class Component:
    """Base class for everything that is ticked by the kernel."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._kernel: "Kernel | None" = None
        self._clock: Clock | None = None
        #: Event-queue slot assigned by ``Kernel.register``.
        self._wake_slot = -1
        #: Whether the kernel reads pushed wakes (every mode but stepping),
        #: so hot paths can skip computing a wake nobody reads.
        self._wake_push = False
        #: Pre-bound queue hooks (set by ``Kernel.register`` when wakes are
        #: pushed): hot push sites call these with ``_wake_slot`` directly,
        #: skipping the ``schedule_wake`` dispatch chain.  Only valid while
        #: ``_wake_push`` is True.
        self._wake_schedule: "Callable[[int, int], None] | None" = None
        self._wake_cancel: "Callable[[int], None] | None" = None
        #: Pre-bound ``Kernel.touch``/``Kernel.sync``: call them on a
        #: component before calling into it / before changing state it
        #: observes (set by ``bind``).
        self._touch: "Callable[[Component], None]" = _unbound_touch
        self._sync: "Callable[[Component], None]" = _unbound_touch

    # ------------------------------------------------------------------
    # Kernel wiring
    # ------------------------------------------------------------------
    def bind(self, kernel: "Kernel") -> None:
        """Attach this component to a kernel.  Called by ``Kernel.register``."""
        self._kernel = kernel
        # Cached so the heavily used :attr:`now` is one attribute hop instead
        # of a three-property chain through kernel and clock.
        self._clock = kernel.clock
        self._wake_push = kernel._wake_push
        self._touch = kernel.touch
        self._sync = kernel.sync

    def unbind(self) -> None:
        """Detach this component from its kernel: the inverse of :meth:`bind`.

        Called by ``Kernel.close``, so a finished platform holds no
        component-to-kernel edge.  The clock stays, so :attr:`now` still
        reads the cycle the run ended at.
        """
        self._kernel = None
        self._wake_push = False
        self._wake_schedule = None
        self._wake_cancel = None
        self._touch = _unbound_touch
        self._sync = _unbound_touch

    @property
    def kernel(self) -> "Kernel":
        """The kernel this component is registered with."""
        if self._kernel is None:
            raise RuntimeError(
                f"component {self.name!r} is not registered with a kernel"
            )
        return self._kernel

    @property
    def clock(self) -> Clock:
        """The kernel's clock."""
        if self._clock is None:
            raise RuntimeError(
                f"component {self.name!r} is not registered with a kernel"
            )
        return self._clock

    @property
    def now(self) -> int:
        """Current cycle number."""
        clock = self._clock
        if clock is None:
            raise RuntimeError(
                f"component {self.name!r} is not registered with a kernel"
            )
        return clock._cycle

    # ------------------------------------------------------------------
    # Per-cycle hooks
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One cycle of behaviour — override in subclasses.  Default: do nothing."""

    # ------------------------------------------------------------------
    # Fast-forward (event-aware skipping) hooks
    # ------------------------------------------------------------------
    def schedule_wake(self, cycle: int) -> None:
        """Push this component's wake to ``cycle`` (event-queue protocol).

        Carries the same meaning as :meth:`next_event` returning ``cycle``
        and stays in force until rescheduled or cancelled; see
        :meth:`repro.sim.kernel.Kernel.schedule_wake`.  Safe to call on an
        unbound component (no-op) and under stepping (the kernel ignores
        it), so push sites need no mode checks for correctness — hot paths
        may still consult :attr:`_wake_push` to skip computing a wake nobody
        will read.
        """
        kernel = self._kernel
        if kernel is not None:
            kernel.schedule_wake(self, cycle)

    def cancel_wake(self) -> None:
        """Drop this component's scheduled wake (``next_event`` value ``None``)."""
        kernel = self._kernel
        if kernel is not None:
            kernel.cancel_wake(self)

    def _push_wake(self, cycle: int) -> None:
        """Push the wake :meth:`next_event` gives for ``cycle``.

        Deriving every push from one function means a state machine's
        transitions cannot push inconsistent wakes.  Only valid while
        :attr:`_wake_push` is True.
        """
        wake = self.next_event(cycle)
        if wake is None:
            self._wake_cancel(self._wake_slot)
        else:
            self._wake_schedule(self._wake_slot, wake)

    def next_event(self, now: int) -> int | None:
        """Wake: the first cycle at which ticking this component matters.

        The kernel reads it at registration and reset to seed the
        component's wake, and components that push wakes derive what they
        push from it.  A component that overrides it must push its wakes at
        its state transitions; the three-mode agreement tests
        (``tests/bus/test_posted_requests.py``,
        ``tests/workloads/test_contender.py``) catch a missed push.  The
        contract:

        * return an ``int`` cycle ``c >= now`` — "as long as no *other*
          component calls into me, my :meth:`tick` at every cycle before
          ``c`` is a no-op apart from the per-cycle accounting and the
          fixed transitions replayed by :meth:`fast_forward`; wake me at
          ``c``".  A skipped tick may be a fixed transition of the
          component's own state — one no other component reads or
          influences, such as a core moving from its compute gap to its
          L1 access — as long as :meth:`fast_forward` replays it exactly;
        * return ``None`` — "I have no self-scheduled activity at all; only
          another component calling into me can affect me" (skippable
          without bound).

        Under due-only dispatch the kernel ticks a component only at its wake
        and in cycles another component touched it
        (:meth:`~repro.sim.kernel.Kernel.touch`); its ticks at other cycles
        are left to :meth:`fast_forward`, even while other components act in
        those cycles.  The default returns ``now`` ("I may act every
        cycle").
        """
        return now

    def fast_forward(self, start: int, cycles: int) -> None:
        """Account for the ``cycles`` cycles from ``start`` this component
        was not ticked in.

        Implementations must leave the component in exactly the state that
        :meth:`tick` at cycles ``start`` to ``start + cycles - 1`` would have
        produced, replaying in order any fixed transition those ticks would
        have made, wherever in the window the catch-up stops; the kernel
        only leaves out ticks the component promised, via its wake, are
        bookkeeping or such transitions.  The catch-up is lazy: it runs
        right before the component's next tick, before another component
        calls into it, or at the end of the run — long after the clock moved
        past ``start``.  Take the cycles from the arguments and never read
        :attr:`now` or :attr:`clock` here (the three-mode agreement tests in
        ``tests/bus/test_posted_requests.py`` catch the bus doing so).
        Default: nothing to account.
        """

    def reset(self) -> None:
        """Return the component to its power-on state.  Default: do nothing."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
