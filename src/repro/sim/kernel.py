"""Cycle-driven simulation kernel: an event queue and due-only dispatch.

The kernel owns the clock, the component list, the trace recorder and the
per-run random streams.  One call to :meth:`Kernel.step` advances the
simulated platform by exactly one cycle, and is the reference every other
execution mode must reproduce bit for bit:

1. every component's :meth:`~repro.sim.component.Component.tick` runs
   (registration order);
2. the clock advances.

:meth:`Kernel.run` executes until a stop condition (cycle limit or a
registered completion predicate) is met.  Its :class:`~repro.sim.config.KernelMode`
alone picks one of two loops:

* **stepping** — the loop above on every cycle, taken by
  ``KernelMode.STEPPING`` only (the oracle: no component computes or pushes
  a wake);
* **due-only dispatch** — every component *pushes* its wake, the first
  cycle at which its tick can do more than the uniform per-cycle accounting
  that :meth:`~repro.sim.component.Component.fast_forward` replays in bulk,
  into a binary heap (:class:`EventQueue`) via :meth:`Kernel.schedule_wake`
  at the state transitions where the wake changes (a bus grant, a request
  completion, a trace item boundary); superseded wakes are invalidated
  lazily through per-slot generation counters.  A component that pushes
  nothing keeps the wake its default ``next_event`` seeds — the current
  cycle — and is therefore due on every cycle.

Due-only dispatch reaches the states of stepping with far fewer calls:

* at an executed cycle ``t`` it ticks, in slot (registration) order, only the
  components whose live wake is at or before ``t``, plus any component that
  an earlier slot called into during ``t``;
* a cycle at which no component is due is never executed — the clock jumps
  over it;
* each component records the cycle it is synced to and is caught up with one
  ``fast_forward(start, cycles)`` — right before it ticks, before another
  component calls into it (:meth:`Kernel.touch`) or changes state it
  observes (:meth:`Kernel.sync`), and for every component at the end of the
  run.

A component about to call into another touches it first.  A callee in an
earlier slot has had its turn at ``t`` and is synced through ``t``; a callee
in a later slot is synced through ``t - 1`` and made due at ``t``, so it
still ticks after its caller, as stepping orders them.  A component that
must observe another's state change wakes itself with :meth:`Kernel.wake`
at the first cycle stepping lets it see the change.  A component whose live
wake is still at or before ``t`` after its tick is re-armed at ``t + 1``: a
stale wake forces execution on every cycle, never skipping.  The executed
event cycles (grants, completions, cache accesses, RNG draws) are therefore
those of plain stepping, and so is every counter (enforced by the
equivalence matrices).

Components may do arbitrarily much work per *event* to widen the gaps between
events: the cores' batch interpreter (:mod:`repro.cpu.core_model`,
``KernelMode.PRODUCTION``) executes a whole bus-free trace stretch at the
cycle it becomes known and then exposes the stretch end as its wake.  The
kernel needs no knowledge of this — the wake/``fast_forward`` contract
already expresses it.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Any, Callable, Iterable, Protocol

from .clock import Clock
from .component import Component
from .config import KernelMode
from .errors import SchedulingError
from .rng import RandomStreams
from .trace import NullTraceRecorder, TraceRecorder

__all__ = ["EventQueue", "Kernel", "RunProfiler"]


class RunProfiler(Protocol):
    """What :meth:`Kernel.enable_profiling` needs from a profiler.

    The concrete implementation lives in :mod:`repro.obs.profiler`; the
    kernel only depends on this structural interface so the simulation core
    stays import-free of the observability layer.
    """

    def proxy(self, component: "Component", hook: str) -> Any:
        """Return a stand-in exposing ``hook`` as a timed callable."""
        ...

    def on_run(self, wall_seconds: float, executed_cycles: int) -> None:
        """Record the wall-clock of one finished :meth:`Kernel.run` call."""
        ...


class EventQueue:
    """A heap of scheduled component wakes with lazy invalidation.

    Each registered component owns one *slot*.  Scheduling a wake pushes a
    ``(cycle, slot, generation)`` entry and bumps the slot's generation, so
    every previously pushed entry for the slot becomes stale; stale entries
    are discarded lazily when they reach the heap top (:meth:`next_wake`),
    which keeps both :meth:`schedule` and :meth:`cancel` O(log n) worst case
    and O(1) amortised — no in-heap deletion ever happens.

    A slot has at most one *live* entry (its most recent schedule).  A live
    entry persists until rescheduled or cancelled, even after its cycle
    passes: a live entry at or before the current cycle reads as "this
    component may act every cycle", which forces execution rather than
    skipping — the safe direction.
    """

    __slots__ = ("_generations", "_heap", "_targets")

    def __init__(self) -> None:
        #: Pending ``(cycle, slot, generation)`` entries (stale ones included).
        self._heap: list[tuple[int, int, int]] = []
        #: Current generation per slot; only entries carrying it are live.
        self._generations: list[int] = []
        #: Cycle of the slot's live entry, or ``None`` when nothing is
        #: scheduled.  Used to deduplicate same-cycle reschedules.
        self._targets: list[int | None] = []

    def add_slot(self) -> int:
        """Allocate a slot for one more component and return its index."""
        self._generations.append(0)
        self._targets.append(None)
        return len(self._generations) - 1

    def schedule(self, slot: int, cycle: int) -> None:
        """Make ``cycle`` the slot's wake, superseding any earlier schedule.

        Re-scheduling the already-live cycle is a no-op (no heap churn), which
        keeps steady-state re-confirmations — e.g. the bus re-asserting its
        release cycle every executed cycle of a long transaction — free.
        """
        if self._targets[slot] == cycle:
            return
        generation = self._generations[slot] + 1
        self._generations[slot] = generation
        self._targets[slot] = cycle
        heappush(self._heap, (cycle, slot, generation))

    def cancel(self, slot: int) -> None:
        """Drop the slot's live entry (the component has no self-scheduled wake)."""
        if self._targets[slot] is None:
            return
        self._generations[slot] += 1
        self._targets[slot] = None

    def next_wake(self) -> int | None:
        """Earliest live wake, or ``None`` when nothing is scheduled.

        Pops stale heap entries on the way; the returned entry itself is left
        in place (it stays live until its component reschedules or cancels).
        """
        heap = self._heap
        generations = self._generations
        while heap:
            cycle, slot, generation = heap[0]
            if generation == generations[slot]:
                return cycle
            heappop(heap)
        return None

    def scheduled_cycle(self, slot: int) -> int | None:
        """Cycle of the slot's live entry, or ``None`` (observability)."""
        return self._targets[slot]

    def clear(self) -> None:
        """Invalidate every entry (all slots keep their identity)."""
        self._heap.clear()
        generations = self._generations
        targets = self._targets
        for slot in range(len(generations)):
            generations[slot] += 1
            targets[slot] = None

    def __len__(self) -> int:
        """Number of heap entries, stale ones included (observability)."""
        return len(self._heap)


class Kernel:
    """The cycle-driven simulation engine."""

    def __init__(
        self,
        seed: int = 0,
        run_index: int = 0,
        frequency_hz: float = 100_000_000.0,
        trace: TraceRecorder | None = None,
        mode: KernelMode = KernelMode.PRODUCTION,
    ) -> None:
        self.clock = Clock(frequency_hz=frequency_hz)
        self.streams = RandomStreams(seed=seed, run_index=run_index)
        self.trace = trace if trace is not None else NullTraceRecorder()
        #: The execution mode (see :class:`~repro.sim.config.KernelMode`).
        self.mode = KernelMode(mode)
        #: Whether components push wakes; every mode but stepping needs them.
        self._wake_push = self.mode is not KernelMode.STEPPING
        self._components: list[Component] = []
        self._by_name: dict[str, Component] = {}
        self._tickers: list[Component] = []
        self._fast_forwarders: list[Component] = []
        self._stop_conditions: list[Callable[[], bool]] = []
        self.finished = False
        self.stop_condition_fired = False
        #: Set by :meth:`close`: the kernel holds no component and cannot run.
        self.closed = False
        #: Cycle bound of the :meth:`run` in progress (``start + max_cycles``),
        #: ``None`` outside a run.  See :meth:`run_horizon`.
        self._run_limit: int | None = None
        self._events = EventQueue()
        #: Cycles :meth:`run` jumped over instead of stepping (observability).
        self.cycles_skipped = 0
        #: Wall-clock profiler installed by :meth:`enable_profiling`
        #: (``None`` keeps the uninstrumented hot loop — the default).
        self.profiler: RunProfiler | None = None
        # Due-only dispatch state, indexed by slot, built by _run_due and
        # dropped when the run ends: each slot's fast_forward hook (None for
        # the base no-op), the first cycle it has not accounted for yet, and
        # the last cycle it was queued as due.  _due holds the slots still to
        # tick in the executed cycle under way; touch() is a no-op unless
        # _dispatching.
        self._drop_run_tables()
        self._current_slot = -1
        self._dispatching = False

    def _drop_run_tables(self) -> None:
        """Forget the due-only dispatch tables (they hold component hooks)."""
        self._slot_catch_ups: list[Callable[[int, int], None] | None] = []
        self._synced: list[int] = []
        self._due_marks: list[int] = []
        self._due: list[int] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, component: Component) -> Component:
        """Register ``component`` in the next slot.

        Slots are ticked in registration order; the platform builder
        registers them in pipeline order (cores, contenders, bus) so
        that requests issued in a cycle can be observed by the arbiter in the
        same cycle, matching the single-cycle arbitration of the paper.
        """
        if component.name in self._by_name:
            raise SchedulingError(f"a component named {component.name!r} is already registered")
        if self.profiler is not None:
            # The hook lists were already swapped for timing proxies; a late
            # registration would run unprofiled and skew the attribution.
            raise SchedulingError("cannot register components after profiling was enabled")
        component.bind(self)
        component._wake_slot = self._events.add_slot()
        if self._wake_push:
            component._wake_schedule = self._events.schedule
            component._wake_cancel = self._events.cancel
        self._components.append(component)
        self._by_name[component.name] = component
        # Components that keep the base class's no-op hooks are excluded from
        # the per-cycle loops entirely; this is the single hottest loop in the
        # simulator.
        if type(component).tick is not Component.tick:
            self._tickers.append(component)
        if type(component).fast_forward is not Component.fast_forward:
            self._fast_forwarders.append(component)
        if self._wake_push:
            # Seed the component's heap entry from its current state so the
            # first scheduling decision sees a valid wake even before its
            # first tick had a chance to push one.
            self._prime_wake(component)
        return component

    def _prime_wake(self, component: Component) -> None:
        """Seed a component's heap entry from its wake."""
        wake = component.next_event(self.clock.cycle)
        if wake is None:
            self._events.cancel(component._wake_slot)
        else:
            self._events.schedule(component._wake_slot, wake)

    def enable_profiling(self, profiler: RunProfiler) -> None:
        """Attribute hook wall-clock to components via ``profiler``.

        Swaps every entry of the pre-bound hook lists for a timing proxy, so
        the per-cycle cost exists *only* on profiled kernels — the disabled
        mode keeps the exact loops the hook-list filtering built (the same
        zero-cost-when-off pattern).  Due-only dispatch builds its per-slot
        tables from these lists, so a profiled run takes the same path as an
        unprofiled one.  Must be called after every component is registered
        (later registrations raise) and at most once per kernel.
        """
        if self.profiler is not None:
            raise SchedulingError("profiling is already enabled on this kernel")
        self.profiler = profiler
        self._tickers = [profiler.proxy(c, "tick") for c in self._tickers]
        self._fast_forwarders = [
            profiler.proxy(c, "fast_forward") for c in self._fast_forwarders
        ]

    def register_all(self, components: Iterable[Component]) -> None:
        """Register several components in order."""
        for component in components:
            self.register(component)

    @property
    def components(self) -> tuple[Component, ...]:
        return tuple(self._components)

    def component(self, name: str) -> Component:
        """Return the registered component called ``name``."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no component named {name!r}") from None

    # ------------------------------------------------------------------
    # Wake scheduling
    # ------------------------------------------------------------------
    def schedule_wake(self, component: Component, cycle: int) -> None:
        """Schedule (or move) ``component``'s wake to ``cycle``.

        The wake means: every tick of the component before ``cycle`` is
        uniform bookkeeping replayed by ``fast_forward``, and the component
        must be ticked at ``cycle``.  It stays in force — superseding any
        earlier schedule via the queue's generation counters — until
        rescheduled or cancelled; components therefore push exactly at the
        state transitions after which their previous wake no longer describes
        them (a bus grant, a completion, a credit replenish target, a stretch
        end).  No-op under ``KernelMode.STEPPING``, which ticks every cycle.
        """
        if self._wake_push:
            self._events.schedule(component._wake_slot, cycle)

    def cancel_wake(self, component: Component) -> None:
        """Drop ``component``'s scheduled wake: only another component's
        activity can affect it."""
        if self._wake_push:
            self._events.cancel(component._wake_slot)

    def scheduled_wake(self, component: Component) -> int | None:
        """The component's currently scheduled wake cycle (observability)."""
        return self._events.scheduled_cycle(component._wake_slot)

    def touch(self, component: Component) -> None:
        """Catch ``component`` up before another component calls into it.

        Under due-only dispatch a component that is not due lags behind the
        clock: the cycles since it last ticked are accounted only when it is
        next synced.  Whoever is about to change its state — the bus granting
        or completing a master, a master submitting to the bus — must call
        this first, so the lagging cycles are replayed with the state they
        really had:

        * a callee in an earlier slot already had its turn this cycle and is
          synced through the current cycle;
        * a callee in a later slot is synced through the previous cycle and
          made due now, so it still ticks this cycle, after its caller.

        A no-op outside due-only dispatch (every component is then ticked on
        every executed cycle) and for objects not registered with this
        kernel.
        """
        if not self._dispatching or getattr(component, "_kernel", None) is not self:
            return
        slot = component._wake_slot
        now = self.clock._cycle
        if slot > self._current_slot:
            if self._due_marks[slot] != now:
                self._due_marks[slot] = now
                heappush(self._due, slot)
            self._catch_up(slot, now)
        else:
            self._catch_up(slot, now + 1)

    def wake(self, component: Component) -> None:
        """Tick ``component`` at its next turn, as stepping would.

        For a component that observes state another component just changed:
        a later slot still ticks this cycle (it is touched), an earlier slot
        has had its turn and ticks next cycle, which replaces its pushed
        wake — so its tick must push its wake again.  A no-op outside
        due-only dispatch and for objects not registered with this kernel.
        """
        if not self._dispatching or getattr(component, "_kernel", None) is not self:
            return
        if component._wake_slot > self._current_slot:
            self.touch(component)
        else:
            self._events.schedule(component._wake_slot, self.clock._cycle + 1)

    def sync(self, component: Component) -> None:
        """Catch a component up before state its accounting reads changes.

        Like :meth:`touch`, but the component is not made due: its tick in
        the current cycle would be pure bookkeeping, so that cycle can be
        accounted later, with the state this cycle leaves behind — a master
        submitting to a bus that a transaction holds past this cycle syncs
        the bus this way.
        """
        if not self._dispatching or getattr(component, "_kernel", None) is not self:
            return
        slot = component._wake_slot
        now = self.clock._cycle
        self._catch_up(slot, now if slot > self._current_slot else now + 1)

    def _catch_up(self, slot: int, through: int) -> None:
        """Fast-forward ``slot`` over its lagging cycles before ``through``."""
        lag = self._synced[slot]
        if lag < through:
            catch_up = self._slot_catch_ups[slot]
            if catch_up is not None:
                catch_up(lag, through - lag)
            self._synced[slot] = through

    # ------------------------------------------------------------------
    # Stop conditions
    # ------------------------------------------------------------------
    def add_stop_condition(self, predicate: Callable[[], bool]) -> None:
        """Stop the run as soon as ``predicate()`` returns True (checked once
        per executed cycle).

        ``predicate`` must watch *event* state — state that flips on the exact
        cycle its event executes (task finished, request granted, bus
        released, ...).  Such predicates cannot flip across a skipped stretch,
        because cycles are only skipped when every tick in them would be
        uniform bookkeeping.  A predicate watching the clock or accounting
        (anything replayed by ``fast_forward`` or applied eagerly by the
        cores' batch interpreter) would fire on the wrong cycle; bound the
        run with ``max_cycles`` instead.
        """
        self._stop_conditions.append(predicate)

    def _should_stop(self) -> bool:
        # Checked once per executed cycle; a plain loop avoids allocating a
        # generator + closure pair each time (any() with a genexpr does).
        for predicate in self._stop_conditions:
            if predicate():
                return True
        return False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self, cycles: int = 1) -> int:
        """Advance the simulation by ``cycles`` cycles and return the new time."""
        if self.finished:
            raise SchedulingError("cannot step a kernel that has already finished")
        tickers = self._tickers
        clock = self.clock
        for _ in range(cycles):
            for component in tickers:
                component.tick()
            clock.advance()
        return clock.cycle

    def run_horizon(self) -> int | None:
        """Earliest cycle whose tick might *not* execute, or ``None`` outside
        a run.

        The cycle budget of the :meth:`run` in progress bounds how far the
        run can possibly step: the tick at the returned cycle — and at every
        later cycle — may never run.  Components that apply work *eagerly*
        for future cycles (the cores' batch interpreter) must keep that work
        strictly below this horizon, otherwise a run truncated at its budget
        would report effects from cycles it never executed.
        """
        return self._run_limit

    def run(self, max_cycles: int = 1_000_000) -> int:
        """Run until a stop condition fires or ``max_cycles`` is reached.

        Returns the number of cycles executed by this call (stepped plus
        skipped).  Whether the run ended because a stop condition fired
        (as opposed to exhausting the ``max_cycles`` budget) is recorded in
        :attr:`stop_condition_fired`; :attr:`truncated` is the complementary
        view.
        """
        if self.closed:
            raise SchedulingError("cannot run a closed kernel")
        if self.finished:
            raise SchedulingError("cannot run a kernel that has already finished")
        profiler = self.profiler
        # Profiler telemetry: wall time of the host loop, not simulated time.
        # repro-lint: allow[DET001]
        run_started = perf_counter() if profiler is not None else 0.0
        clock = self.clock
        start = clock.cycle
        skipped_before = self.cycles_skipped
        limit = start + max_cycles
        self._run_limit = limit
        if self.mode is KernelMode.STEPPING:
            stop_fired = self._run_stepping(limit)
        else:
            stop_fired = self._run_due(limit)
        if not stop_fired:
            # The loop ran out of cycle budget; a stop condition may still
            # hold at the boundary (e.g. the last step finished the work).
            stop_fired = self._should_stop()
        self.stop_condition_fired = stop_fired
        self.finished = True
        if profiler is not None:
            executed = clock.cycle - start - (self.cycles_skipped - skipped_before)
            # repro-lint: allow[DET001]
            profiler.on_run(perf_counter() - run_started, executed)
        return clock.cycle - start

    def _run_due(self, limit: int) -> bool:
        """Due-only dispatch (see the module docstring); returns whether a
        stop condition fired."""
        clock = self.clock
        events = self._events
        heap = events._heap
        generations = events._generations
        targets = events._targets
        schedule = events.schedule
        # Per-slot tables, built from the hook lists so that profiling
        # proxies (which replace the lists' entries) time these calls too.
        ticks = {hook.name: hook.tick for hook in self._tickers}
        catch_ups = {hook.name: hook.fast_forward for hook in self._fast_forwarders}
        components = self._components
        slot_ticks = [ticks.get(c.name) for c in components]
        slot_catch_ups = self._slot_catch_ups = [catch_ups.get(c.name) for c in components]
        now = clock.cycle
        synced = self._synced = [now] * len(components)
        due_marks = self._due_marks = [-1] * len(components)
        due: list[int] = []
        self._due = due
        trace = self.trace
        # One stop predicate (the platform's) is called directly.
        conditions = self._stop_conditions
        should_stop = conditions[0] if len(conditions) == 1 else self._should_stop
        stop_fired = False
        self._dispatching = True
        try:
            while now < limit:
                if should_stop():
                    stop_fired = True
                    break
                # The heap peek is inlined (the queue's internals are bound
                # above): a call per executed cycle is measurable against a
                # scheduling decision of a few hundred nanoseconds.
                wake = limit
                while heap:
                    cycle, slot, generation = heap[0]
                    if generation == generations[slot]:
                        if cycle < limit:
                            wake = cycle
                        break
                    heappop(heap)
                if wake > now:
                    # No tick runs during a jump, so an event-state stop
                    # predicate cannot flip across it; only the budget can
                    # run out.  Components catch the cycles up lazily.
                    delta = wake - now
                    if trace.enabled:
                        trace.record(now, "kernel", "kernel.jump", cycles=delta, to=wake)
                    self.cycles_skipped += delta
                    now = clock._cycle = wake
                    if now >= limit:
                        break
                # Every live wake at or before now makes its slot due.
                while heap:
                    cycle, slot, generation = heap[0]
                    if cycle > now:
                        break
                    heappop(heap)
                    if generation == generations[slot] and due_marks[slot] != now:
                        due_marks[slot] = now
                        due.append(slot)
                if len(due) > 1:
                    heapify(due)
                while due:
                    slot = heappop(due)
                    self._current_slot = slot
                    lag = synced[slot]
                    if lag < now:
                        catch_up = slot_catch_ups[slot]
                        if catch_up is not None:
                            catch_up(lag, now - lag)
                    synced[slot] = now + 1
                    tick = slot_ticks[slot]
                    if tick is not None:
                        tick()
                    target = targets[slot]
                    if target is not None and target <= now:
                        # The tick left the popped wake in force: due again
                        # next cycle, as a stale wake forces execution.
                        schedule(slot, now + 1)
                now += 1
                clock._cycle = now
        finally:
            self._dispatching = False
            self._current_slot = -1
        for slot in range(len(components)):
            self._catch_up(slot, now)
        self._drop_run_tables()
        return stop_fired

    def _run_stepping(self, limit: int) -> bool:
        """Every component ticks on every cycle; returns whether a stop
        condition fired."""
        clock = self.clock
        tickers = self._tickers
        should_stop = self._should_stop
        while clock._cycle < limit:
            if should_stop():
                return True
            # One cycle, inlined from step(): the call/loop setup of step(1)
            # is measurable on this path.
            for component in tickers:
                component.tick()
            clock.advance()
        return False

    @property
    def truncated(self) -> bool:
        """True when the run stopped at the cycle budget without completing."""
        return self.finished and not self.stop_condition_fired

    def reset(self) -> None:
        """Reset the clock and every component to its power-on state."""
        if self.closed:
            raise SchedulingError("cannot reset a closed kernel")
        self.clock.reset()
        self.finished = False
        self.stop_condition_fired = False
        self._run_limit = None
        self.cycles_skipped = 0
        self._events.clear()
        for component in self._components:
            component.reset()
        if self._wake_push:
            # Re-seed the heap from the components' power-on wakes, exactly
            # as registration did.
            for component in self._components:
                self._prime_wake(component)

    def close(self) -> None:
        """Release every registered component; the kernel cannot run again.

        Unbinds each component and drops every table that points at one
        (the component and hook lists, the stop conditions, the dispatch
        tables), so no reference cycle runs through the kernel and a
        finished platform is freed by reference counting.  Idempotent.
        """
        for component in self._components:
            component.unbind()
        self._components = []
        self._by_name = {}
        self._tickers = []
        self._fast_forwarders = []
        self._stop_conditions = []
        self._drop_run_tables()
        self.closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Kernel(cycle={self.clock.cycle}, components={len(self._components)}, "
            f"finished={self.finished})"
        )
