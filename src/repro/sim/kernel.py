"""Cycle-driven simulation kernel: an event queue and due-only dispatch.

The kernel owns the clock, the component list, the trace recorder and the
per-run random streams.  One call to :meth:`Kernel.step` advances the
simulated platform by exactly one cycle, and is the reference every other
execution mode must reproduce bit for bit:

1. every component's :meth:`~repro.sim.component.Component.tick` runs
   (evaluate phase, registration order);
2. every component's :meth:`~repro.sim.component.Component.post_tick` runs
   (commit phase, registration order);
3. the clock advances.

:meth:`Kernel.run` executes until a stop condition (cycle limit or a
registered completion predicate) is met, and reaches the same states with
far fewer calls.  Every component exposes a *wake*: the first cycle at which
its tick can do more than the uniform per-cycle accounting that
:meth:`~repro.sim.component.Component.fast_forward` replays in bulk.  A cycle
at which no component is awake is never executed — the clock jumps over it.
The executed event cycles (grants, completions, cache accesses, RNG draws)
are therefore those of plain stepping, and so is every counter.

Two scheduling mechanisms find the wakes:

* the **event queue** (default, ``event_queue=True``) — components *push*
  their wakes into a binary heap (:class:`EventQueue`) via
  :meth:`Kernel.schedule_wake` at the state transitions where the wake
  changes (a bus grant, a request completion, a trace item boundary), and
  superseded wakes are invalidated lazily through per-component generation
  counters;
* the **hint scan** (``event_queue=False``) — before each cycle the kernel
  polls every component's :meth:`~repro.sim.component.Component.next_event`
  and takes the minimum; every component ticks on every executed cycle and
  is fast-forwarded at every jump.

Under the event queue, ``run`` uses **due-only dispatch**:

* at an executed cycle ``t`` it ticks, in slot (registration) order, only the
  components whose live wake is at or before ``t``, plus any component that
  an earlier slot called into during ``t``;
* a jump only moves the clock;
* each component records the cycle it is synced to and is caught up with one
  ``fast_forward(start, cycles)`` — right before it ticks, before another
  component calls into it (:meth:`Kernel.touch`) or changes state it
  observes (:meth:`Kernel.sync`), and for every component at the end of the
  run.

A component about to call into another touches it first.  A callee in an
earlier slot has had its turn at ``t`` and is synced through ``t``; a callee
in a later slot is synced through ``t - 1`` and made due at ``t``, so it
still ticks after its caller, as stepping orders them.  A component whose
live wake is still at or before ``t`` after its tick is re-armed at
``t + 1``: a stale wake forces execution on every cycle, never skipping.  A
kernel with poll-fallback components, hinted stop conditions or ``post_tick``
overrides ticks every component on every executed cycle instead, as the hint
scan does.  Both mechanisms produce bit-identical runs (enforced by the
equivalence matrix).

The executed cycles are the union of the components' own wakes.  The hint
scan also re-reads a component's wake at every cycle some *other* component
executes, so where a wake is conservative it may skip a cycle that due-only
dispatch executes as a no-op.  ``cycles_skipped`` can then differ by such
cycles; every state and counter is still identical.  The built-in
components' wakes are exact, so for them it does not differ.

Components may do arbitrarily much work per *event* to widen the gaps between
events: the cores' batch interpreter (:mod:`repro.cpu.core_model`) executes a
whole bus-free trace stretch at the cycle it becomes known and then exposes
the stretch end as its wake.  The kernel needs no knowledge of this — the
wake/``fast_forward`` contract already expresses it.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Any, Callable, Iterable, Protocol

from .clock import Clock
from .component import Component
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
        fast_forward: bool = True,
        event_queue: bool = True,
    ) -> None:
        self.clock = Clock(frequency_hz=frequency_hz)
        self.streams = RandomStreams(seed=seed, run_index=run_index)
        self.trace = trace if trace is not None else NullTraceRecorder()
        self._components: list[Component] = []
        self._by_name: dict[str, Component] = {}
        self._tickers: list[Component] = []
        self._post_tickers: list[Component] = []
        self._fast_forwarders: list[Component] = []
        #: Pre-bound ``next_event`` methods of every component — the hint
        #: scan used when the event queue is off; binding them at
        #: registration spares the attribute lookup per component per
        #: executed cycle.
        self._hinters: list[Callable[[int], int | None]] = []
        #: The subset of hinters still polled when the event queue is on:
        #: components that do not push wakes (the compatibility fallback).
        self._poll_hinters: list[Callable[[int], int | None]] = []
        self._all_hinted = True
        self._stop_conditions: list[Callable[[], bool]] = []
        self._stop_hints: list[Callable[[int], int | None]] = []
        self.finished = False
        self.stop_condition_fired = False
        #: Cycle bound of the :meth:`run` in progress (``start + max_cycles``),
        #: ``None`` outside a run.  See :meth:`run_horizon`.
        self._run_limit: int | None = None
        #: Enable event-aware fast-forwarding in :meth:`run`.  Skipping is
        #: bit-identical to stepping by construction; the switch exists for
        #: equivalence tests and benchmarking, not as a safety valve.
        self.fast_forward = fast_forward
        #: Use the heap-based :class:`EventQueue` to find the next wake
        #: (components push at state transitions) instead of polling every
        #: component's hint.  Bit-identical to the scan (enforced by the
        #: event-queue equivalence rows); the switch exists for those tests
        #: and for benchmarking the scheduling mechanisms against each other.
        self.event_queue = event_queue
        self._events = EventQueue()
        #: Cycles :meth:`run` jumped over instead of stepping (observability).
        self.cycles_skipped = 0
        #: Wall-clock profiler installed by :meth:`enable_profiling`
        #: (``None`` keeps the uninstrumented hot loop — the default).
        self.profiler: RunProfiler | None = None
        # Due-only dispatch state, indexed by slot and rebuilt by _run_due:
        # each slot's fast_forward hook (None for the base no-op), the first
        # cycle it has not accounted for yet, and the last cycle it was queued
        # as due.  _due holds the slots still to tick in the executed cycle
        # under way; touch() is a no-op unless _dispatching.
        self._slot_catch_ups: list[Callable[[int, int], None] | None] = []
        self._synced: list[int] = []
        self._due_marks: list[int] = []
        self._due: list[int] = []
        self._current_slot = -1
        self._dispatching = False

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, component: Component) -> Component:
        """Register ``component`` in the next slot.

        Slots are ticked in registration order; the platform builder
        registers them in pipeline order (cores, contenders, bus, monitor) so
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
        if self.event_queue:
            component._wake_schedule = self._events.schedule
            component._wake_cancel = self._events.cancel
        self._components.append(component)
        self._by_name[component.name] = component
        # Components that keep the base class's no-op hooks are excluded from
        # the per-cycle loops entirely; this is the single hottest loop in the
        # simulator, and no built-in component overrides post_tick.
        if type(component).tick is not Component.tick:
            self._tickers.append(component)
        if type(component).post_tick is not Component.post_tick:
            self._post_tickers.append(component)
        if type(component).fast_forward is not Component.fast_forward:
            self._fast_forwarders.append(component)
        self._hinters.append(component.next_event)
        if component.event_driven:
            # The component owns a heap entry; seed it from its current state
            # so the first scheduling decision sees a valid wake even before
            # the component's first tick had a chance to push one.
            if self.event_queue:
                self._prime_wake(component)
        else:
            self._poll_hinters.append(component.next_event)
            if type(component).next_event is Component.next_event:
                # The base hint pins the wake to the current cycle, so one
                # non-opted-in component disables skipping for the whole
                # kernel; remember that and spare run() the per-cycle probing.
                self._all_hinted = False
        return component

    def _prime_wake(self, component: Component) -> None:
        """Seed an event-driven component's heap entry from its hint."""
        hint = component.next_event(self.clock.cycle)
        if hint is None:
            self._events.cancel(component._wake_slot)
        else:
            self._events.schedule(component._wake_slot, hint)

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
        self._post_tickers = [profiler.proxy(c, "post_tick") for c in self._post_tickers]
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
    # Wake scheduling (the event-queue side of the fast-forward contract)
    # ------------------------------------------------------------------
    def schedule_wake(self, component: Component, cycle: int) -> None:
        """Schedule (or move) ``component``'s wake to ``cycle``.

        The wake carries the same meaning as a ``next_event`` hint returning
        ``cycle``: every tick of the component before ``cycle`` is uniform
        bookkeeping replayed by ``fast_forward``, and the component must be
        ticked at ``cycle``.  It stays in force — superseding any earlier
        schedule via the queue's generation counters — until rescheduled or
        cancelled; components therefore push exactly at the state transitions
        after which their previous wake no longer describes them (a bus
        grant, a completion, a credit replenish target, a stretch end).

        No-op when the kernel runs the hint scan (``event_queue=False``) —
        components push unconditionally and the kernel ignores what it does
        not use, so a component behaves identically under both mechanisms.
        """
        if self.event_queue:
            self._events.schedule(component._wake_slot, cycle)

    def cancel_wake(self, component: Component) -> None:
        """Drop ``component``'s scheduled wake (hint value ``None``: only
        another component's activity — a tick the kernel executes anyway —
        can affect it)."""
        if self.event_queue:
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
    def add_stop_condition(
        self,
        predicate: Callable[[], bool],
        next_event: Callable[[int], int | None] | None = None,
    ) -> None:
        """Stop the run as soon as ``predicate()`` returns True (checked once per cycle).

        ``predicate`` is assumed to watch *event* state — state that flips on
        the exact cycle its event executes (task finished, request granted,
        bus released, ...).  Such predicates cannot flip across a
        fast-forwarded stretch, because cycles are only skipped when every
        tick in them would be a no-op.  A predicate that instead watches the
        clock ("stop at cycle X") or *accounting* — anything replayed in bulk
        by ``fast_forward`` (stall-cycle counters, credit balances, monitor
        windows) or applied eagerly by the cores' batch interpreter
        (trace-progress counters such as ``items_completed``/``l1_hits`` and
        cache hit statistics, which advance whole bus-free stretches at a
        time) — must supply ``next_event``, the same wake-hint contract as
        components: given the current cycle, return the earliest future cycle
        at which the predicate could flip, or ``None`` for "no time bound"
        (even a conservative ``lambda now: now`` suffices).  Without a hint
        such a predicate would fire on the wrong cycle; with one, the kernel
        re-checks it at the hinted cycles, ticks every component on every
        executed cycle (so no accounting lags behind the clock) and the batch
        interpreter disables itself (:attr:`has_hinted_stops`), so the firing
        cycle is exactly the stepped one.
        """
        self._stop_conditions.append(predicate)
        if next_event is not None:
            self._stop_hints.append(next_event)

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
        post_tickers = self._post_tickers
        clock = self.clock
        for _ in range(cycles):
            for component in tickers:
                component.tick()
            for component in post_tickers:
                component.post_tick()
            clock.advance()
        return clock.cycle

    def _fold_hints(
        self, hinters: list[Callable[[int], int | None]], wake: int, now: int
    ) -> int:
        """Fold polled component hints plus the stop hints into ``wake``.

        Returns ``now`` as soon as any hint pins the current cycle (no
        skipping possible), otherwise the earliest future wake not above the
        starting ``wake``.  One implementation serves both scheduling
        mechanisms so their folding semantics cannot drift apart.
        """
        for hinter in hinters:
            hint = hinter(now)
            if hint is None:
                continue
            if hint <= now:
                return now
            if hint < wake:
                wake = hint
        for stop_hint in self._stop_hints:
            hint = stop_hint(now)
            if hint is None:
                continue
            if hint <= now:
                return now
            if hint < wake:
                wake = hint
        return wake

    def _next_wake(self, limit: int) -> int:
        """Hint scan: earliest cycle at which any component (or stop hint) may act.

        Returns the current cycle when some component needs to run now (no
        skipping possible), otherwise a cycle in ``(now, limit]`` to jump to.
        """
        return self._fold_hints(self._hinters, limit, self.clock.cycle)

    def _poll_refine(self, wake: int, now: int) -> int:
        """Fold the poll-fallback hints and stop hints into a heap ``wake``.

        Only components that do not push wakes (the compatibility fallback,
        e.g. the WCET-mode contenders whose hint reads *another* component's
        state) and the hinted stop conditions are polled; the run loop skips
        this entirely when neither exists.
        """
        return self._fold_hints(self._poll_hinters, wake, now)

    @property
    def has_hinted_stops(self) -> bool:
        """Whether any registered stop condition supplied a wake hint.

        Hinted predicates are the ones allowed to watch the clock or
        fast-forwarded accounting (see :meth:`add_stop_condition`); a
        counter-watching one would observe eagerly-applied batch effects
        cycles before their real completion ticks, so the cores' batch
        interpreter falls back to cycle-accurate execution whenever such a
        predicate exists.
        """
        return bool(self._stop_hints)

    def run_horizon(self, now: int) -> int | None:
        """Earliest cycle whose tick might *not* execute, or ``None`` if unbounded.

        The cycle budget of the :meth:`run` in progress bounds how far the
        run can possibly step: the tick at the returned cycle — and at every
        later cycle — may never run.  Components that apply work *eagerly*
        for future cycles (the cores' batch interpreter) must keep that work
        strictly below this horizon, otherwise a run truncated at its budget
        would report effects from cycles it never executed.  Hinted stop
        conditions could also end the run early, but they disable eager
        batching altogether (:attr:`has_hinted_stops`), so they need no
        bounding here; they are still folded in as defense in depth.
        """
        bound = self._run_limit
        for stop_hint in self._stop_hints:
            hint = stop_hint(now)
            if hint is not None and (bound is None or hint < bound):
                bound = hint
        return bound

    def _jump_to(self, wake: int) -> None:
        """Fast-forward every component and the clock to cycle ``wake``."""
        now = self.clock.cycle
        delta = wake - now
        trace = self.trace
        if trace.enabled:
            trace.record(now, "kernel", "kernel.jump", cycles=delta, to=wake)
        for component in self._fast_forwarders:
            component.fast_forward(now, delta)
        self.clock.advance(delta)
        self.cycles_skipped += delta

    def run(self, max_cycles: int = 1_000_000) -> int:
        """Run until a stop condition fires or ``max_cycles`` is reached.

        Returns the number of cycles executed by this call (stepped plus
        fast-forwarded).  Whether the run ended because a stop condition fired
        (as opposed to exhausting the ``max_cycles`` budget) is recorded in
        :attr:`stop_condition_fired`; :attr:`truncated` is the complementary
        view.
        """
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
        fast_forward = self.fast_forward and self._all_hinted
        if (
            fast_forward
            and self.event_queue
            and not self._poll_hinters
            and not self._stop_hints
            and not self._post_tickers
        ):
            stop_fired = self._run_due(limit)
        else:
            stop_fired = self._run_every_cycle(limit, fast_forward)
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
        return stop_fired

    def _run_every_cycle(self, limit: int, fast_forward: bool) -> bool:
        """Stepping, the hint scan and the poll fallback: every component
        ticks on every executed cycle and is fast-forwarded at every jump.
        Returns whether a stop condition fired."""
        clock = self.clock
        use_queue = fast_forward and self.event_queue
        tickers = self._tickers
        post_tickers = self._post_tickers
        events_heap = self._events._heap
        events_generations = self._events._generations
        must_poll = bool(self._poll_hinters or self._stop_hints)
        while clock.cycle < limit:
            if self._should_stop():
                return True
            if fast_forward:
                if use_queue:
                    wake = limit
                    while events_heap:
                        cycle_, slot_, generation_ = events_heap[0]
                        if generation_ == events_generations[slot_]:
                            if cycle_ < limit:
                                wake = cycle_
                            break
                        heappop(events_heap)
                    if must_poll and wake > clock.cycle:
                        wake = self._poll_refine(wake, clock.cycle)
                else:
                    wake = self._next_wake(limit)
                if wake > clock.cycle:
                    self._jump_to(wake)
                    # No tick ran during the jump, so an event-state stop
                    # predicate (the add_stop_condition contract) cannot have
                    # flipped: fall straight through to stepping the wake
                    # cycle.  Only hinted predicates — the ones allowed to
                    # watch the clock or fast-forwarded accounting — must be
                    # re-checked, and only the cycle budget can run out.
                    if self._stop_hints:
                        continue
                    if clock.cycle >= limit:
                        break
            # One cycle, inlined from step(): the call/loop setup of step(1)
            # is measurable on this path.
            for component in tickers:
                component.tick()
            for component in post_tickers:
                component.post_tick()
            clock.advance()
        return False

    @property
    def truncated(self) -> bool:
        """True when the run stopped at the cycle budget without completing."""
        return self.finished and not self.stop_condition_fired

    def reset(self) -> None:
        """Reset the clock and every component to its power-on state."""
        self.clock.reset()
        self.finished = False
        self.stop_condition_fired = False
        self._run_limit = None
        self.cycles_skipped = 0
        self._events.clear()
        for component in self._components:
            component.reset()
        if self.event_queue:
            # Re-seed the heap from the components' power-on hints, exactly
            # as registration did.
            for component in self._components:
                if component.event_driven:
                    self._prime_wake(component)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Kernel(cycle={self.clock.cycle}, components={len(self._components)}, "
            f"finished={self.finished})"
        )
