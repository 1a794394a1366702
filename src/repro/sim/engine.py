"""The discrete-event engine: events, timeouts, processes, conditions, and
the run loop.

Virtual time is a ``float`` measured in **microseconds** — the natural
unit of the paper's LogGP parameters (L is ~1 µs on uGNI, G is
fractions of a ns/byte).

The core protocol: a simulated activity is a Python generator.  It yields
an :class:`Event`, a tuple of them to wait for the first, or a float delay
(a CPU charge: resume ``delay`` microseconds from now, with ``None``), and
is resumed with the event's value when the event triggers.  Composition
uses plain ``yield from``, which lets the MPI-like layers expose
blocking-looking calls (``yield from comm.send(...)``).

Hot-path design (see docs/architecture.md §9): every simulated microsecond is
paid for in pure-Python event dispatch, so the inner loop avoids allocation
and indirection wherever the ordering contract allows.  The pending-event set
lives in a scheduler (:mod:`repro.sim.scheduler`): same-tick buckets under a
heap of distinct timestamps — O(1) for the same-timestamp bursts LogGP
traffic generates, with whole-tick batch drains — and the classic binary
heap as its reference oracle.  A process resumes in one frame; a process
that yields a delay sleeps on its own reusable :class:`_Tick`, one push and
no event; resuming one whose target already fired goes through a pooled
:class:`_Relay` instead of a fresh ``Event``; a process that yields a tuple
resumes straight from the first member to fire, through a :class:`_Waker`,
with no condition event in between (the runtime's either-or waits all park
this way; :class:`AnyOf` / :class:`AllOf` remain for composition);
``succeed``/``fail`` push the schedule record inline for the ubiquitous
zero-delay case; and both :meth:`Engine.run` and :meth:`Engine.step` consume
events only through the scheduler's batch drain.  The ordering contract is
strict: events fire in ``(time, priority, schedule-seq)`` order, and none of
the fast paths may change the sequence of schedule calls — the sanitizer's
zero-perturbation guarantee and the golden-value tests depend on it.
"""

from __future__ import annotations

import gc
from collections.abc import Callable, Generator, Iterable, Sequence
from typing import Any

from repro.errors import DeadlockError, SimulationError
from repro.sim.scheduler import NORMAL, URGENT, make_scheduler

_INF = float("inf")

__all__ = [
    "URGENT", "NORMAL", "Event", "Timeout", "Process",
    "Engine", "events_scheduled", "add_external_events",
]

#: Events scheduled across all engines in this interpreter (the denominator
#: of the bench harness's events/sec metric).  Updated by :meth:`Engine.run`
#: and :meth:`Engine.step` from the scheduler's sequence counter, so
#: maintaining it costs nothing per event.
_events_total = 0


def events_scheduled() -> int:
    """Total events scheduled by all engines so far (monotonic)."""
    return _events_total


def add_external_events(n: int) -> None:
    """Fold events simulated outside this interpreter into the total.

    The sharded core (:mod:`repro.sim.shard`) runs engines in forked
    worker processes; each worker's schedule count is reported back at
    shutdown and folded in here so events/sec stays truthful regardless
    of where the events actually ran.
    """
    global _events_total
    _events_total += n


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* when :meth:`succeed` or
    :meth:`fail` is called (which schedules it on the engine), and *processed*
    once the engine has run its callbacks.  Processes waiting on the event are
    resumed with :attr:`value` (or have the failure exception thrown in).
    """

    __slots__ = ("engine", "callbacks", "_value", "_exc", "_state",
                 "_defused", "name")

    PENDING = 0
    TRIGGERED = 1
    PROCESSED = 2

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        #: what runs when the event is processed: ``None`` until the first
        #: attach (most events never get one), then a list
        self.callbacks: list[Callable[["Event"], None]] | None = None
        self._value: Any = None
        self._exc: BaseException | None = None
        self._state = 0
        self._defused = False
        self.name = name

    # -- state inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._state != 0

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == 2

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully (not failed)."""
        return self._state != 0 and self._exc is None

    @property
    def value(self) -> Any:
        if self._state == 0:
            raise SimulationError(f"value of untriggered event {self!r}")
        if self._exc is not None:
            self.engine._unobserved.pop(id(self), None)
            raise self._exc
        return self._value

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0,
                priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay``."""
        if self._state != 0:
            raise SimulationError(f"event {self!r} already triggered")
        if delay == 0.0:
            # Inlined zero-delay schedule: by far the common case.
            self._value = value
            self._state = 1
            eng = self.engine
            eng._push(eng.now, priority, self)
            return self
        if delay < 0:
            raise SimulationError(
                f"negative delay {delay} in succeed of {self!r}")
        self._value = value
        self._state = 1
        self.engine._schedule(self, delay, priority)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0,
             priority: int = NORMAL) -> "Event":
        """Trigger the event as failed; waiters get ``exc`` thrown in."""
        if self._state != 0:
            raise SimulationError(f"event {self!r} already triggered")
        if delay < 0:
            raise SimulationError(
                f"negative delay {delay} in fail of {self!r}")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exc = exc
        self._state = 1
        self.engine._schedule(self, delay, priority)
        return self

    def settle(self, value: Any = None, priority: int = NORMAL) -> None:
        """Trigger successfully now, scheduling only if someone waits.

        With a callback attached this is :meth:`succeed`.  With none, the
        event is marked processed in place, carrying ``value``, and costs
        no scheduler push: an event processed with no callback changes
        nothing but the sequence counter, so every other event keeps its
        ``(time, priority, seq)`` order.  Only for events whose observers
        attach the moment they ask for them (``Signal``, a request's
        completion): a later ``yield`` would resume through the relay, as
        for any processed event, not at the push it no longer has.
        """
        if self.callbacks:
            self.succeed(value, priority=priority)
        else:
            self._value = value
            self._state = 2

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Run ``cb(self)`` when the event is processed."""
        cbs = self.callbacks
        if cbs is None:
            self.callbacks = [cb]
        else:
            cbs.append(cb)

    def defuse(self) -> "Event":
        """Allow this event's failure to go unobserved.

        By default a failed event that nobody ever waits on is reported when
        :meth:`Engine.run` drains (a swallowed error is a bug most of the
        time).  Layers that fail events speculatively — e.g. the fault
        injector failing a ``remote_done`` the program may legitimately never
        flush — defuse them first.
        """
        self._defused = True
        self.engine._unobserved.pop(id(self), None)
        return self

    def _process(self) -> None:
        self._state = 2
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = None
            for cb in callbacks:
                cb(self)
        elif self._exc is not None and not self._defused:
            # Failure with nobody to throw into: remember it so Engine.run
            # can report it if no late waiter ever observes the value.
            self.engine._unobserved[id(self)] = self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("pending", "triggered", "processed")[self._state]
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class _Relay(Event):
    """Pooled internal event that resumes a process at the current time.

    Used for the "target already processed" resume path and for process
    kick-off, where the engine would otherwise allocate a fresh ``Event``
    per resume.  A relay recycles itself back to the engine's free list as
    soon as its callbacks have run; it is never exposed to user code, so no
    reference can outlive the recycling.
    """

    __slots__ = ()

    def __init__(self, engine: "Engine"):
        super().__init__(engine)
        self.callbacks = []

    def _process(self) -> None:
        self._state = 2
        callbacks = self.callbacks
        for cb in callbacks:
            cb(self)
        # Reset and return to the pool (keeping the callbacks list avoids a
        # fresh allocation on reuse).
        callbacks.clear()
        self._state = 0
        self._value = None
        self._exc = None
        self.engine._relay_pool.append(self)


class _Hook(Event):
    """Pooled internal event that runs a bare callable at its fire time.

    The network layer defers tens of thousands of "commit this transfer at
    time t" actions per run; a hook carries the callable directly instead of
    an ``Event`` plus a wrapper lambda.  Like :class:`_Relay`, hooks are
    engine-internal and recycle themselves on processing.
    """

    __slots__ = ("_fn",)

    def __init__(self, engine: "Engine"):
        super().__init__(engine)
        self._fn: Callable[[], None] | None = None

    def _process(self) -> None:
        fn = self._fn
        self._fn = None
        self._state = 0
        self.engine._hook_pool.append(self)
        fn()  # type: ignore[misc]


class _Batch(Event):
    """Pooled internal event that runs several callables at one fire time.

    Backs :meth:`Engine.call_at_batch`: transport completion paths that
    schedule several hooks at the *same* timestamp (a get's deliver +
    local_done + remote_done, an AMO's two completions) commit them in one
    scheduler transaction.  The batch consumes one sequence number per
    callable — consecutive seqs at an identical (time, priority) are adjacent
    in dispatch order anyway, so the ordering contract is untouched.
    """

    __slots__ = ("_fns",)

    def __init__(self, engine: "Engine"):
        super().__init__(engine)
        self._fns: Sequence[Callable[[], None]] = ()

    def _process(self) -> None:
        fns = self._fns
        self._fns = ()
        self._state = 0
        self.engine._batch_pool.append(self)
        for fn in fns:
            fn()


class Timeout(Event):
    """An event that fires ``delay`` microseconds after creation.

    A timer raced in a tuple, or one a rank program asks for.  A process
    that only sleeps yields the delay itself instead (:class:`_Tick`).
    """

    __slots__ = ()

    def __init__(self, engine: "Engine", delay: float, value: Any = None):
        # Flattened Event.__init__ + schedule: skip the super() frame and
        # the _schedule frame.
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        self.engine = engine
        self.callbacks = None
        self._value = value
        self._exc = None
        self._state = 1
        self._defused = False
        self.name = ""
        engine._push(engine.now + delay, NORMAL, self)


class _Tick:
    """A process's wake token: what its ``yield delay`` pushes.

    A CPU charge is the commonest sleep there is, and nothing but its own
    process ever waits on it, so it needs no event: ``Process._resume``
    pushes the process's one token at ``now + delay`` with NORMAL priority
    — the time, priority and push position of the :class:`Timeout` it
    stands for, since nothing can push between a ``Timeout``'s creation
    and its ``yield``.  Its ``_process`` is the process's own resume,
    bound once: the dispatch calls it with no event, which sends ``None``
    into the generator, in one frame and through no callback list.  A
    process has at most one pending, as it sleeps on nothing else, so one
    token per process is reused for all of its charges.  The bound method
    makes the token and its process a cycle, broken when the generator
    ends (docs/architecture.md §9).
    """

    __slots__ = ("_process",)

    def __init__(self, proc: "Process"):
        self._process = proc._resume


class Process(Event):
    """A running generator; also an event that fires when the generator ends.

    The generator may ``return value``; waiters on the process receive it.
    Uncaught exceptions inside the generator fail the process event; if
    nothing is waiting on the process, the exception propagates out of
    :meth:`Engine.run` so bugs never vanish silently.  A bare ``float``
    yielded (a NumPy ``float64`` too) is a delay: a finite, non-negative
    one resumes the generator that many microseconds later, and any other
    raises :class:`SimulationError` into it at the ``yield``.
    """

    __slots__ = ("_gen", "_tick")

    def __init__(self, engine: "Engine",
                 gen: Generator[Event, Any, Any], name: str = ""):
        super().__init__(engine, name=name or getattr(gen, "__name__", ""))
        if not hasattr(gen, "send"):
            raise TypeError(f"process body must be a generator, got {gen!r}")
        self._gen = gen
        self._tick: _Tick | None = None
        # Kick off at the current time via a pooled relay (insertion order
        # preserved: the relay is scheduled URGENT exactly like the dedicated
        # init event used to be).
        pool = engine._relay_pool
        relay = pool.pop() if pool else _Relay(engine)
        relay._state = 1
        relay.callbacks.append(self._resume)
        engine._push(engine.now, URGENT, relay)
        engine._processes[id(self)] = self

    @property
    def is_alive(self) -> bool:
        return self._state == 0

    # -- internal -----------------------------------------------------------
    def _resume(self, event: Event | None = None) -> None:
        # The whole resume in one frame; ``event`` is None from the tick.
        # ``self._resume`` is re-bound per event wait rather than cached on
        # the process: a cached bound method would make every process a
        # reference cycle (the tick's is broken when the generator ends).
        gen = self._gen
        try:
            if event is None:
                target = gen.send(None)
            elif event._exc is None:
                target = gen.send(event._value)
            else:
                target = gen.throw(event._exc)
            while not isinstance(target, Event):
                if isinstance(target, float):
                    # ``yield delay``: sleep on this process's own token
                    # (NaN fails both comparisons).
                    if 0.0 <= target < _INF:
                        tick = self._tick
                        if tick is None:
                            tick = self._tick = _Tick(self)
                        eng = self.engine
                        eng._push(eng.now + target, NORMAL, tick)
                        return
                    target = gen.throw(SimulationError(
                        f"process {self.name!r} yielded delay {target!r}: "
                        f"a delay is finite and non-negative"))
                    continue
                if type(target) is tuple and target:
                    # ``yield (a, b, ...)``: the first member to fire.
                    first = self._wait_first(target)
                    if first is None:
                        return
                    if first is not target:
                        target = first
                        break
                # If the generator catches the error and yields a real
                # event it keeps running; if the error escapes, the crash
                # path below unregisters the process and fails its event.
                target = gen.throw(SimulationError(
                    f"process {self.name!r} yielded non-event {target!r}"))
        except StopIteration as stop:
            self._tick = None
            self.engine._processes.pop(id(self), None)
            self.succeed(stop.value, priority=URGENT)
            return
        except BaseException as exc:
            self._tick = None
            eng = self.engine
            eng._processes.pop(id(self), None)
            self._defused = bool(self.callbacks)
            if not self._defused:
                # Nobody is waiting: surface the crash from Engine.run().
                eng._crash(exc, self)
            self.fail(exc, priority=URGENT)
            return

        if target._state == 2:
            # Already fired: resume immediately, but via the queue to keep
            # deterministic ordering.  A pooled relay carries the value so
            # no Event is allocated per resume.
            eng = self.engine
            exc = target._exc
            if exc is not None:
                eng._unobserved.pop(id(target), None)
            pool = eng._relay_pool
            relay = pool.pop() if pool else _Relay(eng)
            relay._value = target._value
            relay._exc = exc
            relay._state = 1
            relay.callbacks.append(self._resume)
            eng._push(eng.now, URGENT, relay)
        elif target.callbacks is None:
            target.callbacks = [self._resume]
        else:
            target.callbacks.append(self._resume)

    def _wait_first(self, events: tuple) -> Any:
        """Park on the first of ``events`` to fire.

        Returns the first member already processed, for the caller to
        resume through the relay (the one URGENT push an :class:`AnyOf`
        would make), or ``events`` itself if a member is not an event.
        Otherwise attaches one :class:`_Waker` to every member and
        returns ``None``.
        """
        first = None
        for ev in events:
            if not isinstance(ev, Event):
                return events
            if ev._state == 2 and first is None:
                first = ev
        if first is None:
            waker = _Waker(self, events)
            for ev in events:
                # add_callback inlined: every either-or wait comes here
                if ev.callbacks is None:
                    ev.callbacks = [waker]
                else:
                    ev.callbacks.append(waker)
        return first


class _Waker:
    """Resumes a process from the first event of a ``yield (a, b, ...)``.

    The winner calls it: it detaches itself from the other members, so a
    loser that fires later wakes nothing, and resumes the process inline
    with the winner's value, or throws in the winner's failure.  Inline is
    the dispatch an :class:`AnyOf` would schedule next: its URGENT push at
    the same instant, minus the event (docs/architecture.md §9).  A slotted
    object rather than a closure: a closure that removes itself from the
    callback lists would be a reference cycle through its own cell.
    """

    __slots__ = ("_proc", "_events")

    def __init__(self, proc: Process, events: tuple[Event, ...]):
        self._proc = proc
        self._events: tuple[Event, ...] | None = events

    def __call__(self, event: Event) -> None:
        # A member with a callback is never reported unobserved, so a
        # failed winner needs no bookkeeping before it is thrown in.
        events = self._events
        if events is None:
            # A member listed twice: its second callback entry.
            return
        self._events = None
        for ev in events:
            if ev._state != 2:
                ev.callbacks.remove(self)
        self._proc._resume(event)


class _Condition(Event):
    """Base for AllOf/AnyOf; value is a dict {event: value} of fired events.

    Duplicate events in the input are collapsed at construction:
    ``all_of([e, e])`` waits for ``e`` once instead of deadlocking on a
    completion count ``e`` can never reach (``_fired`` is keyed by event, so
    a duplicate can only ever contribute one entry).

    Once the condition triggers it removes its ``_collect`` callback from
    every still-pending child, so loser events of an :class:`AnyOf` do not
    pin the condition (and everything it references) for the rest of the
    simulation.
    """

    __slots__ = ("_events", "_fired")

    #: trigger on the first child (AnyOf) rather than on every child
    _any = False

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        # Flattened Event.__init__ (conditions are allocated per composite
        # wait, one of the hottest allocation sites in the MPI layer).
        self.engine = engine
        self.callbacks = None
        self._value = None
        self._exc = None
        self._state = 0
        self._defused = False
        self.name = ""
        # The one copy of the caller's events.  Most waits are over two
        # (an arrival raced against a completion or a timer): checked
        # unrolled.  Longer inputs dedup by identity (events hash by id)
        # through dict.fromkeys, keeping first-occurrence order.
        uniq = tuple(events)
        if len(uniq) == 2:
            a, b = uniq
            if a is b:
                uniq = (a,)
            if not (isinstance(a, Event) and isinstance(b, Event)):
                raise TypeError(f"condition over non-event in {uniq!r}")
        else:
            if len(uniq) > 2:
                uniq = tuple(dict.fromkeys(uniq))
            for ev in uniq:
                if not isinstance(ev, Event):
                    raise TypeError(f"condition over non-event {ev!r}")
        self._events = uniq
        self._fired: dict[Event, Any] = {}
        if not uniq:
            self.succeed({}, priority=URGENT)
            return
        for ev in uniq:
            if self._state != 0:
                # Triggered while attaching (a processed child failed, or an
                # AnyOf already won): don't hook the remaining children.
                break
            if ev._state == 2:
                self._collect(ev)
            else:
                ev.add_callback(self._collect)

    def _collect(self, ev: Event) -> None:
        if self._state != 0:
            return
        if ev._exc is not None:
            self.engine._unobserved.pop(id(ev), None)
            self.fail(ev._exc, priority=URGENT)
            self._detach_children()
            return
        fired = self._fired
        fired[ev] = ev._value
        if self._any or len(fired) == len(self._events):
            # Inlined succeed(fired, priority=URGENT).  ``_fired`` is final
            # from here on (a triggered condition ignores its children), so
            # it is the value as it stands.
            self._value = fired
            self._state = 1
            eng = self.engine
            eng._push(eng.now, URGENT, self)
            if len(fired) != len(self._events):
                # Only AnyOf-style triggers leave losers behind; a complete
                # AllOf has no pending children to detach from.
                self._detach_children()

    def _detach_children(self) -> None:
        collect = self._collect
        for ev in self._events:
            # a child the condition triggered before reaching has no
            # callback of it, and maybe no list
            if ev._state != 2 and ev.callbacks:
                try:
                    ev.callbacks.remove(collect)
                except ValueError:
                    pass


class AllOf(_Condition):
    """Triggers once every (distinct) constituent event has triggered."""

    __slots__ = ()


class AnyOf(_Condition):
    """Triggers as soon as one constituent event triggers."""

    __slots__ = ()

    _any = True


class Engine:
    """The event loop.  ``now`` is virtual time in microseconds.

    ``scheduler`` names the pending-event structure (see
    :mod:`repro.sim.scheduler`): ``None`` for the default calendar queue,
    or ``"heap"`` for the reference heap the tests and probes compare it
    against.  Both orderings are byte-identical.
    """

    def __init__(self, scheduler: str | None = None):
        self.now: float = 0.0
        self._sched = make_scheduler(scheduler)
        #: bound scheduler insert — ``_push(when, priority, event)``; every
        #: schedule site goes through this one callable (it owns the
        #: sequence counter).
        self._push = self._sched.push
        self._seq_accounted = 0
        self._relay_pool: list[_Relay] = []
        self._hook_pool: list[_Hook] = []
        self._batch_pool: list[_Batch] = []
        self._processes: dict[int, Process] = {}
        self._crashed: tuple[BaseException, Process] | None = None
        self._unobserved: dict[int, Event] = {}

    # -- public factory helpers ---------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator[Event, Any, Any],
                name: str = "") -> Process:
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> Event:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> Event:
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, delay: float, priority: int) -> None:
        if delay < 0:
            # Fail at the scheduling site: a "time went backwards" at some
            # later step() points nowhere near the culprit.
            raise SimulationError(
                f"negative schedule delay {delay} for {event!r}")
        self._push(self.now + delay, priority, event)

    def call_at(self, when: float, fn: Callable[[], None],
                priority: int = NORMAL) -> None:
        """Run ``fn()`` at absolute time ``when`` (clamped to ``now``).

        Scheduling a hook consumes one sequence number, exactly like the
        event-plus-callback pattern it replaces, so interleaving with other
        same-time events is unchanged.
        """
        if when < self.now:
            when = self.now
        pool = self._hook_pool
        hook = pool.pop() if pool else _Hook(self)
        hook._state = 1
        hook._fn = fn
        self._push(when, priority, hook)

    def call_at_batch(self, when: float,
                      fns: Sequence[Callable[[], None]],
                      priority: int = NORMAL) -> None:
        """Run each of ``fns`` in order at absolute time ``when``.

        One scheduler transaction, but one sequence number *per callable* —
        byte-identical dispatch order to ``len(fns)`` consecutive
        :meth:`call_at` calls (consecutive seqs at one (time, priority) are
        adjacent; nothing already scheduled can interleave, and everything
        scheduled later gets a higher seq either way).  The transports use
        this for completion hooks that land on the same microsecond.
        """
        if when < self.now:
            when = self.now
        pool = self._batch_pool
        batch = pool.pop() if pool else _Batch(self)
        batch._state = 1
        batch._fns = fns
        self._push(when, priority, batch)
        self._sched._seq += len(fns) - 1

    def _crash(self, exc: BaseException, proc: Process) -> None:
        if self._crashed is None:
            self._crashed = (exc, proc)

    def _raise_crash(self) -> None:
        exc, proc = self._crashed  # type: ignore[misc]
        self._crashed = None
        raise SimulationError(
            f"process {proc.name!r} crashed at t={self.now:.3f}us"
        ) from exc

    def events_scheduled(self) -> int:
        """Events scheduled on this engine so far."""
        return self._sched._seq

    def _account(self) -> None:
        """Fold this engine's schedule counter into the module total."""
        global _events_total
        seq = self._sched._seq
        _events_total += seq - self._seq_accounted
        self._seq_accounted = seq

    def _flush_unobserved(self) -> None:
        failed = list(self._unobserved.values())
        self._unobserved.clear()
        names = ", ".join(repr(ev.name or f"event@{id(ev):#x}")
                          for ev in failed[:5])
        raise SimulationError(
            f"{len(failed)} event failure(s) never observed by any "
            f"waiter: {names}") from failed[0]._exc

    # -- run loop -----------------------------------------------------------
    def step(self) -> None:
        """Process every event of the next pending tick.

        A drain bounded at :meth:`peek`: the same dispatch path as
        :meth:`run`, including the same-tick cascade.  Unlike :meth:`run`,
        ``step`` leaves the cyclic collector alone: a caller stepping the
        engine owns the loop around it, and toggling the collector per
        tick would cost more than it saves.
        """
        when = self._sched.peek()
        if when == float("inf"):
            raise SimulationError(
                f"step() at t={self.now:.3f}us: nothing is scheduled")
        try:
            self._sched.drain(self, when)
        finally:
            # Keep the module-level events/sec denominator fresh for
            # step-driven simulations too, not only full run() calls.
            self._account()

    def run(self, until: float | None = None,
            detect_deadlock: bool = True) -> float:
        """Run until the scheduler empties or ``until`` (µs) is reached.

        Returns the final virtual time.  If processes remain alive when the
        scheduler drains and ``detect_deadlock`` is set, raises
        :class:`DeadlockError` naming the blocked processes — a simulated
        program that hangs should fail loudly, like a real MPI job timeout.
        Event failures that were never observed by any waiter (and not
        :meth:`~Event.defuse`-d) are reported at every drain boundary —
        including a bounded ``run(until=...)`` that stops with events still
        pending — instead of being swallowed.  A program that legitimately
        observes a failure in a *later* bounded quantum must defuse it (or
        attach a waiter) before the quantum ends.

        The automatic cyclic collector is paused while the scheduler drains
        and put back as found on every exit path: in-flight operations are
        live containers, not garbage, so a collection inside the loop only
        re-traverses a heap that grows with rank count (docs/architecture.md
        §9, "Memory management in the hot loop").  Reference counting frees
        everything the loop drops; a rank program that builds reference
        cycles keeps them until ``run`` returns.
        """
        if until is not None and until < self.now:
            raise SimulationError(f"run(until={until}) is in the past")
        gc_was_enabled = gc.isenabled()
        try:
            gc.disable()
            stopped = self._sched.drain(self, until)
        finally:
            if gc_was_enabled:
                gc.enable()
            self._account()
        if self._unobserved:
            self._flush_unobserved()
        if not stopped and detect_deadlock and self._processes:
            blocked = [p.name or f"pid{pid}"
                       for pid, p in self._processes.items()]
            raise DeadlockError(blocked)
        return self.now

    def peek(self) -> float:
        """Time of the next event, or ``float('inf')`` if none."""
        return self._sched.peek()
