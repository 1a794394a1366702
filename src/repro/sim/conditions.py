"""Composite events: wait for all or any of a set of events."""

from __future__ import annotations

from typing import Any

from repro.sim.engine import Engine, Event
from repro.sim.scheduler import URGENT


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

    def __init__(self, engine: Engine, events: list[Event]):
        # Flattened Event.__init__ (conditions are allocated per composite
        # wait, one of the hottest allocation sites in the MPI layer).
        self.engine = engine
        self.callbacks = []
        self._value = None
        self._exc = None
        self._state = 0
        self._defused = False
        self.name = ""
        # dict.fromkeys dedups by identity (events hash by id) at C speed
        # while preserving first-occurrence order.
        uniq = list(dict.fromkeys(events))
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
                ev.callbacks.append(self._collect)

    def _collect(self, ev: Event) -> None:
        if self._state != 0:
            return
        if ev._exc is not None:
            self.engine._unobserved.pop(id(ev), None)
            self.fail(ev._exc, priority=URGENT)
            self._detach_children()
            return
        self._fired[ev] = ev._value
        if self._done():
            self.succeed(dict(self._fired), priority=URGENT)
            if len(self._fired) != len(self._events):
                # Only AnyOf-style triggers leave losers behind; a complete
                # AllOf has no pending children to detach from.
                self._detach_children()

    def _detach_children(self) -> None:
        collect = self._collect
        for ev in self._events:
            if ev._state != 2:
                try:
                    ev.callbacks.remove(collect)
                except ValueError:
                    pass

    def _done(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers once every (distinct) constituent event has triggered."""

    __slots__ = ()

    def _done(self) -> bool:
        return len(self._fired) == len(self._events)


class AnyOf(_Condition):
    """Triggers as soon as one constituent event triggers."""

    __slots__ = ()

    def _done(self) -> bool:
        return len(self._fired) >= 1
