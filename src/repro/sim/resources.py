"""Queueing primitives used by the runtime layers.

* :class:`Store` — FIFO of items with blocking ``get`` (models completion
  queues and message channels).
* :class:`Signal` — a re-armable broadcast event (models "poke all waiters").
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from typing import Any

from repro.sim.engine import URGENT, Engine, Event


class Store:
    """An unbounded FIFO of items with blocking ``get``.

    ``put`` is immediate (the network layers bound their queues explicitly
    where the paper's protocol requires it).  Each of the two queues (items,
    blocked getters) is ``()`` while idle and a deque while in use: a get
    that finds no item drops the emptied deque, so an idle store costs no
    deque block.
    """

    __slots__ = ("engine", "name", "_items", "_getters")

    def __init__(self, engine: Engine, name: str = ""):
        self.engine = engine
        self.name = name
        self._items: deque[Any] | tuple[()] = ()
        self._getters: deque[Event] | tuple[()] = ()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        getters = self._getters
        if getters:
            ev = getters.popleft()
            if not getters:
                self._getters = ()
            ev.succeed(item, priority=URGENT)
        elif self._items:
            self._items.append(item)
        else:
            self._items = deque((item,))

    def get(self) -> Generator[Event, Any, Any]:
        """Blocking get (use with ``yield from``); returns the item."""
        if self._items:
            return self._items.popleft()
        self._items = ()
        ev = Event(self.engine)
        if self._getters:
            self._getters.append(ev)
        else:
            self._getters = deque((ev,))
        item = yield ev
        return item

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns (ok, item)."""
        if self._items:
            return True, self._items.popleft()
        self._items = ()
        return False, None


class Signal:
    """A re-armable broadcast: ``fire(value)`` wakes every current waiter.

    The event is built on the first :meth:`wait` after a fire, and a fire
    nobody waits on costs no scheduler push (:meth:`Event.settle`): every
    caller attaches to what :meth:`wait` returns at once.
    """

    __slots__ = ("engine", "name", "_event")

    def __init__(self, engine: Engine, name: str = ""):
        self.engine = engine
        self.name = name
        self._event: Event | None = None

    def wait(self) -> Event:
        """Event that triggers at the next :meth:`fire`. Yield it."""
        ev = self._event
        if ev is None:
            ev = self._event = Event(self.engine)
        return ev

    def fire(self, value: Any = None) -> None:
        ev = self._event
        if ev is not None:
            self._event = None
            ev.settle(value, priority=URGENT)
