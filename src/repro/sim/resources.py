"""Queueing primitives built on the event kernel.

:class:`Resource` models a server with fixed capacity and a FIFO queue
(e.g. a CPU or a disk arm).  :class:`Store` is an unbounded producer/consumer
queue used for message passing between processes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from .engine import _UNSET, Event, Simulator

__all__ = ["Resource", "Store", "Gate"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        # Event.__init__, inlined: one Request per resource use.
        self.sim = resource.sim
        self.callbacks = []
        self._value = _UNSET
        self._ok = True
        self._scheduled = False
        self.resource = resource


class Resource:
    """A FIFO-served pool of ``capacity`` identical slots.

    Usage from a process::

        req = cpu.request()
        yield req
        try:
            yield sim.timeout(service_time)
        finally:
            cpu.release(req)

    or the one-liner ``yield from cpu.use(service_time)``.

    The resource tracks cumulative busy time (slot-seconds) so callers can
    report utilisation.
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiting: deque = deque()
        self._busy_time = 0.0
        self._busy_since: Optional[float] = None
        self.peak_queue = 0

    def request(self) -> Request:
        req = Request(self)
        if self.in_use < self.capacity:
            # _grant, with req.succeed(self) inlined: a fresh request is
            # neither triggered nor scheduled.
            self.in_use += 1
            sim = self.sim
            if self._busy_since is None:
                self._busy_since = sim.now
            req._value = self
            req._scheduled = True
            sim._lane.append(req)
        else:
            self._waiting.append(req)
            if len(self._waiting) > self.peak_queue:
                self.peak_queue = len(self._waiting)
        return req

    def _grant(self, req: Request) -> None:
        self.in_use += 1
        if self._busy_since is None:
            self._busy_since = self.sim.now
        req.succeed(self)

    def release(self, req: Request) -> None:
        if req._value is _UNSET:
            # Cancelled before being granted: drop from the queue.
            try:
                self._waiting.remove(req)
            except ValueError:
                pass
            return
        self.in_use -= 1
        if self.in_use == 0 and self._busy_since is not None:
            self._busy_time += (self.sim.now - self._busy_since) * self.capacity
            self._busy_since = None
        while self._waiting and self.in_use < self.capacity:
            self._grant(self._waiting.popleft())

    def use(self, duration: float) -> Generator:
        """Claim a slot, hold it for ``duration``, then release it."""
        req = self.request()
        yield req
        try:
            if duration > 0:
                yield self.sim.timeout(duration)
        finally:
            self.release(req)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def busy_time(self) -> float:
        """Cumulative slot-seconds of service delivered so far."""
        total = self._busy_time
        if self._busy_since is not None:
            # Approximate: charge all current slots as busy since _busy_since.
            total += (self.sim.now - self._busy_since) * self.in_use
        return total

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of capacity busy over ``elapsed`` (default: since t=0)."""
        if elapsed is None:
            elapsed = self.sim.now
        if elapsed <= 0:
            return 0.0
        return self.busy_time() / (elapsed * self.capacity)


class Store:
    """An unbounded FIFO queue with blocking ``get``.

    ``put`` never blocks; ``get`` returns an event that triggers with the next
    item (immediately, if one is buffered).
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: deque = deque()
        self._getters: deque = deque()

    def put(self, item: Any) -> None:
        while self._getters:
            getter = self._getters.popleft()
            if getter._value is _UNSET:
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        ev = self.sim.event()
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)


class Gate:
    """A reusable open/closed barrier.

    ``wait()`` returns immediately while open; while closed it returns an
    event that triggers on the next ``open()``.
    """

    def __init__(self, sim: Simulator, is_open: bool = True):
        self.sim = sim
        self._open = is_open
        self._waiters: list = []

    @property
    def is_open(self) -> bool:
        return self._open

    def close(self) -> None:
        self._open = False

    def open(self) -> None:
        self._open = True
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            if ev._value is _UNSET:
                ev.succeed(None)

    def wait(self) -> Event:
        ev = self.sim.event()
        if self._open:
            ev.succeed(None)
        else:
            self._waiters.append(ev)
        return ev
