"""Discrete-event simulation kernel.

The kernel provides simulated time, one-shot :class:`Event` objects, and
generator-based :class:`Process` coroutines, in the style of SimPy but
self-contained and tuned for this project's workloads (tens of millions of
events per benchmark run).

A process is an ordinary generator that yields events; the kernel resumes it
with the event's value when the event triggers, or throws the event's
exception into it when the event fails.  Processes are themselves events that
trigger when the generator returns, so processes can wait on each other.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "Simulator",
    "AnyOf",
    "AllOf",
]

_UNSET = object()


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait for.

    An event starts untriggered.  Calling :meth:`succeed` or :meth:`fail`
    triggers it exactly once; triggering schedules its callbacks to run at the
    current simulation time.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = _UNSET
        self._ok = True
        self._scheduled = False

    @property
    def triggered(self) -> bool:
        return self._value is not _UNSET

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _UNSET:
            raise RuntimeError("event has not triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._value is not _UNSET:
            raise RuntimeError("event already triggered")
        self._value = value
        if not self._scheduled:  # Simulator._schedule, inlined
            self._scheduled = True
            self.sim._lane.append(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._value is not _UNSET:
            raise RuntimeError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exc
        self.sim._schedule(self)
        return self


class Timeout(Event):
    """An event that triggers after a fixed delay.

    The value is held in ``_pvalue`` and only becomes the event value when
    the delay elapses, so ``triggered`` stays False until the timeout fires.
    """

    __slots__ = ("delay", "_pvalue")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        # Event.__init__ and Simulator._schedule, inlined: the hottest
        # constructor of the kernel.
        self.sim = sim
        self.callbacks = []
        self._value = _UNSET
        self._ok = True
        self._scheduled = True
        self.delay = delay
        self._pvalue = value
        now = sim.now
        when = now + delay
        if when == now:  # a zero delay, or one the addition absorbs
            sim._lane.append(self)
        else:
            sim._eid = eid = sim._eid + 1
            heappush(sim._heap, (when, eid, self))


class _Start:
    """The lane entry that starts a :class:`Process`: already triggered
    with value None, and the process's ``_resume`` as its one callback.
    ``step`` and ``_resume`` read only these three attributes, so it needs
    none of an :class:`Event`'s other slots."""

    __slots__ = ("callbacks",)
    _value = None
    _ok = True


class Process(Event):
    """Wraps a generator; drives it by resuming on yielded events.

    The process triggers (as an event) with the generator's return value when
    the generator finishes, or fails with its exception if it raises.
    """

    __slots__ = ("_gen", "_waiting_on", "name")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        if not hasattr(gen, "send"):
            raise TypeError(f"Process requires a generator, got {type(gen)!r}")
        self.sim = sim
        self.callbacks = []
        self._value = _UNSET
        self._ok = True
        self._scheduled = False
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(gen, "__name__", "process")
        # Kick off at the current time.  The bound method is not kept on
        # the process: that would make every process a reference cycle.
        start = _Start()
        start.callbacks = [self._resume]
        sim._lane.append(start)

    @property
    def is_alive(self) -> bool:
        return self._value is _UNSET

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            return
        target = self._waiting_on
        if target is not None and self._resume in (target.callbacks or ()):
            target.callbacks.remove(self._resume)
        self._waiting_on = None
        kick = Event(self.sim)
        kick._ok = False
        kick._value = Interrupt(cause)
        kick.callbacks.append(self._resume)
        # Mark the interrupt as "handled" so an uncaught kernel error does not
        # fire for the defused event; the process sees the exception instead.
        self.sim._schedule(kick)

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        gen = self._gen
        while True:
            try:
                if event._ok:
                    target = gen.send(event._value)
                else:
                    target = gen.throw(event._value)
            except StopIteration as stop:
                self._value = stop.value
                if not self._scheduled:  # Simulator._schedule, inlined
                    self._scheduled = True
                    self.sim._lane.append(self)
                return
            except Interrupt as exc:
                # An unhandled interrupt terminates the process with failure.
                self._ok = False
                self._value = exc
                self.sim._schedule(self)
                return
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self.sim._schedule(self)
                self.sim._record_crash(self, exc)
                return
            if not isinstance(target, Event):
                gen.throw(
                    TypeError(f"process yielded non-event {target!r}")
                )
                continue
            if target.callbacks is None:
                # Already processed: resume immediately with its value.
                event = target
                continue
            target.callbacks.append(self._resume)
            self._waiting_on = target
            return


class AnyOf(Event):
    """Triggers when the first of several events triggers.

    Value is a dict mapping the triggered event(s) to their values at the
    moment of triggering.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.callbacks is None or ev._value is not _UNSET:
                self._collect(ev)
                return
        for ev in self.events:
            ev.callbacks.append(self._collect)

    def _collect(self, _event: Event) -> None:
        if self._value is not _UNSET:
            return
        done = {
            ev: ev._value for ev in self.events
            if ev._value is not _UNSET and ev._ok
        }
        failed = [
            ev for ev in self.events if ev._value is not _UNSET and not ev._ok
        ]
        if failed:
            self.fail(failed[0]._value)
        else:
            self.succeed(done)


class AllOf(Event):
    """Triggers when all of several events have triggered."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._remaining = 0
        for ev in self.events:
            if ev._value is _UNSET:
                self._remaining += 1
                ev.callbacks.append(self._collect)
            elif not ev._ok:
                self.fail(ev._value)
                return
        if self._remaining == 0 and self._value is _UNSET:
            self.succeed({ev: ev._value for ev in self.events})

    def _collect(self, event: Event) -> None:
        if self._value is not _UNSET:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({ev: ev._value for ev in self.events})


class Simulator:
    """The event loop: a clock plus two lanes of scheduled events.

    Events run in the order of the time they are due and, among equal
    times, of scheduling.  An event due later than ``now`` goes on the
    timer heap as ``(when, eid, event)``; one due at ``now`` is appended to
    the lane, a FIFO that needs no eid.  A heap entry due at ``now`` was
    pushed before the clock reached ``now``, so it precedes every lane
    entry: when the clock advances, :meth:`step` moves all heap entries due
    at the new time into the (then empty) lane, in eid order, and runs the
    lane before it looks at the heap again.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list = []
        self._lane: deque = deque()
        self._eid = 0
        self._crashes: list = []

    # -- construction helpers ------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, event: Event) -> None:
        """Run ``event``'s callbacks at the current time, once."""
        if event._scheduled:
            return
        event._scheduled = True
        self._lane.append(event)

    def _record_crash(self, process: Process, exc: BaseException) -> None:
        self._crashes.append((self.now, process, exc))

    @property
    def crashed_processes(self) -> list:
        """(time, process, exception) for processes that died uncaught."""
        return list(self._crashes)

    # -- execution -----------------------------------------------------------

    def step(self) -> None:
        """Run the next event; raise IndexError when none is left."""
        lane = self._lane
        if lane:
            event = lane.popleft()
        else:
            heap = self._heap
            when, _eid, event = heappop(heap)
            self.now = when
            while heap and heap[0][0] == when:
                lane.append(heappop(heap)[2])
        if event._value is _UNSET:
            # Only Timeouts are scheduled before triggering; they fire now.
            event._value = event._pvalue
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for cb in callbacks:
                cb(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until no event is left or the clock reaches ``until``."""
        lane = self._lane
        heap = self._heap
        if until is None:
            while lane or heap:
                self.step()
            return
        if until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        while lane or (heap and heap[0][0] <= until):
            self.step()
        if self.now < until:
            self.now = until

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Convenience: spawn ``gen`` and run until it finishes; return value."""
        proc = self.process(gen, name)
        while proc._value is _UNSET:
            if not self._lane and not self._heap:
                raise RuntimeError(
                    f"deadlock: process {proc.name!r} never finished"
                )
            self.step()
        if not proc._ok:
            raise proc._value
        return proc._value
