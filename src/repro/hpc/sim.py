"""Discrete-event simulation kernel (SimPy-like, generator coroutines).

The paper's scaling experiments run 256–1,024 Theta nodes for six hours;
here the same orchestration logic (agents, parameter server, Balsam
launcher) runs as coroutine processes over a virtual clock, so a
1,024-node, 360-minute experiment takes seconds of real time while
exercising identical queueing/synchronization code paths.

Processes are Python generators that ``yield`` either

* :class:`Timeout` — resume after a virtual delay,
* :class:`Event` — resume when the event is succeeded,
* another :class:`Process` — resume when that process returns, or
* :class:`AllOf` — resume when every child event has fired.

Determinism: events scheduled for the same instant fire in schedule
order (a monotonically increasing sequence number breaks ties), so runs
are exactly reproducible for a given seed.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable

__all__ = ["Event", "Timeout", "AllOf", "Process", "Simulator",
           "Interrupt"]


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """One-shot condition; processes can wait on it before or after it
    fires (waiting on a fired event resumes immediately)."""

    __slots__ = ("sim", "triggered", "value", "_waiters")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self._waiters: list[Callable[[Any], None]] = []

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value = value
        for cb in self._waiters:
            self.sim._schedule_callback(cb, value)
        self._waiters.clear()
        return self

    def _add_waiter(self, cb: Callable[[Any], None]) -> None:
        if self.triggered:
            self.sim._schedule_callback(cb, self.value)
        else:
            self._waiters.append(cb)


class Timeout:
    """Yieldable delay."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.delay = float(delay)


class AllOf:
    """Yieldable barrier over several events/processes."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable["Event | Process"]) -> None:
        self.events = list(events)


class Process(Event):
    """A running coroutine; is itself an event that fires on return."""

    __slots__ = ("generator", "name", "_interrupted", "_epoch")

    def __init__(self, sim: "Simulator", generator: Generator,
                 name: str = "") -> None:
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._interrupted: Interrupt | None = None
        #: resume epoch: every parked continuation is tagged with the
        #: epoch it was created in; an interrupt bumps the epoch, so the
        #: abandoned continuation (e.g. the Timeout the process was
        #: sleeping on) becomes stale and is dropped when it fires
        self._epoch = 0

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its next resume."""
        if not self.triggered:
            self._interrupted = Interrupt(cause)
            self.sim._schedule_callback(self._resume_interrupt, None)

    def _resume_interrupt(self, _value: Any) -> None:
        if self.triggered or self._interrupted is None:
            return
        exc, self._interrupted = self._interrupted, None
        # invalidate whatever the process was parked on: its callback may
        # still be pending (a Timeout in the heap, an event waiter) and
        # must not resume the generator after the interrupt redirects it
        self._epoch += 1
        try:
            target = self.generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        self.sim._bind(self, target)

    def _continuation(self) -> Callable[[Any], None]:
        """A resume callback valid only for the current epoch."""
        epoch = self._epoch

        def resume(value: Any) -> None:
            if self._epoch == epoch:
                self._step(value)

        return resume

    def _step(self, value: Any) -> None:
        if self.triggered:
            return
        try:
            target = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        self.sim._bind(self, target)


class Simulator:
    """The virtual clock and event loop."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable, Any]] = []
        self._seq = 0

    # -- scheduling ------------------------------------------------------
    def _schedule(self, delay: float, cb: Callable, value: Any = None) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, cb, value))

    def _schedule_callback(self, cb: Callable, value: Any) -> None:
        self._schedule(0.0, cb, value)

    def event(self) -> Event:
        return Event(self)

    def timeout_event(self, delay: float, value: Any = None) -> Event:
        """An event that fires after ``delay`` (waitable by many)."""
        ev = Event(self)
        self._schedule(delay, lambda _v: ev.succeed(value), None)
        return ev

    def process(self, generator: Generator, name: str = "") -> Process:
        proc = Process(self, generator, name)
        self._schedule(0.0, proc._continuation(), None)
        return proc

    def _bind(self, proc: Process, target: Any) -> None:
        """Attach a yielded target to the process's continuation.

        The continuation is epoch-tagged: if the process is interrupted
        while parked here, this binding goes stale and firing it later
        is a no-op (see :meth:`Process._continuation`).
        """
        cont = proc._continuation()
        if isinstance(target, Timeout):
            self._schedule(target.delay, cont, None)
        elif isinstance(target, AllOf):
            pending = len(target.events)
            if pending == 0:
                self._schedule(0.0, cont, [])
                return
            results: list[Any] = [None] * pending
            remaining = [pending]

            def make_cb(i: int):
                def cb(value: Any) -> None:
                    results[i] = value
                    remaining[0] -= 1
                    if remaining[0] == 0:
                        cont(results)
                return cb

            for i, ev in enumerate(target.events):
                ev._add_waiter(make_cb(i))
        elif isinstance(target, Event):
            target._add_waiter(cont)
        else:
            raise TypeError(
                f"process {proc.name!r} yielded {type(target).__name__}; "
                f"expected Timeout, Event, Process or AllOf")

    # -- running ----------------------------------------------------------
    def run(self, until: float | None = None,
            stop: "Callable[[], bool] | None" = None) -> None:
        """Run until the heap drains or the clock reaches ``until``.

        Like SimPy, the clock is *not* advanced to ``until`` when all
        events complete earlier — ``now`` stays at the last event time,
        which is how an early-converged search reports its true end.

        ``stop`` is polled before every callback; when it returns True
        the loop returns immediately with the heap (and every parked
        process) intact — the clock stays at the last executed event.
        This is the preemption seam: a signal handler flips a flag, and
        the search stops at the next event boundary, where its state is
        checkpoint-consistent.
        """
        while self._heap:
            if stop is not None and stop():
                return
            t, _, cb, value = self._heap[0]
            if until is not None and t > until:
                self.now = until
                return
            heapq.heappop(self._heap)
            if t < self.now - 1e-12:
                raise AssertionError("time went backwards")
            self.now = t
            cb(value)
