"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.hpc.sim import AllOf, Event, Interrupt, Simulator, Timeout


class TestTimeouts:
    def test_clock_advances(self):
        sim = Simulator()
        log = []

        def proc():
            yield Timeout(5.0)
            log.append(sim.now)
            yield Timeout(2.5)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [5.0, 7.5]

    def test_zero_delay_ok(self):
        sim = Simulator()
        done = []

        def proc():
            yield Timeout(0.0)
            done.append(True)

        sim.process(proc())
        sim.run()
        assert done == [True]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1.0)

    def test_same_time_fifo_order(self):
        sim = Simulator()
        order = []

        def proc(tag):
            yield Timeout(1.0)
            order.append(tag)

        for tag in "abc":
            sim.process(proc(tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_run_until_stops_clock(self):
        sim = Simulator()

        def proc():
            yield Timeout(100.0)

        sim.process(proc())
        sim.run(until=30.0)
        assert sim.now == 30.0
        sim.run()  # finish the rest
        assert sim.now == 100.0

    def test_run_until_beyond_all_events_keeps_last_event_time(self):
        # SimPy semantics: the clock stays at the last executed event
        sim = Simulator()

        def proc():
            yield Timeout(5.0)

        sim.process(proc())
        sim.run(until=50.0)
        assert sim.now == 5.0


class TestEvents:
    def test_wait_then_succeed(self):
        sim = Simulator()
        ev = sim.event()
        got = []

        def waiter():
            value = yield ev
            got.append((sim.now, value))

        def firer():
            yield Timeout(3.0)
            ev.succeed("payload")

        sim.process(waiter())
        sim.process(firer())
        sim.run()
        assert got == [(3.0, "payload")]

    def test_wait_on_already_fired_event(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(42)
        got = []

        def waiter():
            value = yield ev
            got.append(value)

        sim.process(waiter())
        sim.run()
        assert got == [42]

    def test_double_succeed_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_multiple_waiters(self):
        sim = Simulator()
        ev = sim.event()
        got = []

        def waiter(tag):
            value = yield ev
            got.append((tag, value))

        for tag in "ab":
            sim.process(waiter(tag))

        def firer():
            yield Timeout(1.0)
            ev.succeed("x")

        sim.process(firer())
        sim.run()
        assert sorted(got) == [("a", "x"), ("b", "x")]

    def test_timeout_event(self):
        sim = Simulator()
        ev = sim.timeout_event(4.0, "done")
        got = []

        def waiter():
            got.append((yield ev))

        sim.process(waiter())
        sim.run()
        assert got == ["done"] and sim.now == 4.0


class TestProcesses:
    def test_process_is_event_with_return_value(self):
        sim = Simulator()

        def child():
            yield Timeout(2.0)
            return "result"

        def parent():
            value = yield sim.process(child())
            return value

        p = sim.process(parent())
        sim.run()
        assert p.triggered and p.value == "result"

    def test_allof_barrier(self):
        sim = Simulator()

        def child(d):
            yield Timeout(d)
            return d

        def parent():
            kids = [sim.process(child(d)) for d in (3.0, 1.0, 2.0)]
            values = yield AllOf(kids)
            return (sim.now, values)

        p = sim.process(parent())
        sim.run()
        assert p.value == (3.0, [3.0, 1.0, 2.0])  # order preserved

    def test_allof_empty(self):
        sim = Simulator()

        def parent():
            values = yield AllOf([])
            return values

        p = sim.process(parent())
        sim.run()
        assert p.value == []

    def test_interrupt(self):
        sim = Simulator()
        caught = []

        def victim():
            try:
                yield Timeout(100.0)
            except Interrupt as exc:
                caught.append((sim.now, exc.cause))

        v = sim.process(victim())

        def attacker():
            yield Timeout(5.0)
            v.interrupt("preempted")

        sim.process(attacker())
        sim.run(until=10.0)
        assert caught == [(5.0, "preempted")]

    def test_interrupt_cancels_pending_timeout(self):
        # regression: interrupting a process parked on Timeout(100) must
        # cancel that continuation — the old callback firing at t=100
        # must not resume the generator out of its post-interrupt sleep
        sim = Simulator()
        resumed = []

        def victim():
            try:
                yield Timeout(100.0)
            except Interrupt:
                pass
            yield Timeout(500.0)
            resumed.append(sim.now)

        v = sim.process(victim())

        def attacker():
            yield Timeout(10.0)
            v.interrupt("preempted")

        sim.process(attacker())
        sim.run()
        assert resumed == [510.0]

    def test_interrupt_cancels_pending_event_wait(self):
        # a fired event whose waiter was interrupted before resuming must
        # not push the generator past its post-interrupt yield
        sim = Simulator()
        ev = sim.event()
        log = []

        def victim():
            try:
                yield ev
                log.append(("granted", sim.now))
            except Interrupt:
                log.append(("interrupted", sim.now))
            yield Timeout(50.0)
            log.append(("done", sim.now))

        v = sim.process(victim())

        def firer():
            yield Timeout(5.0)
            # same instant: the interrupt lands at the generator first,
            # so the queued grant callback must be dropped as stale
            v.interrupt("preempted")
            ev.succeed("grant")

        sim.process(firer())
        sim.run()
        assert log == [("interrupted", 5.0), ("done", 55.0)]

    def test_bad_yield_type_raises(self):
        sim = Simulator()

        def proc():
            yield 42

        sim.process(proc())
        with pytest.raises(TypeError):
            sim.run()

