"""Unit tests for the discrete-event simulation kernel."""

import gc

import pytest

from repro.sim import Gate, Interrupt, Resource, Simulator, Store


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.5)
        return sim.now

    assert sim.run_process(proc()) == 1.5
    assert sim.now == 1.5


def test_timeouts_fire_in_order():
    sim = Simulator()
    seen = []

    def waiter(delay, tag):
        yield sim.timeout(delay)
        seen.append(tag)

    sim.process(waiter(3.0, "c"))
    sim.process(waiter(1.0, "a"))
    sim.process(waiter(2.0, "b"))
    sim.run()
    assert seen == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    sim = Simulator()
    seen = []

    def waiter(tag):
        yield sim.timeout(1.0)
        seen.append(tag)

    for tag in range(10):
        sim.process(waiter(tag))
    sim.run()
    assert seen == list(range(10))


def test_zero_delay_timeout():
    sim = Simulator()

    def proc():
        yield sim.timeout(0)
        return "done"

    assert sim.run_process(proc()) == "done"
    assert sim.now == 0.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_event_value_passes_to_waiter():
    sim = Simulator()
    ev = sim.event()

    def setter():
        yield sim.timeout(2)
        ev.succeed(42)

    def getter():
        value = yield ev
        return value

    sim.process(setter())
    assert sim.run_process(getter()) == 42


def test_event_failure_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()

    def setter():
        yield sim.timeout(1)
        ev.fail(ValueError("boom"))

    def getter():
        try:
            yield ev
        except ValueError as exc:
            return str(exc)
        return "no error"

    sim.process(setter())
    assert sim.run_process(getter()) == "boom"


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_waiting_on_already_processed_event():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    sim.run()  # process the event

    def late():
        value = yield ev
        return value

    assert sim.run_process(late()) == "early"


def test_process_waits_for_process():
    sim = Simulator()

    def inner():
        yield sim.timeout(5)
        return "inner-result"

    def outer():
        result = yield sim.process(inner())
        return (result, sim.now)

    assert sim.run_process(outer()) == ("inner-result", 5)


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def inner():
        yield sim.timeout(1)
        raise RuntimeError("inner died")

    def outer():
        try:
            yield sim.process(inner())
        except RuntimeError as exc:
            return f"caught: {exc}"
        return "no exception"

    assert sim.run_process(outer()) == "caught: inner died"


def test_uncaught_process_crash_is_recorded():
    sim = Simulator()

    def doomed():
        yield sim.timeout(1)
        raise RuntimeError("unobserved")

    sim.process(doomed())
    sim.run()
    assert len(sim.crashed_processes) == 1
    when, _proc, exc = sim.crashed_processes[0]
    assert when == 1
    assert str(exc) == "unobserved"


def test_interrupt_wakes_sleeping_process():
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(100)
        except Interrupt as intr:
            return ("interrupted", intr.cause, sim.now)
        return "slept through"

    proc = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(3)
        proc.interrupt("wake up")

    sim.process(interrupter())
    sim.run()
    assert proc.value == ("interrupted", "wake up", 3)


def test_interrupt_dead_process_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1)

    proc = sim.process(quick())
    sim.run()
    proc.interrupt()  # must not raise
    sim.run()


def test_run_until_stops_clock():
    sim = Simulator()
    seen = []

    def ticker():
        while True:
            yield sim.timeout(1)
            seen.append(sim.now)

    sim.process(ticker())
    sim.run(until=5)
    assert seen == [1, 2, 3, 4, 5]
    assert sim.now == 5


def test_run_until_advances_clock_past_last_event():
    sim = Simulator()

    def once():
        yield sim.timeout(2)

    sim.process(once())
    sim.run(until=10)
    assert sim.now == 10


def test_any_of_first_wins():
    sim = Simulator()

    def proc():
        fast = sim.timeout(1, value="fast")
        slow = sim.timeout(5, value="slow")
        result = yield sim.any_of([fast, slow])
        return (list(result.values()), sim.now)

    values, now = sim.run_process(proc())
    assert values == ["fast"]
    assert now == 1


def test_all_of_waits_for_all():
    sim = Simulator()

    def proc():
        a = sim.timeout(1, value="a")
        b = sim.timeout(5, value="b")
        result = yield sim.all_of([a, b])
        return (sorted(result.values()), sim.now)

    values, now = sim.run_process(proc())
    assert values == ["a", "b"]
    assert now == 5


def test_all_of_empty_triggers_immediately():
    sim = Simulator()

    def proc():
        yield sim.all_of([])
        return sim.now

    assert sim.run_process(proc()) == 0


def test_deadlock_detected_by_run_process():
    sim = Simulator()

    def stuck():
        yield sim.event()  # never triggered

    with pytest.raises(RuntimeError, match="deadlock"):
        sim.run_process(stuck())


def test_nested_immediate_resume_does_not_recurse():
    """A long chain of already-processed events must not blow the stack."""
    sim = Simulator()
    events = [sim.event() for _ in range(5000)]
    for ev in events:
        ev.succeed(1)
    sim.run()  # process all events so waits resume inline

    def proc():
        total = 0
        for ev in events:
            total += yield ev
        return total

    assert sim.run_process(proc()) == 5000


# -- golden event order ------------------------------------------------------
#
# The kernel's observable contract is the order in which it runs callbacks:
# heap entries pop by (when, insertion id).  A host-side change to the kernel
# must add or remove no heap entry and reorder no push, so this scripted run
# pins the exact (now, label) sequence and the number of step() calls.


def _scripted_run():
    """Run a fixed scenario that exercises every kernel primitive; return
    the (now, label) log, the step() count and the simulator."""
    sim = Simulator()
    log = []

    def mark(label):
        log.append((sim.now, label))

    cpu = Resource(sim, capacity=1)
    disk = Resource(sim, capacity=2)
    store = Store(sim)
    gate = Gate(sim, is_open=False)

    def user(tag, res, hold):
        mark(f"{tag} start")
        req = res.request()
        yield req
        mark(f"{tag} granted")
        yield sim.timeout(hold)
        res.release(req)
        mark(f"{tag} released")

    def impatient():
        req = cpu.request()
        got = yield sim.any_of([req, sim.timeout(0.5, "patience")])
        if req not in got:
            cpu.release(req)  # cancel while still queued
            mark(f"impatient gave up {list(got.values())}")

    def producer():
        for item in range(3):
            yield sim.timeout(0.25)
            store.put(item)
            mark(f"put {item}")

    def consumer():
        for _ in range(3):
            item = yield store.get()
            mark(f"got {item}")

    def gated(tag):
        yield gate.wait()
        mark(f"{tag} passed gate")

    def opener():
        yield sim.timeout(1.0)
        gate.open()
        mark("gate opened")
        yield gate.wait()
        mark("open gate passes at once")

    def sleeper():
        try:
            yield sim.timeout(10)
        except Interrupt as exc:
            mark(f"interrupted {exc.cause}")

    def crasher():
        yield sim.timeout(0.75)
        mark("crash")
        raise RuntimeError("boom")

    def joiner():
        early = sim.timeout(0.1, "early")
        yield sim.timeout(0.2)  # `early` is processed by now
        got = yield sim.all_of([early, sim.timeout(0.3, "late")])
        mark(f"all_of {sorted(got.values())}")
        got = yield sim.any_of([early, sim.timeout(5, "never")])
        mark(f"any_of {list(got.values())}")
        got = yield sim.all_of([sim.timeout(0.1, "x"), sim.timeout(0.1, "y")])
        mark(f"all_of equal when {sorted(got.values())}")

    def main():
        mark("main start")
        procs = [
            sim.process(user("u1", cpu, 0.5)),
            sim.process(user("u2", cpu, 0.5)),
            sim.process(impatient()),
            sim.process(user("u3", cpu, 0.5)),
            sim.process(user("d1", disk, 0.3)),
            sim.process(user("d2", disk, 0.3)),
            sim.process(user("d3", disk, 0.3)),
            sim.process(consumer()),
            sim.process(producer()),
            sim.process(gated("g1")),
            sim.process(gated("g2")),
            sim.process(opener()),
            sim.process(joiner()),
        ]
        nap = sim.process(sleeper())
        yield sim.timeout(0.5)
        nap.interrupt("wake")
        try:
            yield sim.process(crasher())
        except RuntimeError as exc:
            mark(f"crasher failed {exc}")
        yield sim.all_of(procs)
        mark("main done")

    sim.process(main())
    steps = 0
    while True:
        try:
            sim.step()
        except IndexError:  # the heap is empty
            break
        steps += 1
    return log, steps, sim


GOLDEN_ORDER = [
    (0.0, "main start"),
    (0.0, "u1 start"),
    (0.0, "u2 start"),
    (0.0, "u3 start"),
    (0.0, "d1 start"),
    (0.0, "d2 start"),
    (0.0, "d3 start"),
    (0.0, "u1 granted"),
    (0.0, "d1 granted"),
    (0.0, "d2 granted"),
    (0.25, "put 0"),
    (0.25, "got 0"),
    (0.3, "d1 released"),
    (0.3, "d2 released"),
    (0.3, "d3 granted"),
    (0.5, "u1 released"),
    (0.5, "put 1"),
    (0.5, "interrupted wake"),
    (0.5, "impatient gave up ['patience']"),
    (0.5, "u2 granted"),
    (0.5, "all_of ['early', 'late']"),
    (0.5, "got 1"),
    (0.5, "any_of ['early']"),
    (0.6, "d3 released"),
    (0.6, "all_of equal when ['x', 'y']"),
    (0.75, "put 2"),
    (0.75, "got 2"),
    (1.0, "gate opened"),
    (1.0, "u2 released"),
    (1.0, "g1 passed gate"),
    (1.0, "g2 passed gate"),
    (1.0, "open gate passes at once"),
    (1.0, "u3 granted"),
    (1.25, "crash"),
    (1.25, "crasher failed boom"),
    (1.5, "u3 released"),
    (1.5, "main done"),
]
GOLDEN_STEPS = 70


def test_golden_event_order():
    log, steps, sim = _scripted_run()
    assert log == GOLDEN_ORDER
    assert steps == GOLDEN_STEPS
    # The interrupted sleeper's timeout still pops, at t=10.
    assert sim.now == 10
    assert [(when, str(exc)) for when, _p, exc in sim.crashed_processes] == [
        (1.25, "boom")
    ]


def test_finished_kernel_objects_form_no_reference_cycles():
    """Finished processes, timeouts and resource uses must be freed by
    reference counting alone.  A cycle through a Process (for instance a
    cached bound ``_resume``) would leave every one for the cyclic GC."""
    gc.collect()
    gc.disable()
    try:
        sim = Simulator()
        cpu = Resource(sim, capacity=2)

        def child(i):
            yield sim.timeout(i % 3)
            yield from cpu.use(0.5)
            return i

        def parent():
            total = 0
            for i in range(1000):
                total += yield sim.process(child(i))
            return total

        assert sim.run_process(parent()) == sum(range(1000))
        sim.run()
        del sim, cpu
        assert gc.collect() == 0
    finally:
        gc.enable()
