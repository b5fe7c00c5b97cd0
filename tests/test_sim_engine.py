"""Unit tests for the discrete-event simulation kernel."""

import gc
import hashlib
import random

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


# -- seeded kernel-order programs --------------------------------------------
#
# Random programs over every primitive, with timeout delays drawn from a
# small set so that equal-time ties are common.  The set holds 0 and 1e-17,
# a delay that float addition absorbs once the clock has left 0
# (1.0 + 1e-17 == 1.0).  Timeouts created at different instants land on the
# same instant, resources are granted and cancelled, and processes are
# interrupted while they wait.  Each program's (now, label) trace and step()
# count are pinned by sha256, so a kernel change that runs any callback in
# another order fails here.

_DELAYS = (0, 0, 1e-17, 0.25, 0.5, 1.0)
_KINDS = ("sleep", "use", "impatient", "put", "get", "toggle", "pass",
          "fire", "await", "any_of", "all_of", "spawn")


def _script(rng, depth=0):
    kinds = _KINDS if depth == 0 else _KINDS[:-1]
    return [
        (rng.choice(kinds), rng.randrange(2), rng.choice(_DELAYS),
         rng.choice(_DELAYS))
        for _ in range(rng.randint(2, 6))
    ]


def _random_program(seed):
    """Build and step program ``seed`` to the end; return its trace."""
    rng = random.Random(seed)
    sim = Simulator()
    log = []

    def mark(label):
        log.append((sim.now, label))

    resources = [Resource(sim, capacity=1), Resource(sim, capacity=2)]
    store = Store(sim)
    gate = Gate(sim, is_open=rng.random() < 0.5)
    signals = [sim.event() for _ in range(2)]

    def action(tag, kind, which, d1, d2):
        if kind == "sleep":
            yield sim.timeout(d1)
        elif kind in ("use", "impatient"):
            res = resources[which]
            req = res.request()
            try:
                if kind == "use":
                    yield req
                else:
                    got = yield sim.any_of([req, sim.timeout(d2, "patience")])
                    if req not in got:
                        mark(f"{tag} gave up r{which}")
                        return
                mark(f"{tag} granted r{which}")
                yield sim.timeout(d1)
            finally:
                res.release(req)
        elif kind == "put":
            store.put(f"{tag}:{d1}")
        elif kind == "get":
            mark(f"{tag} got {(yield store.get())}")
        elif kind == "toggle":
            if gate.is_open:
                gate.close()
            else:
                gate.open()
        elif kind == "pass":
            yield gate.wait()
        elif kind == "fire":
            if not signals[which].triggered:
                signals[which].succeed(tag)
        elif kind == "await":
            mark(f"{tag} saw {(yield signals[which])}")
        elif kind in ("any_of", "all_of"):
            early = sim.timeout(d1, "early")
            yield sim.timeout(d1)  # `early` is processed by now
            members = [early, sim.timeout(d2, "a"), sim.timeout(d1, "b")]
            got = yield getattr(sim, kind)(members)
            mark(f"{tag} {kind} {sorted(got.values())}")
        elif kind == "spawn":
            child = sim.process(
                body(f"{tag}.c", _script(rng, 1), crash=which == 1)
            )
            try:
                mark(f"{tag} joined {(yield child)}")
            except RuntimeError as exc:
                mark(f"{tag} child failed {exc}")

    def body(tag, script, crash=False):
        mark(f"{tag} start")
        for step in script:
            try:
                yield from action(tag, *step)
            except Interrupt as exc:
                mark(f"{tag} interrupted {exc.cause}")
        if crash:
            raise RuntimeError(f"{tag} crashed")
        mark(f"{tag} done")
        return tag

    def interrupter(procs, plan):
        # A positive pause before each interrupt: every target has started
        # and has handled the previous interrupt by then.
        for pause, target in plan:
            yield sim.timeout(pause)
            procs[target].interrupt(f"i{target}")

    def main():
        procs = [
            sim.process(body(f"p{i}", _script(rng)))
            for i in range(rng.randint(3, 6))
        ]
        plan = [(rng.choice((0.25, 0.5)), rng.randrange(len(procs)))
                for _ in range(rng.randint(0, 2))]
        sim.process(interrupter(procs, plan))
        yield sim.all_of(procs)
        mark("main done")

    sim.process(main())
    steps = 0
    while True:
        try:
            sim.step()
        except IndexError:  # nothing left to run
            break
        steps += 1
    log.append((sim.now, "end", [r.busy_time() for r in resources],
                [r.peak_queue for r in resources], len(store),
                [(when, str(exc)) for when, _p, exc in sim.crashed_processes]))
    return log, steps


def _program_fingerprint(seed):
    log, steps = _random_program(seed)
    return hashlib.sha256(repr(log).encode()).hexdigest(), steps


SEEDED_ORDER = {
    0: ("e3972600f8883c3172cbf0c1fffd4a9d30168d3811015de8de0c3138fab36757", 59),
    1: ("b63e96c65fe879e749d030dded2a57c64dc9b298aa8539617758f4d7eb61a1e3", 52),
    2: ("ca5a3f363124edb377cdc9a13da7262c23f31a71c53a473c25fdc225ad5e18cd", 37),
    3: ("02f2d36464fc147648dbf2183617bb3dcaf53a613914eb0f45c672bf10bb2002", 40),
    4: ("529c7289c88c6853928f5e4ac6ba5099b0af8bd73a1aa1f300f7c149816b32ab", 17),
    5: ("2502dbd415bb48e0818ad343b8c444ce933c57bacbd6d014f38c7b3362c84ef3", 84),
    6: ("6995236d2c99cfcd6dd8f0300f4512c15c98ae3601e3570b0f5562367d611b2f", 42),
    7: ("b1978f2157dedee813603ef41806ef728751079df0dbb714d702b249c55d5f6c", 30),
    8: ("69d6e9822239f7781865c17c41d16c2d8e7df1a02d5a431e203acc8f29220431", 83),
    9: ("3daaea8b1ab91cd383eec96f313e6c3595f397fdad2a4d883eb460a238fa5283", 76),
    10: ("89d333f19f6a6667edf6a62103bc1f1b6ab3230d51f0c81839c7ec95c73fd163", 70),
    11: ("1743c173e1feeec0a76c6bbcbd458a5351503dc0b54c7cb267770e0ac0aedc01", 83),
    12: ("5d828829b66cd388b6cbf628917c608002f2625a617d867d2f30807dc030ef42", 39),
    13: ("eb54551ada644c2c3085770ca4f2b1ed387fa56ecaec290240a512db64a5a30f", 26),
    14: ("39debbf23bf3cc17002f68f52b862ddee467c4bd5cd5cb5d232f89ab540b19e7", 40),
    15: ("c7f6907d007b60c7820ae1793c8f3d13b3f9b8d0951861acc0937a96abb619a7", 21),
    16: ("9835e354462c7ef59b80198cef2edc8a968263317bc6eaf8f8203abaf724f258", 46),
    17: ("e1750c664c72665184b6b38ecc8045e4d422648c94d363b2453a520b60f5bcaf", 44),
    18: ("286fea769f5fd77d78999e90884e2e4df15b5d280e0e71b2a60fba99e71376df", 84),
    19: ("a64c69c917b3b8363fd2ea802d37de96acabb512b7851de889a344efd918fb9c", 30),
    20: ("f57d467675b708a6ed1187d44ba701e5645ec3900c2b9a3225731aa7698936db", 49),
    21: ("b4bb498bfb6be6ccd5998665ad5f13af8348363e50f4cf0688f9dfbab02953ae", 80),
    22: ("eb1a490a2b99e5f6e4a20600ee4e6fbebcfe3d3a128ce11830eae3b5b741129f", 24),
    23: ("c0438a3b0cfab1a7e9a41db0872ab4258e1d8b16183d272f1202b8c9d37412df", 68),
    24: ("bf75fccf273a562f23bc58866578578b3a960af804fae887a824e53b0a522eb8", 57),
    25: ("f713b935c4ee3fadb1cb87092df6863bc9a5b2adac2f533bd3602f4147d89a9b", 17),
    26: ("a1d2b30e04cc2933bb70cbdbcf2a4e944c2a4692f7bb6358a8e061c6ee31b71d", 29),
    27: ("45e9376ca9dc440f27c1a7784d67426d5802e59e8f8fd6da9d6a1abed142de81", 58),
    28: ("4a97a3440e3063197785646ac00eaf2b706f5512fcb842203360f5b6b1e1bbb7", 49),
    29: ("9557ddb4fd070e0f52df5729f67975e78f37d326f16cf5b799781c5e9f1c0816", 52),
    30: ("a99373a785c77b71f9cb2a58ddc56eda674fcc8cc2e59bb46d7039e87275d526", 38),
    31: ("9f27527aa74eca1a79ecde161e7c2e9f08c5956e5bc3f5bd687fb8da378a69f9", 30),
    32: ("dad760c709f7ecc0e17309a3730a442d113a02fa0c37d79b0fcc9d6c04d9373e", 27),
    33: ("7057cd54547730cc90f7100919cfbd750c4cfca5427618d81a6fe05d8cde0cff", 13),
    34: ("06090507af5471c7525786109dfa46a22bc692ac799a7932ee09891c5fdbca7b", 32),
    35: ("b3b7649017788f25abfb022bf2bb592bfe2a7f3f391f2dcea6b1553264274dc6", 35),
    36: ("9e30ac100c3315021d1ec0a735454c3e63f672d33679ed71e60f4677a0e1625c", 19),
    37: ("20633fbfd5fd5a847c2ae674adfbe6bba758f92ef17bc21a3aaeac831b980e86", 34),
    38: ("d1f7ce1577067cd1f6189fe45ec8a4d0ec1c63d822469b0827e4a87f698f8504", 72),
    39: ("7364d14dc6d50c20686408034f05f9f584408ee4d252a0db2bc2bb0c461d223c", 46),
    40: ("c68e73351ebef6e761d900ef288a761ca197424be003d1698190b16ade18e3e0", 32),
    41: ("eabde9c3999cf725ac1a76a54ba0b8e922cf77380f1706745ce118468014b37b", 42),
    42: ("cb69232012724a63d9e1e418b9903c9cafe76fc20f50b1534d2a072d3691246d", 12),
    43: ("1819df46e33d702296f2069e2dd8f1d18a49d5d8c44e01b6835f36be44472578", 43),
    44: ("7de8d5ddcb129591e39f10c19a1ce2ddecb3b097b66533157cd82bdf9fedf616", 47),
    45: ("13e670de50549e94cdc7b03bc41ccfae6cdb82c9b0830476887c08ab406d2344", 48),
    46: ("5babd9903e0f112adcc10c545ee9f3a42704c154b7047562decd2692656fcf25", 53),
    47: ("24f4850d89a127de716593883586504e9517ec4ec27dfb3d80b989af2e422246", 35),
    48: ("67dd5af810f7ecdbf7db6b35af44a1e7ccda95ea9b89560c721f6d826fad6f45", 68),
    49: ("b41856be314caeab802ee69ef1421e0a60a8a0ddd4e45672520f2cdc0669ede0", 60),
}


@pytest.mark.parametrize("seed", sorted(SEEDED_ORDER))
def test_seeded_programs_keep_event_order(seed):
    assert _program_fingerprint(seed) == SEEDED_ORDER[seed]


def test_seeded_programs_reach_every_ordering_case():
    """The programs above really tie timers, absorb delays, cancel, crash
    and interrupt: otherwise their pinned traces would prove little."""
    logs = [_random_program(seed)[0] for seed in SEEDED_ORDER]
    labels = " ".join(str(entry) for log in logs for entry in log)
    for needle in ("gave up", "interrupted", "child failed", "any_of",
                   "all_of", " got ", " saw ", "joined"):
        assert needle in labels, needle


# -- the timer heap and the lane ---------------------------------------------
#
# Events due later than now wait on the timer heap; events due at now run
# from a FIFO lane.  Together they must give the single (when, scheduling
# order) sequence, and run/run_process/step must treat both as pending work.


def _logged(ev, log, name):
    ev.callbacks.append(lambda _ev: log.append((ev.sim.now, name)))
    return ev


def test_timer_landing_on_now_runs_before_events_scheduled_at_now():
    sim = Simulator()
    log = []
    first = _logged(sim.timeout(1.0), log, "timer set at 0")
    first.callbacks.append(lambda _ev: _logged(sim.event(), log, "now").succeed())

    def late_timer():
        yield sim.timeout(0.5)
        _logged(sim.timeout(0.5), log, "timer set at 0.5")

    sim.process(late_timer())
    sim.run()
    assert log == [(1.0, "timer set at 0"), (1.0, "timer set at 0.5"), (1.0, "now")]


def test_absorbed_delay_runs_in_fifo_order_with_succeed_calls():
    sim = Simulator()
    sim.run(until=1.0)
    assert 1.0 + 1e-17 == 1.0
    log = []
    _logged(sim.event(), log, "before").succeed()
    _logged(sim.timeout(1e-17), log, "absorbed")
    _logged(sim.event(), log, "after").succeed()
    sim.run()
    assert log == [(1.0, "before"), (1.0, "absorbed"), (1.0, "after")]


def test_unabsorbed_tiny_delay_waits_for_its_instant():
    sim = Simulator()
    log = []
    _logged(sim.timeout(1e-17), log, "tiny")
    _logged(sim.event(), log, "now").succeed()
    sim.run()
    assert log == [(0.0, "now"), (1e-17, "tiny")]


def test_run_until_drains_the_lane_before_it_stops():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(2)
        log.append(("woke", sim.now))
        yield sim.event().succeed()  # due now: runs from the lane
        log.append(("resumed", sim.now))
        yield sim.timeout(5)

    sim.process(proc())
    sim.run(until=2)
    assert log == [("woke", 2), ("resumed", 2)]
    assert sim.now == 2


def test_run_until_moves_the_clock_only_when_nothing_is_due():
    sim = Simulator()
    log = []
    sim.timeout(10)
    _logged(sim.event(), log, "due now").succeed()
    sim.run(until=0)
    assert log == [(0.0, "due now")] and sim.now == 0
    _logged(sim.event(), log, "due later").succeed()
    sim.run(until=5)
    assert log == [(0.0, "due now"), (0.0, "due later")]
    assert sim.now == 5


def test_run_process_sees_work_on_the_lane_as_progress():
    sim = Simulator()
    ready = sim.event()
    ready.succeed("x")  # only the lane holds work: the heap is empty

    def proc():
        return (yield ready)

    assert sim.run_process(proc()) == "x"


def test_run_process_reports_deadlock_once_both_lanes_are_empty():
    sim = Simulator()
    log = []
    sim.timeout(1)
    _logged(sim.event(), log, "lane").succeed()

    def stuck():
        yield sim.event()

    with pytest.raises(RuntimeError, match="deadlock"):
        sim.run_process(stuck())
    assert log == [(0.0, "lane")] and sim.now == 1


def test_step_on_an_empty_simulator_raises_index_error():
    sim = Simulator()
    with pytest.raises(IndexError):
        sim.step()
    sim.event().succeed()
    sim.timeout(1)
    sim.step()
    sim.step()
    assert sim.now == 1
    with pytest.raises(IndexError):
        sim.step()
