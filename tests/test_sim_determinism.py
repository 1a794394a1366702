"""Golden event-order traces pinning the engine's ordering contract.

The fast-path rewrite (pooled relays, inlined scheduling, call_at hooks)
must keep event ordering byte-identical: events fire in
``(time, priority, schedule-sequence)`` order and nothing else.  These
traces were recorded on the pre-rewrite engine and hardcoded; any change
in the order, timestamps, or values is a contract violation, even if the
suite's semantic assertions would still pass.
"""

from repro.sim.engine import NORMAL, URGENT, Engine


def test_golden_trace_priorities_and_conditions():
    """URGENT beats NORMAL at equal time; Timeout vs succeed(delay=...)
    interleave by schedule order; condition trigger order is stable."""
    eng = Engine()
    log = []

    ev_a = eng.event("a")
    ev_b = eng.event("b")

    def waiter(tag, ev):
        got = yield ev
        log.append(("woke", tag, eng.now, got))

    def firer(e):
        yield e.timeout(1.0)
        ev_a.succeed("A", priority=NORMAL)
        ev_b.succeed("B", priority=URGENT)
        log.append(("fired", eng.now))
        # Equal-time race: delayed succeed scheduled before an equal-delay
        # Timeout fires first (schedule order breaks the tie).
        ev_c = e.event("c")
        ev_c.succeed("C", delay=2.0)
        t = e.timeout(2.0, value="T")
        got = yield e.any_of([ev_c, t])
        log.append(("any", eng.now, sorted(v for v in got.values())))
        d1, d2 = e.event("d1"), e.event("d2")
        d1.succeed(1, delay=0.5)
        d2.succeed(2, delay=0.5, priority=URGENT)
        allv = yield e.all_of([d1, d2])
        log.append(("all", eng.now, sorted(allv.values())))

    eng.process(waiter("wa", ev_a), name="wa")
    eng.process(waiter("wb", ev_b), name="wb")
    eng.process(firer(eng), name="firer")
    eng.run()
    log.append(("end", eng.now))

    assert log == [
        ("fired", 1.0),
        ("woke", "wb", 1.0, "B"),     # URGENT before NORMAL at t=1
        ("woke", "wa", 1.0, "A"),
        ("any", 3.0, ["C"]),          # delayed succeed scheduled first wins
        ("all", 3.5, [1, 2]),
        ("end", 3.5),
    ]


def test_golden_trace_processed_target_resume():
    """Resuming off an already-processed event goes through the queue
    (relay), keeping creation-order interleaving with fresh events."""
    eng = Engine()
    log = []
    done = eng.event("done")
    done.succeed("X")
    eng.run(detect_deadlock=False)
    assert done.processed

    def other(e, tag):
        yield e.timeout(0.0)
        log.append((tag, e.now))

    def resumer(e):
        yield e.timeout(0.0)
        got = yield done          # already processed -> pooled relay
        log.append(("resumed", e.now, got))
        got2 = yield done         # relay reused from the pool
        log.append(("resumed2", e.now, got2))

    eng.process(other(eng, "o1"), name="o1")
    eng.process(resumer(eng), name="r")
    eng.process(other(eng, "o2"), name="o2")
    eng.run()

    assert log == [
        ("o1", 0.0),
        ("resumed", 0.0, "X"),
        ("resumed2", 0.0, "X"),
        ("o2", 0.0),
    ]


def test_golden_trace_call_at_hooks_interleave_with_events():
    """call_at hooks consume one sequence number like the event-plus-
    callback pattern they replaced, so same-time interleaving is stable."""
    eng = Engine()
    log = []

    def prog(e):
        yield e.timeout(1.0)
        log.append(("proc", e.now))

    eng.call_at(1.0, lambda: log.append(("hook-early", eng.now)))
    eng.process(prog(eng), name="p")
    eng.call_at(1.0, lambda: log.append(("hook-late", eng.now)))
    eng.call_at(0.5, lambda: log.append(("hook-mid", eng.now)))
    eng.run()

    # Process kick-off is deferred (URGENT relay at t=0), so its timeout is
    # scheduled during run() with a seq *after* both hooks registered at
    # setup time; at t=1.0 the NORMAL entries fire in schedule order.
    assert log == [
        ("hook-mid", 0.5),
        ("hook-early", 1.0),
        ("hook-late", 1.0),
        ("proc", 1.0),
    ]


def test_call_at_past_time_clamps_to_now():
    eng = Engine()
    fired = []

    def prog(e):
        yield e.timeout(5.0)
        e.call_at(1.0, lambda: fired.append(e.now))  # in the past

    eng.process(prog(eng))
    eng.run()
    assert fired == [5.0]


def test_two_identical_runs_produce_identical_traces():
    def build():
        eng = Engine()
        log = []

        def prog(e, tag):
            for i in range(4):
                yield e.timeout(0.25 * (tag + 1))
                log.append((e.now, tag, i))
                if i == 1:
                    ev = e.event()
                    ev.succeed(tag, delay=0.1,
                               priority=URGENT if tag % 2 else NORMAL)
                    got = yield ev
                    log.append((e.now, tag, "ev", got))

        for tag in range(5):
            eng.process(prog(eng, tag))
        eng.run()
        return log

    assert build() == build()


def test_relay_pool_reuse_does_not_leak_values():
    """A recycled relay must carry the *current* target's value, even after
    transporting a different value (or an exception) earlier."""
    eng = Engine()
    first = eng.event()
    first.succeed({"k": 1})
    second = eng.event()
    second.fail(ValueError("boom"))
    second.defuse()
    eng.run(detect_deadlock=False)
    results = []

    def prog(e):
        got = yield first
        results.append(got)
        try:
            yield second
        except ValueError as exc:
            results.append(str(exc))
        got = yield first
        results.append(got)

    eng.process(prog(eng))
    eng.run()
    assert results == [{"k": 1}, "boom", {"k": 1}]
    # The pool actually recycled: a relay returns to the free list *after*
    # running its callbacks, so two relays ping-pong across the four resumes
    # (kick-off plus three yields) instead of five fresh Events.
    assert len(eng._relay_pool) == 2
