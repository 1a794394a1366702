"""Hardware completion counters (§VIII extension)."""

import numpy as np
import pytest

from repro.errors import MatchingError
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from tests.conftest import run_cluster


def test_counter_roundtrip_and_reuse():
    def prog(ctx):
        win = yield from ctx.win_allocate(256)
        if ctx.rank == 1:
            req = yield from ctx.counters.counter_init(win, source=0,
                                                       tag=3,
                                                       expected_count=2)
            for round_no in range(3):
                yield from ctx.counters.start(req)
                yield from ctx.barrier()
                st = yield from ctx.counters.wait(req)
                assert (st.source, st.tag) == (0, 3)
            yield from ctx.counters.request_free(req)
            assert req.cell.increments == 6
            return "ok"
        yield from ctx.barrier()
        for round_no in range(3):
            for _ in range(2):
                yield from ctx.counters.put_counted(
                    win, np.full(2, float(round_no)), 1, 0, tag=3)
            if round_no < 2:
                yield from ctx.barrier()
        return "sent"

    results, _ = run_cluster(2, prog)
    assert results == ["sent", "ok"]


def test_wildcards_rejected():
    def make(source, tag):
        def prog(ctx):
            win = yield from ctx.win_allocate(64)
            yield from ctx.counters.counter_init(win, source=source,
                                                 tag=tag)
        return prog

    for source, tag in ((ANY_SOURCE, 0), (0, ANY_TAG)):
        with pytest.raises(Exception) as ei:
            run_cluster(2, make(source, tag))
        assert isinstance(ei.value.__cause__, MatchingError)


def test_unregistered_route_rejected():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        yield from ctx.counters.put_counted(win, np.zeros(1),
                                            1 - ctx.rank, 0, tag=9)

    with pytest.raises(Exception) as ei:
        run_cluster(2, prog)
    assert isinstance(ei.value.__cause__, MatchingError)


def test_lifecycle_errors():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        req = yield from ctx.counters.counter_init(win, source=0, tag=1)
        try:
            yield from ctx.counters.test(req)      # not started
            raise AssertionError("test on inactive accepted")
        except MatchingError:
            pass
        yield from ctx.counters.start(req)
        try:
            yield from ctx.counters.start(req)
            raise AssertionError("double start accepted")
        except MatchingError:
            pass
        try:
            yield from ctx.counters.request_free(req)
            raise AssertionError("free of active accepted")
        except MatchingError:
            pass
        # Self-put satisfies it; then free is legal.
        yield from ctx.counters.put_counted(win, np.zeros(1), 0, 0, tag=1)
        yield from ctx.counters.wait(req)
        yield from ctx.counters.request_free(req)
        try:
            yield from ctx.counters.start(req)
            raise AssertionError("use after free accepted")
        except MatchingError:
            return "all rejected"

    results, _ = run_cluster(1, prog)
    assert results == ["all rejected"]


def test_counter_check_cheaper_than_queue_matching():
    """§VIII: counter test at 'lowest overheads' — below the queue o_r."""
    def timing(use_counter):
        def prog(ctx):
            win = yield from ctx.win_allocate(64)
            if ctx.rank == 1:
                if use_counter:
                    req = yield from ctx.counters.counter_init(
                        win, source=0, tag=1)
                    eng = ctx.counters
                else:
                    req = yield from ctx.na.notify_init(win, source=0,
                                                        tag=1)
                    eng = ctx.na
                yield from eng.start(req)
                yield from ctx.barrier()
                yield from ctx.barrier()      # data committed in between
                t0 = ctx.now
                yield from eng.wait(req)
                return ctx.now - t0
            yield from ctx.barrier()
            if use_counter:
                yield from ctx.counters.put_counted(win, np.zeros(1), 1,
                                                    0, tag=1)
            else:
                yield from ctx.na.put_notify(win, np.zeros(1), 1, 0, tag=1)
            yield from win.flush(1)
            yield from ctx.barrier()
            return None

        results, _ = run_cluster(2, prog)
        return results[1]

    t_counter = timing(True)
    t_queue = timing(False)
    assert t_counter < t_queue
    assert t_queue >= 0.07 - 1e-9          # the paper's o_r


def test_counter_single_cache_line():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        if ctx.rank == 1:
            req = yield from ctx.counters.counter_init(win, source=0,
                                                       tag=1)
            yield from ctx.counters.start(req)
            yield from ctx.barrier()
            yield from ctx.barrier()
            ctx.cache.flush_all()
            before = ctx.cache.stats.snapshot()
            yield from ctx.counters.wait(req)
            return ctx.cache.stats.delta(before).misses
        yield from ctx.barrier()
        yield from ctx.counters.put_counted(win, np.zeros(1), 1, 0, tag=1)
        yield from win.flush(1)
        yield from ctx.barrier()
        return None

    results, _ = run_cluster(2, prog)
    assert results[1] == 1       # just the counter word's line


def test_counted_put_moves_data():
    def prog(ctx):
        win = yield from ctx.win_allocate(128)
        if ctx.rank == 1:
            req = yield from ctx.counters.counter_init(win, source=0,
                                                       tag=2)
            yield from ctx.counters.start(req)
            yield from ctx.barrier()
            yield from ctx.counters.wait(req)
            assert np.allclose(win.local(np.float64, count=8),
                               np.arange(8.0))
            yield from ctx.counters.request_free(req)
            return "ok"
        yield from ctx.barrier()
        yield from ctx.counters.put_counted(win, np.arange(8.0), 1, 0,
                                            tag=2)
        return "sent"

    results, _ = run_cluster(2, prog)
    assert results == ["sent", "ok"]


def test_duplicate_delivery_does_not_double_increment():
    """Forced duplication must leave completion counters exactly-once: the
    NIC dedup path filters the replayed commit before it can touch the
    counter cell or re-post the notification."""
    from repro.faults import FaultPlan

    n_puts = 4

    def prog(ctx):
        win = yield from ctx.win_allocate(256)
        if ctx.rank == 1:
            req = yield from ctx.counters.counter_init(
                win, source=0, tag=3, expected_count=n_puts)
            yield from ctx.counters.start(req)
            yield from ctx.barrier()
            st = yield from ctx.counters.wait(req)
            assert (st.source, st.tag) == (0, 3)
            # settle: give any straggling duplicate time to arrive
            yield from ctx.compute(100.0)
            return req.cell.increments
        yield from ctx.barrier()
        for i in range(n_puts):
            yield from ctx.counters.put_counted(win, np.full(2, float(i)),
                                                1, 0, tag=3)
        yield from win.flush(1)
        return "sent"

    results, cluster = run_cluster(
        2, prog, ranks_per_node=1,
        faults=FaultPlan(dup_prob=1.0, seed=9))
    assert results == ["sent", n_puts]
    st = cluster.stats()["faults"]
    assert st["duplicates"] > 0


def test_retried_puts_increment_counter_exactly_once_each():
    from repro.faults import FaultPlan

    n_puts = 6

    def prog(ctx):
        win = yield from ctx.win_allocate(256)
        if ctx.rank == 1:
            req = yield from ctx.counters.counter_init(
                win, source=0, tag=1, expected_count=n_puts)
            yield from ctx.counters.start(req)
            yield from ctx.barrier()
            yield from ctx.counters.wait(req)
            yield from ctx.compute(100.0)
            return req.cell.increments
        yield from ctx.barrier()
        for i in range(n_puts):
            yield from ctx.counters.put_counted(win, np.full(2, float(i)),
                                                1, 0, tag=1)
        yield from win.flush(1)
        return "sent"

    results, cluster = run_cluster(
        2, prog, ranks_per_node=1,
        faults=FaultPlan(drop_prob=0.3, seed=21))
    assert results == ["sent", n_puts]
    st = cluster.stats()["faults"]
    assert st["retries"] > 0, "seed produced no drops; pick another"
    assert st["lost_ops"] == 0


def test_abandoned_put_never_increments_counter():
    """A put the fault layer declares lost (target node dead) must leave
    the completion counter untouched."""
    from repro.errors import FaultError
    from repro.faults import FaultPlan

    def prog(ctx):
        win = yield from ctx.win_allocate(256)
        if ctx.rank == 1:
            req = yield from ctx.counters.counter_init(win, source=0, tag=2)
            yield from ctx.compute(2000.0)     # outlive the failure window
            return req.cell.increments
        # wait until rank 1's node is down, then try the put
        yield from ctx.compute(1000.0)
        try:
            yield from ctx.counters.put_counted(win, np.ones(2), 1, 0,
                                                tag=2)
            yield from win.flush(1)
        except FaultError:
            return "lost"
        return "delivered"

    results, cluster = run_cluster(
        2, prog, ranks_per_node=1,
        faults=FaultPlan(node_failures={1: 500.0}, detect_us=20.0, seed=9),
        detect_deadlock=False)
    assert results == ["lost", 0]
    assert cluster.stats()["faults"]["node_drops"] >= 1
