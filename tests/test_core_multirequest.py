"""NA testany/waitany/waitall."""

import numpy as np
import pytest

from repro.errors import MatchingError
from tests.conftest import run_cluster


def test_waitany_returns_first_completed():
    def prog(ctx):
        win = yield from ctx.win_allocate(256)
        if ctx.rank == 0:
            reqs = []
            for src in (1, 2, 3):
                r = yield from ctx.na.notify_init(win, source=src, tag=src)
                yield from ctx.na.start(r)
                reqs.append(r)
            yield from ctx.barrier()
            idx, st = yield from ctx.na.waitany(reqs)
            assert (idx, st.source) == (1, 2)     # rank 2 is fastest
            idx2, st2 = yield from ctx.na.waitany(
                [reqs[0], reqs[2]])
            return (st.source, st2.source)
        yield from ctx.barrier()
        delay = {1: 5.0, 2: 1.0, 3: 10.0}[ctx.rank]
        yield from ctx.compute(delay)
        yield from ctx.na.put_notify(win, np.zeros(1), 0,
                                     ctx.rank * 8, tag=ctx.rank)
        return None

    results, _ = run_cluster(4, prog)
    assert results[0][0] == 2
    assert results[0][1] in (1, 3)


def test_waitall_collects_all_statuses():
    def prog(ctx):
        win = yield from ctx.win_allocate(256)
        if ctx.rank == 0:
            reqs = []
            for src in range(1, 4):
                r = yield from ctx.na.notify_init(win, source=src)
                yield from ctx.na.start(r)
                reqs.append(r)
            yield from ctx.barrier()
            statuses = yield from ctx.na.waitall(reqs)
            return [s.source for s in statuses]
        yield from ctx.barrier()
        yield from ctx.na.put_notify(win, np.zeros(1), 0, ctx.rank * 8,
                                     tag=0)
        return None

    results, _ = run_cluster(4, prog)
    assert results[0] == [1, 2, 3]


def test_testany_none_when_nothing_arrived():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        r1 = yield from ctx.na.notify_init(win, source=0, tag=1)
        r2 = yield from ctx.na.notify_init(win, source=0, tag=2)
        yield from ctx.na.start(r1)
        yield from ctx.na.start(r2)
        idx = yield from ctx.na.testany([r1, r2])
        assert idx is None
        # Self-notification completes the second request.
        yield from ctx.na.put_notify(win, np.zeros(1), 0, 0, tag=2)
        yield ctx.timeout(5.0)
        idx = yield from ctx.na.testany([r1, r2])
        return idx

    results, _ = run_cluster(1, prog)
    assert results[0] == 1


def test_testany_empty_rejected():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        yield from ctx.na.testany([])

    with pytest.raises(Exception) as ei:
        run_cluster(1, prog)
    assert isinstance(ei.value.__cause__, MatchingError)


# ---------------------------------------------------------------------------
# waitany: no lost wakeup, and the ``until`` deadline
# ---------------------------------------------------------------------------
def _one_notification_two_requests(delay_us):
    """Rank 0 sends one notification matching ``ra``; rank 1 calls
    ``waitany([ra, rb])`` after ``delay_us``."""
    def prog(ctx):
        a = yield from ctx.win_allocate(64)
        b = yield from ctx.win_allocate(64)
        if ctx.rank == 0:
            yield from ctx.barrier()
            yield from ctx.na.put_notify(a, np.zeros(1), 1, 0, tag=3)
            return None
        ra = yield from ctx.na.notify_init(a, source=0, tag=3)
        rb = yield from ctx.na.notify_init(b, source=0, tag=4)
        yield from ctx.na.start(ra)
        yield from ctx.na.start(rb)
        yield from ctx.barrier()
        if delay_us:
            yield ctx.timeout(delay_us)
        idx, _st = yield from ctx.na.waitany([ra, rb])
        return idx, list(ra.match_log)

    results, _ = run_cluster(2, prog, ranks_per_node=1)
    return results[1]


def test_waitany_never_sleeps_on_a_notification_its_own_sweep_parked():
    """The test of ``rb`` polls the notification matching ``ra`` into
    the UQ when it arrives between the two tests of one sweep; the NIC
    is then empty, and a waitany that sleeps on it never wakes (a
    DeadlockError for delays of 1.15-1.19 us before the re-sweep)."""
    for step in range(301):
        idx, log = _one_notification_two_requests(step * 0.01)
        assert idx == 0, step
        assert [(s, t) for s, t, _ in log] == [(0, 3)], step


def test_waitany_until_returns_none_at_the_deadline():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        ra = yield from ctx.na.notify_init(win, source=0, tag=1)
        rb = yield from ctx.na.notify_init(win, source=0, tag=2)
        yield from ctx.na.start(ra)
        yield from ctx.na.start(rb)
        t0 = ctx.now
        hit = yield from ctx.na.waitany([ra, rb], until=t0 + 5.0)
        assert hit is None and ctx.now == t0 + 5.0
        # a deadline already reached: None at once, no sweep
        hit = yield from ctx.na.waitany([ra, rb], until=t0)
        assert hit is None and ctx.now == t0 + 5.0
        # a completion still wins over a later deadline
        yield from ctx.na.put_notify(win, np.zeros(1), 0, 0, tag=2)
        idx, st = yield from ctx.na.waitany([ra, rb], until=ctx.now + 50.0)
        assert (idx, st.tag) == (1, 2)
        return "ok"

    results, _ = run_cluster(1, prog)
    assert results == ["ok"]


def test_waitany_deadline_inside_a_sweep_arms_no_negative_timer():
    """A sweep takes virtual time; a deadline that falls inside one that
    matched nothing must end the wait, not arm ``timeout(until - now)``
    with a negative delay."""
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        reqs = []
        for tag in (1, 2):
            r = yield from ctx.na.notify_init(win, source=0, tag=tag)
            yield from ctx.na.start(r)
            reqs.append(r)
        t0 = ctx.now
        idx = yield from ctx.na.testany(reqs)
        sweep = ctx.now - t0
        assert idx is None and sweep > 0.0
        t1 = ctx.now
        hit = yield from ctx.na.waitany(reqs, until=t1 + sweep / 2)
        assert hit is None
        assert ctx.now == pytest.approx(t1 + sweep)
        return "ok"

    results, _ = run_cluster(1, prog)
    assert results == ["ok"]
