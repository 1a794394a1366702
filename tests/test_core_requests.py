"""Notification-request lifecycle: init, start, test, wait, free, errors."""

import numpy as np
import pytest

from repro.errors import MatchingError
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from tests.conftest import run_cluster


def test_basic_lifecycle_listing1():
    """The paper's Listing 1 lifecycle: init → (start → wait)* → free."""
    def prog(ctx):
        win = yield from ctx.win_allocate(256)
        if ctx.rank == 0:
            for i in range(3):
                yield from ctx.na.put_notify(win, np.full(2, float(i)), 1,
                                             0, tag=9)
                yield from win.flush(1)
                yield from ctx.barrier()
        else:
            req = yield from ctx.na.notify_init(win, source=0, tag=9)
            for i in range(3):
                yield from ctx.na.start(req)
                st = yield from ctx.na.wait(req)
                assert (st.source, st.tag, st.count) == (0, 9, 16)
                assert win.local(np.float64)[0] == float(i)
                yield from ctx.barrier()
            yield from ctx.na.request_free(req)
        return None

    run_cluster(2, prog)


def test_test_before_arrival_returns_false():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        if ctx.rank == 1:
            req = yield from ctx.na.notify_init(win, source=0, tag=1)
            yield from ctx.na.start(req)
            done = yield from ctx.na.test(req)
            assert done is False
            yield from ctx.barrier()
            done = False
            while not done:
                done = yield from ctx.na.test(req)
        else:
            yield from ctx.barrier()
            yield from ctx.na.put_notify(win, np.zeros(1), 1, 0, tag=1)
        return None

    run_cluster(2, prog)


def test_wait_on_inactive_request_rejected():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        req = yield from ctx.na.notify_init(win)
        yield from ctx.na.wait(req)      # never started

    with pytest.raises(Exception) as ei:
        run_cluster(1, prog)
    assert isinstance(ei.value.__cause__, MatchingError)


def test_double_start_of_incomplete_request_rejected():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        req = yield from ctx.na.notify_init(win)
        yield from ctx.na.start(req)
        yield from ctx.na.start(req)

    with pytest.raises(Exception) as ei:
        run_cluster(1, prog)
    assert isinstance(ei.value.__cause__, MatchingError)


def test_free_active_request_rejected():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        req = yield from ctx.na.notify_init(win)
        yield from ctx.na.start(req)
        yield from ctx.na.request_free(req)

    with pytest.raises(Exception) as ei:
        run_cluster(1, prog)
    assert isinstance(ei.value.__cause__, MatchingError)


def test_use_after_free_rejected():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        req = yield from ctx.na.notify_init(win)
        yield from ctx.na.request_free(req)
        yield from ctx.na.start(req)

    with pytest.raises(Exception) as ei:
        run_cluster(1, prog)
    assert isinstance(ei.value.__cause__, MatchingError)


def test_invalid_init_arguments_rejected():
    def make(kw):
        def prog(ctx):
            win = yield from ctx.win_allocate(64)
            yield from ctx.na.notify_init(win, **kw)
        return prog

    for kw in ({"expected_count": 0}, {"tag": 1 << 16}, {"tag": -5},
               {"source": 99}):
        with pytest.raises(Exception) as ei:
            run_cluster(2, make(kw))
        assert isinstance(ei.value.__cause__, MatchingError), kw


def test_put_notify_tag_range_enforced():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        yield from ctx.na.put_notify(win, np.zeros(1), 1 - ctx.rank, 0,
                                     tag=1 << 16)

    with pytest.raises(Exception):
        run_cluster(2, prog)


def test_request_reuse_measured_costs():
    """t_init, t_start, t_free are charged per the paper's model (§V-A)."""
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        p = ctx.params
        t0 = ctx.now
        req = yield from ctx.na.notify_init(win)
        assert ctx.now - t0 == pytest.approx(p.t_init)
        t0 = ctx.now
        yield from ctx.na.start(req)
        assert ctx.now - t0 == pytest.approx(p.t_start)
        # Complete it locally so free is legal.
        yield from ctx.na.put_notify(win, np.zeros(1), 0, 0, tag=0)
        yield from ctx.na.wait(req)
        t0 = ctx.now
        yield from ctx.na.request_free(req)
        assert ctx.now - t0 == pytest.approx(p.t_free)
        return None

    run_cluster(1, prog)


def test_put_notify_issue_costs_at_least_t_na():
    """§V-A: issuing a notified access costs at least t_na = 0.29 us
    (o_send plus the engine's occupancy)."""
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        req = yield from ctx.na.notify_init(win)
        yield from ctx.na.start(req)
        t0 = ctx.now
        yield from ctx.na.put_notify(win, np.zeros(1), 0, 0, tag=0)
        t_na = ctx.now - t0
        yield from ctx.na.wait(req)
        yield from ctx.na.request_free(req)
        return t_na

    results, _ = run_cluster(1, prog)
    assert results[0] >= 0.29


def test_request_is_32_bytes_in_address_space():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        req = yield from ctx.na.notify_init(win)
        assert req.region.nbytes == 32
        assert req.addr % 64 == 0      # user-aligned, as §V assumes
        return None

    run_cluster(1, prog)


def test_persistent_reuse_many_epochs():
    """A single persistent request survives many start/wait cycles."""
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        n = 20
        if ctx.rank == 0:
            for i in range(n):
                yield from ctx.na.put_notify(win, np.zeros(1), 1, 0,
                                             tag=i % 4)
                yield from ctx.barrier()
        else:
            req = yield from ctx.na.notify_init(win, source=ANY_SOURCE,
                                                tag=ANY_TAG)
            tags = []
            for i in range(n):
                yield from ctx.na.start(req)
                st = yield from ctx.na.wait(req)
                tags.append(st.tag)
                yield from ctx.barrier()
            assert tags == [i % 4 for i in range(n)]
            assert req.starts == n
        return None

    run_cluster(2, prog)
