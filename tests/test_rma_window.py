"""RMA windows: data movement, epochs, flush, passive target."""

import numpy as np
import pytest

from repro.errors import FaultError, RmaEpochError
from repro.faults import FaultPlan
from tests.conftest import run_cluster


def test_put_get_roundtrip_under_lock_all():
    def prog(ctx):
        win = yield from ctx.win_allocate(1024)
        yield from win.lock_all()
        if ctx.rank == 0:
            yield from win.put(np.arange(8.0), 1, 0)
            yield from win.flush(1)
            buf = ctx.alloc(64)
            yield from win.get(buf, 1, 0)
            yield from win.flush(1)
            assert np.allclose(buf.ndarray(np.float64), np.arange(8.0))
        yield from win.unlock_all()
        return None

    run_cluster(2, prog)


def test_access_outside_epoch_rejected():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        yield from win.put(np.zeros(2), 1 - ctx.rank, 0)

    with pytest.raises(Exception) as ei:
        run_cluster(2, prog)
    assert isinstance(ei.value.__cause__, RmaEpochError)


def test_window_bounds_checked():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        yield from win.lock_all()
        yield from win.put(np.zeros(100), 1 - ctx.rank, 0)

    with pytest.raises(Exception) as ei:
        run_cluster(2, prog)
    assert isinstance(ei.value.__cause__, RmaEpochError)


def test_disp_unit_scaling():
    def prog(ctx):
        win = yield from ctx.win_allocate(64 * 8, disp_unit=8)
        yield from win.lock_all()
        if ctx.rank == 0:
            yield from win.put(np.array([3.14]), 1, target_disp=5)
            yield from win.flush(1)
        yield from win.unlock_all()
        yield from ctx.barrier()
        if ctx.rank == 1:
            assert win.local(np.float64)[5] == 3.14
        return None

    run_cluster(2, prog)


def test_fence_epochs_make_data_visible():
    def prog(ctx):
        win = yield from ctx.win_allocate(256)
        yield from win.fence()
        if ctx.rank == 0:
            yield from win.put(np.full(4, 7.0), 1, 0)
        yield from win.fence_end()
        if ctx.rank == 1:
            assert np.allclose(win.local(np.float64, count=4), 7.0)
        return None

    run_cluster(2, prog)


def test_flush_waits_remote_completion():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        yield from win.lock_all()
        if ctx.rank == 0:
            h = yield from win.put(np.zeros(4), 1, 0)
            t0 = ctx.now
            yield from win.flush(1)
            assert ctx.now >= h.commit_at
            assert h.remote_done.processed
        yield from win.unlock_all()
        return None

    run_cluster(2, prog)


def test_flush_local_faster_than_flush():
    def make(use_local):
        def prog(ctx):
            win = yield from ctx.win_allocate(64)
            yield from win.lock_all()
            t = 0.0
            if ctx.rank == 0:
                t0 = ctx.now
                yield from win.put(np.zeros(4), 1, 0)
                if use_local:
                    yield from win.flush_local(1)
                else:
                    yield from win.flush(1)
                t = ctx.now - t0
            yield from win.unlock_all()
            return t
        return prog

    loc, _ = run_cluster(2, make(True))
    rem, _ = run_cluster(2, make(False))
    assert loc[0] < rem[0]


def test_accumulate_sum_into_window():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        yield from win.lock_all()
        if ctx.rank != 0:
            yield from win.accumulate(np.full(4, 1.0), 0, 0, op="sum")
            yield from win.flush(0)
        yield from win.unlock_all()
        yield from ctx.barrier()
        if ctx.rank == 0:
            assert np.allclose(win.local(np.float64, count=4), 3.0)
        return None

    run_cluster(4, prog)


def test_fetch_and_op_serializes_counter():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        yield from win.lock_all()
        old = yield from win.fetch_and_op(1, 0, 0, "sum")
        yield from win.unlock_all()
        yield from ctx.barrier()
        if ctx.rank == 0:
            assert win.local(np.int64)[0] == ctx.size
        return old

    results, _ = run_cluster(4, prog)
    assert sorted(results) == [0, 1, 2, 3]


def test_compare_and_swap():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        yield from win.lock_all()
        old = yield from win.compare_and_swap(ctx.rank + 10, 0, 0, 0)
        yield from win.unlock_all()
        yield from ctx.barrier()
        winner = win.local(np.int64)[0] if ctx.rank == 0 else None
        return (old, winner)

    results, _ = run_cluster(3, prog)
    olds = [r[0] for r in results]
    assert olds.count(0) == 1            # exactly one CAS won
    winner = results[0][1]
    assert winner in (10, 11, 12)


def test_exclusive_lock_mutual_exclusion():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        if ctx.rank != 0:
            yield from win.lock(0, exclusive=True)
            t_in = ctx.now
            yield from ctx.compute(5.0)
            yield from win.unlock(0, exclusive=True)
            return (t_in, ctx.now)
        yield from ctx.compute(30.0)
        return None

    results, _ = run_cluster(3, prog)
    spans = sorted(r for r in results if r is not None)
    # Critical sections must not overlap.
    assert spans[0][1] <= spans[1][0] + 1e-9


def test_unlock_without_lock_rejected():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        yield from win.unlock(0)

    with pytest.raises(Exception) as ei:
        run_cluster(2, prog)
    assert isinstance(ei.value.__cause__, RmaEpochError)


def test_lock_all_epoch_rules():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        yield from win.lock_all()
        try:
            yield from win.lock_all()
            raise AssertionError("nested lock_all accepted")
        except RmaEpochError:
            pass
        yield from win.unlock_all()
        try:
            yield from win.unlock_all()
            raise AssertionError("unlock_all without lock_all accepted")
        except RmaEpochError:
            pass
        return "ok"

    results, _ = run_cluster(1, prog)
    assert results == ["ok"]


def test_window_free_is_collective_and_final():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        yield from win.free()
        try:
            yield from win.lock_all()
            yield from win.put(np.zeros(1), 0, 0)
            raise AssertionError("access after free accepted")
        except RmaEpochError:
            return "caught"

    results, _ = run_cluster(2, prog)
    assert results == ["caught", "caught"]


def test_multiple_windows_are_independent():
    def prog(ctx):
        w1 = yield from ctx.win_allocate(64)
        w2 = yield from ctx.win_allocate(64)
        assert w1.id != w2.id
        yield from w1.lock_all()
        yield from w2.lock_all()
        if ctx.rank == 0:
            yield from w1.put(np.full(2, 1.0), 1, 0)
            yield from w2.put(np.full(2, 2.0), 1, 0)
            yield from w1.flush(1)
            yield from w2.flush(1)
        yield from w1.unlock_all()
        yield from w2.unlock_all()
        yield from ctx.barrier()
        if ctx.rank == 1:
            assert w1.local(np.float64)[0] == 1.0
            assert w2.local(np.float64)[0] == 2.0
        return None

    run_cluster(2, prog)


def test_pscw_data_visible_after_wait():
    def prog(ctx):
        win = yield from ctx.win_allocate(256)
        if ctx.rank == 0:
            yield from win.start([1])
            yield from win.put(np.arange(4.0), 1, 0)
            yield from win.complete()
        else:
            yield from win.post([0])
            yield from win.wait([0])
            assert np.allclose(win.local(np.float64, count=4),
                               np.arange(4.0))
        return None

    run_cluster(2, prog)


def test_pscw_access_restricted_to_group():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        if ctx.rank == 0:
            yield from win.start([1])
            try:
                yield from win.put(np.zeros(1), 2, 0)
                raise AssertionError("access outside group accepted")
            except RmaEpochError:
                pass
            yield from win.complete()
        elif ctx.rank == 1:
            yield from win.post([0])
            yield from win.wait([0])
        return None

    run_cluster(3, prog)


def test_pscw_multiple_origins():
    def prog(ctx):
        win = yield from ctx.win_allocate(8 * 8)
        if ctx.rank == 0:
            yield from win.post([1, 2, 3])
            yield from win.wait([1, 2, 3])
            vals = win.local(np.float64)[:3]
            assert np.allclose(vals, [1.0, 2.0, 3.0])
        else:
            yield from win.start([0])
            yield from win.put(np.array([float(ctx.rank)]), 0,
                               (ctx.rank - 1) * 8)
            yield from win.complete()
        return None

    run_cluster(4, prog)


def test_complete_without_start_rejected():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        yield from win.complete()

    with pytest.raises(Exception) as ei:
        run_cluster(1, prog)
    assert isinstance(ei.value.__cause__, RmaEpochError)


# ---------------------------------------------------------------------------
# What a flush waits on: a window forgets completed ops between flushes
# (every test below passes with a window that remembers every op, too)
# ---------------------------------------------------------------------------
#: enough back-to-back ops to make a window sweep its completed handles
_MANY = 200


def test_lost_put_still_fails_the_flush_after_completed_ops_are_swept():
    plan = FaultPlan(node_failures={1: 100.0}, detect_us=20.0)

    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        yield from win.lock_all()
        if ctx.rank != 0:
            return None
        for _ in range(_MANY):                  # commit before rank 1 dies
            yield from win.put(np.zeros(1), 1)
        assert ctx.now < 100.0
        yield from ctx.compute(110.0 - ctx.now)
        lost = yield from win.put(np.zeros(1), 1)
        assert lost.failed
        yield from ctx.compute(50.0)            # its failure has fired
        for _ in range(_MANY):                  # sweeps visit target 1 again
            yield from win.put(np.zeros(1), 2)
        yield from win.flush(2)
        try:
            yield from win.flush(1)
        except FaultError:
            return "lost"
        return "flushed"

    results, _ = run_cluster(3, prog, faults=plan)
    assert results[0] == "lost"


@pytest.mark.parametrize("verb", ["flush", "flush_local"])
def test_flush_of_completed_ops_costs_one_event_and_no_time(verb):
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        yield from win.lock_all()
        cost = None
        if ctx.rank == 0:
            for _ in range(_MANY):
                yield from win.put(np.zeros(1), 1)
            yield from ctx.compute(50.0)        # every ack has landed
            for _ in range(_MANY):              # sweeps visit target 1 again
                yield from win.put(np.zeros(1), 2)
            cost = []
            for _ in range(2):                  # the second finds nothing
                events, t0 = ctx.engine.events_scheduled(), ctx.now
                yield from getattr(win, verb)(1)
                cost.append((ctx.engine.events_scheduled() - events,
                             ctx.now - t0))
        yield from win.unlock_all()
        return cost

    results, _ = run_cluster(3, prog)
    assert results[0] == [(1, 0.0), (0, 0.0)]


def test_flush_notify_after_a_completed_bte_put_keeps_the_round_trip():
    """A completed BTE transfer still makes the target's path out of
    order: the notified flush waits for the ops after it (§III)."""
    def cost(bte, explicit):
        def prog(ctx):
            win = yield from ctx.win_allocate(32768 + 8)
            yield from win.lock_all()
            if ctx.rank == 1:
                req = yield from ctx.na.notify_init(win, source=0, tag=4)
                yield from ctx.na.start(req)
                yield from ctx.na.wait(req)
                yield from win.unlock_all()
                return None
            if bte:
                yield from win.put(np.zeros(4096), 1)   # 32 KiB: the BTE
                yield from ctx.compute(100.0)           # ... and completed
            for _ in range(_MANY):                      # FMA, in flight
                yield from win.put(np.zeros(1), 1, 32768)
            t0 = ctx.now
            if explicit:
                yield from win.flush(1)
                yield from ctx.na.put_notify(win, np.empty(0, np.uint8), 1,
                                             0, tag=4)
            else:
                yield from ctx.na.flush_notify(win, 1, tag=4)
            spent = ctx.now - t0
            yield from win.unlock_all()
            return spent

        results, _ = run_cluster(2, prog)
        return results[0]

    assert cost(bte=True, explicit=False) == cost(bte=True, explicit=True)
    assert cost(bte=True, explicit=False) > cost(bte=False,
                                                 explicit=False) + 1.0


def test_flush_all_visits_targets_in_first_issue_order():
    order = []

    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        yield from win.lock_all()
        if ctx.rank == 0:
            flush = win.flush

            def recording(target):
                order.append(target)
                return flush(target)

            win.flush = recording
            yield from win.put(np.zeros(1), 3)
            yield from win.put(np.zeros(1), 1)
            yield from ctx.compute(50.0)        # targets 3 and 1: completed
            for _ in range(_MANY):
                yield from win.put(np.zeros(1), 2)
            yield from win.put(np.zeros(1), 1)  # in flight again
            yield from win.put(np.zeros(1), 4)
            yield from win.flush_all()
            assert order == [3, 1, 2, 4]
            yield from win.put(np.zeros(1), 4)  # a drained window starts over
            yield from win.put(np.zeros(1), 2)
            yield from win.flush_all()
            assert order == [3, 1, 2, 4, 4, 2]
        yield from win.unlock_all()
        return None

    run_cluster(5, prog)
