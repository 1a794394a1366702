"""Matching semantics: wildcards, ordering, counting, the unexpected queue."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MatchingError
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from tests.conftest import run_cluster


def test_source_selectivity():
    """A request bound to one source ignores notifications from others."""
    def prog(ctx):
        win = yield from ctx.win_allocate(256)
        if ctx.rank == 0:
            req = yield from ctx.na.notify_init(win, source=2, tag=ANY_TAG)
            yield from ctx.na.start(req)
            yield from ctx.barrier()
            st = yield from ctx.na.wait(req)
            assert st.source == 2
            # The rank-1 notification must be parked in the UQ.
            assert len(ctx.na.uq) == 1
        else:
            yield from ctx.barrier()
            yield from ctx.compute(float(ctx.rank))   # rank1 arrives first
            yield from ctx.na.put_notify(win, np.zeros(1), 0,
                                         ctx.rank * 8, tag=ctx.rank)
        return None

    run_cluster(3, prog)


def test_tag_selectivity_out_of_order_consumption():
    def prog(ctx):
        win = yield from ctx.win_allocate(256)
        if ctx.rank == 0:
            r5 = yield from ctx.na.notify_init(win, source=1, tag=5)
            r6 = yield from ctx.na.notify_init(win, source=1, tag=6)
            yield from ctx.barrier()
            yield from ctx.na.start(r6)
            st = yield from ctx.na.wait(r6)       # tag 6 arrived second
            assert st.tag == 6
            yield from ctx.na.start(r5)
            st = yield from ctx.na.wait(r5)       # tag 5 sits in the UQ
            assert st.tag == 5
        else:
            yield from ctx.barrier()
            yield from ctx.na.put_notify(win, np.zeros(1), 0, 0, tag=5)
            yield from ctx.na.put_notify(win, np.zeros(1), 0, 8, tag=6)
        return None

    run_cluster(2, prog)


def test_wildcards_match_in_arrival_order():
    def prog(ctx):
        win = yield from ctx.win_allocate(256)
        if ctx.rank == 0:
            req = yield from ctx.na.notify_init(win, source=ANY_SOURCE,
                                                tag=ANY_TAG)
            yield from ctx.barrier()
            order = []
            for _ in range(3):
                yield from ctx.na.start(req)
                st = yield from ctx.na.wait(req)
                order.append(st.source)
            assert order == [3, 2, 1]       # arrival order by compute delay
        else:
            yield from ctx.barrier()
            yield from ctx.compute(float(4 - ctx.rank))
            yield from ctx.na.put_notify(win, np.zeros(1), 0,
                                         ctx.rank * 8, tag=ctx.rank)
        return None

    run_cluster(4, prog)


def test_counting_notification_single_request():
    """expected_count=n completes after n matching accesses (§III)."""
    def prog(ctx):
        win = yield from ctx.win_allocate(256)
        if ctx.rank == 0:
            req = yield from ctx.na.notify_init(win, expected_count=5)
            yield from ctx.na.start(req)
            yield from ctx.barrier()
            st = yield from ctx.na.wait(req)
            assert req.matched == 5
            return st.count
        yield from ctx.barrier()
        for i in range(5 // (ctx.size - 1) + 1):
            seqno = (ctx.rank - 1) + i * (ctx.size - 1)
            if seqno < 5:
                # One disjoint 16-byte slot per access: concurrent puts to
                # one location would be a (detected) data race.
                yield from ctx.na.put_notify(win, np.zeros(2), 0,
                                             seqno * 16, tag=i)
        return None

    results, _ = run_cluster(3, prog)
    assert results[0] == 16


def test_counting_status_reports_last_access_only():
    def prog(ctx):
        win = yield from ctx.win_allocate(1024)
        if ctx.rank == 0:
            req = yield from ctx.na.notify_init(win, source=1,
                                                tag=ANY_TAG,
                                                expected_count=3)
            yield from ctx.na.start(req)
            yield from ctx.barrier()
            st = yield from ctx.na.wait(req)
            # Only the last matching access is described (§III-B).
            assert st.tag == 12 and st.count == 4 * 8
        else:
            yield from ctx.barrier()
            yield from ctx.na.put_notify(win, np.zeros(1), 0, 0, tag=10)
            yield from ctx.na.put_notify(win, np.zeros(2), 0, 8, tag=11)
            yield from ctx.na.put_notify(win, np.zeros(4), 0, 24, tag=12)
        return None

    run_cluster(2, prog)


def test_notifications_match_per_window():
    def prog(ctx):
        w1 = yield from ctx.win_allocate(64)
        w2 = yield from ctx.win_allocate(64)
        if ctx.rank == 0:
            r2 = yield from ctx.na.notify_init(w2, source=1, tag=ANY_TAG)
            yield from ctx.na.start(r2)
            yield from ctx.barrier()
            st = yield from ctx.na.wait(r2)
            assert st.tag == 2                   # w1's tag=1 stays queued
            r1 = yield from ctx.na.notify_init(w1, source=1, tag=ANY_TAG)
            yield from ctx.na.start(r1)
            st = yield from ctx.na.wait(r1)
            assert st.tag == 1
        else:
            yield from ctx.barrier()
            yield from ctx.na.put_notify(w1, np.zeros(1), 0, 0, tag=1)
            yield from ctx.na.put_notify(w2, np.zeros(1), 0, 0, tag=2)
        return None

    run_cluster(2, prog)


def test_zero_byte_notification_only():
    """Zero-byte payloads deliver only the notification (§III-B)."""
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        if ctx.rank == 0:
            win.local()[:] = 0
            req = yield from ctx.na.notify_init(win, source=1, tag=3)
            yield from ctx.na.start(req)
            yield from ctx.barrier()
            st = yield from ctx.na.wait(req)
            assert st.count == 0
            assert (win.local() == 0).all()     # no bytes were written
        else:
            yield from ctx.barrier()
            yield from ctx.na.put_notify(win, np.empty(0), 0, 0, tag=3)
        return None

    run_cluster(2, prog)


def test_na_probe():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        if ctx.rank == 0:
            yield from ctx.barrier()
            st = None
            while st is None:
                st = yield from ctx.na.probe(win, source=ANY_SOURCE,
                                             tag=ANY_TAG)
                if st is None:
                    yield ctx.timeout(0.5)
            assert (st.source, st.tag) == (1, 7)
            # probe does not consume: a request still matches it.
            req = yield from ctx.na.notify_init(win, source=1, tag=7)
            yield from ctx.na.start(req)
            st2 = yield from ctx.na.wait(req)
            assert st2.tag == 7
        else:
            yield from ctx.barrier()
            yield from ctx.na.put_notify(win, np.zeros(1), 0, 0, tag=7)
        return None

    run_cluster(2, prog)


def test_accumulate_notify():
    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        if ctx.rank == 0:
            win.local(np.float64)[:2] = 10.0
            req = yield from ctx.na.notify_init(win, expected_count=2)
            yield from ctx.na.start(req)
            yield from ctx.barrier()
            yield from ctx.na.wait(req)
            assert np.allclose(win.local(np.float64)[:2], 12.0)
        else:
            yield from ctx.barrier()
            yield from ctx.na.accumulate_notify(
                win, np.full(2, 1.0), 0, 0, op="sum", tag=ctx.rank)
        return None

    run_cluster(3, prog)


def test_uq_overflow_raises():
    from repro.core.matching import UQ_SLOTS

    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        if ctx.rank == 0:
            # A request that never matches (tag 999) drains the CQ into
            # the UQ; overflow must fail loudly.
            req = yield from ctx.na.notify_init(win, source=1, tag=999)
            yield from ctx.na.start(req)
            yield from ctx.barrier()
            yield from ctx.barrier()
            try:
                yield from ctx.na.test(req)
                raise AssertionError("UQ overflow not detected")
            except MatchingError:
                return "overflowed"
        else:
            yield from ctx.barrier()
            for i in range(UQ_SLOTS + 1):
                yield from ctx.na.put_notify(win, np.empty(0), 0, 0, tag=1)
            yield from win.flush(0)
            yield from ctx.barrier()
        return None

    results, _ = run_cluster(2, prog)
    assert results[0] == "overflowed"


def test_notification_arrival_order_under_mixed_transports():
    """Intra-node ring and inter-node CQ merge oldest-first."""
    def prog(ctx):
        win = yield from ctx.win_allocate(256)
        if ctx.rank == 0:
            req = yield from ctx.na.notify_init(win, expected_count=2)
            yield from ctx.na.start(req)
            yield from ctx.barrier()
            st = yield from ctx.na.wait(req)
            return st.source
        else:
            yield from ctx.barrier()
            # rank 1 is on node 0 (shm path), rank 2 on node 1 (uGNI).
            yield from ctx.compute(0.1 * ctx.rank)
            yield from ctx.na.put_notify(win, np.zeros(1), 0,
                                         ctx.rank * 8, tag=ctx.rank)
        return None

    results, _ = run_cluster(3, prog, ranks_per_node=2)
    assert results[0] in (1, 2)


@settings(max_examples=10, deadline=None)
@given(perm=st.permutations([0, 1, 2, 3]))
def test_arrival_order_matches_sender_delay_property(perm):
    """Whatever the producers' schedule, a wildcard request observes
    notifications in arrival order."""
    delays = {r + 1: perm[r] * 1000.0 for r in range(4)}

    def prog(ctx):
        win = yield from ctx.win_allocate(512)
        if ctx.rank == 0:
            req = yield from ctx.na.notify_init(win, source=ANY_SOURCE,
                                                tag=ANY_TAG)
            yield from ctx.barrier()
            order = []
            for _ in range(4):
                yield from ctx.na.start(req)
                st = yield from ctx.na.wait(req)
                order.append(st.source)
            return order
        yield from ctx.barrier()
        yield from ctx.compute(delays[ctx.rank])
        yield from ctx.na.put_notify(win, np.zeros(1), 0, ctx.rank * 8,
                                     tag=0)
        return None

    results, _ = run_cluster(5, prog)
    expected = [r for r, _ in sorted(delays.items(), key=lambda kv: kv[1])]
    assert results[0] == expected


class _StubRequest:
    """Minimal request double for direct UnexpectedQueue tests: the
    window, source and tag the queue matches against."""

    def __init__(self, win_id, source, tag):
        self.win = SimpleNamespace(id=win_id)
        self.source, self.tag = source, tag


def _make_uq(slots):
    from repro.core.matching import UnexpectedQueue
    from repro.memory.address import AddressSpace
    from repro.memory.cache import CACHE_LINE, CacheModel

    space = AddressSpace(0, 1 << 16)
    region = space.alloc(slots * CACHE_LINE, align=CACHE_LINE)
    return UnexpectedQueue(region, CacheModel(), slots=slots)


def test_uq_slot_reuse_after_out_of_order_removal():
    """Slots freed by out-of-order matches must be reused before any slot
    still holding a live entry.

    Regression: the seed code advanced a rotating cursor on every append,
    independent of removals, so after ``slots`` appends it wrapped onto
    slots whose entries were still queued and aliased their addresses.
    """
    uq = _make_uq(4)
    for tag in range(4):
        uq.append(win_id=1, source=0, tag=tag, nbytes=8, time=float(tag))
    # Match away tags 2 and 3 — the *newest* entries, so the queue's
    # occupied slots are 0 and 1 while 2 and 3 are free.
    assert uq.find_and_remove(_StubRequest(1, 0, 2)) is not None
    assert uq.find_and_remove(_StubRequest(1, 0, 3)) is not None
    # Two fresh notifications must land in the freed slots, not on top
    # of the live tag-0/tag-1 entries.
    uq.append(win_id=1, source=0, tag=10, nbytes=8, time=4.0)
    uq.append(win_id=1, source=0, tag=11, nbytes=8, time=5.0)
    addrs = [e.slot_addr for e in uq._entries]
    assert len(addrs) == len(set(addrs)), (
        f"slot addresses alias live entries: {addrs}")
    # And each surviving entry still matches at its own address.
    for tag in (0, 1, 10, 11):
        entry = uq.find_and_remove(_StubRequest(1, 0, tag))
        assert entry is not None and entry.tag == tag


def test_uq_capacity_stable_under_churn():
    """Appending and matching repeatedly must never overflow a queue whose
    live population stays below capacity (the cursor bug also made slot
    accounting drift from the real occupancy)."""
    uq = _make_uq(4)
    for round_ in range(10):
        uq.append(win_id=1, source=0, tag=round_, nbytes=8, time=0.0)
        uq.append(win_id=1, source=0, tag=100 + round_, nbytes=8, time=0.0)
        assert uq.find_and_remove(_StubRequest(1, 0, 100 + round_))
        assert uq.find_and_remove(_StubRequest(1, 0, round_))
    assert len(uq) == 0
    # All slots free again: fill to capacity exactly once more.
    for tag in range(4):
        uq.append(win_id=1, source=0, tag=tag, nbytes=8, time=0.0)
    with pytest.raises(MatchingError):
        uq.append(win_id=1, source=0, tag=99, nbytes=8, time=0.0)
