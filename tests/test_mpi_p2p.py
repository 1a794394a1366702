"""Point-to-point message passing: protocols, matching, probe, errors."""

import numpy as np
import pytest

from repro.mpi.constants import ANY_SOURCE, ANY_TAG, PROC_NULL
from tests.conftest import run_cluster


def test_blocking_send_recv_roundtrip():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(np.arange(10.0), 1, tag=5)
        else:
            buf = np.zeros(10)
            st = yield from ctx.comm.recv(buf, 0, 5)
            assert np.allclose(buf, np.arange(10.0))
            assert (st.source, st.tag, st.count) == (0, 5, 80)
        return "done"

    results, _ = run_cluster(2, prog)
    assert results == ["done", "done"]


def test_rendezvous_large_message():
    n = 64 * 1024
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(np.arange(float(n)), 1, tag=1)
        else:
            buf = np.zeros(n)
            st = yield from ctx.comm.recv(buf, 0, 1)
            assert st.count == n * 8
            assert buf[-1] == n - 1
        return None

    _, cluster = run_cluster(2, prog)
    assert cluster.stats()["rndv_sends"] == 1
    assert cluster.stats()["eager_copies"] == 0   # zero-copy rendezvous


def test_eager_unexpected_two_copies():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(np.ones(4), 1, tag=2)
        else:
            yield from ctx.compute(30.0)      # message arrives meanwhile
            # Progressing without a posted receive (e.g. polling another
            # channel) forces the message through the bounce buffer.
            st = yield from ctx.comm.iprobe(0, 2)
            assert st is not None
            buf = np.zeros(4)
            yield from ctx.comm.recv(buf, 0, 2)
            assert np.allclose(buf, 1.0)
        return None

    _, cluster = run_cluster(2, prog)
    assert cluster.stats()["bounce_copies"] == 1


def test_wildcard_source_and_tag():
    def prog(ctx):
        if ctx.rank in (0, 1):
            yield from ctx.compute(float(ctx.rank))
            yield from ctx.comm.send(np.full(1, float(ctx.rank)), 2,
                                     tag=10 + ctx.rank)
        else:
            buf = np.zeros(1)
            st1 = yield from ctx.comm.recv(buf, ANY_SOURCE, ANY_TAG)
            st2 = yield from ctx.comm.recv(buf, ANY_SOURCE, ANY_TAG)
            return sorted([(st1.source, st1.tag), (st2.source, st2.tag)])
        return None

    results, _ = run_cluster(3, prog)
    assert results[2] == [(0, 10), (1, 11)]


def test_tag_selectivity():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(np.full(1, 1.0), 1, tag=1)
            yield from ctx.comm.send(np.full(1, 2.0), 1, tag=2)
        else:
            buf = np.zeros(1)
            yield from ctx.comm.recv(buf, 0, tag=2)   # out of arrival order
            assert buf[0] == 2.0
            yield from ctx.comm.recv(buf, 0, tag=1)
            assert buf[0] == 1.0
        return None

    run_cluster(2, prog)


def test_nonovertaking_same_tag():
    def prog(ctx):
        if ctx.rank == 0:
            for i in range(5):
                yield from ctx.comm.send(np.full(1, float(i)), 1, tag=0)
        else:
            got = []
            for _ in range(5):
                buf = np.zeros(1)
                yield from ctx.comm.recv(buf, 0, 0)
                got.append(buf[0])
            assert got == [0, 1, 2, 3, 4]
        return None

    run_cluster(2, prog)


def test_isend_irecv_waitall():
    def prog(ctx):
        if ctx.rank == 0:
            reqs = []
            for i in range(3):
                r = yield from ctx.comm.isend(np.full(2, float(i)), 1, tag=i)
                reqs.append(r)
            yield from ctx.comm.waitall(reqs)
        else:
            bufs = [np.zeros(2) for _ in range(3)]
            reqs = []
            for i, b in enumerate(bufs):
                r = yield from ctx.comm.irecv(b, 0, tag=i)
                reqs.append(r)
            sts = yield from ctx.comm.waitall(reqs)
            assert [b[0] for b in bufs] == [0, 1, 2]
            assert all(s.count == 16 for s in sts)
        return None

    run_cluster(2, prog)


def test_proc_null_completes_immediately():
    def prog(ctx):
        yield from ctx.comm.send(np.ones(4), PROC_NULL, tag=0)
        buf = np.zeros(4)
        st = yield from ctx.comm.recv(buf, PROC_NULL, tag=0)
        assert st.source == PROC_NULL and st.count == 0
        return ctx.now

    results, _ = run_cluster(1, prog)
    assert results[0] < 1.0


def test_recv_overflow_rejected():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(np.zeros(100), 1, tag=0)
        else:
            buf = np.zeros(4)
            yield from ctx.comm.recv(buf, 0, 0)
        return None

    with pytest.raises(Exception) as ei:
        run_cluster(2, prog)
    assert "overflow" in str(ei.value.__cause__)


def test_negative_send_tag_rejected():
    def prog(ctx):
        yield from ctx.comm.send(np.zeros(1), 0, tag=-3)

    with pytest.raises(Exception):
        run_cluster(1, prog)


def test_peer_range_checked():
    def prog(ctx):
        yield from ctx.comm.send(np.zeros(1), 5, tag=0)

    with pytest.raises(Exception):
        run_cluster(2, prog)


def test_probe_then_recv():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(np.full(3, 9.0), 1, tag=77)
        else:
            st = yield from ctx.comm.probe(ANY_SOURCE, ANY_TAG)
            assert (st.source, st.tag, st.count) == (0, 77, 24)
            buf = np.zeros(st.get_count(8))
            st2 = yield from ctx.comm.recv(buf, st.source, st.tag)
            assert np.allclose(buf, 9.0)
        return None

    run_cluster(2, prog)


def test_probe_does_not_consume():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(np.zeros(1), 1, tag=1)
        else:
            st1 = yield from ctx.comm.probe(0, 1)
            st2 = yield from ctx.comm.probe(0, 1)
            assert st1.tag == st2.tag == 1
            buf = np.zeros(1)
            yield from ctx.comm.recv(buf, 0, 1)
        return None

    run_cluster(2, prog)


def test_iprobe_returns_none_when_empty():
    def prog(ctx):
        st = yield from ctx.comm.iprobe(ANY_SOURCE, ANY_TAG)
        assert st is None
        return None

    run_cluster(1, prog)


def test_probe_on_rendezvous_rts():
    n = 32 * 1024
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(np.ones(n), 1, tag=4)
        else:
            st = yield from ctx.comm.probe(ANY_SOURCE, ANY_TAG)
            assert st.count == n * 8
            buf = np.zeros(n)
            yield from ctx.comm.recv(buf, st.source, st.tag)
            assert np.allclose(buf, 1.0)
        return None

    run_cluster(2, prog)


def test_sendrecv_no_deadlock():
    def prog(ctx):
        other = 1 - ctx.rank
        sbuf = np.full(4, float(ctx.rank))
        rbuf = np.zeros(4)
        st = yield from ctx.comm.sendrecv(sbuf, other, 1, rbuf, other, 1)
        assert np.allclose(rbuf, float(other))
        return None

    run_cluster(2, prog)


def test_status_get_count_validates_itemsize():
    from repro.mpi.status import Status
    st = Status(count=24)
    assert st.get_count(8) == 3
    with pytest.raises(ValueError):
        st.get_count(0)


def test_async_progress_off_still_correct():
    n = 64 * 1024
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(np.arange(float(n)), 1, tag=1)
        else:
            buf = np.zeros(n)
            yield from ctx.comm.recv(buf, 0, 1)
            assert buf[17] == 17.0
        return None

    run_cluster(2, prog, async_progress=False)


def test_rendezvous_slower_without_async_progress_when_sender_busy():
    """Without the helper agent, the CTS waits for the sender to re-enter
    the library — the progression problem of [8]."""
    n = 64 * 1024

    def prog(ctx):
        if ctx.rank == 0:
            req = yield from ctx.comm.isend(np.zeros(n), 1, tag=1)
            yield from ctx.compute(200.0)       # busy; no progress
            yield from ctx.comm.wait(req)
        else:
            buf = np.zeros(n)
            yield from ctx.comm.recv(buf, 0, 1)
            return ctx.now
        return None

    r_async, _ = run_cluster(2, prog, async_progress=True)
    r_sync, _ = run_cluster(2, prog, async_progress=False)
    assert r_sync[1] > r_async[1] + 100.0


def test_eager_threshold_ablation():
    """At 16 KB the eager copy is cheaper than rendezvous' two extra
    control transactions; at 512 KB the copy dominates and rendezvous
    wins.  A threshold above the size changes nothing further."""
    from repro.apps.pingpong import run_pingpong
    from repro.cluster import ClusterConfig
    from repro.network.loggp import TransportParams

    def half_rtt(size, eager_max, iters):
        cfg = ClusterConfig(nranks=2,
                            params=TransportParams(eager_max=eager_max))
        return run_pingpong("mp", size, iters=iters,
                            config=cfg)["half_rtt_us"]

    rndv, eager, huge = (half_rtt(16384, th, 15)
                         for th in (1024, 16384, 1 << 20))
    assert eager < rndv
    assert eager == pytest.approx(huge)
    assert half_rtt(512 * 1024, 8192, 5) < half_rtt(512 * 1024, 1 << 20, 5)
