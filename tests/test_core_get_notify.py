"""Notified get: consumer-managed buffering and §VIII reliability modes."""

import numpy as np

from repro.network.loggp import TransportParams
from tests.conftest import run_cluster


def test_get_notify_moves_data_and_notifies_owner():
    def prog(ctx):
        win = yield from ctx.win_allocate(256)
        if ctx.rank == 1:
            win.local(np.float64)[:8] = np.arange(8.0)
            yield from ctx.barrier()
            req = yield from ctx.na.notify_init(win, source=0, tag=2)
            yield from ctx.na.start(req)
            st = yield from ctx.na.wait(req)
            # Owner may now reuse its buffer.
            assert (st.source, st.tag, st.count) == (0, 2, 64)
            win.local(np.float64)[:8] = -1.0
            return "reused"
        yield from ctx.barrier()
        buf = ctx.alloc(64)
        yield from ctx.na.get_notify(win, buf, 1, 0, nbytes=64, tag=2)
        yield from win.flush(1)
        assert np.allclose(buf.ndarray(np.float64), np.arange(8.0))
        return "read"

    results, _ = run_cluster(2, prog)
    assert results == ["read", "reused"]


def test_reliable_notifies_before_data_arrival():
    times = {}

    def prog(ctx):
        win = yield from ctx.win_allocate(8192)
        if ctx.rank == 1:
            yield from ctx.barrier()
            req = yield from ctx.na.notify_init(win, source=0, tag=1)
            yield from ctx.na.start(req)
            yield from ctx.na.wait(req)
            times["notified"] = ctx.now
        else:
            yield from ctx.barrier()
            buf = ctx.alloc(8192)
            yield from ctx.na.get_notify(win, buf, 1, 0, tag=1)
            yield from win.flush(1)
            times["data"] = ctx.now
        return None

    run_cluster(2, prog, params=TransportParams(reliable=True))
    assert times["notified"] < times["data"]


def test_unreliable_notifies_after_data_arrival():
    times = {}

    def prog(ctx):
        win = yield from ctx.win_allocate(8192)
        if ctx.rank == 1:
            yield from ctx.barrier()
            req = yield from ctx.na.notify_init(win, source=0, tag=1)
            yield from ctx.na.start(req)
            yield from ctx.na.wait(req)
            times["notified"] = ctx.now
        else:
            yield from ctx.barrier()
            buf = ctx.alloc(8192)
            yield from ctx.na.get_notify(win, buf, 1, 0, tag=1)
            yield from win.flush(1)
            times["data"] = ctx.now
        return None

    run_cluster(2, prog, params=TransportParams(reliable=False))
    assert times["notified"] > times["data"]


def test_consumer_managed_buffering_pattern():
    """§VI-B: multiple producers expose data; the consumer pulls with
    notified gets, so producers never manage consumer buffers."""
    nproducers = 3

    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        if ctx.rank == 0:          # consumer
            yield from ctx.barrier()
            buf = ctx.alloc(64 * nproducers)
            for p in range(1, nproducers + 1):
                yield from ctx.na.get_notify(win, buf, p, 0, nbytes=64,
                                             tag=p, local_offset=(p - 1) * 64)
            yield from win.flush_all()
            got = buf.ndarray(np.float64).reshape(nproducers, 8)
            for p in range(1, nproducers + 1):
                assert np.allclose(got[p - 1], float(p))
            return "consumed"
        # producers: expose data, then wait until it has been read.
        win.local(np.float64)[:8] = float(ctx.rank)
        yield from ctx.barrier()
        req = yield from ctx.na.notify_init(win, source=0, tag=ctx.rank)
        yield from ctx.na.start(req)
        yield from ctx.na.wait(req)
        return "drained"

    results, _ = run_cluster(nproducers + 1, prog)
    assert results[0] == "consumed"
    assert results[1:] == ["drained"] * nproducers


def test_get_notify_shm_path():
    def prog(ctx):
        win = yield from ctx.win_allocate(128)
        if ctx.rank == 1:
            win.local(np.float64)[:4] = 3.5
            yield from ctx.barrier()
            req = yield from ctx.na.notify_init(win, source=0, tag=4)
            yield from ctx.na.start(req)
            yield from ctx.na.wait(req)
            return "ok"
        yield from ctx.barrier()
        buf = ctx.alloc(32)
        yield from ctx.na.get_notify(win, buf, 1, 0, nbytes=32, tag=4)
        yield from win.flush(1)
        assert np.allclose(buf.ndarray(np.float64), 3.5)
        return "ok"

    results, _ = run_cluster(2, prog, ranks_per_node=2)
    assert results == ["ok", "ok"]


def test_unreliable_fabric_prices_gets_not_puts():
    """§VIII: on an unreliable fabric a notified get pays the ack leg
    (about two wire latencies) before the buffer-reuse notification; a
    notified put costs the same either way."""
    from repro.apps.pingpong import run_pingpong
    from repro.cluster import ClusterConfig

    def half_rtt(mode, reliable):
        cfg = ClusterConfig(nranks=2,
                            params=TransportParams(reliable=reliable))
        return run_pingpong(mode, 64, iters=15, config=cfg)["half_rtt_us"]

    assert half_rtt("na_get", False) > half_rtt("na_get", True) + 1.0
    assert half_rtt("na", False) == half_rtt("na", True)
