"""Synchronous sends."""

import numpy as np

from tests.conftest import run_cluster


def test_ssend_small_message_goes_rendezvous():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.ssend(np.zeros(4), 1, tag=1)
        else:
            buf = np.zeros(4)
            yield from ctx.comm.recv(buf, 0, 1)
        return None

    _, cluster = run_cluster(2, prog)
    assert cluster.stats()["rndv_sends"] == 1
    assert cluster.stats()["eager_copies"] == 0


def test_ssend_completion_implies_matched_receive():
    """The sender cannot complete before the receiver posts."""
    def prog(ctx):
        if ctx.rank == 0:
            t0 = ctx.now
            yield from ctx.comm.ssend(np.zeros(4), 1, tag=1)
            return ctx.now - t0
        yield from ctx.compute(50.0)       # receive posted late
        buf = np.zeros(4)
        yield from ctx.comm.recv(buf, 0, 1)
        return None

    results, _ = run_cluster(2, prog)
    assert results[0] > 45.0               # waited for the late receiver


def test_plain_send_completes_eagerly_in_contrast():
    def prog(ctx):
        if ctx.rank == 0:
            t0 = ctx.now
            yield from ctx.comm.send(np.zeros(4), 1, tag=1)
            dt = ctx.now - t0
            yield from ctx.barrier()
            return dt
        yield from ctx.compute(50.0)
        buf = np.zeros(4)
        yield from ctx.comm.recv(buf, 0, 1)
        yield from ctx.barrier()
        return None

    results, _ = run_cluster(2, prog)
    assert results[0] < 5.0                # eager: local completion

