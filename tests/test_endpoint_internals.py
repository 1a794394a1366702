"""Endpoint internals: protocol error paths and bookkeeping."""

import numpy as np
import pytest

from repro.errors import MatchingError, SimulationError
from repro.mpi.endpoint import BOUNCE_BYTES, _Unexpected
from repro.mpi.request import Request
from repro.mpi.status import Status
from repro.network.fabric import SysPacket
from repro.network.loggp import TransportParams
from tests.conftest import run_cluster


def _lone_endpoint():
    from repro.cluster import Cluster, ClusterConfig
    cluster = Cluster(ClusterConfig(nranks=1))
    return cluster, cluster.ranks[0].endpoint


def _drive(cluster, gen):
    proc = cluster.engine.process(gen)
    cluster.engine.run(detect_deadlock=False)
    if proc.triggered and not proc.ok:
        _ = proc.value       # re-raise
    return proc.value if proc.triggered else None


def _expect_matching_error(cluster, gen):
    with pytest.raises(SimulationError) as ei:
        _drive(cluster, gen)
    assert isinstance(ei.value.__cause__, MatchingError)


def test_unknown_packet_type_rejected():
    cluster, ep = _lone_endpoint()
    ep.nic.sys_inbox.put(SysPacket("mystery", 0, 0, 8))
    _expect_matching_error(cluster, ep.progress())


def test_cts_for_unknown_send_rejected():
    cluster, ep = _lone_endpoint()
    ep.nic.sys_inbox.put(SysPacket("cts", 0, 0, 8,
                                   payload={"send_id": 999,
                                            "recv_id": 1}))
    _expect_matching_error(cluster, ep.progress())


def test_rdata_for_unknown_recv_rejected():
    cluster, ep = _lone_endpoint()
    ep.nic.sys_inbox.put(SysPacket("rdata", 0, 0, 8,
                                   payload={"recv_id": 42, "tag": 0},
                                   data=np.zeros(1, np.uint8)))
    _expect_matching_error(cluster, ep.progress())


def test_async_handled_cts_skipped_by_progress():
    cluster, ep = _lone_endpoint()
    ep.nic.sys_inbox.put(SysPacket("cts", 0, 0, 8,
                                   payload={"send_id": 999, "recv_id": 1,
                                            "async_handled": True}))
    handled = _drive(cluster, ep.progress())
    assert handled == 1                 # consumed without error


def test_bounce_buffer_wraparound():
    """Many unexpected eager messages wrap the bounce region cleanly."""
    n, doubles = 200, 512                 # 200 x 4KB, still eager-size

    def prog(ctx):
        if ctx.rank == 0:
            for i in range(n):
                yield from ctx.comm.send(np.zeros(doubles), 1, tag=i)
        else:
            yield from ctx.compute(2000.0)
            # Force everything through the unexpected path.
            st = yield from ctx.comm.iprobe()
            assert st is not None
            for i in range(n):
                buf = np.zeros(doubles)
                yield from ctx.comm.recv(buf, 0, tag=i)
            return ctx.endpoint.bounce_copies
        return None

    results, _ = run_cluster(2, prog)
    assert results[1] == n
    assert n * doubles * 8 > BOUNCE_BYTES   # the region really wrapped


def test_eager_message_larger_than_bounce_region_stays_inside_it():
    """An eager message longer than the bounce region (``eager_max``
    raised past it) wraps its cache charge around inside the region: no
    line of the allocation behind it is pulled into the cache."""
    nbytes = 600 * 1024

    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(np.zeros(nbytes // 8), 1, tag=0)
        else:
            yield from ctx.comm.recv(np.zeros(nbytes // 8), 0, tag=0)
        return None

    _, cluster = run_cluster(2, prog, ranks_per_node=1,
                             params=TransportParams(eager_max=1 << 20))
    ctx = cluster.ranks[1]
    bounce = ctx.endpoint._bounce
    assert nbytes > bounce.nbytes == BOUNCE_BYTES
    assert ctx.endpoint.eager_copies == 1
    end = bounce.addr + bounce.nbytes
    line = ctx.cache.line
    assert not any(ctx.cache.resident(a) for a in
                   range(end, bounce.addr + nbytes, line))
    # the last line charged is the wrapped tail's, inside the region
    assert ctx.cache.resident(bounce.addr + nbytes - bounce.nbytes - line)


def test_ctrl_counters_consumed_by_ctrl_wait():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.endpoint.ctrl_wait("pscw-test", [1],
                                              count_each=2)
            assert ctx.endpoint.ctrl_counts[("pscw-test", 1)] == 0
            return "done"
        for _ in range(2):
            h = ctx.fabric.send_sys(1, 0, "pscw-test", 16)
            yield ctx.timeout(h.cpu_busy or 0.01)
        return None

    results, _ = run_cluster(2, prog)
    assert results[0] == "done"


def test_unexpected_dataclass_defaults():
    um = _Unexpected("eager", 0, 1, 8)
    assert um.data is None and um.send_id is None


def test_request_completion_is_pushed_only_for_a_waiter(engine):
    """Completed before anyone asked, a request's completion is a
    processed event holding its status, and costs no push; so does an
    ``AnyOf`` loser's.  A completion some process waits on wakes it at
    once."""
    early = Request(engine)
    before = engine.events_scheduled()
    early.complete(Status(source=3, tag=4, count=8))
    assert engine.events_scheduled() == before
    ev = early.completion
    assert ev.processed and ev.value is early.status
    assert (ev.value.source, ev.value.tag, ev.value.count) == (3, 4, 8)

    loser, winner = Request(engine), Request(engine)
    woke = []

    def wait_on(req, timeout):
        fired = yield engine.any_of([engine.timeout(timeout),
                                     req.completion])
        woke.append((engine.now, list(fired.values())))

    engine.process(wait_on(loser, 1.0))
    engine.run()                                 # the timer wins
    assert woke == [(1.0, [None])]
    before = engine.events_scheduled()
    loser.complete()
    assert engine.events_scheduled() == before
    assert loser.completion.processed

    engine.process(wait_on(winner, 10.0))
    engine.run(until=2.0)                        # parked on both
    status = Status(source=1)
    winner.complete(status)
    engine.run()
    assert woke[1] == (2.0, [status])
