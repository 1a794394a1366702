"""Fault-tolerant RMA layer: detector, replication failover, checkpoints.

Covers the :mod:`repro.ft` package plus the prompt-fail contract of the
core wait primitives: a waiter blocked on a dead peer must raise
:class:`~repro.errors.FaultError` naming that peer at the detection
instant — never idle into the deadlock detector.
"""

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.errors import FaultError, ReproError
from repro.faults import FaultPlan
from repro.ft import (
    FailureDetector,
    ReplicatedWindow,
    checkpoint,
    pack,
    restore,
    unpack_windows,
)
from repro.mpi.constants import ANY_SOURCE
from tests.conftest import run_cluster


# ---------------------------------------------------------------------------
# FailureDetector
# ---------------------------------------------------------------------------

def test_detector_visibility_latency():
    plan = FaultPlan(node_failures={1: 100.0}, detect_us=25.0)

    def prog(ctx):
        det = FailureDetector(ctx)
        yield ctx.timeout(1.0)
        assert det.death_time(1) == 100.0
        assert det.detection_time(1) == 125.0
        assert det.death_time(0) is None
        assert not det.is_down(1, 99.0) and det.is_down(1, 100.0)
        # detection lags death by detect_us, boundary inclusive
        assert not det.detected(1, 124.999)
        assert det.detected(1, 125.0)
        assert det.live([0, 1, 2], 200.0) == [0, 2]
        return "ok"

    results, _ = run_cluster(3, prog, faults=plan, ranks_per_node=1)
    assert results == ["ok"] * 3


def test_block_wakes_at_detection_and_never_busy_loops():
    """``Nic.block`` times a wait to the next detection instant among its
    sources; at that instant it arms no zero-delay timer."""
    plan = FaultPlan(node_failures={1: 100.0}, detect_us=25.0)

    def prog(ctx):
        if ctx.rank != 0:
            return None
        nic = ctx.nic
        arrival = nic.sys_arrival.wait()
        yield nic.block(arrival, [ANY_SOURCE], "receive")
        assert ctx.now == 125.0            # woken by rank 1's detection
        # strict: no busy loop at the instant itself
        assert nic.block(arrival, [ANY_SOURCE], "receive") is arrival
        assert nic.block(arrival, [2], "receive") is arrival  # never dies
        with pytest.raises(FaultError, match="receive wait on rank 0: "
                                             "peer rank 1 is down"):
            nic.block(arrival, [1], "receive")
        return "ok"

    results, _ = run_cluster(3, prog, faults=plan, ranks_per_node=1)
    assert results[0] == "ok"


def test_detector_without_plan_is_inert():
    def prog(ctx):
        det = FailureDetector(ctx)
        yield ctx.timeout(1.0)
        assert det.detect_us == 0.0
        assert det.death_time(0) is None and not det.detected(0)
        assert det.live([0, 1]) == [0, 1]
        assert not hasattr(det, "timer")     # one sleep: Nic.block
        return "ok"

    results, _ = run_cluster(2, prog)
    assert results == ["ok", "ok"]


# ---------------------------------------------------------------------------
# ReplicatedWindow: mirroring, failover, exhaustion
# ---------------------------------------------------------------------------

def _ring_chain(nranks):
    def chain(primary):
        return [(primary + j) % nranks for j in range(nranks)]
    return chain


def _replicated_put_program(nwriters, nstores, replication, plan,
                            die_before_ack):
    """Writer rank nstores.. mirrors one record to a server ring; server
    ranks ack each notified put with a zero-byte credit."""

    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        ack = yield from ctx.win_allocate(8)
        eos = yield from ctx.win_allocate(8)
        det = FailureDetector(ctx)
        empty = np.empty(0, dtype=np.uint8)
        yield from ctx.barrier()
        if ctx.rank < nstores:
            t_die = det.death_time(ctx.rank)
            put_req = yield from ctx.na.notify_init(win, source=ANY_SOURCE,
                                                    tag=0)
            eos_req = yield from ctx.na.notify_init(
                eos, source=ANY_SOURCE, tag=0, expected_count=nwriters)
            yield from ctx.na.start(put_req)
            yield from ctx.na.start(eos_req)
            acked = 0
            while True:
                hit = yield from ctx.na.waitany([put_req, eos_req],
                                                until=t_die)
                if hit is None or hit[0] == 1:
                    return {"acked": acked, "crashed": hit is None}
                st = hit[1]
                if not (die_before_ack and t_die is not None):
                    yield from ctx.na.put_notify(ack, empty, st.source, 0,
                                                 tag=st.tag)
                    yield from ack.flush_local(st.source)
                    acked += 1
                yield from ctx.na.start(put_req)
        else:
            rwin = ReplicatedWindow(ctx, win, _ring_chain(nstores),
                                    replication, detector=det)
            targets = rwin.targets(0)
            req = yield from ctx.na.notify_init(
                ack, source=ANY_SOURCE, tag=0,
                expected_count=len(targets))
            yield from ctx.na.start(req)
            rput = yield from rwin.put_notify(
                np.array([1.0]), 0, 0, tag=0, targets=targets)
            out = None
            try:
                yield from rwin.wait_acks(req, rput)
            except FaultError as exc:
                out = {"error": str(exc)}
            for s in det.live(range(nstores)):
                yield from ctx.na.put_notify(eos, empty, s, 0, tag=0)
                yield from eos.flush_local(s)
            if out is None:
                out = {"targets": rput.targets,
                       "failovers": rput.failovers}
            return out

    return prog


def test_replicated_put_fault_free():
    results, _ = run_cluster(
        4, _replicated_put_program(1, 3, 2, None, False),
        ranks_per_node=1)
    assert results[3] == {"targets": [0, 1], "failovers": 0}
    assert results[0]["acked"] == 1 and results[1]["acked"] == 1


def test_replication_failover_repoints_credit():
    """Replica 1 dies holding an un-acked credit: the waiter re-points
    the mirrored put at rank 2 and completes with one failover."""
    plan = FaultPlan(node_failures={1: 30.0}, detect_us=10.0)
    results, _ = run_cluster(
        4, _replicated_put_program(1, 3, 2, plan, True),
        ranks_per_node=1, faults=plan)
    assert results[3] == {"targets": [0, 2], "failovers": 1}


def test_replication_exhaustion_fails_fast():
    """Every replacement dead: FaultError naming the dead rank, raised at
    detection — not a hang into DeadlockError."""
    plan = FaultPlan(node_failures={1: 30.0, 2: 30.0}, detect_us=10.0)
    results, _ = run_cluster(
        4, _replicated_put_program(1, 3, 3, plan, True),
        ranks_per_node=1, faults=plan)
    msg = results[3]["error"]
    assert "replication exhausted" in msg and "down since" in msg


def test_targets_skips_detected_dead_and_exhausts():
    plan = FaultPlan(node_failures={0: 5.0, 1: 5.0}, detect_us=1.0)

    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        det = FailureDetector(ctx)
        rwin = ReplicatedWindow(ctx, win, _ring_chain(2), 2, detector=det)
        if ctx.rank == 2:
            assert rwin.targets(0) == [0, 1]     # before detection
            yield ctx.timeout(20.0)
            with pytest.raises(FaultError, match="exhausted"):
                rwin.targets(0)
        else:
            yield ctx.timeout(20.0)
        return "ok"

    run_cluster(3, prog, ranks_per_node=1, faults=plan)


def test_replication_degree_validated():
    def prog(ctx):
        win = yield from ctx.win_allocate(8)
        with pytest.raises(FaultError, match="replication"):
            ReplicatedWindow(ctx, win, _ring_chain(2), 0)
        yield ctx.timeout(0.1)
        return "ok"

    run_cluster(2, prog)


# ---------------------------------------------------------------------------
# Epoch checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_restore_roundtrip():
    def prog(ctx):
        win = yield from ctx.win_allocate(32)
        req = yield from ctx.na.notify_init(win, source=ANY_SOURCE,
                                            tag=7, expected_count=2)
        win.local(np.uint8)[:] = ctx.rank + 1
        snap = yield from checkpoint(ctx, [win], requests=(req,),
                                     epoch=3)
        assert snap.epoch == 3 and snap.rank == ctx.rank
        assert snap.nbytes == win.local_size
        t_snap = snap.taken_at
        # mutate everything, then restore
        win.local(np.uint8)[:] = 0
        req.matched = 1
        yield from restore(ctx, snap, [win])
        assert (win.local(np.uint8) == ctx.rank + 1).all()
        assert req.matched == 0 and req.expected == 2
        assert t_snap > 0.0     # the copy was charged, not free
        return "ok"

    results, _ = run_cluster(2, prog)
    assert results == ["ok", "ok"]


def test_checkpoint_is_deterministic():
    def prog(ctx):
        win = yield from ctx.win_allocate(16)
        win.local(np.uint8)[:] = 9
        snap = yield from checkpoint(ctx, [win])
        return snap.taken_at, pack(snap).tobytes()

    a, _ = run_cluster(2, prog)
    b, _ = run_cluster(2, prog)
    assert a == b


def test_restore_validates_window_identity():
    def prog(ctx):
        win = yield from ctx.win_allocate(16)
        other = yield from ctx.win_allocate(16)
        snap = yield from checkpoint(ctx, [win])
        with pytest.raises(ReproError, match="not among"):
            yield from restore(ctx, snap, [other], collective=False)
        return "ok"

    run_cluster(2, prog)


def test_pack_unpack_roundtrip():
    def prog(ctx):
        a = yield from ctx.win_allocate(8)
        b = yield from ctx.win_allocate(24)
        a.local(np.uint8)[:] = 1
        b.local(np.uint8)[:] = 2
        snap = yield from checkpoint(ctx, [b, a])   # order-insensitive
        raw = pack(snap)
        assert raw.nbytes == 32
        parts = unpack_windows(raw, [a.local_size, b.local_size])
        assert (parts[0] == 1).all() and (parts[1] == 2).all()
        with pytest.raises(ReproError, match="expected"):
            unpack_windows(raw, [8, 8])
        return "ok"

    run_cluster(1, prog)


# ---------------------------------------------------------------------------
# Prompt-fail waits (bugfix regression): FaultError at detect_us, not a
# hang to DeadlockError, and the error names the dead peer
# ---------------------------------------------------------------------------

def _na_wait(ctx, win):
    req = yield from ctx.na.notify_init(win, source=0, tag=0)
    yield from ctx.na.start(req)
    yield from ctx.na.wait(req)


def _counter_wait(ctx, win):
    req = yield from ctx.counters.counter_init(win, source=0, tag=1)
    yield from ctx.counters.start(req)
    yield from ctx.counters.wait(req)


def _rndv_send(ctx, win):
    big = np.zeros(ctx.params.eager_max + 1, dtype=np.uint8)
    yield from ctx.endpoint.send(big, 0, 3)      # rank 0 never receives


def _probe(ctx, win):
    yield from ctx.endpoint.probe(source=0)


def _pscw_start(ctx, win):
    yield from win.start([0])                    # rank 0 never posts


def _barrier(ctx, win):
    yield from ctx.barrier()                     # rank 0 never enters


#: verb -> (blocking call on rank 1, the verb the FaultError names)
DEAD_PEER_WAITS = {
    "notification": (_na_wait, "notification wait"),
    "counter": (_counter_wait, "counter wait"),
    "rndv_send": (_rndv_send, "send wait"),
    "probe": (_probe, "probe wait"),
    "pscw_start": (_pscw_start, "pscw-post-"),
    "barrier": (_barrier, "receive wait"),
}


@pytest.mark.parametrize("verb", list(DEAD_PEER_WAITS))
def test_wait_on_dead_peer_fails_promptly(verb):
    """A verb blocked on a specific dead peer raises a FaultError naming
    both ranks and the verb at death + detect_us, far from the 100us the
    deadlock detector would need."""
    call, named = DEAD_PEER_WAITS[verb]
    plan = FaultPlan(node_failures={0: 40.0}, detect_us=15.0)

    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        yield from ctx.barrier()
        if ctx.rank == 1:
            with pytest.raises(FaultError) as exc:
                yield from call(ctx, win)
            msg = str(exc.value)
            assert named in msg and "on rank 1" in msg, msg
            assert "peer rank 0 is down since t=40us" in msg, msg
            # at death + detect_us plus the verb's software costs
            assert 55.0 <= ctx.now < 56.0
            return "failed-fast"
        yield ctx.timeout(100.0)                     # rank 0 stays silent
        return "idle"

    results, _ = run_cluster(2, prog, ranks_per_node=1, faults=plan)
    assert results[1] == "failed-fast"


def _any_source_recv(ctx, win):
    buf = np.zeros(1)
    st = yield from ctx.endpoint.recv(buf, source=ANY_SOURCE, tag=5)
    return st.source


def _any_source_send(ctx, win):
    yield from ctx.endpoint.send(np.ones(1), 2, 5)


def _waitsome(ctx, win):
    slot, _ = yield from ctx.gaspi.waitsome(ctx.gaspi.spaces[win.id])
    return slot


def _write_notify(ctx, win):
    yield from ctx.gaspi.write_notify(win, np.ones(1), 2, 0, slot=3)


@pytest.mark.parametrize("consume, produce, expected", [
    (_any_source_recv, _any_source_send, 1),
    (_waitsome, _write_notify, 3),
], ids=["recv", "waitsome"])
def test_any_source_wait_survives_dead_rank(consume, produce, expected):
    """A wait any live rank can end outlives a dead rank's detection."""
    plan = FaultPlan(node_failures={0: 10.0}, detect_us=5.0)

    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        if ctx.rank == 2:
            yield from ctx.gaspi.notification_init(win, num=4)
        yield from ctx.barrier()
        if ctx.rank == 2:
            got = yield from consume(ctx, win)
            assert ctx.now > 50.0                    # past rank 0's death
            return got
        if ctx.rank == 1:
            yield ctx.timeout(50.0)
            yield from produce(ctx, win)
        return None

    results, _ = run_cluster(3, prog, ranks_per_node=1, faults=plan)
    assert results[2] == expected


@pytest.mark.parametrize("consume", [_any_source_recv, _waitsome],
                         ids=["recv", "waitsome"])
def test_any_source_wait_with_no_live_peer_fails(consume):
    """With every other rank detected dead, nobody can end an ANY_SOURCE
    wait: it raises a FaultError naming the verb and the waiting rank at
    death + detect_us, instead of idling into the deadlock detector."""
    plan = FaultPlan(node_failures={0: 40.0}, detect_us=50.0)

    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        if ctx.rank == 1:
            yield from ctx.gaspi.notification_init(win, num=4)
        yield from ctx.barrier()
        if ctx.rank == 1:
            with pytest.raises(FaultError) as exc:
                yield from consume(ctx, win)
            msg = str(exc.value)
            assert "wait on rank 1: every peer rank is down" in msg, msg
            assert 90.0 <= ctx.now < 91.0
            return "failed-fast"
        yield ctx.timeout(100.0)                     # rank 0 stays silent
        return "idle"

    results, _ = run_cluster(2, prog, ranks_per_node=1, faults=plan)
    assert results[1] == "failed-fast"


def test_wildcard_wait_survives_dead_rank():
    """ANY_SOURCE requests never fail at engine level: a live rank can
    still match them (the ft layer handles wildcard failover)."""
    plan = FaultPlan(node_failures={0: 10.0}, detect_us=5.0)

    def prog(ctx):
        win = yield from ctx.win_allocate(64)
        yield from ctx.barrier()
        if ctx.rank == 2:
            req = yield from ctx.na.notify_init(win, source=ANY_SOURCE,
                                                tag=0)
            yield from ctx.na.start(req)
            st = yield from ctx.na.wait(req)
            return st.source
        if ctx.rank == 1:
            yield ctx.timeout(50.0)     # well past rank 0's detection
            yield from ctx.na.put_notify(win, np.array([1.0]), 2, 0,
                                         tag=0)
            yield from win.flush_local(2)
        else:
            yield ctx.timeout(5.0)
        return "sent"

    results, _ = run_cluster(3, prog, ranks_per_node=1, faults=plan)
    assert results[2] == 1


def test_run_kv_ft_rejects_bad_plans():
    from repro.apps.services import run_kv_ft
    cfg = ClusterConfig(nranks=4, ranks_per_node=2,
                        faults=FaultPlan(node_failures={3: 100.0}))
    with pytest.raises(ReproError, match="server ranks"):
        run_kv_ft(nservers=2, nclients=2, config=cfg)
    cfg = ClusterConfig(nranks=4, ranks_per_node=2,
                        faults=FaultPlan(drop_prob=0.1))
    with pytest.raises(ReproError, match="node-failure-only"):
        run_kv_ft(nservers=2, nclients=2, config=cfg)
    cfg = ClusterConfig(
        nranks=4, ranks_per_node=2,
        faults=FaultPlan(node_failures={0: 100.0, 1: 200.0}))
    with pytest.raises(ReproError, match="survive"):
        run_kv_ft(nservers=2, nclients=2, config=cfg)


def test_run_pubsub_rejects_primary_owner_death():
    from repro.apps.services import run_pubsub
    cfg = ClusterConfig(nranks=12, ranks_per_node=2,
                        faults=FaultPlan(node_failures={0: 100.0}))
    with pytest.raises(ReproError, match="pure-mirror"):
        run_pubsub(replication=2, config=cfg)
