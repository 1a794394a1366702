"""Fault injection: plans, determinism, retries, and exactly-once delivery."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.errors import FaultError
from repro.faults import CLEAN_FATE, FaultInjector, FaultPlan
from tests.conftest import run_cluster


# ---------------------------------------------------------------------------
# FaultPlan validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw", [
    {"drop_prob": -0.1},
    {"drop_prob": 1.5},
    {"dup_prob": 2.0},
    {"delay_prob": -1.0},
    {"stall_prob": 1.01},
    {"max_retries": -1},
    {"rto": 0.0},
    {"rto": -3.0},
    {"backoff": 0.5},
    {"delay_max": -1.0},
    {"stall_us": -0.1},
    {"dup_lag": -2.0},
    {"detect_us": -5.0},
    {"node_failures": {0: -1.0}},
])
def test_plan_validation_rejects_bad_knobs(kw):
    with pytest.raises(FaultError):
        FaultPlan(**kw)


def test_plan_active_property():
    assert not FaultPlan().active
    assert not FaultPlan(seed=7).active          # a seed alone injects nothing
    assert FaultPlan(drop_prob=0.1).active
    assert FaultPlan(dup_prob=0.1).active
    assert FaultPlan(delay_prob=0.1).active
    assert FaultPlan(stall_prob=0.1).active
    assert FaultPlan(node_failures={1: 10.0}).active


# ---------------------------------------------------------------------------
# Injector unit behaviour
# ---------------------------------------------------------------------------

def _fates(plan, seed, n=50):
    inj = FaultInjector(plan, seed)
    out = [inj.transfer_fate(0, 1, 64, "ugni", float(t)) for t in range(n)]
    return inj, out


def test_injector_is_deterministic_per_seed():
    plan = FaultPlan(drop_prob=0.3, dup_prob=0.2, delay_prob=0.2)
    inj_a, fates_a = _fates(plan, seed=11)
    inj_b, fates_b = _fates(plan, seed=11)
    assert fates_a == fates_b
    assert inj_a.stats() == inj_b.stats()
    _, fates_c = _fates(plan, seed=12)
    assert fates_a != fates_c


def test_plan_seed_overrides_root_seed():
    plan = FaultPlan(drop_prob=0.3, delay_prob=0.3, seed=99)
    _, fates_a = _fates(plan, seed=1)
    _, fates_b = _fates(plan, seed=2)
    assert fates_a == fates_b     # the plan's own seed wins


def test_shm_medium_never_sees_packet_faults():
    plan = FaultPlan(drop_prob=1.0, dup_prob=1.0, delay_prob=1.0,
                     max_retries=0)
    inj = FaultInjector(plan, 5)
    fate = inj.transfer_fate(0, 1, 64, "shm", 0.0)
    assert fate is CLEAN_FATE
    assert inj.stats() == {k: 0 for k in inj.stats()}
    # the same transfer over the wire is lost immediately
    assert inj.transfer_fate(0, 1, 64, "ugni", 0.0).lost


def test_retry_backoff_accumulates_exponentially():
    # drop_prob=1 forces every attempt to drop until retries run out
    plan = FaultPlan(drop_prob=1.0, max_retries=3, rto=10.0, backoff=2.0)
    inj = FaultInjector(plan, 5)
    fate = inj.transfer_fate(0, 1, 64, "ugni", 0.0)
    assert fate.lost and fate.retries == 3
    assert inj.drops == 4                      # 1 first try + 3 retries
    assert inj.lost_ops == 1


def test_node_failure_is_time_gated():
    plan = FaultPlan(node_failures={1: 100.0})
    inj = FaultInjector(plan, 5)
    assert not inj.rank_down(1, 99.9)
    assert inj.rank_down(1, 100.0)
    assert not inj.transfer_fate(0, 1, 64, "ugni", 50.0).lost
    assert inj.transfer_fate(0, 1, 64, "ugni", 150.0).lost
    assert inj.node_drops == 1


# ---------------------------------------------------------------------------
# Fabric-level recovery (engine-driven, no rank programs)
# ---------------------------------------------------------------------------

def _bare_cluster(plan, nranks=2):
    return Cluster(ClusterConfig(nranks=nranks, ranks_per_node=1,
                                 faults=plan))


def test_retry_exhaustion_fails_remote_done_with_faulterror():
    plan = FaultPlan(drop_prob=1.0, max_retries=2, detect_us=5.0, seed=3)
    cluster = _bare_cluster(plan)
    region = cluster.spaces[1].alloc(64)
    data = np.arange(8, dtype=np.uint8)
    h = cluster.fabric.put(0, 1, region.addr, data)
    assert h.failed

    def prog(e):
        try:
            yield h.remote_done
        except FaultError as err:
            return ("lost", str(err), e.now)

    p = cluster.engine.process(prog(cluster.engine))
    cluster.engine.run()
    kind, msg, when = p.value
    assert kind == "lost" and "abandoned" in msg
    assert when == pytest.approx(plan.detect_us)
    assert cluster.fabric.faults.lost_ops == 1
    # the payload never committed at the target
    assert not cluster.spaces[1].mem[region.addr:region.addr + 8].any()


def test_dead_node_fails_puts_without_retrying():
    plan = FaultPlan(node_failures={1: 0.0}, detect_us=7.0, seed=3)
    cluster = _bare_cluster(plan)
    region = cluster.spaces[1].alloc(64)
    h = cluster.fabric.put(0, 1, region.addr, np.ones(4, dtype=np.uint8))
    assert h.failed

    def prog(e):
        with pytest.raises(FaultError):
            yield h.remote_done
        return e.now

    p = cluster.engine.process(prog(cluster.engine))
    cluster.engine.run()
    assert p.value == pytest.approx(7.0)
    assert cluster.fabric.faults.node_drops == 1
    assert cluster.fabric.faults.retries == 0


def test_lost_get_fails_both_sides():
    plan = FaultPlan(drop_prob=1.0, max_retries=0, detect_us=4.0, seed=3)
    cluster = _bare_cluster(plan)
    src = cluster.spaces[1].alloc(64)
    dst = cluster.spaces[0].alloc(64)
    h = cluster.fabric.get(0, 1, src.addr, 8, dst.addr)
    assert h.failed

    def prog(e):
        with pytest.raises(FaultError):
            yield h.local_done
        with pytest.raises(FaultError):
            yield h.remote_done
        return "ok"

    p = cluster.engine.process(prog(cluster.engine))
    cluster.engine.run()
    assert p.value == "ok"
    mem = cluster.spaces[0].mem
    assert not mem[dst.addr:dst.addr + 8].any()


# ---------------------------------------------------------------------------
# End-to-end Notified Access under faults
# ---------------------------------------------------------------------------

def _producer_consumer(n_msgs, payload_len=16):
    """Rank 0 streams distinct payloads to rank 1; rank 1 verifies each."""

    def prog(ctx):
        win = yield from ctx.win_allocate(1024)
        if ctx.rank == 0:
            for i in range(n_msgs):
                data = np.full(payload_len, 10 + i, dtype=np.uint8)
                yield from ctx.na.put_notify(win, data, 1, 0, tag=i)
                req = yield from ctx.na.notify_init(win, source=1, tag=i)
                yield from ctx.na.start(req)
                yield from ctx.na.wait(req)
            return ctx.now
        seen = []
        for i in range(n_msgs):
            req = yield from ctx.na.notify_init(win, source=0, tag=i)
            yield from ctx.na.start(req)
            st = yield from ctx.na.wait(req)
            seen.append((st.source, st.tag))
            got = win.local(np.uint8, 0, payload_len).copy()
            assert (got == 10 + i).all(), (
                f"message {i}: corrupted or stale payload {got[:4]}...")
            yield from ctx.na.put_notify(win, np.zeros(1, np.uint8), 0,
                                         512, tag=i)
        assert len(ctx.na.uq) == 0, "stray duplicate notification queued"
        return seen

    return prog


def test_dropped_then_retried_put_delivers_exactly_once():
    plan = FaultPlan(drop_prob=0.3, seed=17)
    results, cluster = run_cluster(2, _producer_consumer(8),
                                   ranks_per_node=1, faults=plan)
    assert results[1] == [(0, i) for i in range(8)]
    st = cluster.stats()["faults"]
    assert st["retries"] > 0, "seed produced no drops; pick another"
    assert st["lost_ops"] == 0


def test_duplicate_notification_suppressed_end_to_end():
    plan = FaultPlan(dup_prob=1.0, seed=17)
    results, cluster = run_cluster(2, _producer_consumer(5),
                                   ranks_per_node=1, faults=plan)
    assert results[1] == [(0, i) for i in range(5)]
    st = cluster.stats()["faults"]
    assert st["duplicates"] > 0
    assert st["dup_suppressed"] == st["duplicates"]
    assert st["dup_suppressed_nic"] == st["duplicates"]


def test_delay_and_stall_only_slow_things_down():
    clean, _ = run_cluster(2, _producer_consumer(6), ranks_per_node=1)
    plan = FaultPlan(delay_prob=1.0, delay_max=4.0, stall_prob=1.0,
                     stall_us=3.0, seed=5)
    slow, cluster = run_cluster(2, _producer_consumer(6),
                                ranks_per_node=1, faults=plan)
    assert slow[1] == clean[1]                   # same messages, same order
    assert cluster.time > 0
    st = cluster.stats()["faults"]
    assert st["delays"] > 0 and st["stalls"] > 0
    # faults cost time: completion strictly later than the clean run
    clean_t, _ = run_cluster(2, _producer_consumer(6), ranks_per_node=1)
    assert cluster.time > run_cluster(
        2, _producer_consumer(6), ranks_per_node=1)[1].time


def test_intranode_traffic_immune_to_drop_probability():
    clean, _ = run_cluster(2, _producer_consumer(4), ranks_per_node=2)
    plan = FaultPlan(drop_prob=0.9, dup_prob=0.9, seed=5)
    faulty, cluster = run_cluster(2, _producer_consumer(4),
                                  ranks_per_node=2, faults=plan)
    assert faulty[1] == clean[1]
    st = cluster.stats()["faults"]
    assert st["drops"] == 0 and st["duplicates"] == 0


def test_fault_schedule_bit_reproducible():
    """Acceptance: a fixed-seed drop_prob=0.1 NA run is bit-reproducible."""
    plan = FaultPlan(drop_prob=0.1, dup_prob=0.1, delay_prob=0.2, seed=123)

    def once():
        results, cluster = run_cluster(2, _producer_consumer(10),
                                       ranks_per_node=1, faults=plan)
        return results[0], cluster.stats()["faults"]

    t_a, stats_a = once()
    t_b, stats_b = once()
    assert t_a == t_b
    assert stats_a == stats_b


def test_trace_records_fault_events():
    plan = FaultPlan(drop_prob=0.4, dup_prob=0.5, seed=17)
    _, cluster = run_cluster(2, _producer_consumer(6),
                             ranks_per_node=1, faults=plan, trace=True)
    counts = cluster.tracer.fault_counts()
    assert counts.get("drop", 0) > 0
    assert counts.get("retry-ok", 0) > 0
    assert counts.get("dup", 0) > 0
    assert counts.get("dup-suppressed", 0) > 0
    assert cluster.tracer.fault_events() == sum(counts.values())


def test_no_plan_means_no_injector_and_identical_schedule():
    """A cluster without a plan (or with an inert one) keeps the fault
    machinery completely out of the event stream."""
    base, cb = run_cluster(2, _producer_consumer(4), ranks_per_node=1)
    inert, ci = run_cluster(2, _producer_consumer(4), ranks_per_node=1,
                            faults=FaultPlan())
    assert ci.fabric.faults is None
    assert "faults" not in ci.stats()
    assert base[0] == inert[0] and cb.time == ci.time


# ---------------------------------------------------------------------------
# Backoff schedule golden values + shardable plans + dead-wait errors
# ---------------------------------------------------------------------------

class _Scripted:
    """rng stub replaying a fixed uniform-draw sequence."""

    def __init__(self, draws):
        self._draws = list(draws)

    def random(self):
        return self._draws.pop(0)

    def uniform(self, lo, hi):  # pragma: no cover - not hit in these tests
        raise AssertionError("unexpected uniform draw")


def test_retry_delay_golden_schedule():
    """The documented backoff schedule verbatim: rto, rto*b, rto*b^2."""
    plan = FaultPlan(drop_prob=0.5, max_retries=4, rto=1.5, backoff=3.0)
    inj = FaultInjector(plan, 0)
    # two drops, then a success on the third attempt
    inj.rng = _Scripted([0.0, 0.0, 1.0])
    fate = inj.transfer_fate(0, 1, 64, "ugni", 0.0)
    assert not fate.lost
    assert fate.retries == 2
    assert fate.retry_delay == pytest.approx(1.5 + 1.5 * 3.0)
    assert inj.retries == 2 and inj.drops == 2

    # three drops: schedule extends by rto*b^2 exactly
    inj.rng = _Scripted([0.0, 0.0, 0.0, 1.0])
    fate = inj.transfer_fate(0, 1, 64, "ugni", 0.0)
    assert fate.retries == 3
    assert fate.retry_delay == pytest.approx(1.5 + 1.5 * 3.0 + 1.5 * 9.0)


def test_max_retries_zero_first_drop_abandons():
    """max_retries=0: a single drop abandons the op, no retransmissions."""
    plan = FaultPlan(drop_prob=1.0, max_retries=0, detect_us=25.0)
    inj = FaultInjector(plan, 0)
    fate = inj.transfer_fate(0, 1, 64, "ugni", 0.0)
    assert fate.lost and fate.retries == 0 and fate.retry_delay == 0.0
    assert fate.fail_after == 25.0
    assert inj.drops == 1 and inj.lost_ops == 1 and inj.retries == 0


def test_lost_path_counts_performed_retransmissions():
    """Retry exhaustion still performed max_retries retransmissions, and
    the injector ledger counts them (they were charged on the wire)."""
    plan = FaultPlan(drop_prob=1.0, max_retries=3)
    inj = FaultInjector(plan, 0)
    fate = inj.transfer_fate(0, 1, 64, "ugni", 0.0)
    assert fate.lost and fate.retries == 3
    assert inj.drops == 4 and inj.lost_ops == 1 and inj.retries == 3


def test_plan_shardable_property():
    """Only node-failure-only plans are order-independent."""
    assert FaultPlan().shardable
    assert FaultPlan(node_failures={1: 10.0}).shardable
    assert FaultPlan(node_failures={1: 10.0}, detect_us=5.0).shardable
    assert not FaultPlan(drop_prob=0.1).shardable
    assert not FaultPlan(dup_prob=0.1).shardable
    assert not FaultPlan(delay_prob=0.1).shardable
    assert not FaultPlan(stall_prob=0.1).shardable
    assert not FaultPlan(node_failures={1: 10.0}, drop_prob=0.1).shardable


def test_lost_error_names_dead_endpoint():
    plan = FaultPlan(node_failures={1: 10.0}, detect_us=5.0)
    inj = FaultInjector(plan, 0)
    err = inj.lost_error("put", 0, 1, now=20.0)
    assert isinstance(err, FaultError)
    assert "rank 1" in str(err) and "t=10" in str(err)
    assert "abandoned" in str(err)


def test_dead_wait_error_names_peer():
    plan = FaultPlan(node_failures={2: 10.0}, detect_us=5.0)
    inj = FaultInjector(plan, 0)
    err = inj.dead_wait_error("notification", 0, 2)
    assert "rank 2" in str(err) and "wait on rank 0" in str(err)


def test_na_vs_flush_notify_under_injected_drops():
    """The single-transaction argument on lossy links: flush_notify puts
    two transfers per handoff in the drop process's way, so it is slower
    than NA at every loss rate; loss slows both monotonically, and retry
    plus dedup still deliver every handoff."""
    from repro.apps.pingpong import run_pingpong

    res = {}
    for mode in ("na", "flush_notify"):
        for drop in (0.0, 0.01, 0.1):
            plan = FaultPlan(drop_prob=drop, seed=2015) if drop else None
            cfg = ClusterConfig(nranks=2, faults=plan)
            res[mode, drop] = run_pingpong(mode, 64, iters=25, config=cfg)
    for mode in ("na", "flush_notify"):
        assert "faults" not in res[mode, 0.0]
        rtt = [res[mode, d]["half_rtt_us"] for d in (0.0, 0.01, 0.1)]
        assert rtt[2] > rtt[1] >= rtt[0]
        lossy = res[mode, 0.1]["faults"]
        assert lossy["retries"] > 0 and lossy["drops"] > 0
        assert lossy["lost_ops"] == 0
    for drop in (0.0, 0.01, 0.1):
        assert (res["flush_notify", drop]["half_rtt_us"]
                > res["na", drop]["half_rtt_us"])
