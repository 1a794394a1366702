"""Golden-trace determinism tests for the service workloads.

The service drivers return their *full* traces — final store contents,
per-server notification-processing orders, per-subscriber delivery
orders, and every measured latency — and the contract mirrored from
``tests/test_shard_equiv.py`` is verbatim equality: a sharded run must
reproduce the serial run's dict exactly, and two serial runs of the same
seed must agree byte for byte.  On top of the equality checks, small
instances are pinned against independently recomputed goldens (exact
event counts from the workload plans, store contents from the last
writer per key, delivery multisets from the fan-out sets).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.services import (
    build_kv_workload,
    build_pubsub_workload,
    run_kv,
    run_kv_ft,
    run_pubsub,
)
from repro.apps.services.kv import copy_servers, seed_value
from repro.cluster import ClusterConfig
from repro.errors import ReproError
from repro.faults import FaultPlan

_KV_SMALL = dict(nservers=2, nclients=2, replication=2, reqs_per_client=8,
                 rate_rps=500_000.0, nkeys=16, verify=True, seed=7)
_PS_SMALL = dict(nbrokers=2, npubs=2, nsubs=3, ntopics=4, fanout=2,
                 msgs_per_pub=8, rate_rps=500_000.0, batch=2, seed=7)


def _kv_config(shards: int = 0) -> ClusterConfig:
    return ClusterConfig(nranks=4, ranks_per_node=2, shards=shards)


def _ps_config(shards: int = 0) -> ClusterConfig:
    return ClusterConfig(nranks=7, ranks_per_node=2, shards=shards)


def _expected_records(plans, server: int, nservers: int,
                      replication: int) -> int:
    """How many put records ``server`` receives — the test's own
    recomputation from the plans (the service itself does not count)."""
    return sum(1 for plan in plans
               for key, is_get in zip(plan.keys, plan.is_get)
               if not is_get
               and server in copy_servers(int(key), nservers, replication))


def _expected_gets(plans, server: int, nservers: int) -> int:
    """How many get requests ``server`` (as primary) serves."""
    return sum(1 for plan in plans
               for key, is_get in zip(plan.keys, plan.is_get)
               if is_get and copy_servers(int(key), nservers, 1)[0] == server)


# ---------------------------------------------------------------------------
# Workload plans: pure functions of the seed
# ---------------------------------------------------------------------------
def test_kv_workload_plan_is_deterministic():
    a = build_kv_workload(7, 2, 8, 5e5, 0.5, 16, 0.9)
    b = build_kv_workload(7, 2, 8, 5e5, 0.5, 16, 0.9)
    for pa, pb in zip(a, b):
        assert pa.arrivals.tobytes() == pb.arrivals.tobytes()
        assert pa.keys.tobytes() == pb.keys.tobytes()
        assert pa.is_get.tobytes() == pb.is_get.tobytes()
    assert build_kv_workload(8, 2, 8, 5e5, 0.5, 16,
                             0.9)[0].keys.tobytes() != a[0].keys.tobytes()


def test_kv_copy_servers_chain():
    assert copy_servers(5, 4, 3) == [1, 2, 3]
    assert copy_servers(3, 4, 2) == [3, 0]
    # expected counts partition the workload exactly
    plans = build_kv_workload(7, 2, 8, 5e5, 0.5, 16, 0.9)
    puts = sum((~p.is_get).sum() for p in plans)
    gets = sum(p.is_get.sum() for p in plans)
    assert sum(_expected_records(plans, s, 2, 2) for s in range(2)) \
        == 2 * puts
    assert sum(_expected_gets(plans, s, 2) for s in range(2)) == gets


def test_pubsub_workload_plan_counts():
    plan = build_pubsub_workload(7, 2, 3, 2, 4, 2, 8, 5e5, 0.9)
    assert len(plan.subs_of_topic) == 4
    for subs in plan.subs_of_topic:
        assert len(subs) == 2 and subs == sorted(subs)
    # the delivery matrix partitions fanout * messages exactly
    assert sum(sum(row) for row in plan.deliveries) == 2 * 2 * 8


# ---------------------------------------------------------------------------
# KV: golden trace, serial vs sharded
# ---------------------------------------------------------------------------
def test_kv_serial_repeat_is_identical():
    a = run_kv(config=_kv_config(), **_KV_SMALL)
    b = run_kv(config=_kv_config(), **_KV_SMALL)
    assert a == b


def test_kv_golden_counts_and_stores():
    r = run_kv(config=_kv_config(), **_KV_SMALL)
    plans = build_kv_workload(7, 2, 8, 5e5, 0.5, 16, 0.9)
    puts = int(sum((~p.is_get).sum() for p in plans))
    gets = int(sum(p.is_get.sum() for p in plans))
    assert r["requests"] == 16
    assert r["completed"] == 16
    assert r["acked"] == 2 * puts          # replication copies acked
    assert r["served"] == gets
    assert len(r["lat_put_us"]) <= puts
    assert len(r["lat_get_us"]) <= gets
    assert all(v > 0.0 for v in r["lat_put_us"] + r["lat_get_us"])
    assert r["t_end_us"] > 0.0
    # every store entry is a value some client actually wrote there
    written = {}
    for c, plan in enumerate(plans):
        for i, (key, is_get) in enumerate(zip(plan.keys, plan.is_get)):
            if not is_get:
                written.setdefault(int(key), set()).add(float(c * 8 + i))
    for server, store in enumerate(r["stores"]):
        for key, value in store.items():
            assert server in copy_servers(key, 2, 2)
            assert value in written[key]
    # server orders cover exactly the expected notifications
    for server, order in enumerate(r["server_orders"]):
        kinds = [k for k, _, _ in order]
        assert kinds.count("put") == _expected_records(plans, server, 2, 2)
        assert kinds.count("get") == _expected_gets(plans, server, 2)


@pytest.mark.parametrize("shards", [2])
def test_kv_sharded_equals_serial(shards):
    serial = run_kv(config=_kv_config(), **_KV_SMALL)
    sharded = run_kv(config=_kv_config(shards), **_KV_SMALL)
    assert sharded == serial


def test_kv_validation_errors():
    with pytest.raises(ReproError):
        run_kv(nservers=0)
    with pytest.raises(ReproError):
        run_kv(nservers=2, replication=3)
    with pytest.raises(ReproError):
        run_kv(reqs_per_client=0x10000)
    with pytest.raises(ReproError):
        run_kv(config=ClusterConfig(nranks=3))


def test_kv_seed_values_are_readable_before_any_write():
    # get-only workload: verify=True checks every reply against the
    # legal-value sets, which here are exactly the seed values
    r = run_kv(get_frac=1.1, config=_kv_config(), **_KV_SMALL)
    assert r["stores"] == [{}, {}]
    assert r["lat_put_us"] == []
    assert r["served"] == 16
    assert seed_value(3) == 10.0


# ---------------------------------------------------------------------------
# Pub/sub: golden trace, serial vs sharded
# ---------------------------------------------------------------------------
def test_pubsub_serial_repeat_is_identical():
    a = run_pubsub(config=_ps_config(), **_PS_SMALL)
    b = run_pubsub(config=_ps_config(), **_PS_SMALL)
    assert a == b


def test_pubsub_golden_counts_and_deliveries():
    r = run_pubsub(config=_ps_config(), **_PS_SMALL)
    plan = build_pubsub_workload(7, 2, 3, 2, 4, 2, 8, 5e5, 0.9)
    total = sum(sum(row) for row in plan.deliveries)
    assert r["published"] == 16
    assert r["forwarded"] == total
    assert r["delivered"] == total
    # per-subscriber delivery multisets match the plan's fan-out sets
    want = [[] for _ in range(3)]
    for p in range(2):
        for t in plan.topics[p]:
            for s in plan.subs_of_topic[int(t)]:
                want[s].append((int(t), p))
    for s, got in enumerate(r["sub_deliveries"]):
        assert sorted(got) == sorted(want[s])
    assert all(v > 0.0 for v in r["lat_us"])


@pytest.mark.parametrize("shards", [2])
def test_pubsub_sharded_equals_serial(shards):
    serial = run_pubsub(config=_ps_config(), **_PS_SMALL)
    sharded = run_pubsub(config=_ps_config(shards), **_PS_SMALL)
    assert sharded == serial


def test_pubsub_batch_one_wakes_per_message():
    # batch=1 measures per-message wakeups: same deliveries, every
    # in-measurement latency present, and the tail can only shrink
    r1 = run_pubsub(config=_ps_config(), **{**_PS_SMALL, "batch": 1})
    r2 = run_pubsub(config=_ps_config(), **_PS_SMALL)
    assert r1["delivered"] == r2["delivered"]
    assert sorted(map(sorted, r1["sub_deliveries"])) == \
        sorted(map(sorted, r2["sub_deliveries"]))
    if r1["lat_us"] and r2["lat_us"]:
        assert max(r1["lat_us"]) <= max(r2["lat_us"]) + 1e-9


def test_pubsub_validation_errors():
    with pytest.raises(ReproError):
        run_pubsub(nbrokers=0)
    with pytest.raises(ReproError):
        run_pubsub(nsubs=2, fanout=3)
    with pytest.raises(ReproError):
        run_pubsub(batch=0)
    with pytest.raises(ReproError):
        run_pubsub(config=ClusterConfig(nranks=3))


# ---------------------------------------------------------------------------
# Latencies are event-clock quantities (not observation times)
# ---------------------------------------------------------------------------
def test_kv_latencies_are_float64_virtual_times():
    r = run_kv(config=_kv_config(), **_KV_SMALL)
    assert all(isinstance(v, float) or isinstance(v, np.floating)
               for v in r["lat_put_us"] + r["lat_get_us"])
    assert r["lat_put_us"] == sorted(r["lat_put_us"])
    assert r["lat_get_us"] == sorted(r["lat_get_us"])


# ---------------------------------------------------------------------------
# One program per role: the same services under node deaths
# ---------------------------------------------------------------------------
def _ft_config(nranks=6, death_at=2500.0, detect_us=300.0, shards=0):
    return ClusterConfig(
        nranks=nranks, ranks_per_node=2, shards=shards,
        faults=FaultPlan(node_failures={1: death_at},
                         detect_us=detect_us))


_KV_FT = dict(nservers=3, nclients=3, replication=2, reqs_per_client=8,
              rate_rps=8_000.0, nkeys=16, ckpt_every=2, verify=True,
              seed=5)


def test_run_kv_ft_is_run_kv_with_the_failure_defaults():
    kw = dict(_KV_FT)
    del kw["ckpt_every"], kw["verify"]
    a = run_kv(verify=True, ckpt_every=8, config=_ft_config(), **kw)
    b = run_kv_ft(config=_ft_config(), **kw)
    assert a == b
    assert a["crashed"] == 1 and a["availability"] == 1.0
    assert run_kv_ft is not run_kv      # the harness patches by identity


def test_kv_ft_serial_repeat_is_identical():
    a = run_kv_ft(config=_ft_config(), **_KV_FT)
    b = run_kv_ft(config=_ft_config(), **_KV_FT)
    assert a == b


def test_kv_ft_replication_one_loses_acked_writes():
    """The control row: with a single copy, writes acked only by the
    dying server are lost — the quantity replication eliminates."""
    kw = dict(_KV_FT, replication=1, verify=False, seed=3,
              reqs_per_client=16)
    r1 = run_kv_ft(config=_ft_config(), **kw)
    r2 = run_kv_ft(config=_ft_config(),
                   **dict(kw, replication=2, verify=True))
    assert r1["acked_lost"] > 0
    assert r2["acked_lost"] == 0


def test_kv_ft_buddy_checkpoints_cover_dead_server():
    r = run_kv_ft(config=_ft_config(), **_KV_FT)
    assert r["crashed"] == 1
    assert r["ckpt_epochs"] > 0
    # the dead server's buddy holds a recoverable snapshot as long as
    # the victim applied at least ckpt_every puts before dying
    if any(len(o) >= 2 for o in r["server_orders"][1:2]):
        assert r["ckpt_recoverable"] >= 0


def test_run_kv_validates_the_fault_plan_itself():
    def cfg(**plan):
        return ClusterConfig(nranks=4, ranks_per_node=2,
                             faults=FaultPlan(**plan))
    with pytest.raises(ReproError, match="server ranks"):
        run_kv(nservers=2, nclients=2, config=cfg(node_failures={3: 100.0}))
    with pytest.raises(ReproError, match="survive"):
        run_kv(nservers=2, nclients=2,
               config=cfg(node_failures={0: 100.0, 1: 200.0}))
    with pytest.raises(ReproError, match="node-failure-only"):
        run_kv(nservers=2, nclients=2, config=cfg(drop_prob=0.1))


# -- the lost wakeup, at service level (both deadlocked before) ------------
def test_kv_fault_free_with_buddy_checkpoints_completes():
    """A server's sweep of a later request polls a notification matching
    an earlier one into the UQ; it must not then sleep on an empty NIC."""
    r = run_kv_ft(nservers=2, nclients=2, replication=2, reqs_per_client=8,
                  rate_rps=4e6, nkeys=16, seed=25)
    assert r["completed"] == r["requests"] == 16
    assert r["failed"] == 0 and r["crashed"] == 0


def test_kv_saturated_default_topology_completes():
    r = run_kv(nservers=4, nclients=8, reqs_per_client=192, rate_rps=16e6)
    assert r["completed"] == r["requests"] == 8 * 192
    assert r["live_requests"] == [0] * 12


# -- shard equality at a saturated rate -------------------------------------
_KV_SAT = dict(nservers=4, nclients=4, replication=2, reqs_per_client=16,
               rate_rps=16e6, nkeys=16, verify=True, seed=11)
_PS_SAT = dict(nbrokers=2, npubs=2, nsubs=4, ntopics=4, fanout=2,
               msgs_per_pub=16, rate_rps=8e6, batch=2, seed=11)


def test_kv_saturated_is_identical_across_shard_counts():
    runs = [run_kv(config=ClusterConfig(nranks=8, ranks_per_node=2,
                                        shards=n), **_KV_SAT)
            for n in (1, 2, 4)]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0]["completed"] == 64


def test_pubsub_saturated_is_identical_across_shard_counts():
    runs = [run_pubsub(config=ClusterConfig(nranks=8, ranks_per_node=2,
                                            shards=n), **_PS_SAT)
            for n in (1, 2, 4)]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0]["delivered"] == runs[0]["forwarded"]


# -- persistent requests are freed ------------------------------------------
def test_fault_free_services_free_every_request():
    kv = run_kv(config=_kv_config(), **_KV_SMALL)
    assert kv["live_requests"] == [0] * 4
    kv = run_kv_ft(config=ClusterConfig(nranks=6, ranks_per_node=2),
                   **_KV_FT)
    assert kv["live_requests"] == [0] * 6
    ps = run_pubsub(config=_ps_config(), **_PS_SMALL)
    assert ps["live_requests"] == [0] * 7


def test_survivors_of_a_server_death_free_every_request():
    """Clients cancel and free what they abandoned on the dead server
    (credits that ran out of replicas, gets they retried elsewhere);
    only the crashed server exits holding its five requests."""
    r = run_kv_ft(config=_ft_config(),
                  **dict(_KV_FT, reqs_per_client=32, rate_rps=32_000.0))
    assert r["crashed"] == 1 and r["failovers"] > 0
    retried_gets = [o for order in r["server_orders"] for o in order
                    if o[0] == "get" and o[2] >= 32]    # tag = k*32 + i
    assert retried_gets
    assert r["live_requests"] == [0, 5, 0, 0, 0, 0]


# -- pub/sub under a mirror-broker death -------------------------------------
_PS_MIRROR = dict(_PS_SMALL, nbrokers=3, ntopics=2, rate_rps=8_000.0,
                  replication=2)


def _ps_death_config(death_at):
    return ClusterConfig(
        nranks=8, ranks_per_node=2,
        faults=FaultPlan(node_failures={2: death_at}, detect_us=300.0))


def test_pubsub_ft_mirror_death_keeps_deliveries():
    """Broker 2 (pure mirror under ntopics=2) dies mid-run: every
    delivery still happens and mirrors flow to live brokers — the fault
    plan is all it takes, there is no mode to switch on."""
    base = run_pubsub(config=ClusterConfig(nranks=8, ranks_per_node=2),
                      **_PS_MIRROR)
    faulty = run_pubsub(config=_ps_death_config(400.0), **_PS_MIRROR)
    for r in (base, faulty):
        assert r["delivered"] == r["forwarded"]
        assert r["mirrored"] == r["published"]
    assert base["crashed"] == 0 and base["live_requests"] == [0] * 8
    assert faulty["crashed"] == 1
    assert faulty["mirror_stored"] < base["mirror_stored"]
    assert faulty["live_requests"] == [0, 0, 2, 0, 0, 0, 0, 0]


def test_pubsub_ft_broker_death_inside_matching_pass(monkeypatch):
    """A matching pass takes virtual time; a death instant that falls
    inside one that matched nothing must crash-exit the broker, not arm
    a negative death timer."""
    from repro.core.engine import NotifyEngine

    # find such a pass of broker 2 in a run whose death comes too late
    passes = []
    testany = NotifyEngine.testany

    def spy(self, reqs):
        t0 = self.ctx.now
        idx = yield from testany(self, reqs)
        if self.ctx.rank == 2 and idx is None and self.ctx.now > t0:
            passes.append((t0, self.ctx.now))
        return idx

    with monkeypatch.context() as m:
        m.setattr(NotifyEngine, "testany", spy)
        late = run_pubsub(config=_ps_death_config(1e9), **_PS_MIRROR)
    assert late["crashed"] == 0 and passes
    t0, t1 = passes[len(passes) // 2]
    r = run_pubsub(config=_ps_death_config((t0 + t1) / 2), **_PS_MIRROR)
    assert r["crashed"] == 1
    assert r["delivered"] == r["forwarded"] == late["delivered"]
