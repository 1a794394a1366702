"""Sharded conservative-parallel core: exactness against the serial run.

The contract of :mod:`repro.sim.shard` is *exactness*, not approximation:
for any shard count and node layout, a sharded run must reproduce the
serial run's per-rank results — including the arrival order recorded by
wildcard notification consumers, virtual completion times, and the
aggregate fabric statistics.  These tests pin that contract on the two
motifs the weak-scaling sweep uses (stencil, DHT), a mixed-op program
exercising every fabric verb, and (property test) randomly generated
producer-consumer programs.

One documented caveat (see the :mod:`repro.sim.shard` docstring): two
inter-node ops aimed at the same node and issued at the *bit-identical*
virtual time tie-break differently (serial: global event counter;
sharded: origin rank).  The property test therefore staggers producers
by a per-rank compute skew, the way any real workload decorrelates them
— the random plans still cover heavy same-target incast, wildcards, and
arbitrary shard/node layouts.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.dht import _dht_program, round_shift, run_dht
from repro.apps.stencil import run_stencil
from repro.cluster import ClusterConfig, effective_shards, run_ranks
from repro.errors import FaultError, NetworkError, RaceError, SimulationError
from repro.faults import FaultPlan, TransferFate
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.network.fabric import Fabric
from repro.network.loggp import TransportParams
from repro.network.shardlink import (
    WIRE_ARGS,
    WIRE_FIELDS,
    RankTable,
    ShardPacket,
    ShardRouting,
    encode_bucket,
)
from repro.network.topology import Machine
from repro.sim.engine import events_scheduled
from repro.sim.shard import ShardCluster, ShardedRun, ShardFabric


# ---------------------------------------------------------------------------
# Routing / partition unit tests
# ---------------------------------------------------------------------------
def test_routing_partitions_every_rank_once():
    routing = ShardRouting(Machine(23, ranks_per_node=4), shards=3)
    seen = []
    for s in range(routing.shards):
        block = routing.ranks_of(s)
        assert block == sorted(block)
        for r in block:
            assert routing.shard_of(r) == s
        seen += block
    assert sorted(seen) == list(range(23))


def test_routing_is_node_aligned():
    routing = ShardRouting(Machine(24, ranks_per_node=4), shards=3)
    for node in range(6):
        ranks = range(node * 4, node * 4 + 4)
        shards = {routing.shard_of(r) for r in ranks}
        assert len(shards) == 1, f"node {node} split across {shards}"


def test_routing_lookahead_is_min_transport_latency():
    p = TransportParams()
    routing = ShardRouting(Machine(8, ranks_per_node=2), shards=2)
    assert routing.lookahead(p) == min(p.fma.L, p.bte.L)
    assert routing.lookahead(p) > 0.0


def test_rank_table_rejects_cross_shard_access():
    routing = ShardRouting(Machine(8, ranks_per_node=2), shards=2)
    local = routing.ranks_of(0)
    table = RankTable({r: f"v{r}" for r in local}, 8, "probe")
    assert table[local[0]] == f"v{local[0]}"
    remote = routing.ranks_of(1)[0]
    with pytest.raises(NetworkError):
        table[remote]


# ---------------------------------------------------------------------------
# Gating (effective_shards)
# ---------------------------------------------------------------------------
def test_effective_shards_env_and_explicit(monkeypatch):
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    assert effective_shards(ClusterConfig(nranks=8, ranks_per_node=2)) == 1
    assert effective_shards(
        ClusterConfig(nranks=8, ranks_per_node=2, shards=2)) == 2
    monkeypatch.setenv("REPRO_SHARDS", "4")
    assert effective_shards(ClusterConfig(nranks=8, ranks_per_node=2)) == 4
    # clamped to the node count (shards are node-aligned)
    assert effective_shards(ClusterConfig(nranks=8, ranks_per_node=4)) == 2
    # config wins over the environment
    assert effective_shards(
        ClusterConfig(nranks=8, ranks_per_node=2, shards=2)) == 2


@pytest.mark.parametrize("value", [None, "", "0", "1"])
def test_repro_shards_unset_empty_zero_or_one_is_serial(monkeypatch, value):
    if value is None:
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
    else:
        monkeypatch.setenv("REPRO_SHARDS", value)
    assert effective_shards(ClusterConfig(nranks=8, ranks_per_node=2)) == 1


@pytest.mark.parametrize("value", ["two", "2.0", " ", "4x"])
def test_malformed_repro_shards_raises_naming_it(monkeypatch, value):
    """A typo in the variable fails by name instead of running serial."""
    monkeypatch.setenv("REPRO_SHARDS", value)
    with pytest.raises(SimulationError,
                       match=re.escape(f"REPRO_SHARDS={value!r}")):
        effective_shards(ClusterConfig(nranks=8, ranks_per_node=2))
    # an explicit config count never reads the variable
    assert effective_shards(
        ClusterConfig(nranks=8, ranks_per_node=2, shards=2)) == 2


def test_effective_shards_incompatible_features(monkeypatch):
    """Every fault plan shards; an unreliable wire and the sanitizer do
    not: they raise when sharding is explicit and run serial when the
    count comes from ``REPRO_SHARDS``."""
    lossy = FaultPlan(drop_prob=0.1, dup_prob=0.1, delay_prob=0.1,
                      stall_prob=0.1)
    unreliable = {"params": TransportParams(reliable=False)}
    for env in (None, "2"):
        if env is None:
            monkeypatch.delenv("REPRO_SHARDS", raising=False)
        else:
            monkeypatch.setenv("REPRO_SHARDS", env)
        shards = 2 if env is None else 0
        assert effective_shards(ClusterConfig(
            nranks=4, shards=shards, faults=lossy)) == 2
        for kw, name in ((unreliable, "reliable=False"),
                         ({"sanitize": True}, "sanitize=True")):
            cfg = ClusterConfig(nranks=4, shards=shards, **kw)
            if env is None:
                with pytest.raises(SimulationError, match=name):
                    effective_shards(cfg)
            else:
                assert effective_shards(cfg) == 1


def _racy_puts_program(ctx):
    """Ranks 1 and 2 put to one address on rank 0, nothing ordering
    them: a write-write race."""
    win = yield from ctx.win_allocate(64)
    yield from win.lock_all()
    if ctx.rank:
        yield from win.put(np.full(8, ctx.rank, np.uint8), 0, 0)
        yield from win.flush(0)
    yield from win.unlock_all()
    yield from ctx.barrier()


def test_sanitize_never_silently_runs_sharded(monkeypatch):
    """``sanitize=True`` with an explicit shard count is a named error,
    not a sharded run without the sanitizer; from ``REPRO_SHARDS`` it
    runs serial, so the race is still reported."""
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    cfg = ClusterConfig(nranks=3, sanitize=True, shards=2)
    with pytest.raises(SimulationError, match="sanitize=True"):
        run_ranks(3, _racy_puts_program, config=cfg)
    monkeypatch.setenv("REPRO_SHARDS", "2")
    with pytest.raises(RaceError):
        run_ranks(3, _racy_puts_program, config=ClusterConfig(
            nranks=3, sanitize=True))


# ---------------------------------------------------------------------------
# Motif equivalence matrix
# ---------------------------------------------------------------------------
def _dht_config(shards):
    return ClusterConfig(nranks=12, ranks_per_node=2, shards=shards)


@pytest.mark.parametrize("shards", [2, 3, 6])
def test_dht_matches_serial(shards):
    serial = run_dht(12, rounds=10, verify=True, config=_dht_config(1))
    sharded = run_dht(12, rounds=10, verify=True,
                      config=_dht_config(shards))
    assert sharded == serial


@pytest.mark.parametrize("shards", [2, 4])
def test_stencil_matches_serial(shards):
    def go(n):
        return run_stencil(
            "na", 8, rows=12, cols=32, iters=2, verify=True,
            config=ClusterConfig(nranks=8, ranks_per_node=2, shards=n))
    assert go(shards) == go(1)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1a: 550.10073 us serial, 550.03297 us at two and at "
    "four shards, by two mechanisms: two eager barrier tokens (ranks 13, "
    "14) tie on rank 15's rx link at 135.894265 us, reserved in event "
    "order serially and in (issue time, origin, op id) order by the "
    "sharded core; and, independently, an eager delivery to rank 1 "
    "commits at 140.83496 us, the instant rank 1's own Timeout ends, "
    "dispatched before the Timeout serially and after it at two shards "
    "(docs/architecture.md §11)"))
def test_fence_stencil_matches_serial_at_p32():
    """fig1's OneSided(fence) column at P >= 16, cut to well under a
    second: the one paper table that differs under --shards."""
    def go(n):
        return run_stencil("fence", 32, rows=16, cols=1280,
                           config=ClusterConfig(nranks=32, shards=n))
    assert go(2) == go(1)


def _commit_tie_program(ctx, commit_offset: float, first_wait: float):
    """After a barrier rank 0 put_notifies 8 bytes to rank 1 (returns the
    commit's offset from the barrier exit); rank 1 sleeps ``first_wait``,
    then until the barrier exit plus ``commit_offset``, and returns its
    wake offset and whether the notification is already queued."""
    win = yield from ctx.win_allocate(64)
    yield from ctx.barrier()
    t0 = ctx.now
    if ctx.rank == 0:
        h = yield from ctx.na.put_notify(win, np.zeros(1), 1, 0, tag=1)
        return h.commit_at - t0
    yield ctx.timeout(first_wait)
    yield ctx.timeout(max(0.0, t0 + commit_offset - ctx.now))
    return ctx.now - t0, ctx.nic.notification_pending()


def _commit_tie(shards: int, commit_offset: float = 0.0,
                first_wait: float = 0.3):
    res, _ = run_ranks(2, _commit_tie_program,
                       args=(commit_offset, first_wait),
                       config=ClusterConfig(nranks=2, ranks_per_node=1,
                                            shards=shards))
    return res


def test_commit_tie_reproducer_wakes_at_the_commit():
    """The premise of the xfail below, in both cores: rank 1's second
    timeout ends at the bit-identical instant the inter-node put
    commits."""
    offset = _commit_tie(1)[0]
    for shards in (1, 2):
        commit, (woke, _) = _commit_tie(shards, offset)
        assert commit == woke == offset


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1a: an inter-node commit and a program event at the "
    "identical instant fire in push order; serial pushes the commit at "
    "issue, the sharded core at the next window boundary, so serial "
    "sees the notification (True) and two shards do not (False)"))
def test_commit_tied_with_a_timeout_matches_serial():
    offset = _commit_tie(1)[0]
    assert _commit_tie(2, offset)[1] == _commit_tie(1, offset)[1]


def test_sharded_run_surface_and_stats():
    serial_res, serial_cluster = run_ranks(
        8, _mixed_program, config=ClusterConfig(
            nranks=8, ranks_per_node=2, shards=1))
    sharded_res, run = run_ranks(
        8, _mixed_program, config=ClusterConfig(
            nranks=8, ranks_per_node=2, shards=4))
    assert isinstance(run, ShardedRun)
    assert sharded_res == serial_res
    assert run.time == serial_cluster.time
    # one rule merges the workers' stats, and the shard protocol's own
    # counters live on the run only: the serial dict, key for key, under
    # --sanitize too (the serial run carries no sanitizer key either)
    assert run.stats() == serial_cluster.stats()
    assert run.shards == 4
    assert run.windows > 0 and run.exchanges > 0
    assert len(run.cpu_s) == 4 and all(c >= 0.0 for c in run.cpu_s)
    assert run.critical_path_s >= max(run.cpu_s)
    assert run.critical_path_s > 0.0
    # one node per shard: every inter-node op crosses the link
    assert run.link_packets > 0 and run.link_bytes > 0
    assert run.held_packets == 0
    assert run.gc_collections == [[0, 0, 0]] * 4
    assert run.gc_unreachable == [0] * 4


def _mixed_program(ctx):
    """Every verb the op pipeline carries, plain and notified: put_notify,
    get, fetch_and_op, compare-and-swap, accumulate, accumulate_notify,
    a put and a get of the same remote block, get_notify, MP sendrecv,
    collectives.  Returns what each one read or landed, the notification
    statuses, and the finish time."""
    win = yield from ctx.win_allocate(512, disp_unit=8)
    me, n = ctx.rank, ctx.size
    right, left = (me + 1) % n, (me - 1) % n
    # two ranks away is another node at any ranks_per_node <= 2
    far, near = (me + 2) % n, (me - 2) % n
    yield from win.lock_all()
    req = yield from ctx.na.notify_init(win, source=left, tag=3)
    acc_req = yield from ctx.na.notify_init(win, source=near, tag=4)
    read_req = yield from ctx.na.notify_init(win, source=near, tag=5)
    for r in (req, acc_req, read_req):
        yield from ctx.na.start(r)
    yield from ctx.na.put_notify(win, np.array([me * 1.5]), right, 0, tag=3)
    yield from ctx.na.wait(req)
    # order every rank's get after its target's notification wait: the
    # get below reads LEFT's slot 0, which left's own wait just filled
    yield from ctx.barrier()
    buf = ctx.alloc(16)
    yield from win.get(buf, left, 0, nbytes=8)
    yield from win.flush(left)
    got = buf.ndarray(np.float64)[0].item()
    old = yield from win.fetch_and_op(me + 1, right, 1, op="sum")
    yield from win.flush(right)
    # Every op below crosses nodes.  A per-rank compute skew keeps the
    # flows apart: simultaneous ops into one NIC are the documented
    # boundary of the exactness contract (ties, contended gets).
    yield from ctx.barrier()
    yield from ctx.compute(2.0 * (me + 1))
    yield from win.accumulate(np.array([1.0, float(me)]), far, 8, op="sum")
    yield from ctx.na.accumulate_notify(win, np.array([0.5]), far, 8,
                                        op="sum", tag=4)
    yield from win.flush(far)
    acc_st = yield from ctx.na.wait(acc_req)
    swapped = yield from win.compare_and_swap(77, near + 1, far, 1)
    yield from win.put(np.arange(3, dtype=np.float64) + 10.0 * me, far, 16)
    yield from win.flush(far)
    yield from ctx.barrier()
    yield from ctx.compute(2.0 * (me + 1))
    region = ctx.alloc(3 * 8)
    grid = region.ndarray(np.float64)
    grid[:] = 0.0
    yield from win.get(region, far, 16)
    yield from win.flush(far)
    yield from ctx.na.get_notify(win, buf, far, 8, nbytes=16, tag=5)
    yield from win.flush(far)
    accumulated = buf.ndarray(np.float64).tolist()
    read_st = yield from ctx.na.wait(read_req)
    out = np.full(4096, float(me))
    inc = np.empty(4096)
    yield from ctx.comm.sendrecv(out, right, 7, inc, left, 7)
    yield from win.unlock_all()
    yield from ctx.barrier()
    return (got, old, swapped, accumulated, grid.tolist(),
            (acc_st.source, acc_st.tag), (read_st.source, read_st.tag),
            win.local(np.float64, count=24, mode="r").tolist(),
            float(inc[0]), round(ctx.now, 9))


def test_shard_fabric_is_only_the_link():
    """The op pipeline stays folded: every verb is stated once, on
    ``Fabric`` (``benchmarks/perf/spans.py`` wraps ``vars(Fabric)[name]``),
    and the sanitizer hooks inside it never perturb the schedule."""
    verbs = ("put", "get", "amo", "send_sys")
    assert not [v for v in verbs if v in vars(ShardFabric)]
    assert all(v in vars(Fabric) for v in verbs)

    def events(sanitize):
        before = events_scheduled()
        res, _ = run_ranks(8, _mixed_program, config=ClusterConfig(
            nranks=8, ranks_per_node=2, shards=1, sanitize=sanitize))
        return res, events_scheduled() - before

    assert events(True) == events(False)


# ---------------------------------------------------------------------------
# Property: random producer-consumer programs
# ---------------------------------------------------------------------------
def _pc_program(ctx, sends, jitters):
    """Producers put_notify per plan; consumers drain a wildcard request.

    ``sends`` is the global plan [(src, dst, tag, words), ...]; every
    rank walks it, producing its own sends in plan order and counting
    how many it should receive.  A per-rank compute skew (drawn jitter
    plus a rank-dependent stagger) decorrelates producers so no two
    inter-node ops issue at the bit-identical time — the documented
    boundary of the sharded core's exactness contract.  Returns the
    wildcard arrival order, window contents, and finish time — the full
    observable behaviour.
    """
    me = ctx.rank
    mine = [(i, s) for i, s in enumerate(sends) if s[0] == me]
    expect = sum(1 for s in sends if s[1] == me)
    slots = max(1, sum(1 for s in sends if s[1] == me))
    win = yield from ctx.win_allocate(slots * 64 * 8)
    req = yield from ctx.na.notify_init(win, source=ANY_SOURCE, tag=ANY_TAG)
    yield from ctx.barrier()

    slot_of = {}
    for i, (_, dst, _, _) in enumerate(sends):
        slot_of[i] = sum(1 for s in sends[:i] if s[1] == dst)
    for i, (_, dst, tag, words) in mine:
        skew = jitters[i % len(jitters)] + 0.0137 * (i + 1) \
            + 0.0061 * (me + 1)
        yield from ctx.compute(skew)
        payload = np.full(words, float(me * 1000 + i))
        yield from ctx.na.put_notify(win, payload, dst,
                                     slot_of[i] * 64 * 8, tag=tag)
        yield from win.flush_local(dst)

    seen = []
    for _ in range(expect):
        yield from ctx.na.start(req)
        st_ = yield from ctx.na.wait(req)
        seen.append((st_.source, st_.tag))
    table = win.local(np.float64, count=slots * 64, mode="r").copy()
    yield from ctx.barrier()
    return (seen, table.tolist(), round(ctx.now, 9))


@st.composite
def _pc_plans(draw):
    nranks = draw(st.integers(4, 8))
    ranks_per_node = draw(st.sampled_from([1, 2, 3]))
    shards = draw(st.integers(2, 4))
    nsends = draw(st.integers(1, 14))
    sends = []
    for _ in range(nsends):
        src = draw(st.integers(0, nranks - 1))
        dst = draw(st.integers(0, nranks - 2))
        if dst >= src:
            dst += 1
        tag = draw(st.integers(0, 3))
        words = draw(st.sampled_from([1, 8, 64]))
        sends.append((src, dst, tag, words))
    jitters = draw(st.lists(
        st.sampled_from([0.0, 0.1, 0.35, 0.8]), min_size=1, max_size=4))
    return nranks, ranks_per_node, shards, sends, jitters


@given(_pc_plans())
@settings(max_examples=12, deadline=None)
def test_random_producer_consumer_matches_serial(plan):
    nranks, ranks_per_node, shards, sends, jitters = plan
    def go(n):
        results, _ = run_ranks(
            nranks, _pc_program, args=(sends, jitters),
            config=ClusterConfig(nranks=nranks,
                                 ranks_per_node=ranks_per_node, shards=n))
        return results
    assert go(shards) == go(1)


# ---------------------------------------------------------------------------
# DHT motif sanity
# ---------------------------------------------------------------------------
def test_round_shift_is_bijective_and_never_self():
    for size in (2, 3, 8, 13):
        for r in range(20):
            s = round_shift(r, size)
            assert 1 <= s < size
            targets = {(rank + s) % size for rank in range(size)}
            assert len(targets) == size


def test_dht_verifies_serial():
    out = run_dht(6, rounds=7, verify=True)
    assert out["verified"]
    assert out["inserts"] == 42
    assert out["time_us"] > 0


# ---------------------------------------------------------------------------
# Fault plans under sharding
# ---------------------------------------------------------------------------
def test_effective_shards_admits_node_failure_plans(monkeypatch):
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    cfg = ClusterConfig(nranks=4, ranks_per_node=2, shards=2,
                        faults=FaultPlan(node_failures={1: 10.0},
                                         detect_us=5.0))
    assert effective_shards(cfg) == 2


def _death_put_program(ctx):
    """Fire-and-forget puts around a planned peer death; nobody waits on
    the doomed remote completions, so lost puts only move counters.  The
    dying rank's neighbour also aims one get, one AMO and one sys message
    at it after the death and records how and when each fails — the lost
    branch of all four verbs."""
    win = yield from ctx.win_allocate(64)
    yield from win.lock_all()
    yield from ctx.barrier()
    data = np.full(8, ctx.rank, dtype=np.uint8)
    target = (ctx.rank + 1) % ctx.size
    lost = []
    for i in range(6):
        yield from win.put(data, target, 0)
        yield ctx.timeout(20.0)
        if target == 2 and i == 3:
            buf = ctx.alloc(8)
            try:
                h = yield from win.get(buf, target, 0, nbytes=8)
                yield h.local_done
            except FaultError as exc:
                lost.append((str(exc), round(ctx.now, 9)))
            try:
                yield from win.fetch_and_op(1, target, 0)
            except FaultError as exc:
                lost.append((str(exc), round(ctx.now, 9)))
            try:
                yield ctx.fabric.send_sys(ctx.rank, target, "probe",
                                          16).remote_done
            except FaultError as exc:
                lost.append((str(exc), round(ctx.now, 9)))
    return lost, ctx.now


def _death_run_matches_serial(plan, shards):
    def go(n):
        res, cluster = run_ranks(
            8, _death_put_program,
            config=ClusterConfig(nranks=8, ranks_per_node=2, shards=n,
                                 faults=plan))
        assert isinstance(cluster, ShardedRun) == (n > 1)
        return res, cluster.stats()

    serial_res, serial_stats = go(1)
    shard_res, shard_stats = go(shards)
    assert shard_res == serial_res
    assert [msg.split(":")[0] for msg, _ in serial_res[1][0]] == [
        "get 1->2 abandoned", "amo 1->2 abandoned",
        "sys-probe 1->2 abandoned"]
    assert serial_stats["faults"]["node-down"] > 0
    assert shard_stats == serial_stats
    return serial_stats["faults"]


@pytest.mark.parametrize("shards", [2, 4])
def test_node_death_plan_matches_serial(shards):
    """Sharded runs accept node-failure-only plans and stay byte-identical
    — results AND the merged per-worker fault counters (a plain dict
    merge would keep only the last worker's injector)."""
    _death_run_matches_serial(
        FaultPlan(node_failures={2: 50.0}, detect_us=10.0), shards)


@pytest.mark.parametrize("shards", [2, 3, 4])
def test_node_death_under_a_lossy_plan_matches_serial(shards):
    """The same program with every probabilistic class on as well: each
    op's fate comes from its origin rank's stream, which that rank's
    worker draws in serial order."""
    faults = _death_run_matches_serial(
        FaultPlan(node_failures={2: 50.0}, detect_us=10.0, drop_prob=0.2,
                  dup_prob=0.3, delay_prob=0.3, stall_prob=0.3, seed=9),
        shards)
    for cls in ("drop", "retry-ok", "dup", "dup-suppressed", "delay",
                "stall"):
        assert faults[cls] > 0, cls


# ---------------------------------------------------------------------------
# Handle and error parity at the hand-off
# ---------------------------------------------------------------------------
def _bad_accumulate_program(ctx):
    """An unknown accumulate op must fail in the issuing call, where the
    rank program can catch it — not later, from a fabric callback."""
    win = yield from ctx.win_allocate(64)
    yield from win.lock_all()
    caught = []
    if ctx.rank == 0:
        for payload in (np.ones(2), np.empty(0)):
            try:
                yield from win.accumulate(payload, ctx.size - 1, 0,
                                          op="prod")
            except NetworkError as exc:
                caught.append(str(exc))
    yield from win.unlock_all()
    yield from ctx.barrier()
    return caught


@pytest.mark.parametrize("shards", [1, 2])
def test_unknown_accumulate_op_fails_at_issue(shards):
    res, _ = run_ranks(4, _bad_accumulate_program, config=ClusterConfig(
        nranks=4, ranks_per_node=2, shards=shards))
    assert res[0] == ["unknown accumulate op 'prod'"] * 2
    assert res[1:] == [[]] * 3


def _incast_commit_program(ctx):
    """Two skewed producers on separate nodes overlap at rank 0's NIC."""
    win = yield from ctx.win_allocate(1 << 15)
    yield from win.lock_all()
    yield from ctx.barrier()
    commits = None
    if ctx.rank:
        yield from ctx.compute(0.05 * ctx.rank)
        handles = []
        for i in range(2):
            h = yield from win.put(np.zeros(1024), 0,
                                   8192 * (2 * (ctx.rank - 1) + i))
            handles.append(h)
        yield from win.flush(0)
        commits = [round(h.commit_at, 9) for h in handles]
    yield from win.unlock_all()
    yield from ctx.barrier()
    return commits


def test_put_handle_reports_reserved_commit_after_flush():
    """``OpHandle.commit_at`` of a put is the commit the target NIC
    reserved behind concurrent flows, serial and sharded alike — across a
    shard boundary the ack brings it back (``apps/pingpong.py`` sleeps on
    this field)."""
    def go(shards):
        res, _ = run_ranks(3, _incast_commit_program, config=ClusterConfig(
            nranks=3, ranks_per_node=1, shards=shards))
        return res

    serial = go(1)
    # the second producer queues behind the first: its commits are later
    # than a lone flow's would be
    assert serial[2][0] > serial[1][0] + 0.05 + 1e-6
    assert go(3) == serial


def test_kv_ft_matches_serial_under_faults():
    """The full fault-tolerant KV service — replication failover, buddy
    checkpoints, crash-exiting server — is byte-identical at shards=2."""
    from repro.apps.services import run_kv_ft

    def go(n):
        cfg = ClusterConfig(nranks=6, ranks_per_node=2, shards=n,
                            faults=FaultPlan(node_failures={1: 2000.0},
                                             detect_us=300.0))
        return run_kv_ft(nservers=3, nclients=3, replication=2,
                         reqs_per_client=8, nkeys=16, rate_rps=8000.0,
                         ckpt_every=2, seed=5, config=cfg)

    assert go(2) == go(1)


# ---------------------------------------------------------------------------
# The link: workers route, same-shard packets never leave their worker
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("shards, packets", [(2, 2752), (4, 2880)])
def test_boundary_protocol_counts_are_pinned(shards, packets):
    """Windows, exchanges and the packet total of a 64-rank DHT, as the
    coordinator-routed protocol counted them: moving the routing into the
    workers moved no packet to another boundary.  An ack nobody reads
    still crosses the link but schedules no event, so it sets no window
    edge."""
    _, run = run_ranks(64, _dht_program, args=(8, True, 0.4),
                       config=ClusterConfig(nranks=64, ranks_per_node=4,
                                            shards=shards))
    assert (run.windows, run.exchanges) == (34, 64)
    assert run.link_packets + run.held_packets == packets
    assert run.held_packets > 0
    assert run.link_bytes > run.link_packets


def _neighbour_puts_program(ctx, nputs):
    """Barriers around ``nputs`` puts from rank 0 to rank 1 — the other
    node of the same shard at one rank per node, two nodes per shard."""
    win = yield from ctx.win_allocate(8 * max(nputs, 1))
    yield from win.lock_all()
    yield from ctx.barrier()
    if ctx.rank == 0:
        for i in range(nputs):
            yield from win.put(np.array([i + 0.5]), 1, 8 * i)
        yield from win.flush(1)
    yield from win.unlock_all()
    yield from ctx.barrier()
    return (win.local(np.float64, count=max(nputs, 1), mode="r").tolist(),
            round(ctx.now, 9))


def test_same_shard_traffic_costs_no_link_packets():
    def go(nputs, shards):
        return run_ranks(4, _neighbour_puts_program, args=(nputs,),
                         config=ClusterConfig(nranks=4, ranks_per_node=1,
                                              shards=shards))

    nputs = 7
    (quiet_res, quiet), (busy_res, busy) = go(0, 2), go(nputs, 2)
    assert busy.link_packets == quiet.link_packets > 0
    # each put and its ack
    assert busy.held_packets == quiet.held_packets + 2 * nputs
    assert quiet_res == go(0, 1)[0]
    assert busy_res == go(nputs, 1)[0]
    assert busy_res[1][0] == [i + 0.5 for i in range(nputs)]


def test_inbox_merges_held_bucket_at_its_own_shard_index():
    """Packets that tie on ``(sort_time, origin, op_id)`` keep the order
    the coordinator used to give them: ascending source shard, each
    source in ship order — with what this worker held back standing where
    its own outbox stood."""
    cfg = ClusterConfig(nranks=3, ranks_per_node=1, shards=3)
    routing = ShardRouting(Machine(3, ranks_per_node=1), shards=3)
    fabric = ShardCluster(cfg, routing, 1).fabric

    def tie(mark, sort_time=2.0):
        return ShardPacket("amo-resp", origin=1, target=1, op_id=4,
                           sort_time=sort_time, value=mark)

    seen = []
    fabric._handlers = {"amo-resp": lambda pkt: seen.append(pkt.value)}
    fabric._held = [tie("held-a"), tie("early", sort_time=1.0),
                    tie("held-b")]
    fabric.process_inbox([(0, encode_bucket([tie("s0-a"), tie("s0-b")])),
                          (2, encode_bucket([tie("s2-a"),
                                             tie("late", sort_time=3.0)]))])
    assert seen == ["early", "s0-a", "s0-b", "held-a", "held-b", "s2-a",
                    "late"]
    assert fabric._held == []
    # nothing inbound: the held bucket alone is a batch
    fabric._held = [tie("only")]
    fabric.process_inbox([])
    assert seen[-1] == "only"


def _overwrite_after_put_program(ctx):
    win = yield from ctx.win_allocate(8)
    yield from win.lock_all()
    got = None
    if ctx.rank == 1:
        req = yield from ctx.na.notify_init(win, source=0, tag=1)
        yield from ctx.na.start(req)
    yield from ctx.barrier()
    if ctx.rank == 0:
        buf = np.array([1.25])
        yield from ctx.na.put_notify(win, buf, 1, 0, tag=1)
        buf[0] = -1.0
    elif ctx.rank == 1:
        yield from ctx.na.wait(req)
        got = win.local(np.float64, count=1, mode="r")[0].item()
    yield from win.unlock_all()
    yield from ctx.barrier()
    return got


@pytest.mark.parametrize("shards", [1, 2])
def test_held_put_carries_the_issue_time_snapshot(shards):
    """A same-shard inter-node put waits in its worker as a live packet;
    what it holds is the origin half's private copy, not the user's
    buffer, so overwriting the buffer right after the call changes
    nothing — serial and sharded alike."""
    res, _ = run_ranks(4, _overwrite_after_put_program, config=ClusterConfig(
        nranks=4, ranks_per_node=1, shards=shards))
    assert res == [None, 1.25, None, None]


#: one packet per ptype with every field that type carries set to a
#: value its default cannot be mistaken for
_WIRE_SAMPLES = {
    "put": dict(origin=3, target=9, nbytes=16, t_commit=4.5, G=2e-4, L=1.1,
                target_addr=4096, data=np.arange(16, dtype=np.uint8),
                immediate=7, win_id=2, accumulate="sum",
                acc_dtype=np.float64,
                fate=TransferFate(retries=1, retry_delay=10.0)),
    "sys": dict(origin=3, target=9, nbytes=0, t_commit=4.5, G=2e-4, L=1.1,
                sys_ptype="eager", payload={"tag": 5, "ctx": 1},
                data=np.empty(0, dtype=np.uint8),
                fate=TransferFate(duplicate=True, dup_lag=1.0)),
    "get": dict(origin=3, target=9, nbytes=16, t_exec=4.5, hop=0.25,
                target_addr=4096, immediate=7, win_id=2,
                fate=TransferFate(jitter=0.5, stall=2.0)),
    "amo": dict(origin=3, target=9, nbytes=8, t_exec=4.5, target_addr=4096,
                amo_op="sum", operand=5, compare=None, acc_dtype=np.int64,
                immediate=7, win_id=2, fate=TransferFate(jitter=0.25)),
    "ack": dict(origin=9, target=3, t_commit=4.5, t_exec=5.5),
    "get-resp": dict(origin=9, target=3, t_commit=4.5, G=2e-4,
                     data=np.arange(16, dtype=np.uint8)),
    "amo-resp": dict(origin=9, target=3, value=-12),
    "win-reg": dict(origin=3, target=-1, shard=1,
                    payload={"call_idx": 0, "header": 64, "base": 128,
                             "size": 512, "disp_unit": 8}),
}


def test_wire_tables_cover_every_ptype_and_exactly_the_hand_off():
    header = ("ptype", "op_id", "sort_time")
    for verb, names in WIRE_ARGS.items():
        assert WIRE_FIELDS[verb] == header + names
    handlers = ShardCluster(
        ClusterConfig(nranks=2, ranks_per_node=1, shards=2),
        ShardRouting(Machine(2, ranks_per_node=1), shards=2),
        0).fabric._handlers
    assert set(WIRE_FIELDS) == set(handlers) == set(_WIRE_SAMPLES)
    for ptype, sample in _WIRE_SAMPLES.items():
        assert header + tuple(sample) == WIRE_FIELDS[ptype]


@pytest.mark.parametrize("ptype", list(_WIRE_SAMPLES))
def test_packet_pickles_field_for_field(ptype):
    pkt = ShardPacket(ptype, op_id=11, sort_time=3.75,
                      **_WIRE_SAMPLES[ptype])
    back, = pickle.loads(pickle.dumps(("deliver", [pkt])))[1]
    for name in ShardPacket.__slots__:
        sent, got = getattr(pkt, name), getattr(back, name)
        if name == "data" and sent is not None:
            assert got.dtype == np.uint8 and got.tolist() == sent.tolist()
        else:
            assert type(got) is type(sent) and got == sent, name


# ---------------------------------------------------------------------------
# Failures surface promptly, as named errors, and leave no worker behind
# ---------------------------------------------------------------------------
def _failing_program(ctx, mode, bad):
    yield from ctx.barrier()
    yield ctx.timeout(5.0)
    if ctx.rank == bad:
        if mode == "raise":
            raise ValueError("rank program bug")
        if mode == "exit":
            os._exit(7)
        yield ctx.fabric.send_sys(ctx.rank, (ctx.rank + 2) % ctx.size,
                                  "ctrl-probe", 16,
                                  payload={"hook": lambda: 0}).remote_done
    yield from ctx.barrier()


@pytest.mark.parametrize("bad", [0, 3])
@pytest.mark.parametrize("mode, message", [
    ("raise", "worker failed"), ("exit", "worker died"),
    ("payload", "worker failed")])
def test_worker_failure_surfaces_promptly_and_reaps_survivors(
        mode, message, bad):
    """The surviving worker exits on the coordinator's EOF instead of
    sitting out the join timeout (every worker drops the pipe ends it
    inherited from the fork)."""
    t0 = time.perf_counter()
    with pytest.raises(SimulationError,
                       match=f"shard {bad // 2} {message}"):
        run_ranks(4, _failing_program, args=(mode, bad),
                  config=ClusterConfig(nranks=4, ranks_per_node=2,
                                       shards=2))
    assert time.perf_counter() - t0 < 2.0
    assert multiprocessing.active_children() == []


def _hook_payload_program(ctx, peer_of_zero):
    """Rank 0 sends a sys message whose payload holds a lambda."""
    yield from ctx.barrier()
    if ctx.rank == 0:
        yield ctx.fabric.send_sys(0, peer_of_zero, "ctrl-probe", 16,
                                  payload={"hook": lambda: 0}).remote_done
    yield from ctx.barrier()
    return (dict(ctx.endpoint.ctrl_counts), round(ctx.now, 9))


def test_unserialisable_payload_names_the_op_only_when_it_must_cross():
    def go(peer, shards):
        return run_ranks(4, _hook_payload_program, args=(peer,),
                         config=ClusterConfig(nranks=4, ranks_per_node=1,
                                              shards=shards))[0]

    # rank 2 lives in the other shard: the error names shard, verb,
    # origin -> target and op id, not a bare pipe traceback
    with pytest.raises(SimulationError, match=r"shard 0: cannot serialise "
                       r"sys 0 -> 2 \(op \d+\) for another shard"):
        go(2, 2)
    # rank 1 is another node of the same shard: never serialised, exactly
    # as in a serial run
    assert go(1, 2) == go(1, 1)
    assert go(1, 1)[1][0] == {("ctrl-probe", 0): 1}
